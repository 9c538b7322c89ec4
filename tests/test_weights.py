"""Weight recipes, validation, growth certificates, restriction/quotient."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfw import (
    SemidirectLabel,
    Su2Dual,
    Su2Spin,
    TorusChar,
    TorusDual,
    format_label,
    make_weight,
    quotient_weight,
    restrict_weight,
)
from bfw import duals
from bfw.duals import parse_group
from bfw.errors import FamilyMismatchError, LabelCapError, WeightOverflowError, WeightSpecError
from bfw.labels import parse_label
from walk_oracle import step
from weight_log_oracle import oracle_log_value
from conftest import cli_child, random_field
from bfw.calculus import exp_itu_auto, growth_curve
from bfw.fields import character_field, factorize
from bfw.spectrum import spectrum_bounds
from bfw.weights import (
    Weight,
    classify_growth,
    growth_rate,
    validate,
    weight_from_json,
    weight_to_json,
)

RECIPES = ["const:1", "const:1.5", "dim", "poly:alpha=1", "poly:alpha=0.5",
           "exp:lambda=2", "prod(poly:alpha=1,dim)", "pow(dim,2)"]


def test_recipe_values(su2, sd, t1):
    w = make_weight(su2, "poly:alpha=1")
    for n in range(6):
        assert w(Su2Spin(n)) == 1.0 + n
    w = make_weight(sd, "dim")
    assert w(SemidirectLabel("pi", 3)) == 2.0
    assert w(SemidirectLabel("triv")) == 1.0
    assert w(SemidirectLabel("sgn")) == 1.0
    w = make_weight(su2, "exp:lambda=2")
    for n in range(8):
        assert w(Su2Spin(n)) == 2.0**n
    w = make_weight(t1, "exp:lambda=2")
    assert w(TorusChar((-3,))) == 8.0
    w = make_weight(su2, "prod(poly:alpha=1,dim)")
    assert w(Su2Spin(2)) == 3.0 * 3.0
    w = make_weight(su2, "pow(dim,2)")
    assert w(Su2Spin(2)) == 9.0


def test_exp_weight_matches_operator_norm(su2):
    # lambda^n equals the operator norm of the irrep at diag(lambda, 1/lambda)
    from bfw.duals import su2_irrep

    lam = 2.0
    w = make_weight(su2, "exp:lambda=2")
    D = np.diag([lam, 1.0 / lam]).astype(complex)
    for n in range(6):
        assert abs(w(Su2Spin(n)) - np.linalg.norm(su2_irrep(n, D), 2)) < 1e-12


def test_recipe_errors(su2):
    for bad in ["const:0.5", "poly:alpha=0", "poly:alpha=-1", "exp:lambda=0.5",
                "pow(dim,0.5)", "nonsense", "poly:beta=1"]:
        with pytest.raises(WeightSpecError):
            make_weight(su2, bad)


def test_json_form(su2):
    w1 = weight_from_json(su2, {"kind": "poly", "alpha": 1.0})
    w2 = make_weight(su2, "poly:alpha=1")
    for n in range(5):
        assert w1(Su2Spin(n)) == w2(Su2Spin(n))
    wt = weight_from_json(su2, {"kind": "table", "entries": {"pi:2": 0.25}})
    assert wt(Su2Spin(2)) == 0.25
    assert wt(Su2Spin(1)) == 1.0


def test_torus_exp_vector(t2):
    w = make_weight(t2, "exp:lambda=2,3")
    assert w(TorusChar((2, -1))) == 4.0 * 3.0
    with pytest.raises(WeightSpecError):
        make_weight(t2, "exp:lambda=2,3,4")


@pytest.mark.parametrize("spec", RECIPES)
def test_builtins_validate_depth_12(su2, sd, t1, spec):
    for dual in (su2, sd, t1):
        rep = validate(dual, make_weight(dual, spec), depth=12)
        assert rep.passed, (dual.family, spec, rep.max_violation, rep.witness)
        assert rep.infimum >= 1.0 - 1e-12


def test_validate_fail_witness(su2):
    w = Weight(su2, lambda a: 1.0 / (1.0 + a.n), "inverse-dim-like", symmetric=True)
    rep = validate(su2, w, depth=12)
    assert not rep.passed
    # the specific triple sigma=pi2 from pi1 (x) pi1 violates: 1/3 > 1/4
    assert w(Su2Spin(2)) > w(Su2Spin(1)) ** 2
    # worst witness at depth 12: the trivial rep inside pi12 (x) pi12,
    # with excess 13^2 - 1
    assert rep.witness == ("pi:0", "pi:12", "pi:12")
    assert abs(rep.max_violation - 168.0) < 1e-9


def test_symmetry_residual_checked(t1):
    w = Weight(t1, lambda a: 2.0 if a.mu[0] > 0 else 1.0, "one-sided", symmetric=True)
    rep = validate(t1, w, depth=4)
    assert rep.symmetry_residual > 0.1
    assert not rep.passed


def test_growth_exp_constant(sd):
    w = make_weight(sd, "exp:lambda=2")
    cert = growth_rate(sd, w, SemidirectLabel("pi", 1), 64)
    assert all(abs(r - 2.0) < 1e-12 for _, r in cert.seq)
    assert abs(cert.rho_hat - 2.0) < 1e-12
    assert cert.tag == "exponential-witness"


def test_growth_const(su2):
    w = make_weight(su2, "const:1")
    cert = growth_rate(su2, w, Su2Spin(1), 32)
    assert cert.rho_hat == 1.0


def test_growth_poly_64(su2):
    w = make_weight(su2, "poly:alpha=1")
    cert = growth_rate(su2, w, Su2Spin(1), 64)
    assert abs(cert.rho_hat - 65.0 ** (1.0 / 64.0)) < 1e-12
    assert abs(cert.rho_hat - 1.0674) < 1e-3


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(RECIPES), st.integers(16, 48))
def test_running_infimum_nonincreasing(spec, n_max):
    su2 = Su2Dual()
    cert = growth_rate(su2, make_weight(su2, spec), Su2Spin(1), n_max)
    run = math.inf
    prev = math.inf
    for _, root in cert.seq:
        run = min(run, root)
        assert run <= prev + 1e-15
        prev = run


def test_poly_growth_limit_512(su2):
    cert = growth_rate(su2, make_weight(su2, "poly:alpha=1"), Su2Spin(1), 512)
    assert 1.0 < cert.rho_hat <= 1.02


def test_growth_closed_forms_at_two_to_the_16():
    # the top label of the n-th power has word length n on each probe, so the
    # windowed slope of (1 + word length)^2 is ((1 + n)/(1 + n/2))^(2/(n/2)),
    # and that of 2^(word length) is 2
    n = 1 << 16
    start = time.perf_counter()
    for group, probe in [("su2", "pi:1"), ("so3", "pi:2"), ("txz2", "pi:1")]:
        dual = parse_group(group)
        a = parse_label(dual, probe)
        cert = growth_rate(dual, make_weight(dual, "poly:alpha=2"), a, n)
        assert abs(cert.rho_slope - ((1 + n) / (1 + n / 2)) ** (2 / (n / 2))) < 1e-12
        assert abs(growth_rate(dual, make_weight(dual, "exp:lambda=2"), a, n).rho_slope - 2.0) < 1e-12
    assert time.perf_counter() - start < 1.0


# the weight at step k tops out at (1 + a k)^b: word length c + k of pi_c x t_k
# is at most 2k, and the dimension of (pi_c x t_k) x pi_d at most (1 + k)^2
@pytest.mark.parametrize("group,weight,label,n,a,b", [
    ("prod(su2,torus:1)", "poly:alpha=1", "pi:1×t:(1)", 2048, 2, 1),
    ("prod(prod(su2,torus:1),su2)", "dim", "(pi:1×t:(1))×pi:1", 384, 1, 2),
])
def test_translation_product_growth_stays_small(tmp_path, group, weight, label, n, a, b):
    # a translating factor puts every step's support in the table: a million
    # labels by n = 2048 on the first, five million by n = 384 on the second,
    # evaluated in blocks of steps.  A child process reports its own peak RSS
    out = cli_child(["growth", "--group", group, "--weight", weight, "--label", label, "--num", str(n)], tmp_path)
    assert out.returncode == 0, out.stderr
    *report, rss_mb = out.stdout.splitlines()
    assert float(rss_mb) < 80, rss_mb
    got = json.loads("\n".join(report))["result"]["rho_slope"]
    assert abs(got - ((1 + a * n) / (1 + a * n / 2)) ** (b / (n / 2))) < 1e-12


def test_classify(su2, sd):
    # the windowed slope needs its default depth to resolve polynomial decay
    assert classify_growth(su2, make_weight(su2, "poly:alpha=1")).kind == \
        "nonexponential-evidence"
    assert classify_growth(su2, make_weight(su2, "dim")).kind == \
        "nonexponential-evidence"
    cls = classify_growth(sd, make_weight(sd, "exp:lambda=2"), n_max=64)
    assert cls.kind == "exponential-witness"
    assert cls.witness == SemidirectLabel("pi", 1)
    assert abs(cls.rho - 2.0) < 1e-12


def test_restrict_weight(su2):
    w = restrict_weight(make_weight(su2, "poly:alpha=1"))
    for k in (-3, 0, 2):
        assert w(TorusChar((k,))) == 1.0 + abs(k)
    assert w.warnings == ()
    wd = restrict_weight(make_weight(su2, "dim"))
    for k in (-2, 0, 5):
        assert wd(TorusChar((k,))) == abs(k) + 1.0
    assert wd(TorusChar((0,))) == 1.0
    # symmetric on the torus dual
    assert w(TorusChar((4,))) == w(TorusChar((-4,)))
    rep = validate(w.dual, w, depth=10)
    assert rep.passed


def test_restrict_weight_inexact_warning(su2):
    w0 = Weight(su2, lambda a: 1.0 + a.n + (a.n % 2), "wobble", symmetric=True)
    w = restrict_weight(w0, cap=64)
    assert w.warnings and "inexact" in w.warnings[0]


def test_const_recipes_restrict_exactly(su2):
    # const is nondecreasing in the spin: the infimum is the value at the smallest spin
    for spec in ("const:2", "prod(const:2,dim)"):
        w = make_weight(su2, spec)
        r = restrict_weight(w)
        assert w.su2_monotone and r.warnings == ()
        for k in (-5, -2, 0, 1, 6):
            assert r(TorusChar((k,))) == min(w(Su2Spin(n)) for n in range(abs(k), 513, 2))


def test_quotient_weight(su2, so3):
    wq = quotient_weight(make_weight(su2, "dim"))
    for m in range(4):
        assert wq(Su2Spin(2 * m)) == 2 * m + 1
    wp = quotient_weight(make_weight(su2, "poly:alpha=1"))
    for m in range(4):
        assert wp(Su2Spin(2 * m)) == 1 + 2 * m
    assert wq(Su2Spin(0)) == 1.0
    assert wq.dual == so3
    rep = validate(so3, wq, depth=8)
    assert rep.passed


def test_product_and_power_validate(su2):
    w = make_weight(su2, "prod(exp:lambda=2,poly:alpha=1)")
    assert validate(su2, w, depth=10).passed
    w2 = make_weight(su2, "pow(exp:lambda=2,3)")
    assert validate(su2, w2, depth=10).passed


def test_log_values_match(su2, t1):
    for dual, spec in [(su2, "exp:lambda=2"), (su2, "poly:alpha=1.5"),
                       (t1, "exp:lambda=2"), (su2, "prod(dim,exp:lambda=2)")]:
        w = make_weight(dual, spec)
        for a in dual.ball(6):
            assert abs(w.log_value(a) - math.log(w(a))) < 1e-12


def test_weight_json_round_trip(su2):
    from bfw.weights import weight_to_json

    for spec in ("dim", "poly:alpha=1.5", "exp:lambda=2", "prod(poly:alpha=1,dim)",
                 "pow(dim,2)"):
        w = make_weight(su2, spec)
        w2 = make_weight(su2, weight_to_json(w))
        for a in su2.ball(5):
            assert w(a) == w2(a)


@pytest.mark.parametrize("group", ["su2", "torus:2", "prod(txz2,so3)"])
def test_weight_json_round_trip_is_exact(group):
    # parameters of 17 significant digits, which the six-digit descriptor drops
    dual = parse_group(group)
    labels = dual.ball(6)
    poly = {"kind": "poly", "alpha": 1.2345678901234567}
    recipes = [
        "poly:alpha=1.2345678", "exp:lambda=2.6731234567", poly,
        {"kind": "pow", "base": {"kind": "prod", "factors": [poly, "dim"]}, "alpha": 1.0000000000000002},
        {"kind": "table", "base": poly, "entries": {format_label(labels[1]): 0.30000000000000004}},
    ]
    coords = np.array([dual.coords(a) for a in labels], dtype=np.int64)
    for spec in recipes:
        w = make_weight(dual, spec)
        doc = weight_to_json(w)
        w2 = make_weight(dual, json.loads(json.dumps(doc)))
        assert [w2(a) for a in labels] == [w(a) for a in labels]
        assert w2.log_values(coords).tobytes() == w.log_values(coords).tobytes()
        doc["kind"] = "mutated"  # a copy: the weight keeps its recipe
        assert weight_to_json(w)["kind"] != "mutated"
    built = [Weight(dual, lambda a: 2.0, "user")]
    if group == "su2":
        built += [restrict_weight(make_weight(dual, "dim")), quotient_weight(make_weight(dual, "dim"))]
    for w in built:  # no recipe to return
        with pytest.raises(WeightSpecError):
            weight_to_json(w)


def test_weight_overflow_is_typed(su2, t2):
    with pytest.raises(WeightOverflowError):
        make_weight(su2, "exp:lambda=1e308")(Su2Spin(3))  # float ** raises OverflowError
    with pytest.raises(WeightOverflowError):
        make_weight(su2, "prod(exp:lambda=1e200,exp:lambda=1e200)")(Su2Spin(1))  # inf
    with pytest.raises(WeightOverflowError):
        make_weight(t2, "exp:lambda=1e200")(TorusChar((1, 1)))
    assert make_weight(su2, "exp:lambda=1e200")(Su2Spin(1)) == 1e200


@pytest.mark.parametrize("group,spec", [
    ("su2", "const:nan"), ("su2", "const:inf"), ("su2", "poly:alpha=nan"),
    ("su2", "poly:alpha=inf"), ("su2", "exp:lambda=nan"), ("su2", "exp:lambda=inf"),
    ("torus:2", "exp:lambda=2,nan"), ("su2", "pow(dim,nan)"), ("su2", "pow(dim,inf)"),
    ("su2", "prod(dim,exp:lambda=nan)"),
    ("su2", {"kind": "table", "entries": {"pi:1": float("inf")}}),
    ("su2", {"kind": "table", "entries": {"pi:1": float("nan")}}),
])
def test_non_finite_recipe_parameter_rejected(group, spec):
    with pytest.raises(WeightSpecError, match="finite"):
        make_weight(parse_group(group), spec)


# --- growth scans on lattice masks against the frozenset oracle -----------------

def _log_of_support(log_of, labels):
    """log w of a reducible object: the max over its irreducible support."""
    return max(log_of(a) for a in labels)


def _oracle_log_values(dual, log_of, S, n_max, cap):
    """log w of the tensor powers of S, stepping frozensets through walk_oracle.step
    and reading log w label by label through log_of."""
    vals = []
    supp = frozenset(S)
    for _ in range(n_max):
        vals.append(_log_of_support(log_of, supp))
        if len(supp) > cap:
            raise LabelCapError(cap, len(supp))
        supp = step(dual, supp, S)
    return vals


# (group, probe, steps): every family, zero characters, and products with
# mixed periods, translations and nesting
GROWTH_PROBES = [
    ("su2", "pi:1", 130), ("su2", "pi:2", 130), ("su2", "pi:3", 130),
    ("so3", "pi:2", 130), ("so3", "pi:4", 130),
    ("torus:1", "t:(-1)", 130), ("torus:2", "t:(1,-2)", 130), ("torus:2", "t:(0,0)", 20),
    ("torus:3", "t:(2,-1,1)", 130),
    ("txz2", "pi:1", 130), ("txz2", "pi:2", 130), ("txz2", "sgn", 20), ("txz2", "triv", 20),
    ("prod(su2,torus:1)", "pi:1×t:(0)", 130), ("prod(su2,torus:1)", "pi:1×t:(-1)", 70),
    ("prod(su2,torus:1)", "pi:0×t:(1)", 130),
    ("prod(txz2,su2)", "pi:1×pi:1", 40), ("prod(so3,torus:2)", "pi:2×t:(1,-1)", 70),
    ("su2", "pi:0", 20), ("so3", "pi:6", 70), ("torus:1", "t:(0)", 20), ("torus:3", "t:(0,0,0)", 20),
    ("prod(su2,su2)", "pi:1×pi:2", 40), ("prod(txz2,txz2)", "pi:1×sgn", 130),
    ("prod(prod(su2,txz2),torus:1)", "(pi:1×pi:2)×t:(1)", 40),
    ("prod(torus:1,su2)", "t:(-1)×pi:1", 40), ("prod(su2,prod(torus:1,su2))", "pi:1×(t:(1)×pi:2)", 20),
]


def _recipes(dual):
    lam = ["2", "1.5", "3"][: dual.n] if isinstance(dual, TorusDual) else ["2"]  # per axis
    table = {"kind": "table", "base": {"kind": "dim"},
             "entries": {format_label(dual.trivial): 3.0, format_label(dual.ball(2)[1]): 0.5}}
    return ["dim", "poly:alpha=1.5", "exp:lambda=" + ",".join(lam), "prod(poly:alpha=1,dim)",
            "pow(dim,2)", table]


@pytest.mark.parametrize("group,probe,n", GROWTH_PROBES)
def test_power_log_values_equal_support_step_oracle(group, probe, n):
    dual = parse_group(group)
    a = parse_label(dual, probe)
    for spec in _recipes(dual):
        w = make_weight(dual, spec)
        got = dual.power_maxima(a, n, w.log_values, 200_000)
        want = _oracle_log_values(dual, lambda b: oracle_log_value(dual, spec, b), (a,), n, 200_000)
        assert got == want, (spec, [k for k, (x, y) in enumerate(zip(got, want)) if x != y][:5])


def _recording(dual, w, calls):
    """w.log_values, appending the coordinate rows of every call to calls."""
    def log_values(c):
        assert c.dtype == np.int64 and c.shape == (len(c), dual.lattice_rank)
        calls.append([tuple(p) for p in c.tolist()])
        return w.log_values(c)
    return log_values


def _first_reached(dual, S, n):
    """coords -> the first of the k-fold tensor powers of S (k = 1..n) holding the label."""
    first, supp = {}, frozenset(S)
    for k in range(1, n + 1):
        for a in supp:
            first.setdefault(tuple(dual.coords(a)), k)
        supp = step(dual, supp, S)
    return first


def test_log_value_once_per_label_reached(su2, t1):
    for dual, probe, n, reached in [
        (su2, Su2Spin(1), 300, [(1,), (0,)] + [(k,) for k in range(2, 301)]),
        (t1, TorusChar((-1,)), 50, [(-k,) for k in range(1, 51)]),
        (t1, TorusChar((0,)), 50, [(0,)]),
    ]:
        calls = []
        w = make_weight(dual, "poly:alpha=1")
        dual.power_maxima(probe, n, _recording(dual, w, calls), 10**6)
        assert [c for call in calls for c in call] == reached


@pytest.mark.parametrize("group,probe,n", GROWTH_PROBES)
def test_labels_evaluated_once_in_first_reached_order(group, probe, n):
    # every label the supports reach is evaluated exactly once, in the order
    # of the step that first reaches it
    dual = parse_group(group)
    a = parse_label(dual, probe)
    calls = []
    w = make_weight(dual, "poly:alpha=1")
    dual.power_maxima(a, n, _recording(dual, w, calls), 10**6)
    seen = [c for call in calls for c in call]
    first = _first_reached(dual, (a,), n)
    assert sorted(seen) == sorted(first)
    steps = [first[c] for c in seen]
    assert steps == sorted(steps)


def test_evaluator_calls_per_scan(monkeypatch, su2, t2):
    # one evaluator call per certificate, on exactly the labels the powers reach:
    # k mu for k = 1..n on the torus, every spin 0..n on SU(2)
    def scalar(*_):
        raise AssertionError("Weight.log_value called in a growth scan")

    monkeypatch.setattr(Weight, "log_value", scalar)
    log_values = Weight.log_values
    for dual, probe, n, reached in [
        (t2, TorusChar((1, -1)), 4096, {(k, -k) for k in range(1, 4097)}),
        (su2, Su2Spin(1), 768, {(k,) for k in range(769)}),
    ]:
        w = make_weight(dual, "poly:alpha=1")
        calls = []

        def recorded(self, c):
            calls.append([tuple(p) for p in c.tolist()])
            return log_values(self, c)

        monkeypatch.setattr(Weight, "log_values", recorded)
        cert = growth_rate(dual, w, probe, n)
        monkeypatch.setattr(Weight, "log_values", log_values)
        assert len(calls) == 1
        assert len(calls[0]) == len(reached) and set(calls[0]) == reached
        assert cert.seq[-1][0] == n


@pytest.mark.parametrize("group,probe,cap", [
    ("su2", "pi:1", 5), ("su2", "pi:2", 0), ("torus:1", "t:(1)", 0),
    ("txz2", "pi:2", 3), ("prod(su2,su2)", "pi:1×pi:1", 30), ("prod(su2,torus:1)", "pi:1×t:(1)", 4),
    ("su2", "pi:0", 0), ("so3", "pi:6", 40), ("torus:1", "t:(0)", 0), ("txz2", "sgn", 0),
    ("prod(su2,su2)", "pi:1×pi:2", 40), ("prod(txz2,txz2)", "pi:1×sgn", 3),
    ("prod(prod(su2,txz2),torus:1)", "(pi:1×pi:2)×t:(1)", 20), ("su2", "pi:10000", 5),
])
def test_label_cap_matches_oracle(group, probe, cap):
    dual = parse_group(group)
    a = parse_label(dual, probe)
    calls, labels = [], []
    w = make_weight(dual, "dim")
    with pytest.raises(LabelCapError) as got:
        dual.power_maxima(a, 100, _recording(dual, w, calls), cap)
    evaluated = [dual.label_at(c) for call in calls for c in call]
    assert len(evaluated) == len(set(evaluated))

    def log_of(b):
        labels.append(b)
        return oracle_log_value(dual, "dim", b)

    with pytest.raises(LabelCapError) as want:
        _oracle_log_values(dual, log_of, (a,), 100, cap)
    assert (got.value.cap, got.value.size) == (want.value.cap, want.value.size)
    assert sorted(evaluated, key=format_label) == sorted(set(labels), key=format_label)


# translating products, on the left, on the right and nested on either side
BLOCK_PROBES = [
    ("prod(su2,torus:1)", "pi:1×t:(-1)", 70, 4), ("prod(so3,torus:2)", "pi:2×t:(1,-1)", 70, 40),
    ("prod(prod(su2,txz2),torus:1)", "(pi:1×pi:2)×t:(1)", 40, 20), ("prod(torus:1,su2)", "t:(-1)×pi:1", 40, 6),
    ("prod(su2,prod(torus:1,su2))", "pi:1×(t:(1)×pi:2)", 20, 30),
    ("prod(prod(su2,torus:1),su2)", "(pi:1×t:(1))×pi:1", 20, 30),
]


@pytest.mark.parametrize("group,probe,n,cap", BLOCK_PROBES)
def test_translation_blocks_match_oracle(monkeypatch, group, probe, n, cap):
    # with blocks of a few rows, a translating table takes many evaluator
    # calls, on the rows one call takes, in order; maxima and cap errors hold
    dual = parse_group(group)
    a = parse_label(dual, probe)
    w = make_weight(dual, "poly:alpha=1.5")
    whole = []
    dual.power_maxima(a, n, _recording(dual, w, whole), 10**6)
    monkeypatch.setattr(duals, "_BLOCK_ROWS", 7)
    calls = []
    got = dual.power_maxima(a, n, _recording(dual, w, calls), 10**6)
    assert len(whole) == 1 and len(calls) > n // 4 and sum(calls, []) == whole[0]
    assert got == _oracle_log_values(dual, lambda b: oracle_log_value(dual, "poly:alpha=1.5", b), (a,), n, 10**6)
    calls = []
    with pytest.raises(LabelCapError) as got:
        dual.power_maxima(a, 100, _recording(dual, w, calls), cap)
    with pytest.raises(LabelCapError) as want:
        _oracle_log_values(dual, lambda b: 0.0, (a,), 100, cap)
    assert (got.value.cap, got.value.size) == (want.value.cap, want.value.size)
    assert len(calls) > 1 and sum(calls, []) == whole[0][: len(sum(calls, []))]


def test_growth_foreign_generator(su2, t1):
    w = make_weight(su2, "const:1")
    with pytest.raises(FamilyMismatchError):
        growth_rate(su2, w, TorusChar((1,)), 8)


# --- certificates against the per-root loop ------------------------------------

def _loop_certificate(dual, w, label, n_max):
    """The certificate with one guarded math.exp call per root, in scan order."""
    from bfw.weights import EPS_CLASS, LABEL_CAP, GrowthCertificate

    logs = dual.power_maxima(label, n_max, w.log_values, LABEL_CAP)

    def exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            raise WeightOverflowError(
                f"growth rate of weight {w.descriptor} along {format_label(label)} overflows"
            ) from None

    seq = []
    rho_hat = math.inf
    for n, lv in enumerate(logs, start=1):
        root = exp(lv / n)
        rho_hat = min(rho_hat, root)
        seq.append((n, root))
    half = max(1, n_max // 2)
    if n_max > 1:
        rho_slope = exp((logs[n_max - 1] - logs[half - 1]) / (n_max - half))
    else:
        rho_slope = seq[0][1]
    tag = "nonexponential-evidence" if rho_slope <= 1.0 + EPS_CLASS else "exponential-witness"
    return GrowthCertificate(label, tuple(seq), rho_hat, rho_slope, tag, n_max)


@pytest.mark.parametrize("group,probe", [
    ("su2", "pi:1"), ("so3", "pi:2"), ("txz2", "pi:1"), ("txz2", "sgn"), ("torus:1", "t:(1)"),
    ("torus:2", "t:(1,-2)"), ("prod(su2,torus:1)", "pi:1×t:(1)"),
])
@pytest.mark.parametrize("n_max", [1, 2, 7, 64])
def test_certificate_equals_per_root_loop(group, probe, n_max):
    dual = parse_group(group)
    label = parse_label(dual, probe)
    for spec in RECIPES + ["exp:lambda=2.6731234567", "poly:alpha=1.2345678"]:
        w = make_weight(dual, spec)
        # repr shows every bit of each float, and the sign of zero
        assert repr(growth_rate(dual, w, label, n_max)) == repr(_loop_certificate(dual, w, label, n_max))


@pytest.mark.parametrize("n_max", [1, 2, 9])
def test_certificate_overflow_equals_per_root_loop(su2, n_max):
    w = make_weight(su2, "exp:lambda=1e300")
    for probe in ("pi:1", "pi:2"):
        label = parse_label(su2, probe)
        try:
            want = repr(_loop_certificate(su2, w, label, n_max))
        except WeightOverflowError as err:
            want = str(err)
        try:
            got = repr(growth_rate(su2, w, label, n_max))
        except WeightOverflowError as err:
            got = str(err)
        assert got == want
    with pytest.raises(WeightOverflowError, match=r"along pi:2 overflows"):
        growth_rate(su2, w, parse_label(su2, "pi:2"), n_max)


@pytest.mark.parametrize("group", ["su2", "so3", "txz2", "torus:1", "torus:2", "prod(su2,torus:1)"])
def test_spectrum_radii_are_certificate_slopes(group):
    dual = parse_group(group)
    for spec in RECIPES:
        w = make_weight(dual, spec)
        for n in (1, 2, 7, 64):
            want = {format_label(p): growth_rate(dual, w, p, n).rho_slope for p in dual.generators()}
            assert spectrum_bounds(dual, w, n).radii == want


def test_spectrum_overflow_names_the_first_overflowing_root(su2):
    # the windowed slope alone is finite (about 676.4), the root w(pi_1)^1 is not
    w = make_weight(su2, "poly:alpha=1e6")
    with pytest.raises(WeightOverflowError, match=r"^growth rate of weight poly:alpha=1e\+06 along pi:1 overflows$"):
        spectrum_bounds(su2, w)


def _counted(dual, spec, calls):
    """The recipe's weight, counting the labels its function is called at."""
    base = make_weight(dual, spec)

    def fn(a):
        calls[a] += 1
        return base(a)

    return Weight(dual, fn, spec, symmetric=base.symmetric)


@pytest.mark.parametrize("group", ["su2", "so3", "txz2", "torus:2", "prod(su2,torus:1)"])
def test_each_label_weighed_once_per_pass(group, rng):
    dual = parse_group(group)
    calls = Counter()
    assert validate(dual, _counted(dual, "poly:alpha=1", calls), depth=4).passed
    assert set(dual.ball(4)) <= set(calls) and set(calls.values()) == {1}
    u = random_field(dual, 2, rng, n_terms=6)
    c1, c2 = Counter(), Counter()
    factorize(u, _counted(dual, "dim", c1), _counted(dual, "poly:alpha=1", c2))
    assert c1 == c2 == Counter(list(u.coeffs))


def test_growth_curve_weighs_each_label_once_per_norm(su2):
    calls = Counter()
    u = character_field(su2, Su2Spin(1)) * 0.5
    ts = [1, 2, 4, 8, 16]
    growth_curve(su2, u, _counted(su2, "poly:alpha=1", calls), ts, cutoff_cap=120)
    # the norms of five fields, each over the spins its e^{itu} keeps
    kept = Counter(a for t in ts for a in exp_itu_auto(su2, u, t, 120)[0].coeffs)
    assert calls == kept and max(kept.values()) == len(ts)


def test_inexact_restriction_weighs_the_spins_once(su2):
    calls = Counter()
    w0 = Weight(su2, lambda a: calls.update([a]) or 1.0 + a.n + (a.n % 2), "wobble")
    r = restrict_weight(w0, cap=64)
    got = [r(TorusChar((k,))) for k in range(-64, 65)]
    assert got == [min(1.0 + n + n % 2 for n in range(abs(k), 65, 2)) for k in range(-64, 65)]
    assert calls == Counter(Su2Spin(n) for n in range(65))
