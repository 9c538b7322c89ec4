"""The two benchmark workloads, each a list of operations with their checks.

``stepping`` is the certify part (tensor-power support stepping, weights,
membership, derivation scans) with two passes of the cli part (CLI
invocations) spread over it; ``algebra`` is the exp-itu part (one-parameter
groups) with four passes of the products part (the product of A_w(G)) spread
over it.  Each part takes 30-70% of its round, so that a change to one
part's layers moves its workload's figures.

An operation is one public bfw call (or one CLI invocation) on inputs drawn
from the seed when the workload is built.  Every operation parses a fresh
group and weight, as one ``bfw`` invocation does, so no operation is served
from the fusion, intertwiner or weight caches of an earlier one.  A round runs
the operations in list order; the inputs are the same in every round.

Each check compares the output with a closed form from :mod:`checks`, with
SciPy, or with a property the method must have, and raises
:class:`checks.CheckFailed` otherwise.  ``small=True`` shrinks truncations and
sizes for the benchmark's own tests; the checks are the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import close, expect

from bfw import cli
from bfw.calculus import (
    CasimirData,
    derivation_bound_scan,
    exp_itu,
    exp_itu_auto,
    growth_curve,
    separating_function,
)
from bfw.duals import parse_group
from bfw.fields import (
    OperatorField,
    character_field,
    convolve,
    factorize,
    multiply,
    norm_a_omega,
    one_field,
)
from bfw.labels import Su2Spin, format_label, parse_label
from bfw.quadrature import HaarGrid, grid_values
from bfw.spectrum import Su2SpectrumPoint, char_eval, membership, spectrum_bounds
from bfw.weights import growth_rate, make_weight, validate

WORKLOADS = ("stepping", "algebra")
CLI_PASSES = 2  # certify part 4.3 s, cli part 0.95 s a pass
PRODUCT_PASSES = 4  # exp-itu part 3.7 s, products part 0.6 s a pass
EPS_CLASS = 1e-3  # bfw's growth-classification threshold, as its README states
C_SU2 = 1.0 / (2.0 * math.sqrt(2.0))  # max |eig| of every Casimir-orthonormal i sigma_j / (2 sqrt 2)


@dataclass(frozen=True)
class Op:
    """One timed call; ``check`` receives its result and raises CheckFailed."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def build(workload: str, seed: int, workdir: str, small: bool = False) -> list[Op]:
    """Operations of one round of ``workload``, with inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "stepping":
        return spread(certify(rng, workdir, small), cli_ops(rng, workdir, small), CLI_PASSES)
    if workload == "algebra":
        return spread(exp_itu_ops(rng, workdir, small), products(rng, workdir, small), PRODUCT_PASSES)
    raise ValueError(f"unknown workload {workload!r}")


def spread(ops: list, part: list, passes: int) -> list:
    """``ops`` with ``passes`` whole copies of ``part`` inserted at even spacing,
    so that both parts sample the host's speed over the whole round."""
    out = list(ops)
    for k in reversed(range(passes)):
        i = (k + 1) * len(ops) // (passes + 1)
        out[i:i] = part
    return out


def interleave(*kinds: list) -> list:
    """Round-robin over lists of operations of one kind each, so that the
    instances of every kind spread over the whole round: on a shared host the
    speed drifts within a round, and a kind's latencies then sample all of it."""
    out = []
    for i in range(max(map(len, kinds))):
        out.extend(k[i] for k in kinds if i < len(k))
    return out


def as_terms(field: OperatorField) -> dict:
    """{label string: matrix}, the form the checks work on."""
    return {format_label(a): np.asarray(M) for a, M in field.coeffs.items()}


def make_field(group: str, terms: dict) -> OperatorField:
    dual = parse_group(group)
    return OperatorField.from_terms(dual, {parse_label(dual, a): M for a, M in terms.items()})


def random_terms(group: str, labels, rng) -> dict:
    return {
        a: rng.standard_normal((checks.dim(group, a),) * 2) + 1j * rng.standard_normal((checks.dim(group, a),) * 2)
        for a in labels
    }


# ---------------------------------------------------------------------------
# certify: tensor-power support stepping, weights, membership, derivations
# ---------------------------------------------------------------------------

def certify(rng, workdir, small) -> list[Op]:
    # Truncations: the default (2048) costs 5.5 s on su2 and 14 s on so3, so a
    # round at the default is one 30 s sample of a drifting host.  At 768 the
    # alpha = 0.5 slope is already within EPS_CLASS of 1, so the paper's
    # spectrum = G is still certified; at 512, alpha = 1 is not yet (slope
    # 1 + 2.7e-3), and the check asks for the closed form's verdict.
    n_cert = 96 if small else 768
    n_spec = 96 if small else 512
    n_torus = 96 if small else None  # None: spectrum_bounds' default truncation (4096)
    n_growth = 64 if small else 512
    n_scan = 64 if small else 512

    spectra = [Op("spectrum_bounds su2 poly:alpha=0.5", _spectrum_call("su2", "poly:alpha=0.5", n_cert),
                  _poly_spectrum_check("pi:1", 0.5, paper_equals=not small))]
    for group, probe in (("su2", "pi:1"), ("so3", "pi:2")):
        spectra.append(Op(f"spectrum_bounds {group} poly:alpha=1", _spectrum_call(group, "poly:alpha=1", n_spec),
                          _poly_spectrum_check(probe, 1.0, paper_equals=False)))
    spectra.append(Op("spectrum_bounds txz2 exp:lambda=2",
                      _spectrum_call("txz2", "exp:lambda=2", n_spec),
                      _exp_spectrum_check({"pi:1": 2.0})))
    lam1, lam2 = (round(float(x), 3) for x in rng.uniform(1.5, 3.0, size=2))
    spectra.append(Op(f"spectrum_bounds torus:2 exp:lambda={lam1:g},{lam2:g}",
                      _spectrum_call("torus:2", f"exp:lambda={lam1:g},{lam2:g}", n_torus),
                      _exp_spectrum_check({"t:(1,0)": lam1, "t:(-1,0)": lam1, "t:(0,1)": lam2, "t:(0,-1)": lam2})))

    prod = "prod(su2,torus:1)"
    growth = [Op(f"growth_rate {prod} {gen}", _growth_call(prod, "poly:alpha=1", gen, n_growth),
                 _growth_check(n_growth, 1.0))
              for gen in ("pi:1×t:(0)", "pi:0×t:(1)", "pi:0×t:(-1)")]

    validation = [Op(f"validate su2 {recipe}", _validate_call("su2", recipe), _validate_pass_check)
                  for recipe in ("dim", "poly:alpha=1", "exp:lambda=2")]
    k = int(rng.integers(2, 11))
    c = round(float(rng.uniform(2.5, 4.0)), 3)
    table = {"kind": "table", "base": {"kind": "dim"}, "entries": {f"pi:{k}": c * (k + 1)}}
    validation.append(Op(f"validate su2 table(pi:{k})", _validate_call("su2", table), _validate_table_check(k, c)))

    points = []
    for lam in list(rng.uniform(1.05, 1.95, size=2)) + list(rng.uniform(2.05, 2.6, size=2)):
        s = checks.haar_su2(rng)
        points.append(Op(f"membership su2 lambda={lam:.3f}", _membership_call(s, float(lam)),
                         _membership_check(float(lam))))

    scans = []
    for alpha in (0.5, 1.0):
        idx = int(rng.integers(3))
        scans.append(Op(f"derivation_bound_scan su2 alpha={alpha:g} X{idx}",
                        _scan_call(alpha, idx, n_scan), _scan_check(alpha, n_scan)))
    return interleave(spectra, points, growth, validation, scans)


def _spectrum_call(group, recipe, n_max):
    def run():
        dual = parse_group(group)
        return spectrum_bounds(dual, make_weight(dual, recipe), n_max=n_max)
    return run


def _poly_spectrum_check(probe, alpha, paper_equals):
    def check(desc):
        expect(set(desc.radii) == {probe}, f"probes {sorted(desc.radii)}")
        want = checks.poly_slope_radius(desc.truncation, alpha)
        close(desc.radii[probe], want, 1e-12, f"radius along {probe} at n={desc.truncation}")
        expect(desc.equals_group == (want - 1.0 <= EPS_CLASS), f"equals_group {desc.equals_group}")
        if paper_equals:  # the paper: polynomial weights with alpha <= 1 give spectrum = G
            expect(desc.equals_group, "polynomial weight: spectrum should equal the group")
    return check


def _exp_spectrum_check(radii):
    def check(desc):
        expect(set(desc.radii) == set(radii), f"probes {sorted(desc.radii)}")
        for probe, lam in radii.items():
            close(desc.radii[probe], lam, 1e-12, f"radius along {probe}")
        expect(not desc.equals_group, "exponential weight: spectrum is larger than the group")
        if len(radii) == 1:
            lam = next(iter(radii.values()))
            lo, hi = desc.annulus()
            close(lo, 1.0 / lam, 1e-12, "inner radius")
            close(hi, lam, 1e-12, "outer radius")
    return check


def _growth_call(group, recipe, label, n_max):
    def run():
        dual = parse_group(group)
        return growth_rate(dual, make_weight(dual, recipe), parse_label(dual, label), n_max)
    return run


def _growth_check(n_max, alpha):
    def check(cert):
        close(cert.rho_slope, checks.poly_slope_radius(n_max, alpha), 1e-12, "windowed slope")
        close(cert.rho_hat, checks.poly_running_inf(n_max, alpha), 1e-12, "running infimum")
        expect(len(cert.seq) == n_max, f"{len(cert.seq)} roots for n_max={n_max}")
    return check


def _validate_call(group, recipe):
    def run():
        dual = parse_group(group)
        return validate(dual, make_weight(dual, recipe))
    return run


def _validate_pass_check(report):
    # w(sigma) <= w(a) w(b) holds with equality at worst (dim, poly, exp are
    # exactly submultiplicative over the fusion rule), so the excess is 0
    expect(report.passed, "built-in recipe failed validation")
    expect(report.max_violation == 0.0, f"max_violation {report.max_violation!r}")
    expect(report.witness is None, f"witness {report.witness}")


def _validate_table_check(k, c):
    # only sigma = pi:k is raised, to c (k+1); the smallest w(a) w(b) over pairs
    # fusing to pi:k without containing it is dim(pi:1) dim(pi:k-1) = 2k
    def check(report):
        expect(not report.passed, "fabricated weight passed validation")
        expect(tuple(report.witness) == (f"pi:{k}", "pi:1", f"pi:{k - 1}"), f"witness {report.witness}")
        close(report.max_violation, c * (k + 1) / (2.0 * k) - 1.0, 1e-12, "excess")
        for got, want in zip(report.witness_values, (c * (k + 1), 2.0, float(k))):
            close(got, want, 1e-12, "witness value")
    return check


def _membership_call(s, lam):
    def run():
        dual = parse_group("su2")
        return membership(dual, Su2SpectrumPoint(s, lam), make_weight(dual, "exp:lambda=2"), cutoff=64)
    return run


def _membership_check(lam):
    def check(res):
        margin, arg = checks.membership_margin(lam, 2.0, res.cutoff)
        close(res.margin, margin, 1e-12, f"margin at lambda={lam}")
        expect(res.argmax == f"pi:{arg}", f"argmax {res.argmax}")
        expect(res.member == (lam <= 2.0) and res.certified == (lam > 2.0), f"verdict {res}")
    return check


def _scan_call(alpha, idx, n_max):
    def run():
        dual = parse_group("su2")
        X = CasimirData(dual).basis[idx]
        return derivation_bound_scan(dual, X, make_weight(dual, f"poly:alpha={alpha:g}"), n_max)
    return run


def _scan_check(alpha, n_max):
    def check(rows):
        expect(len(rows) == n_max, f"{len(rows)} rows")
        for n, sup in rows:
            close(sup, checks.derivation_scan(n, alpha, C_SU2), 1e-12, f"scan at n={n}")
    return check


# ---------------------------------------------------------------------------
# products: the algebra A_w(G)
# ---------------------------------------------------------------------------

NORM_RECIPES = ("const:1", "dim", "poly:alpha=1", "exp:lambda=2")


def _pair_labels(group, r, rng):
    """Two labels per field at word lengths r and about r/2; the seed picks
    only choices that leave the work unchanged (signs, triv vs sgn)."""
    if group == "su2":
        return [f"pi:{r}", f"pi:{r // 2}"], [f"pi:{r}", f"pi:{r // 2}"]
    if group == "so3":
        return [f"pi:{2 * r}", f"pi:{r}"], [f"pi:{2 * r}", f"pi:{r}"]
    if group == "txz2":
        pick = lambda: ["triv", "sgn"][int(rng.integers(2))]
        return [f"pi:{r}", f"pi:{r // 2}", pick()], [f"pi:{r}", f"pi:{r // 2}", pick()]
    sign = lambda: int(rng.choice([-1, 1]))
    h, q = r // 2, r // 4
    return ([f"pi:{h}×t:({sign() * h})", f"pi:{q}×t:({sign() * q})"],
            [f"pi:{h}×t:({sign() * h})", f"pi:{q}×t:({sign() * q})"])


def products(rng, workdir, small) -> list[Op]:
    prod = "prod(su2,torus:1)"
    plan = {"su2": (4, 8) if small else (4, 8, 12, 16), "so3": (2, 4) if small else (2, 4, 6, 8),
            "txz2": (4, 8, 16), prod: (4, 8) if small else (4, 8, 12)}
    quadrature = {("su2", 4): 16, ("so3", 2): 16, ("txz2", 4): 16, ("txz2", 8): 32}
    ops = []
    for group, radii in plan.items():
        for r in radii:
            ul, vl = _pair_labels(group, r, rng)
            u, v = random_terms(group, ul, rng), random_terms(group, vl, rng)
            ops.extend(_pair_ops(group, r, u, v, rng, quadrature.get((group, r))))
    for _ in range(3):
        a, b = (int(x) for x in rng.integers(1, 17, size=2))
        ops.append(Op(f"multiply su2 chi_{a} chi_{b}", _char_product_call("su2", f"pi:{a}", f"pi:{b}"),
                      _terms_check(checks.su2_character_product(a, b), 1e-12)))
    m, n = (int(x) for x in rng.choice(np.arange(1, 9), size=2, replace=False))
    for a, b in ((m, m), (m, n)):
        ops.append(Op(f"multiply txz2 chi_{a} chi_{b}", _char_product_call("txz2", f"pi:{a}", f"pi:{b}"),
                      _terms_check(checks.txz2_character_product(a, b), 1e-12)))
    return ops


def _pair_ops(group, r, u, v, rng, degree):
    state = {}
    tag = f"{group} r={r}"
    check_rng = np.random.default_rng(rng.integers(2**32))

    def run_multiply():
        state["uv"] = multiply(make_field(group, u), make_field(group, v))
        return state["uv"]

    def check_multiply(uv):
        checks.check_product_identity(group, u, v, as_terms(uv), check_rng)

    def run_norms():
        dual = parse_group(group)
        fu, fv = make_field(group, u), make_field(group, v)
        out = {}
        for recipe in NORM_RECIPES:
            w = make_weight(dual, recipe)
            out[recipe] = (norm_a_omega(fu, w), norm_a_omega(fv, w), norm_a_omega(state["uv"], w))
        return out

    def check_norms(out):
        uv = as_terms(state["uv"])
        for recipe, (nu, nv, nuv) in out.items():
            close(nu, checks.norm_a(group, u, recipe), 1e-12, f"||u|| under {recipe}")
            close(nv, checks.norm_a(group, v, recipe), 1e-12, f"||v|| under {recipe}")
            close(nuv, checks.norm_a(group, uv, recipe), 1e-12, f"||uv|| under {recipe}")
            expect(nuv <= nu * nv * (1.0 + 1e-9), f"submultiplicativity under {recipe}: {nuv} > {nu} * {nv}")

    def run_factorize():
        dual = parse_group(group)
        f, g = factorize(make_field(group, u), make_weight(dual, "dim"), make_weight(dual, "poly:alpha=1"))
        return convolve(f, g)

    def check_factorize(back):
        err = checks.max_abs_diff(as_terms(back), u)
        expect(err <= 1e-12 * max(1.0, checks.scale_of(u)), f"factorize/convolve error {err:.3e}")

    ops = [Op(f"multiply {tag}", run_multiply, check_multiply),
           Op(f"norm_a_omega {tag}", run_norms, check_norms),
           Op(f"factorize+convolve {tag}", run_factorize, check_factorize)]

    if group == "su2":
        s, lam = checks.haar_su2(rng), float(rng.uniform(1.1, 1.6))

        def run_char_eval():
            dual = parse_group(group)
            theta = Su2SpectrumPoint(s, lam)
            return (char_eval(dual, theta, make_field(group, u)), char_eval(dual, theta, make_field(group, v)),
                    char_eval(dual, theta, state["uv"]))

        def check_char_eval(vals):
            cu, cv, cuv = vals
            g = s @ np.diag([lam, 1.0 / lam])
            close(cu, checks.evaluate(group, u, g), 1e-9, "char_eval(u) against the own representation")
            expect(abs(cuv - cu * cv) <= 1e-8 * max(1.0, abs(cu * cv)), f"char_eval not multiplicative: {cuv} vs {cu * cv}")

        ops.append(Op(f"char_eval {tag}", run_char_eval, check_char_eval))

    if degree is not None:
        def run_quadrature():
            dual = parse_group(group)
            grid = HaarGrid(dual, degree)
            vals = grid_values(make_field(group, u), grid) * grid_values(make_field(group, v), grid)
            return grid.coefficients(vals, dual.ball(2 * r))

        def check_quadrature(oracle):
            dev = checks.max_abs_diff(as_terms(oracle), as_terms(state["uv"]))
            expect(dev <= 1e-8, f"intertwiner and quadrature products differ by {dev:.3e}")

        ops.append(Op(f"quadrature product {tag}", run_quadrature, check_quadrature))
    return ops


def _char_product_call(group, a, b):
    def run():
        dual = parse_group(group)
        return multiply(character_field(dual, parse_label(dual, a)), character_field(dual, parse_label(dual, b)))
    return run


def _terms_check(want, tol):
    def check(field):
        got = as_terms(field)
        expect(set(got) == set(want), f"support {sorted(got)} != {sorted(want)}")
        err = checks.max_abs_diff(got, want)
        expect(err <= tol, f"coefficients off by {err:.3e}")
    return check


# ---------------------------------------------------------------------------
# exp-itu: one-parameter groups e^{itu}
# ---------------------------------------------------------------------------

SEPARATING_MODES = 96
TORUS_CUTOFF = 44
SEPARATING_SMOOTHNESS = 5  # separating_function's default ceil(dim/2 + alpha + 2) on SU(2), alpha = 1


def exp_itu_ops(rng, workdir, small) -> list[Op]:
    n_modes = 24 if small else SEPARATING_MODES
    angles = rng.uniform(0.0, math.pi, size=1000)
    separating = [Op(f"separating_function su2 modes={n_modes}", _separating_call(n_modes),
                     _separating_check(n_modes, angles))]
    t_list = [2.0**j for j in range(5 if small else 7)]
    curves = [Op(f"growth_curve su2 poly:alpha={alpha:g}", _growth_curve_call(alpha, t_list),
                 _growth_curve_check(alpha))
              for alpha in (0.5, 1.0, 1.5)]
    # t sets the cutoff and so the work: seeded within 2% of fixed values
    su2_ts = np.array([2.0, 6.0, 16.0, 48.0]) * rng.uniform(0.98, 1.02, size=4)
    su2 = [Op(f"exp_itu su2 t={t:.3f}", _su2_exp_call(float(t)), _su2_exp_check(float(t))) for t in su2_ts]
    torus1 = [Op(f"exp_itu torus:1 t={t:.3f}", _torus_exp_call(1, float(t)), _torus_exp_check(1, float(t)))
              for t in rng.uniform(0.5, 8.0, size=4)]
    torus2 = [Op(f"exp_itu torus:2 t={t:.3f}", _torus_exp_call(2, float(t)), _torus_exp_check(2, float(t)))
              for t in rng.uniform(0.5, 5.0, size=2)]
    return interleave(separating, curves, su2, torus1, torus2)


def _separating_call(n_modes):
    def run():
        dual = parse_group("su2")
        u0 = character_field(dual, Su2Spin(1)) * 0.25 + one_field(dual) * 0.5
        return separating_function(dual, u0, n_modes=n_modes, cutoff_cap=512, sample_points=0)
    return run


def _separating_check(n_modes, angles):
    def check(rep):
        traces = {}
        for a, M in as_terms(rep.field).items():
            n = int(a[3:])
            tr = complex(np.trace(M))
            off = float(np.max(np.abs(M - tr / (n + 1) * np.eye(n + 1))))
            expect(off <= 1e-12 * max(1.0, abs(tr)), f"separating field not central at {a}")
            traces[n] = tr
        v = checks.su2_central_values(traces, angles)
        target = checks.bump(0.5 + 0.5 * np.cos(angles), SEPARATING_SMOOTHNESS)  # u0 = 0.5 + chi_1 / 4
        err = float(np.max(np.abs(v - target)))
        bound = checks.bump_dropped_mass(SEPARATING_SMOOTHNESS, n_modes)
        expect(err <= bound + 1e-12, f"sup error {err:.3e} exceeds the dropped-mode mass {bound:.3e}")
    return check


def _growth_curve_call(alpha, t_list):
    def run():
        dual = parse_group("su2")
        u = character_field(dual, Su2Spin(1)) * 0.5
        return growth_curve(dual, u, make_weight(dual, f"poly:alpha={alpha:g}"), t_list)
    return run


def _growth_curve_check(alpha):
    def check(curve):
        close(curve.bound_exponent, 1.5 + alpha, 0.0, "bound exponent")
        for t, norm, bound, cutoff, tail in curve.rows:
            b = checks.su2_exp_traces(t, cutoff)
            n = np.arange(cutoff + 1)
            close(norm, float(np.sum(np.abs(b) * (n + 1) * (1.0 + n) ** alpha)), 1e-10, f"norm at t={t}")
            close(tail, abs(1.0 - float(np.sum(np.abs(b) ** 2))), 0.0, f"Parseval defect at t={t}", abs_tol=1e-12)
            close(bound, (1.0 + t) ** (1.5 + alpha), 1e-15, f"reference bound at t={t}")
    return check


def _su2_exp_call(t):
    def run():
        dual = parse_group("su2")
        return exp_itu_auto(dual, character_field(dual, Su2Spin(1)) * 0.5, t, 512)
    return run


def _su2_exp_check(t):
    def check(out):
        field, defect, cutoff = out
        b = checks.su2_exp_traces(t, cutoff)
        terms = as_terms(field)
        expect(set(terms) <= {f"pi:{n}" for n in range(cutoff + 1)}, "labels beyond the cutoff")
        for n in range(cutoff + 1):
            tr = complex(np.trace(terms[f"pi:{n}"])) if f"pi:{n}" in terms else 0.0
            expect(abs(tr - b[n]) <= 1e-12, f"trace at pi:{n}: {tr} vs {b[n]}")
        close(defect, abs(1.0 - float(np.sum(np.abs(b) ** 2))), 0.0, "Parseval defect", abs_tol=1e-12)
    return check


def _torus_u(dual, rank):
    terms = {}
    for j in range(rank):
        for sgn in (1, -1):
            mu = [0] * rank
            mu[j] = sgn
            terms[parse_label(dual, "t:(" + ",".join(map(str, mu)) + ")")] = np.ones((1, 1))
    return OperatorField.from_terms(dual, terms)


def _torus_exp_call(rank, t):
    def run():
        dual = parse_group(f"torus:{rank}")
        return exp_itu(dual, _torus_u(dual, rank), t, cutoff=TORUS_CUTOFF)
    return run


def _torus_exp_check(rank, t):
    # u = sum_j 2 cos(x_j), so e^{itu} factorizes over the axes; every label
    # of the cutoff ball is compared, so a dropped coefficient shows
    def check(out):
        field, _ = out
        terms = as_terms(field)
        ball = [mu for mu in itertools.product(range(-TORUS_CUTOFF, TORUS_CUTOFF + 1), repeat=rank)
                if sum(map(abs, mu)) <= TORUS_CUTOFF]
        labels = {"t:(" + ",".join(map(str, mu)) + ")": mu for mu in ball}
        expect(set(terms) <= set(labels), "labels beyond the cutoff")
        for a, mu in labels.items():
            got = complex(terms[a][0, 0]) if a in terms else 0.0
            want = math.prod(checks.torus_exp_coeff(k, t) for k in mu)
            expect(abs(got - want) <= 1e-10, f"coefficient at {a}: {got} vs {want}")
    return check


# ---------------------------------------------------------------------------
# cli: the README's invocations plus seeded element files
# ---------------------------------------------------------------------------

def _write_element(path, group, terms):
    doc = {"group": group, "terms": [
        {"irrep": a, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in M]}
        for a, M in terms.items()]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_element(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {t["irrep"]: np.array([[complex(re, im) for re, im in row] for row in t["matrix"]])
            for t in doc["terms"]}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def cli_ops(rng, workdir, small) -> list[Op]:
    big_r = 8 if small else 20
    mul_r = 4 if small else 10
    P = lambda name: os.path.join(workdir, name)

    u_file = random_terms("su2", [f"pi:{n}" for n in range(0, 7)], rng)
    big = random_terms("su2", [f"pi:{n}" for n in range(big_r + 1)], rng)
    mu = random_terms("su2", [f"pi:{mul_r}", f"pi:{mul_r - 2}", f"pi:{mul_r // 2}"], rng)
    mv = random_terms("su2", [f"pi:{mul_r - 1}", f"pi:{mul_r // 2 + 1}"], rng)
    for name, terms in (("u.json", u_file), ("big.json", big), ("mu.json", mu), ("mv.json", mv)):
        _write_element(P(name), "su2", terms)
    alpha = round(float(rng.uniform(0.5, 2.0)), 3)
    check_rng = np.random.default_rng(rng.integers(2**32))

    def op(name, argv, check, want_code=0):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()

        def checked(result):
            code, stdout = result
            expect(code == want_code, f"bfw {' '.join(argv)} exited {code}")
            check(stdout)
        return Op(name, run, checked)

    def validate_check(_):
        rep = _read_json(P("validate.json"))["result"]
        expect(rep["passed"] and rep["max_violation"] == 0.0, f"validate-weight {rep}")

    def growth_check(_):
        rep = _read_json(P("growth.json"))["result"]
        close(rep["rho_slope"], 2.0, 1e-12, "txz2 exp:lambda=2 slope")
        close(rep["rho_hat"], 2.0, 1e-12, "txz2 exp:lambda=2 running infimum")
        expect(rep["tag"] == "exponential-witness", rep["tag"])
        header, rows = _read_csv(P("growth.csv"))
        expect(header == "n,root,running_inf" and len(rows) == 512, "growth csv shape")
        for n, root, run in rows:
            close(root, 2.0, 1e-12, f"root at n={n}")

    def spectrum_check(_):
        res = _read_json(P("spectrum.json"))["result"]
        close(res["annulus"][0], 0.5, 1e-12, "inner radius")
        close(res["annulus"][1], 2.0, 1e-12, "outer radius")
        expect(res["equals_group"] is False, "torus exp:lambda=2 spectrum equals the group")

    def norm_check(path, want):
        def check(_):
            close(_read_json(P(path))["result"]["value"], want, 1e-12, path)
        return check

    def multiply_chars_check(_):
        got = _read_element(P("prod.json"))
        err = checks.max_abs_diff(got, checks.su2_character_product(1, 1))
        expect(set(got) == {"pi:0", "pi:2"} and err <= 1e-12, f"chi_1 chi_1: {sorted(got)}, error {err:.3e}")

    def factorize_check(elem, w1, w2, prefix):
        def check(_):
            f, g = _read_element(P(prefix + "f.json")), _read_element(P(prefix + "g.json"))
            back = {a: g[a] @ f[a] for a in f}
            err = checks.max_abs_diff(back, elem)
            expect(err <= 1e-12 * max(1.0, checks.scale_of(elem)), f"convolve(f, g) off by {err:.3e}")
            rep = _read_json(P(prefix + "fact.json"))["result"]
            expect(rep["reconstruction_error"] <= 1e-12 * max(1.0, checks.scale_of(elem)), str(rep))
            l2 = lambda terms, recipe: math.sqrt(sum(float(np.sum(np.abs(M) ** 2)) * checks.dim("su2", a)
                                                     * checks.weight("su2", recipe, a) for a, M in terms.items()))
            close(rep["norm_f_l2w2"], l2(f, w2), 1e-12, "||f||_{2,w2}")
            close(rep["norm_g_l2w1"], l2(g, w1), 1e-12, "||g||_{2,w1}")
        return check

    def expcurve_check(_):
        header, rows = _read_csv(P("curve.csv"))
        expect(header == "t,norm,bound,cutoff,tail" and [r[0] for r in rows] == [2.0**j for j in range(7)],
               "expcurve csv shape")
        for t, norm, bound, cutoff, tail in rows:
            b = checks.su2_exp_traces(t, int(cutoff))
            n = np.arange(int(cutoff) + 1)
            close(norm, float(np.sum(np.abs(b) * (n + 1) ** 2)), 1e-10, f"expcurve norm at t={t}")
            close(bound, (1.0 + t) ** 2.5, 1e-15, f"expcurve bound at t={t}")

    def derivation_check(_):
        header, rows = _read_csv(P("scan.csv"))
        expect(header == "n,sup" and len(rows) == 512, "derivation csv shape")
        for n, sup in rows:
            close(sup, checks.derivation_scan(n, 1.0, C_SU2), 1e-12, f"scan at n={n:g}")

    def synth_check(stdout):
        expect(stdout == "3\n", f"synth-degree printed {stdout!r}")

    def nu_check(_):
        res = _read_json(P("nu.json"))["result"]
        for key in ("norm_a_omega", "phi_norm_sq_sum", "psi_norm_sq_sum"):
            close(res[key], 9.0, 1e-12, key)  # char:2 under dim: ||I/3||_1 * 3 * 3
        expect(res["pairing_residual"] <= 1e-9 * 9.0, f"pairing residual {res['pairing_residual']}")

    def multiply_check(_):
        checks.check_product_identity("su2", mu, mv, _read_element(P("mprod.json")), check_rng)

    return [
        op("validate-weight", ["validate-weight", "--group", "su2", "--weight", "dim", "--depth", "12",
                               "--out", P("validate.json")], validate_check),
        op("growth", ["growth", "--group", "txz2", "--weight", "exp:lambda=2", "--label", "pi:1", "--num", "512",
                      "--csv", P("growth.csv"), "--out", P("growth.json")], growth_check),
        op("spectrum", ["spectrum", "--group", "torus:1", "--weight", "exp:lambda=2", "--out", P("spectrum.json")],
           spectrum_check),
        op("norm char:1", ["norm", "--group", "su2", "--weight", "dim", "--element", "char:1", "--kind", "a",
                           "--out", P("norm1.json")], norm_check("norm1.json", 4.0)),
        op("multiply char:1", ["multiply", "--group", "su2", "--u", "char:1", "--v", "char:1", "--out", P("prod.json")],
           multiply_chars_check),
        op("factorize u.json", ["factorize", "--group", "su2", "--element", P("u.json"), "--w1", "dim", "--w2",
                                "const:1", "--out-f", P("f.json"), "--out-g", P("g.json"), "--out", P("fact.json")],
           factorize_check(u_file, "dim", "const:1", "")),
        op("expcurve", ["expcurve", "--group", "su2", "--u", "uchar:1", "--weight", "poly:alpha=1", "--tmax", "64",
                        "--out", P("curve.csv"), "--svg", P("curve.svg")], expcurve_check),
        op("derivation", ["derivation", "--group", "su2", "--weight", "poly:alpha=1", "--num", "512",
                          "--out", P("scan.csv")], derivation_check),
        op("synth-degree", ["synth-degree", "--m", "2", "--alpha", "1"], synth_check),
        op("nu-check", ["nu-check", "--group", "su2", "--element", "char:2", "--weight", "dim", "--out", P("nu.json")],
           nu_check),
        op("norm big.json", ["norm", "--group", "su2", "--weight", f"poly:alpha={alpha:g}", "--element",
                             P("big.json"), "--out", P("normbig.json")],
           norm_check("normbig.json", checks.norm_a("su2", big, f"poly:alpha={alpha:g}"))),
        op("multiply mu.json mv.json", ["multiply", "--group", "su2", "--u", P("mu.json"), "--v", P("mv.json"),
                                        "--out", P("mprod.json")], multiply_check),
        op("factorize big.json", ["factorize", "--group", "su2", "--element", P("big.json"), "--w1", "poly:alpha=1",
                                  "--w2", "dim", "--out-f", P("bigf.json"), "--out-g", P("bigg.json"),
                                  "--out", P("bigfact.json")],
           factorize_check(big, "poly:alpha=1", "dim", "big")),
    ]
