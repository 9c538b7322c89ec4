"""``Weight.log_values`` on lattice coordinates against the per-label formulas
in ``weight_log_oracle``, bit for bit."""

import math

import numpy as np
import pytest

from bfw import ProductDual, So3Dual, TorusDual, format_label, make_weight, quotient_weight, restrict_weight
from bfw.duals import parse_group
from bfw.errors import WeightOverflowError
from bfw.weights import Weight
from walk_oracle import first_steps
from weight_log_oracle import closed_form_word_length, oracle_log_value, word_length

GROUPS = ["su2", "so3", "txz2", "torus:1", "torus:2", "torus:3", "prod(su2,torus:1)", "prod(txz2,so3)"]

# 17 significant digits: a weight rebuilt from its descriptor (printed with :g) would differ
ALPHA, LAM = 2.6731234567890123, 1.2345678901234567


def _recipes(dual):
    lams = [LAM, 1.5, 3.0][: dual.n] if isinstance(dual, TorusDual) else [LAM]
    exp = "exp:lambda=" + ",".join(["2", "1.5", "3"][: dual.n] if isinstance(dual, TorusDual) else ["2"])
    poly = {"kind": "poly", "alpha": ALPHA}
    return [
        "const:1", "const:1.5", {"kind": "const", "c": 2.0000000000000004},
        "dim", "poly:alpha=1", "poly:alpha=0.5", "poly:alpha=2.6731234567", poly,
        exp, {"kind": "exp", "lam": lams}, {"kind": "exp", "lam": [LAM]},
        "prod(poly:alpha=1,dim)", {"kind": "prod", "factors": [poly, {"kind": "exp", "lam": lams}]},
        "pow(dim,2)", {"kind": "pow", "base": poly, "alpha": ALPHA},
        {"kind": "pow", "base": {"kind": "prod", "factors": ["dim", "const:1.5"]}, "alpha": 1.5},
        {"kind": "table", "base": poly, "entries": {format_label(dual.ball(2)[1]): 0.5}},
    ]


def _random_coords(dual, rng, k):
    """k coordinate rows of labels of dual, with entries up to about 2e5."""
    if isinstance(dual, ProductDual):
        return np.hstack([_random_coords(dual.left, rng, k), _random_coords(dual.right, rng, k)])
    if isinstance(dual, TorusDual):
        return rng.integers(-100_000, 100_000, size=(k, dual.n))
    step = 2 if isinstance(dual, So3Dual) else 1
    return step * rng.integers(0, 200_000 // step, size=(k, 1))


def _coords(dual, seed):
    ball = np.array([dual.coords(a) for a in dual.ball(4)], dtype=np.int64)
    return np.vstack([ball, _random_coords(dual, np.random.default_rng(seed), 300)])


def _assert_bits_equal(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (bad[:5], got[bad[:5]], want[bad[:5]])


@pytest.mark.parametrize("group", GROUPS)
def test_log_values_equal_per_label_oracle(group):
    dual = parse_group(group)
    coords = _coords(dual, 8080)
    labels = [dual.label_at(c) for c in coords.tolist()]
    for spec in _recipes(dual):
        got = make_weight(dual, spec).log_values(coords)
        want = np.array([oracle_log_value(dual, spec, a) for a in labels])
        _assert_bits_equal(got, want)


@pytest.mark.parametrize("group", GROUPS)
def test_word_lengths_and_dims_at_coords(group):
    dual = parse_group(group)
    coords = _coords(dual, 9090)
    labels = [dual.label_at(c) for c in coords.tolist()]
    wl, dims = dual.word_lengths_at(coords), dual.dims_at(coords)
    assert wl.tolist() == [word_length(dual, a) for a in labels]
    assert dims.tolist() == [dual.dim(a) for a in labels]
    assert [dual.coords(a) for a in labels] == [tuple(c) for c in coords.tolist()]


@pytest.mark.parametrize("group", GROUPS)
def test_word_length_closed_forms_equal_walk(group):
    # the oracle's word lengths beyond the walk radius
    dual = parse_group(group)
    for a, k in first_steps(dual, dual.generators(), 6).items():
        assert closed_form_word_length(dual, a) == k


def test_weights_without_closed_form_read_labels(su2, so3, t1):
    # restriction, quotient and user weights take the log of the plain value, label by label
    for w in (restrict_weight(make_weight(su2, "poly:alpha=1.5")),
              quotient_weight(make_weight(su2, "exp:lambda=1.25")),
              Weight(su2, lambda a: 1.0 + a.n % 3, "wobble")):
        coords = np.array([w.dual.coords(a) for a in w.dual.ball(6)], dtype=np.int64)
        want = np.array([math.log(w(w.dual.label_at(c))) for c in coords.tolist()])
        _assert_bits_equal(w.log_values(coords), want)


def test_log_value_is_one_row(su2):
    w = make_weight(su2, {"kind": "poly", "alpha": ALPHA})
    for a in su2.ball(8):
        assert w.log_value(a) == oracle_log_value(su2, {"kind": "poly", "alpha": ALPHA}, a)


@pytest.mark.parametrize("group,spec,row", [
    ("su2", "pow(poly:alpha=1e300,1e10)", (1,)),
    ("torus:2", "pow(exp:lambda=1e300,1e306)", (0, 1)),
    ("prod(su2,torus:1)", "prod(pow(dim,1.7e308),pow(dim,1.7e308))", (1, 5)),
])
def test_non_finite_log_value_is_typed(group, spec, row):
    dual = parse_group(group)
    w = make_weight(dual, spec)
    coords = np.array([[0] * dual.lattice_rank, row], dtype=np.int64)
    with pytest.raises(WeightOverflowError, match="overflows at"):
        w.log_values(coords)


def test_log_values_where_numpy_logs_differ(su2):
    # NumPy's vectorized log and log1p differ from math's in the last bit on
    # some integers of this range (which ones depends on the machine); the
    # recipes call math on them
    n = np.arange(200_000)
    hard = [k for k, x, y in zip(n.tolist(), np.log(n + 1).tolist(), np.log1p(n).tolist())
            if x != math.log(k + 1) or y != math.log1p(k)]
    coords = np.array(hard, dtype=np.int64).reshape(-1, 1)
    for spec in ("dim", "poly:alpha=1", {"kind": "poly", "alpha": ALPHA}):
        want = np.array([oracle_log_value(su2, spec, su2.label_at(c)) for c in coords.tolist()])
        _assert_bits_equal(make_weight(su2, spec).log_values(coords), want)
