"""Membership margins in closed form from the positive part of the point,
against the SVD margin of tests/margin_oracle.py on every family."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import margin_oracle
from bfw import make_weight
from bfw.cli import main
from bfw.duals import ProductDual, SemidirectDual, Su2Dual, parse_group
from bfw.fields import point_margin
from bfw.spectrum import (
    ProductSpectrumPoint,
    SemidirectSpectrumPoint,
    Su2SpectrumPoint,
    TorusSpectrumPoint,
    membership,
    point_to_spectrum,
)

# (group, cutoff): the largest balls whose SVD oracle stays quick
FAMILIES = [
    ("su2", 64), ("so3", 32), ("txz2", 64), ("torus:1", 64), ("torus:2", 24), ("torus:3", 8),
    ("prod(su2,torus:1)", 16), ("prod(txz2,so3)", 16), ("prod(prod(su2,torus:1),txz2)", 8),
]
RECIPES = ["exp:lambda=2", "poly:alpha=1.5", "dim", "const:3", "prod(dim,exp:lambda=1.5)"]
SU2_POINT = Su2Dual().random_point(np.random.default_rng(3))


def points(dual, rng):
    """Spectrum points, group points as they are and as spectrum points, and on
    products a spectrum point beside a group point."""
    out = [margin_oracle.spectrum_point(dual, rng) for _ in range(3)]
    g = dual.random_point(rng)
    out += [g, point_to_spectrum(dual, g)]
    if isinstance(dual, ProductDual):
        out.append(ProductSpectrumPoint(margin_oracle.spectrum_point(dual.left, rng), dual.right.random_point(rng)))
    return out


@pytest.mark.parametrize("group,cutoff", FAMILIES, ids=[g for g, _ in FAMILIES])
def test_margins_equal_svd_oracle(group, cutoff):
    dual = parse_group(group)
    rng = np.random.default_rng(sum(map(ord, group)))
    for recipe in RECIPES:
        w = make_weight(dual, recipe)
        for theta in points(dual, rng):
            got, arg = point_margin(dual, theta, w, cutoff)
            labels, vals = margin_oracle.margins(dual, theta, w, cutoff)
            want = vals.max()
            assert abs(got - want) <= 1e-12 * want, (recipe, theta, got, want)
            second = np.partition(vals, -2)[-2] if len(vals) > 1 else 0.0
            if second < want * (1.0 - 1e-9):  # a unique maximum
                assert arg == labels[int(np.argmax(vals))], (recipe, theta)
            assert arg in labels and vals[labels.index(arg)] >= want * (1.0 - 1e-12)


@pytest.mark.parametrize("group,theta,recipe,want", [
    # lam equals the exp base: every spin has margin 1
    ("su2", Su2SpectrumPoint(SU2_POINT, 2.0), "exp:lambda=2", "pi:0"),
    ("su2", Su2SpectrumPoint(SU2_POINT, 0.5), "exp:lambda=2", "pi:0"),
    # |z| equals the base: every mu >= 0 has margin 1
    ("torus:1", TorusSpectrumPoint((2.0 * np.exp(0.3j),)), "exp:lambda=2", "t:(0)"),
    ("torus:2", TorusSpectrumPoint((2.0, 0.5j)), "exp:lambda=2", "t:(0,0)"),
    ("txz2", SemidirectSpectrumPoint(2.0 * np.exp(1.1j), True), "exp:lambda=2", "triv"),
    # group points under a constant weight: every label has margin 1/3
    ("su2", SU2_POINT, "const:3", "pi:0"),
    ("prod(txz2,so3)", ProductDual(SemidirectDual(), parse_group("so3")).random_point(np.random.default_rng(5)),
     "const:3", "triv×pi:0"),
], ids=["su2-lam=base", "su2-lam=1/base", "torus:1-|z|=base", "torus:2-|z|=base", "txz2-|z|=base",
        "su2-group-const", "prod-group-const"])
def test_exact_ties_go_to_the_first_label(group, theta, recipe, want):
    dual = parse_group(group)
    w = make_weight(dual, recipe)
    res = membership(dual, theta, w, cutoff=16)
    assert res.argmax == want
    assert res.margin == (1.0 if recipe.startswith("exp") else 1.0 / 3.0)
    labels, vals = margin_oracle.margins(dual, theta, w, 16)
    assert abs(res.margin - vals.max()) <= 1e-12 * vals.max()


def test_margin_is_finite_where_the_norm_and_weight_are_not():
    # spin 64 at lam = 1e6 under exp:lambda=1e5: lam^64 and w(pi:64) are
    # past the largest float, their quotient 10^64 is not
    su2 = Su2Dual()
    res = membership(su2, Su2SpectrumPoint(np.eye(2), 1e6), make_weight(su2, "exp:lambda=1e5"), cutoff=64)
    assert abs(res.margin - 1e64) <= 1e-12 * 1e64 and res.argmax == "pi:64" and res.certified


def test_margin_past_the_largest_float_overflows():
    su2 = Su2Dual()
    with pytest.raises(OverflowError, match="pi:64"):
        point_margin(su2, Su2SpectrumPoint(np.eye(2), 1e6), make_weight(su2, "poly:alpha=1"), 64)
    t2 = parse_group("torus:2")
    with pytest.raises(OverflowError, match=r"t:\(0,-8\)"):
        point_margin(t2, TorusSpectrumPoint((1.0, 1e-100)), make_weight(t2, "dim"), 8)


def spectrum_cli(tmp_path, point, *argv):
    (tmp_path / "p.json").write_text(json.dumps(point))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--membership-point", str(tmp_path / "p.json"), *argv])
    return code, out.getvalue(), err.getvalue()


def test_cli_prints_the_finite_margin(tmp_path):
    code, out, err = spectrum_cli(tmp_path, {"group": "su2", "euler": [0.1, 0.2, 0.3], "lambda": 1e6},
                                  "--group", "su2", "--weight", "exp:lambda=1e5", "--num", "16")
    assert code == 0, err
    res = json.loads(out)["result"]["membership"]
    assert abs(res["margin"] - 1e64) <= 1e-12 * 1e64 and res["argmax"] == "pi:64"


def test_cli_margin_overflow_exits_4(tmp_path):
    code, out, err = spectrum_cli(tmp_path, {"group": "su2", "euler": [0.1, 0.2, 0.3], "lambda": 1e6},
                                  "--group", "su2", "--weight", "poly:alpha=1", "--num", "16")
    assert code == 4 and out == ""
    assert err == "numeric failure: the membership margin overflows at pi:64\n"


@pytest.mark.parametrize("group,point", [
    ("su2", Su2SpectrumPoint(np.eye(2), 3.0)),
    ("so3", Su2SpectrumPoint(np.eye(2), 3.0)),
    ("torus:2", TorusSpectrumPoint((3.0, 0.25))),
    ("txz2", SemidirectSpectrumPoint(0.2, False)),
    ("prod(su2,torus:1)", ProductSpectrumPoint(Su2SpectrumPoint(np.eye(2), 3.0), TorusSpectrumPoint((3.0,)))),
])
def test_log_norms_are_the_top_weights(group, point):
    # log ||pi_a(p)|| at a positive point p is its largest eigenvalue's log
    dual = parse_group(group)
    labels = dual.ball(6)
    c = dual.ball_coords(6)
    assert [dual.label_at(row) for row in c.tolist()] == list(labels)
    want = [math.log(np.abs(np.diag(R[0])).max()) for R in dual.reps(labels, [point])]
    assert np.allclose(dual.log_norms_at(c, point), want, rtol=1e-14, atol=1e-14)
    assert not dual.log_norms_at(c, dual.identity()).any()
