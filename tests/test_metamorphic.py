"""Relations between isomorphic presentations of one group.

torus:2 and prod(torus:1,torus:1) are the same group, with t:(m,n) as
t:(m)×t:(n), and both duals read a label at the coordinates (m, n).  Where
both sides do the same arithmetic the results are equal bit for bit: fusion
tables, and validation under weights whose values both families compute
alike.  The exp weight multiplies per axis on the torus and raises to the
word length on a product, so there the two agree to 1e-12 relative.

prod(A,B) and prod(B,A) are the same group, with a×b as b×a and the two
column blocks of a coordinate row swapped.  Log norms and the word lengths
and dimensions the recipes read add or multiply the factors' values, which
commutes exactly, so membership margins are equal bit for bit.
"""

import math

import numpy as np
import pytest

import margin_oracle
from bfw.duals import ProductDual, ProductSpectrumPoint, parse_group
from bfw.fields import point_margin
from bfw.labels import ProductLabel
from bfw.weights import make_weight, validate

TORUS, PRODUCT = parse_group("torus:2"), parse_group("prod(torus:1,torus:1)")


def relabel(label: str) -> str:
    """t:(m)×t:(n) as t:(m,n); a torus:2 label as it is."""
    return label.replace(")×t:(", ",")


def test_fusion_tables_agree():
    c = TORUS.ball_coords(6)
    i, j = np.divmod(np.arange(len(c) ** 2), len(c))
    for got, want in zip(PRODUCT.fusion_table(c[i], c[j]), TORUS.fusion_table(c[i], c[j])):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("spec", ["dim", "const:2", "poly:alpha=1", "exp:lambda=1.5"])
def test_validation_agrees(spec):
    got, want = (validate(dual, make_weight(dual, spec), 8) for dual in (PRODUCT, TORUS))
    for name in ("max_violation", "symmetry_residual", "infimum"):
        x, y = getattr(got, name), getattr(want, name)
        if spec.startswith("exp"):
            assert math.isclose(x, y, rel_tol=1e-12), (name, x, y)
        else:
            assert repr(x) == repr(y), (name, x, y)
    assert got.passed == want.passed


def test_single_violation_has_the_same_witness():
    # w = 2^|mu|_1 but 10 at t:(2,0): the one worst pair is t:(1,0) x t:(1,0)
    reports = [
        validate(dual, make_weight(dual, {"kind": "table", "base": {"kind": "exp", "lam": [2.0]},
                                          "entries": {label: 10.0}}), 6)
        for dual, label in ((PRODUCT, "t:(2)×t:(0)"), (TORUS, "t:(2,0)"))
    ]
    got, want = reports
    assert tuple(map(relabel, got.witness)) == want.witness == ("t:(2,0)", "t:(1,0)", "t:(1,0)")
    assert got.witness_values == want.witness_values and got.max_violation == want.max_violation == 1.5


SWAPS = ["prod(su2,torus:1)", "prod(txz2,so3)", "prod(prod(su2,txz2),torus:1)"]


def swapped(group: str):
    """prod(A,B) and prod(B,A)."""
    ab = parse_group(group)
    return ab, ProductDual(ab.right, ab.left)


@pytest.mark.parametrize("group", SWAPS)
def test_swapped_product_ball_has_the_same_rows(group):
    ab, ba = swapped(group)
    r = ab.left.lattice_rank
    c, d = ab.ball_coords(8), ba.ball_coords(8)
    assert len(c) == len(d)
    assert set(map(tuple, np.hstack([c[:, r:], c[:, :r]]).tolist())) == set(map(tuple, d.tolist()))


@pytest.mark.parametrize("recipe", ["dim", "poly:alpha=1", "exp:lambda=2"])
@pytest.mark.parametrize("group", SWAPS)
def test_swapped_product_margins_are_equal(group, recipe):
    ab, ba = swapped(group)
    w_ab, w_ba = make_weight(ab, recipe), make_weight(ba, recipe)
    c = ab.ball_coords(32)
    rng = np.random.default_rng(sum(map(ord, group + recipe)))
    unique = 0
    for _ in range(4):
        theta = margin_oracle.spectrum_point(ab, rng)
        got, a = point_margin(ab, theta, w_ab, 32)
        want, b = point_margin(ba, ProductSpectrumPoint(theta.right, theta.left), w_ba, 32)
        assert got.hex() == want.hex(), (theta, got, want)
        x = ab.log_norms_at(c, theta) - w_ab.log_values(c)
        if np.count_nonzero(x == x.max()) == 1:  # a unique maximum
            unique += 1
            assert b == ProductLabel(a.right, a.left), (theta, a, b)
    assert unique  # the argmax relation was checked at least once
