"""Batched irreps (:meth:`GroupDual.reps`) against the one-label, one-point
reference in ``rep_oracle``: equal bit for bit, signed zeros included, at
Haar grid points, random group points and spectrum points of every kind."""

import time

import numpy as np
import pytest

from bfw.duals import (
    ProductDual,
    ProductSpectrumPoint,
    SemidirectDual,
    SemidirectSpectrumPoint,
    Su2Dual,
    Su2SpectrumPoint,
    TorusDual,
    TorusSpectrumPoint,
    parse_group,
)
from bfw.quadrature import HaarGrid

import rep_oracle

# (group, ball radius, grid degree)
GROUPS = [
    ("su2", 6, 10), ("so3", 4, 10), ("torus:1", 10, 20), ("torus:2", 4, 12), ("torus:3", 2, 6),
    ("txz2", 12, 24), ("prod(su2,torus:1)", 2, 6), ("prod(txz2,so3)", 2, 4),
]


def bit_equal(A, B) -> bool:
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        return False
    a, b = A.view(float), B.view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def spectrum_point(dual, rng):
    if isinstance(dual, TorusDual):
        mod, arg = rng.uniform(0.3, 2.5, dual.n), rng.uniform(-4.0, 4.0, dual.n)
        return TorusSpectrumPoint(tuple(mod * np.exp(1j * arg)))
    if isinstance(dual, Su2Dual):
        return Su2SpectrumPoint(dual.random_point(rng), rng.uniform(0.4, 2.5))  # lam < 1 is flipped
    if isinstance(dual, SemidirectDual):
        z = rng.uniform(0.3, 2.5) * np.exp(1j * rng.uniform(-4.0, 4.0))
        return SemidirectSpectrumPoint(z, bool(rng.integers(2)))
    assert isinstance(dual, ProductDual)
    return ProductSpectrumPoint(spectrum_point(dual.left, rng), spectrum_point(dual.right, rng))


def assert_stacks_equal_oracle(dual, labels, points, oracle):
    stacks = dual.reps(labels, points)
    assert len(stacks) == len(labels)
    for a, S in zip(labels, stacks):
        want = np.stack([oracle(dual, a, p) for p in points])
        assert bit_equal(S, want), a


@pytest.mark.parametrize("group,radius,degree", GROUPS)
def test_reps_equal_oracle_on_haar_grid(group, radius, degree):
    dual = parse_group(group)
    points, _ = dual.haar_grid(degree)
    assert_stacks_equal_oracle(dual, dual.ball(radius), points, rep_oracle.rep)


@pytest.mark.parametrize("group,radius,degree", GROUPS)
def test_reps_equal_oracle_at_random_points(group, radius, degree, rng):
    dual = parse_group(group)
    points = [dual.random_point(rng) for _ in range(40)]
    assert_stacks_equal_oracle(dual, dual.ball(radius), points, rep_oracle.rep)


@pytest.mark.parametrize("group,radius,degree", GROUPS)
def test_reps_equal_oracle_at_spectrum_points(group, radius, degree, rng):
    dual = parse_group(group)
    points = [spectrum_point(dual, rng) for _ in range(20)]
    assert_stacks_equal_oracle(dual, dual.ball(radius), points, rep_oracle.rep_at)


@pytest.mark.parametrize("group,radius,degree", GROUPS)
def test_rep_is_one_point_of_reps(group, radius, degree, rng):
    dual = parse_group(group)
    for point in (dual.random_point(rng), spectrum_point(dual, rng), dual.identity()):
        for a in dual.ball(radius):
            assert bit_equal(dual.rep(a, point), rep_oracle.rep_at(dual, a, point))


def test_haar_grid_stacks_equal_oracle(prod_dual):
    grid = HaarGrid(prod_dual, 6)
    labels = prod_dual.ball(2)
    grid._fill(labels[::2])  # a second fill adds only the labels it lacks
    for a in labels:
        want = np.stack([rep_oracle.rep(prod_dual, a, p) for p in grid.points])
        assert bit_equal(grid.rep_stack(a), want), a


def test_product_grid_fill_is_fast(prod_dual):
    # degree 16 has 24,565 points; one label at a time per point took over a minute
    grid = HaarGrid(prod_dual, 16)
    start = time.perf_counter()
    grid._fill(prod_dual.ball(4))
    assert time.perf_counter() - start < 20.0
    a = prod_dual.ball(4)[-1]
    sample = range(0, len(grid.points), 997)
    want = np.stack([rep_oracle.rep(prod_dual, a, grid.points[g]) for g in sample])
    assert bit_equal(grid.rep_stack(a)[list(sample)], want)


def test_reps_reject_foreign_labels(su2, t1):
    from bfw.errors import FamilyMismatchError

    with pytest.raises(FamilyMismatchError):
        su2.reps(t1.ball(1), [su2.identity()])
    assert su2.reps((), [su2.identity()]) == []


@pytest.mark.parametrize("n", [-1, -3, -5])
def test_su2_matrices_reject_negative_spins(n, rng):
    # these once gave the spin-0 matrix, an IndexError, one level and a 0x0 matrix
    from bfw import su2_irrep
    from bfw.duals import su2_algebra_rep, su2_irrep_stack

    g = Su2Dual().random_point(rng)
    for build in (lambda: su2_irrep(n, np.eye(2)), lambda: su2_irrep(n, g),
                  lambda: su2_irrep_stack(n, g[None]), lambda: su2_algebra_rep(n, np.diag([1j, -1j]))):
        with pytest.raises(ValueError, match="spin") as err:
            build()
        assert repr(n) in str(err.value)

