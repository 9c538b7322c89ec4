"""Isometry, orthogonality, equivariance, and completeness of the fusion
intertwiners, plus the phase convention.  Each pair's intertwiners are one
unitary W whose column blocks follow ``fuse``; the tests slice it with
:func:`intertwiner_oracle.column_blocks`."""

import numpy as np
import pytest

from bfw import (
    ProductDual,
    ProductLabel,
    SemidirectDual,
    SemidirectLabel,
    So3Dual,
    Su2Dual,
    Su2Spin,
    TorusChar,
    TorusDual,
)
from bfw.duals import _su2_cg_pair, parse_group
from bfw.errors import IntertwinerSynthesisError
from cg_oracle import su2_cg_isometry as _su2_cg_isometry
from intertwiner_oracle import column_blocks, oracle_blocks


def _check_intertwiner_set(dual, a, b, rng, eq_tol=1e-10):
    da, db = dual.dim(a), dual.dim(b)
    all_vs = []
    for sigma, V in column_blocks(dual, a, b):
        assert V.shape == (da * db, dual.dim(sigma))
        assert np.max(np.abs(V.conj().T @ V - np.eye(dual.dim(sigma)))) < 1e-12
        all_vs.append((sigma, V))
    # pairwise orthogonal ranges
    for i, (s1, V1) in enumerate(all_vs):
        for s2, V2 in all_vs[i + 1:]:
            assert np.max(np.abs(V1.conj().T @ V2)) < 1e-12
    # completeness
    total = sum(V @ V.conj().T for _, V in all_vs)
    assert np.max(np.abs(total - np.eye(da * db))) < 1e-10
    # equivariance at sampled points
    for _ in range(3):
        g = dual.random_point(rng)
        big = np.kron(dual.rep(a, g), dual.rep(b, g))
        for sigma, V in all_vs:
            assert np.max(np.abs(big @ V - V @ dual.rep(sigma, g))) < eq_tol


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 2), (5, 5), (0, 3)])
def test_su2_intertwiners(su2, rng, n, m):
    _check_intertwiner_set(su2, Su2Spin(n), Su2Spin(m), rng)


def test_su2_condon_shortley_phase(su2):
    # highest-weight coefficient at maximal first-factor exponent is positive
    for (n1, n2) in [(1, 1), (3, 2), (2, 2)]:
        for sigma, V in column_blocks(su2, Su2Spin(n1), Su2Spin(n2)):
            d2 = n2 + 1
            k2 = (n2 - (sigma.n - n1)) // 2  # m1 = j1 row in the top column
            entry = V[0 * d2 + k2, 0]
            assert entry.real > 0 and abs(entry.imag) < 1e-14


def test_su2_singlet_values(su2):
    # spin-1/2 pair: singlet (e0 x e1 - e1 x e0)/sqrt(2), triplet standard
    iw = dict(column_blocks(su2, Su2Spin(1), Su2Spin(1)))
    V0 = iw[Su2Spin(0)]
    np.testing.assert_allclose(
        V0.ravel(), np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-14
    )
    V2 = iw[Su2Spin(2)]
    np.testing.assert_allclose(V2[:, 0], [1, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(V2[:, 1], np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-14)


@pytest.mark.parametrize(
    "a,b",
    [
        (SemidirectLabel("pi", 1), SemidirectLabel("pi", 1)),
        (SemidirectLabel("pi", 2), SemidirectLabel("pi", 5)),
        (SemidirectLabel("sgn"), SemidirectLabel("pi", 2)),
        (SemidirectLabel("pi", 3), SemidirectLabel("sgn")),
        (SemidirectLabel("sgn"), SemidirectLabel("sgn")),
        (SemidirectLabel("triv"), SemidirectLabel("pi", 1)),
    ],
)
def test_semidirect_intertwiners(sd, rng, a, b):
    _check_intertwiner_set(sd, a, b, rng, eq_tol=1e-12)


def test_torus_intertwiners(t2, rng):
    _check_intertwiner_set(t2, TorusChar((1, -2)), TorusChar((0, 3)), rng, eq_tol=1e-12)


def test_product_intertwiners(prod_dual, rng):
    a = ProductLabel(Su2Spin(1), TorusChar((1,)))
    b = ProductLabel(Su2Spin(2), TorusChar((-1,)))
    _check_intertwiner_set(prod_dual, a, b, rng)


def test_cg_isometry_errors():
    V = _su2_cg_isometry(2, 2, 4)
    assert V.shape == (9, 5)


def test_large_spin_stability(su2, rng):
    # recursion-based irreps stay unitary and multiplicative far past the
    # desk-scale cutoffs
    from bfw.duals import su2_irrep

    g, h = su2.random_point(rng), su2.random_point(rng)
    for n in (100, 200):
        R = su2_irrep(n, g)
        assert np.max(np.abs(R @ R.conj().T - np.eye(n + 1))) < 1e-11
        assert np.max(np.abs(su2_irrep(n, g @ h) - su2_irrep(n, g) @ su2_irrep(n, h))) < 1e-10


def test_cg_moderate_spins(su2, rng):
    from bfw.duals import su2_irrep

    g = su2.random_point(rng)
    iw = column_blocks(su2, Su2Spin(8), Su2Spin(12))
    comp = sum(V @ V.conj().T for _, V in iw)
    assert np.max(np.abs(comp - np.eye(9 * 13))) < 1e-10
    big = np.kron(su2_irrep(8, g), su2_irrep(12, g))
    for sigma, V in iw:
        assert np.max(np.abs(big @ V - V @ su2_irrep(sigma.n, g))) < 1e-10


def _bit_equal(V, W):
    # equal entries with equal signs, so -0.0 and 0.0 count as different
    x, y = V.view(float), W.view(float)
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def _cg_oracle_unitary(n1, n2):
    # the scalar loop's isometries side by side, lowest spin first
    return np.hstack([_su2_cg_isometry(n1, n2, n) for n in range(abs(n1 - n2), n1 + n2 + 1, 2)])


def test_cg_pair_equals_scalar_oracle():
    for n1 in range(17):
        for n2 in range(17):
            W = _su2_cg_pair(n1, n2)
            assert W.dtype == complex and W.flags.c_contiguous
            assert _bit_equal(W, _cg_oracle_unitary(n1, n2)), (n1, n2)


@pytest.mark.parametrize("n1,n2", [(32, 0), (1, 32), (32, 5), (17, 32), (25, 24)])
def test_cg_pair_equals_scalar_oracle_large(n1, n2):
    assert _bit_equal(_su2_cg_pair(n1, n2), _cg_oracle_unitary(n1, n2))


@pytest.mark.parametrize("n1,n2", [(35, 35), (34, 35), (35, 0)])
def test_cg_pair_equals_scalar_oracle_at_edge(n1, n2):
    # the largest spins whose blocks still pass the residual check
    assert _bit_equal(_su2_cg_pair(n1, n2), _cg_oracle_unitary(n1, n2))


def test_cg_pair_raises_past_edge():
    with pytest.raises(IntertwinerSynthesisError, match=r"\(36,35\)->31"):
        _su2_cg_pair(36, 35)


@pytest.mark.parametrize("family", ["su2", "so3"])
def test_intertwiner_blocks_in_fuse_order_equal_oracle(family, su2, so3):
    dual = su2 if family == "su2" else so3
    for n1, n2 in [(0, 0), (2, 4), (6, 2), (8, 8), (10, 4)]:
        a, b = Su2Spin(n1), Su2Spin(n2)
        iw = column_blocks(dual, a, b)
        assert [sigma for sigma, _ in iw] == [sigma for sigma, _ in dual.fuse(a, b)]
        for sigma, V in iw:
            assert _bit_equal(V, _su2_cg_isometry(n1, n2, sigma.n))


def test_cg_pair_stacked_unitary():
    # the blocks of one pair together form a unitary of the product space
    worst = 0.0
    for n1 in range(17):
        for n2 in range(17):
            U = _su2_cg_pair(n1, n2)
            assert U.shape == ((n1 + 1) * (n2 + 1),) * 2
            worst = max(worst, np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
    assert worst < 1e-10


def test_cg_residual_check_catches_corrupted_lowering(monkeypatch):
    # scale _jplus at every spin but the factors' j = 4, which hits only the
    # lowering divisors J_-(m) of the components: column k of the top component
    # then shrinks by (1 + 1e-6)^k, and the last diagonal entry of V^H V is off
    # by about 3.2e-5 > rtol 1e-5 (a uniform scaling would cancel in the ratio)
    import bfw.duals as duals

    _su2_cg_pair(8, 8)  # uncorrupted, every block passes
    jplus = duals._jplus

    def corrupted(j, m):
        return jplus(j, m) * (1.0 if j == 4.0 else 1.0 + 1e-6)

    monkeypatch.setattr(duals, "_jplus", corrupted)
    with pytest.raises(IntertwinerSynthesisError, match=r"\(8,8\)->16"):
        _su2_cg_pair(8, 8)


@pytest.mark.parametrize("eps", [1e-7, 2.5e-7, 2.9e-7, 3.4e-7, 4e-7, 1e-6])
def test_cg_residual_check_agrees_with_allclose(monkeypatch, eps):
    # divisors scaled by 1 + eps push the last diagonal entry of V^H V about
    # 32 eps away from 1, across the 1e-5 allowance near eps = 3.1e-7; the
    # library's per-block check raises exactly when the oracle's
    # np.allclose(V^H V, I, atol=1e-10) fails on some block
    import bfw.duals as duals
    import cg_oracle

    jplus = duals._jplus

    def corrupted(j, m):
        return jplus(j, m) * (1.0 if j == 4.0 else 1.0 + eps)

    monkeypatch.setattr(duals, "_jplus", corrupted)
    monkeypatch.setattr(cg_oracle, "_jplus", corrupted)
    oracle_fails = False
    for n in range(0, 17, 2):
        try:
            _su2_cg_isometry(8, 8, n)
        except IntertwinerSynthesisError:
            oracle_fails = True
    try:
        _su2_cg_pair(8, 8)
        fails = False
    except IntertwinerSynthesisError:
        fails = True
    assert fails == oracle_fails
    assert fails == (eps > 3.1e-7)


def _assert_blocks_equal_oracle(dual, a, b):
    got, want = column_blocks(dual, a, b), oracle_blocks(dual, a, b)
    assert [sigma for sigma, _ in got] == [sigma for sigma, _ in want], (a, b)
    for (sigma, V), (_, U) in zip(got, want):
        assert _bit_equal(V, U), (a, b, sigma)


def test_txz2_blocks_equal_oracle():
    # every pair of labels up to pi_6, against the hand-built block lists
    labels = [SemidirectLabel("triv"), SemidirectLabel("sgn")] + [SemidirectLabel("pi", m) for m in range(1, 7)]
    dual = SemidirectDual()
    for a in labels:
        for b in labels:
            _assert_blocks_equal_oracle(dual, a, b)


@pytest.mark.parametrize("group", ["prod(su2,torus:1)", "prod(txz2,so3)", "prod(txz2,txz2)"])
def test_product_blocks_equal_oracle(group):
    # every pair of ball(3), against one Kronecker product per pair of factor blocks
    dual = parse_group(group)
    ball = dual.ball(3)
    for a in ball:
        for b in ball:
            _assert_blocks_equal_oracle(dual, a, b)


@pytest.mark.parametrize(
    "dual",
    [TorusDual(2), Su2Dual(), So3Dual(), SemidirectDual(), ProductDual(Su2Dual(), TorusDual(1)),
     ProductDual(SemidirectDual(), So3Dual())],
    ids=str,
)
def test_intertwiners_unitary_and_read_only(dual):
    ball = dual.ball(3)
    for a in ball:
        for b in ball:
            W = dual.intertwiners(a, b)
            n = dual.dim(a) * dual.dim(b)
            assert W.shape == (n, n) and W.dtype == complex
            assert np.max(np.abs(W.conj().T @ W - np.eye(n))) <= 1e-12, (a, b)
            assert not W.flags.writeable
            assert dual.intertwiners(a, b) is W  # cached under (a, b)
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0] = 2.0
