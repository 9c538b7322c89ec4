"""Operator-field arithmetic: norms, products, translations, involution,
factorization, diagonal scalings, and the quadrature transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfw import (
    OperatorField,
    ProductDual,
    SemidirectLabel,
    Su2Dual,
    Su2Spin,
    TorusChar,
    character_field,
    coefficient_field,
    convolve,
    dual_norm,
    evaluate,
    factorize,
    involution,
    make_weight,
    multiply,
    norm_a_omega,
    norm_l2_omega,
    one_field,
    pair,
    scale_diag,
    translate,
    zero_field,
)
from bfw.duals import parse_group
from bfw.errors import FamilyMismatchError, WeightOverflowError
from bfw.labels import parse_label
from bfw.quadrature import HaarGrid, grid_values, quadrature_coeffs
from bfw.weights import Weight, validate

import product_oracle
from conftest import field_max_abs, fields_close, random_field


# --- construction -----------------------------------------------------------

def test_shape_validation(su2):
    with pytest.raises(ValueError):
        OperatorField.from_terms(su2, {Su2Spin(1): np.eye(3)})


def test_pruning(su2):
    f = OperatorField.from_terms(su2, {Su2Spin(1): 1e-16 * np.eye(2)})
    assert f.is_zero()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_rejected(su2, bad):
    M = 1e-16 * np.eye(2, dtype=complex)  # small enough to be pruned if it were finite
    M[1, 0] = bad
    with pytest.raises(ValueError, match="not finite"):
        OperatorField.from_terms(su2, {Su2Spin(1): M})


def test_mismatched_duals(su2, t1):
    with pytest.raises(FamilyMismatchError):
        multiply(one_field(su2), one_field(t1))


# --- norms -------------------------------------------------------------------

def test_a_norm_examples(su2, t1):
    wdim = make_weight(su2, "dim")
    u = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([1.0, 0.0])})
    assert abs(norm_a_omega(u, wdim) - 4.0) < 1e-14  # 1 * 2 * 2
    assert norm_a_omega(zero_field(su2), wdim) == 0.0


def test_a_norm_overflow_is_typed(su2, t1):
    # every weight value is finite; the product (first) or the sum (second) is not
    with pytest.raises(WeightOverflowError):
        norm_a_omega(character_field(su2, Su2Spin(2)), make_weight(su2, "exp:lambda=1e154"))
    u = OperatorField.from_terms(t1, {TorusChar((k,)): np.ones((1, 1)) for k in (-1, 1)})
    w = make_weight(t1, "exp:lambda=1e308")
    assert w(TorusChar((1,))) == w(TorusChar((-1,))) == 1e308
    with pytest.raises(WeightOverflowError):
        norm_a_omega(u, w)


def test_l2_norm_past_the_overflowing_sum(su2, t1):
    # 2^2 * 1e308 overflows, the norm 2e154 does not
    w = make_weight(t1, "exp:lambda=1e308")
    assert norm_l2_omega(OperatorField.from_terms(t1, {TorusChar((1,)): [[2.0]]}), w) == 2e154
    u = OperatorField.from_terms(t1, {TorusChar((k,)): [[3.0]] for k in (-1, 1)})
    assert abs(norm_l2_omega(u, w) / (3e154 * np.sqrt(2.0)) - 1.0) < 1e-15
    # a finite sum keeps the plain formula, bit for bit
    v = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([1.0, 3.0]), Su2Spin(2): np.eye(3)})
    wd = make_weight(su2, "poly:alpha=2")
    assert norm_l2_omega(v, wd) == float(np.sqrt(10.0 * 2 * 4.0 + 3.0 * 3 * 9.0))
    with pytest.raises(WeightOverflowError):
        norm_l2_omega(OperatorField.from_terms(t1, {TorusChar((1,)): [[1e160]]}), w)


def test_single_coefficient_norm(su2, rng):
    # || (pi(.) eta, xi) || = |xi| |eta| w(pi)
    w = make_weight(su2, "poly:alpha=1")
    for n in (1, 2, 4):
        xi = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        eta = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        u = coefficient_field(su2, Su2Spin(n), xi, eta)
        expect = np.linalg.norm(xi) * np.linalg.norm(eta) * w(Su2Spin(n))
        assert abs(norm_a_omega(u, w) - expect) < 1e-11


def test_l2_norm_examples(su2, t1):
    w1 = make_weight(su2, "const:1")
    f = OperatorField.from_terms(su2, {Su2Spin(1): np.eye(2)})
    assert abs(norm_l2_omega(f, w1) - 2.0) < 1e-14  # sqrt(2 * 2)
    wp = make_weight(t1, "poly:alpha=1")
    g = OperatorField.from_terms(t1, {TorusChar((k,)): np.array([[1.0]]) for k in (-1, 0, 1)})
    assert abs(norm_l2_omega(g, wp) - math.sqrt(5.0)) < 1e-14


def test_dual_norm(su2, rng):
    wdim = make_weight(su2, "dim")
    T = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([3.0, 0.0])})
    assert abs(dual_norm(T, wdim) - 1.5) < 1e-14
    assert dual_norm(zero_field(su2), wdim) == 0.0
    # group point: sup ||pi(s)|| / w = 1 attained where w = 1
    w = make_weight(su2, "poly:alpha=1")
    s = su2.random_point(rng)
    assert abs(dual_norm(s, w, cutoff=8, dual=su2) - 1.0) < 1e-12


def test_a_contains_fourier_algebra_bound(su2, rng):
    # ||u||_A <= (1/C) ||u||_{A_w} with C the label-set infimum of w
    w = make_weight(su2, "exp:lambda=2")
    w1 = make_weight(su2, "const:1")
    u = random_field(su2, 4, rng, n_terms=3)
    rep = validate(su2, w, depth=8)
    assert norm_a_omega(u, w1) <= norm_a_omega(u, w) / rep.infimum + 1e-12


# --- product -----------------------------------------------------------------

def test_multiply_torus_laurent(t1, rng):
    # additive convolution of Laurent coefficients
    u = OperatorField.from_terms(t1, {TorusChar((k,)): np.array([[c]]) for k, c in
                                      [(-1, 2.0), (0, 1.0 + 1j), (2, -0.5)]})
    v = OperatorField.from_terms(t1, {TorusChar((k,)): np.array([[c]]) for k, c in
                                      [(1, 3.0), (2, 1j)]})
    uv = multiply(u, v)
    ps = np.zeros(8, complex)
    qs = np.zeros(8, complex)
    ps[[-1 + 3, 0 + 3, 2 + 3]] = [2.0, 1.0 + 1j, -0.5]
    qs[[1 + 3, 2 + 3]] = [3.0, 1j]
    conv = np.convolve(ps, qs)
    for k in range(-4, 5):
        got = uv[TorusChar((k,))][0, 0]
        assert abs(got - conv[k + 6]) < 1e-12


def test_multiply_characters(su2):
    prod = multiply(character_field(su2, Su2Spin(1)), character_field(su2, Su2Spin(1)))
    assert fields_close(prod, character_field(su2, Su2Spin(0)) + character_field(su2, Su2Spin(2)),
                        tol=1e-12)


def test_multiply_identity(su2, rng):
    u = random_field(su2, 3, rng, n_terms=3)
    assert fields_close(multiply(u, one_field(su2)), u, tol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_multiply_pointwise_property(seed):
    rng = np.random.default_rng(seed)
    su2 = Su2Dual()
    u = random_field(su2, 3, rng, n_terms=2)
    v = random_field(su2, 2, rng, n_terms=2)
    uv = multiply(u, v)
    for _ in range(3):
        s = su2.random_point(rng)
        assert abs(evaluate(uv, s) - evaluate(u, s) * evaluate(v, s)) < 1e-9


def test_multiply_semidirect_pointwise(sd, rng):
    u = random_field(sd, 3, rng, n_terms=3)
    v = random_field(sd, 2, rng, n_terms=2)
    uv = multiply(u, v)
    for _ in range(5):
        s = sd.random_point(rng)
        assert abs(evaluate(uv, s) - evaluate(u, s) * evaluate(v, s)) < 1e-10


def test_submultiplicativity(su2, sd, t1, rng):
    for dual in (su2, sd, t1):
        for spec in ("const:1", "dim", "poly:alpha=1", "exp:lambda=2"):
            w = make_weight(dual, spec)
            for _ in range(5):
                u = random_field(dual, 3, rng, n_terms=2)
                v = random_field(dual, 3, rng, n_terms=2)
                lhs = norm_a_omega(multiply(u, v), w)
                rhs = norm_a_omega(u, w) * norm_a_omega(v, w)
                assert lhs <= rhs * (1.0 + 1e-9), (dual.family, spec, lhs, rhs)


# radius of the ball whose labels carry random full blocks, per family: every
# spin up to 8 on SU(2) and SO(3), pi_m up to m = 8 on T x| Z_2
ORACLE_BALLS = {"su2": 8, "so3": 4, "txz2": 8, "torus:2": 3, "prod(su2,torus:1)": 4}


def _full_field(dual, radius, rng, scale, labels=None):
    terms = {}
    for a in dual.ball(radius) if labels is None else labels:
        d = dual.dim(a)
        terms[a] = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return OperatorField.from_terms(dual, terms)


@pytest.mark.parametrize("group", list(ORACLE_BALLS))
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e5])
def test_multiply_equals_rank_one_oracle(group, scale):
    dual = parse_group(group)
    rng = np.random.default_rng(7)
    r = ORACLE_BALLS[group]
    u = _full_field(dual, r, rng, scale)
    v = _full_field(dual, r // 2, rng, scale)
    for x, y in ((u, v), (v, u), (u, u)):
        got, want = multiply(x, y), product_oracle.multiply(x, y)
        assert list(got.coeffs) == list(want.coeffs)  # same support, same term order
        top = max(float(np.max(np.abs(M))) for M in want.coeffs.values())
        err = max(float(np.max(np.abs(got.coeffs[a] - M))) for a, M in want.coeffs.items())
        assert err <= 1e-13 * top, (group, err / top)


def _same_bits(got, want):
    """The same keys in the same order, and byte-equal blocks."""
    assert list(got.coeffs) == list(want.coeffs)
    for a, M in want.coeffs.items():
        assert got.coeffs[a].shape == M.shape and got.coeffs[a].tobytes() == M.tobytes(), a


# radius of the random full fields compared with the per-pair loop, per group
PAIR_LOOP_BALLS = {"su2": 4, "so3": 4, "txz2": 4, "torus:1": 4, "torus:2": 3, "prod(su2,torus:1)": 2,
                   "prod(txz2,so3)": 2, "prod(prod(su2,txz2),torus:1)": 2}


@pytest.mark.parametrize("group", list(PAIR_LOOP_BALLS))
def test_multiply_equals_pair_loop_bit_for_bit(group):
    # full fields on a ball and a smaller one, the zero field, and one-label fields
    # at the trivial label, a generator and the ball's last label
    dual = parse_group(group)
    rng = np.random.default_rng(13)
    r = PAIR_LOOP_BALLS[group]
    u, v = _full_field(dual, r, rng, 1.0), _full_field(dual, r - 1, rng, 1.0)
    zero = zero_field(dual)
    ones = [_full_field(dual, 0, rng, 1.0, [a])
            for a in (dual.trivial, dual.generators()[0], dual.ball(r)[-1])]
    cases = [(u, v), (v, u), (u, u), (zero, u), (u, zero), (zero, zero)]
    cases += [(x, y) for x in ones for y in (x, u)] + [(u, x) for x in ones]
    for x, y in cases:
        _same_bits(multiply(x, y), product_oracle.pair_loop_multiply(x, y))


@pytest.mark.parametrize("group,label", [
    ("txz2", "pi:3"), ("prod(txz2,so3)", "pi:2×pi:2"), ("prod(txz2,txz2)", "pi:1×pi:2"),
    ("prod(prod(su2,txz2),torus:1)", "(pi:1×pi:2)×t:(1)"),
])
def test_multiply_squares_equal_pair_loop_bit_for_bit(group, label):
    # pi_m (x) pi_m = pi_2m + triv + sgn, and products of such pairs: the product
    # of a one-label field with itself and with a full field on ball(2)
    dual = parse_group(group)
    rng = np.random.default_rng(17)
    x = _full_field(dual, 0, rng, 1.0, [parse_label(dual, label)])
    u = _full_field(dual, 2, rng, 1.0)
    for y, z in ((x, x), (x, u), (u, x)):
        _same_bits(multiply(y, z), product_oracle.pair_loop_multiply(y, z))


def test_multiply_keeps_rank_deficient_blocks(su2, rng):
    # rank-one and rank-two blocks take the same path as full ones
    eta, xi = rng.standard_normal(5) + 1j * rng.standard_normal(5), rng.standard_normal(5)
    u = coefficient_field(su2, Su2Spin(4), xi, eta) + coefficient_field(su2, Su2Spin(4), eta, xi)
    v = coefficient_field(su2, Su2Spin(3), xi[:4], eta[:4])
    got, want = multiply(u, v), product_oracle.multiply(u, v)
    assert list(got.coeffs) == list(want.coeffs)
    assert field_max_abs(got - want) <= 1e-13 * field_max_abs(want)


@pytest.mark.parametrize("group", list(ORACLE_BALLS) + ["torus:1"])
def test_norm_a_omega_equals_per_block_svd_sum(group):
    dual = parse_group(group)
    rng = np.random.default_rng(11)
    u = _full_field(dual, 3, rng, 1.0)
    uv = multiply(u, u)
    for spec in ("const:1", "dim", "poly:alpha=1", "exp:lambda=2"):
        w = make_weight(dual, spec)
        for f in (u, uv):
            assert norm_a_omega(f, w) == product_oracle.norm_a_omega(f, w), (group, spec)


def test_trace_norms_taken_once_per_field(su2, rng, monkeypatch):
    u = random_field(su2, 4, rng, n_terms=3)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    norms = u.trace_norms
    assert list(norms) == list(u.coeffs) and len(calls) == 3
    for spec in ("const:1", "dim", "exp:lambda=2"):
        norm_a_omega(u, make_weight(su2, spec))
    assert u.trace_norms is norms and len(calls) == 3
    # a new field takes its own norms
    norm_a_omega(2.0 * u, make_weight(su2, "dim"))
    assert len(calls) == 6


# --- evaluation, pairing -----------------------------------------------------

def test_evaluate_examples(su2, sd):
    assert abs(evaluate(character_field(su2, Su2Spin(1)), su2.identity()) - 2.0) < 1e-14
    assert abs(evaluate(one_field(su2), su2.random_point(np.random.default_rng(0))) - 1.0) < 1e-12
    from bfw.duals import SemidirectPoint

    val = evaluate(character_field(sd, SemidirectLabel("pi", 3)), SemidirectPoint(0.3, True))
    assert abs(val) < 1e-14


def test_pair_examples(su2, rng):
    e0 = np.eye(2)[0]
    u = coefficient_field(su2, Su2Spin(1), e0, e0)
    T = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([5.0, 0.0])})
    assert abs(pair(T, u) - 5.0) < 1e-14
    # identity functional gives the value at the group identity
    u2 = random_field(su2, 3, rng, n_terms=3)
    T_id = OperatorField.from_terms(su2, {a: np.eye(su2.dim(a)) for a in u2.coeffs})
    assert abs(pair(T_id, u2) - evaluate(u2, su2.identity())) < 1e-12
    # disjoint supports pair to zero
    T2 = OperatorField.from_terms(su2, {Su2Spin(7): np.eye(8)})
    assert pair(T2, u) == 0.0
    # pairing against a group point equals evaluation
    s = su2.random_point(rng)
    assert abs(pair(s, u2) - evaluate(u2, s)) < 1e-12


# --- translations and involution ----------------------------------------------

def test_translate_identity(su2, rng):
    u = random_field(su2, 3, rng)
    assert fields_close(translate(u, su2.identity(), "right"), u, tol=1e-14)


def test_translate_torus_phase(t1):
    u = OperatorField.from_terms(t1, {TorusChar((2,)): np.array([[1.0]])})
    theta0 = 0.7
    v = translate(u, np.array([theta0]), "right")
    assert abs(v[TorusChar((2,))][0, 0] - np.exp(2j * theta0)) < 1e-14


def test_translate_isometry_and_pointwise(su2, sd, rng):
    for dual in (su2, sd):
        w = make_weight(dual, "poly:alpha=1")
        u = random_field(dual, 3, rng, n_terms=3)
        t = dual.random_point(rng)
        for side in ("left", "right"):
            v = translate(u, t, side)
            assert abs(norm_a_omega(v, w) - norm_a_omega(u, w)) < 1e-12
        # right translation shifts the argument: (rho(t)u)(s) = u(st)
        s = dual.random_point(rng)
        assert abs(evaluate(translate(u, t, "right"), s) - evaluate(u, dual.point_mul(s, t))) < 1e-10
        assert abs(
            evaluate(translate(u, t, "left"), s) - evaluate(u, dual.point_mul(dual.point_inv(t), s))
        ) < 1e-10


def test_involution(su2, sd, t1, rng):
    # real function fixed: ordinary characters are real on all three families
    for dual, a in [(su2, Su2Spin(1)), (sd, SemidirectLabel("pi", 2))]:
        c = character_field(dual, a)
        assert fields_close(involution(c), c, tol=1e-14)
    u = OperatorField.from_terms(t1, {TorusChar((1,)): np.array([[2.0 + 1.0j]])})
    ub = involution(u)
    assert abs(ub[TorusChar((-1,))][0, 0] - (2.0 - 1.0j)) < 1e-15
    for dual in (su2, sd, t1):
        w = make_weight(dual, "poly:alpha=1")
        u = random_field(dual, 3, rng, n_terms=3)
        ub = involution(u)
        assert abs(norm_a_omega(ub, w) - norm_a_omega(u, w)) < 1e-12
        for _ in range(3):
            s = dual.random_point(rng)
            assert abs(evaluate(ub, s) - np.conj(evaluate(u, s))) < 1e-10
        assert fields_close(involution(ub), u, tol=1e-12)


# --- factorization -------------------------------------------------------------

def test_factorize_identity_weights(su2):
    w1 = make_weight(su2, "const:1")
    u = OperatorField.from_terms(su2, {Su2Spin(1): np.eye(2)})
    f, g = factorize(u, w1, w1)
    assert fields_close(f, u, tol=1e-14) and fields_close(g, u, tol=1e-14)


def test_factorize_constant_weights(su2):
    w4 = make_weight(su2, "const:4")
    w1 = make_weight(su2, "const:1")
    u = OperatorField.from_terms(su2, {Su2Spin(1): np.eye(2)})
    f, g = factorize(u, w4, w1)
    assert np.allclose(g[Su2Spin(1)], np.sqrt(2.0) * np.eye(2))
    assert np.allclose(f[Su2Spin(1)], np.eye(2) / np.sqrt(2.0))
    assert fields_close(convolve(f, g), u, tol=1e-14)


def test_factorize_reconstruction_and_bound(su2, rng):
    w1 = make_weight(su2, "dim")
    w2 = make_weight(su2, "exp:lambda=2")
    w_geo = Weight(su2, lambda a: math.sqrt(w1(a) * w2(a)), "geometric-mean")
    for _ in range(10):
        u = random_field(su2, 3, rng, n_terms=3)
        f, g = factorize(u, w1, w2)
        assert fields_close(convolve(f, g), u, tol=1e-12)
        lhs = norm_a_omega(u, w_geo)
        rhs = norm_l2_omega(f, w2) * norm_l2_omega(g, w1)
        assert lhs <= rhs + 1e-9
    # equality for a single coefficient
    u = coefficient_field(su2, Su2Spin(2), rng.standard_normal(3), rng.standard_normal(3))
    f, g = factorize(u, w1, w2)
    assert abs(norm_a_omega(u, w_geo) - norm_l2_omega(f, w2) * norm_l2_omega(g, w1)) < 1e-9


def test_convolve_order(su2, rng):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = OperatorField.from_terms(su2, {Su2Spin(1): A})
    g = OperatorField.from_terms(su2, {Su2Spin(1): B})
    assert np.allclose(convolve(f, g)[Su2Spin(1)], B @ A)


# --- diagonal scalings ----------------------------------------------------------

def test_scale_diag(su2, rng):
    w1 = make_weight(su2, "const:1")
    wd = make_weight(su2, "dim")
    xi = OperatorField.from_terms(su2, {Su2Spin(1): np.eye(2)})
    assert fields_close(scale_diag(xi, w1, "q"), xi, tol=1e-15)
    q = scale_diag(xi, wd, "q")
    assert np.allclose(q[Su2Spin(1)], np.sqrt(2.0) * np.eye(2))
    assert fields_close(scale_diag(q, wd, "r"), xi, tol=1e-14)
    f = random_field(su2, 4, rng, n_terms=3)
    assert abs(norm_l2_omega(f, wd) - norm_l2_omega(scale_diag(f, wd, "q"), w1)) < 1e-12
    with pytest.raises(ValueError):
        scale_diag(xi, wd, "x")


# --- quadrature ------------------------------------------------------------------

def test_quadrature_character(su2):
    co = quadrature_coeffs(character_field(su2, Su2Spin(1)), su2, cutoff=3)
    assert set(co.coeffs) == {Su2Spin(1)}
    assert np.allclose(co[Su2Spin(1)], np.eye(2) / 2.0, atol=1e-12)


def test_quadrature_constant(su2, sd, t2):
    for dual in (su2, sd, t2):
        co = quadrature_coeffs(one_field(dual), dual, cutoff=2)
        assert set(co.coeffs) == {dual.trivial}
        assert abs(co[dual.trivial][0, 0] - 1.0) < 1e-12


def test_quadrature_roundtrip(su2, sd, t2, so3, rng):
    # the default degree counts each family's grid index: the spin, twice the word length, on SO(3)
    prod = ProductDual(sd, so3)
    for dual, cutoff in ((su2, 4), (sd, 4), (t2, 4), (so3, 2), (so3, 3), (prod, 2)):
        u = random_field(dual, cutoff, rng, n_terms=3)
        co = quadrature_coeffs(u, dual, cutoff=cutoff)
        assert fields_close(co, u, tol=1e-12), (dual, cutoff)


def test_quadrature_callable_and_inversion(su2, rng):
    u = random_field(su2, 3, rng, n_terms=2)
    co = quadrature_coeffs(lambda p: evaluate(u, p), su2, cutoff=3)
    assert fields_close(co, u, tol=1e-11)
    # Fourier inversion consistency
    for _ in range(3):
        s = su2.random_point(rng)
        assert abs(evaluate(co, s) - evaluate(u, s)) < 1e-10


def test_quadrature_product_oracle(su2, rng):
    u = random_field(su2, 3, rng, n_terms=2)
    v = random_field(su2, 2, rng, n_terms=2)
    uv = multiply(u, v)
    grid = HaarGrid(su2, 2 * 5)
    vals = grid_values(u, grid) * grid_values(v, grid)
    co = grid.coefficients(vals, su2.ball(5))
    assert fields_close(co, uv, tol=1e-10)


def test_quadrature_refinement_error(t1, so3, sd, rng):
    from bfw.errors import QuadratureConvergenceError

    # a function far outside the requested cutoff: refinement disagrees
    fn = lambda p: np.exp(6j * p[0])
    with pytest.raises(QuadratureConvergenceError):
        quadrature_coeffs(fn, t1, cutoff=1, degree=4, check_refine=True)
    # within the cutoff the refinement agrees
    quadrature_coeffs(lambda p: np.exp(1j * p[0]), t1, cutoff=1, check_refine=True)
    for dual, cutoff in ((so3, 2), (so3, 3), (ProductDual(sd, so3), 1)):
        u = random_field(dual, cutoff, rng, n_terms=3)
        co = quadrature_coeffs(u, dual, cutoff=cutoff, check_refine=True)
        assert fields_close(co, u, tol=1e-12), (dual, cutoff)


def test_dual_norm_report_records_cutoff(su2, rng):
    from bfw.fields import dual_norm_report

    w = make_weight(su2, "poly:alpha=1")
    s = su2.random_point(rng)
    rep = dual_norm_report(s, w, cutoff=12, dual=su2)
    assert rep.cutoff == 12 and not rep.exact
    assert abs(rep.value - 1.0) < 1e-12
    T = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([3.0, 0.0])})
    rep2 = dual_norm_report(T, make_weight(su2, "dim"))
    assert rep2.exact and rep2.cutoff is None and abs(rep2.value - 1.5) < 1e-14


def test_multiply_product_dual(prod_dual, rng):
    from bfw.labels import ProductLabel

    u = OperatorField.from_terms(
        prod_dual,
        {ProductLabel(Su2Spin(1), TorusChar((1,))): rng.standard_normal((2, 2))
         + 1j * rng.standard_normal((2, 2))},
    )
    v = OperatorField.from_terms(
        prod_dual,
        {ProductLabel(Su2Spin(1), TorusChar((-2,))): rng.standard_normal((2, 2))},
    )
    uv = multiply(u, v)
    assert {a for a in uv.coeffs} == {
        ProductLabel(Su2Spin(0), TorusChar((-1,))),
        ProductLabel(Su2Spin(2), TorusChar((-1,))),
    }
    for _ in range(4):
        s = prod_dual.random_point(rng)
        assert abs(evaluate(uv, s) - evaluate(u, s) * evaluate(v, s)) < 1e-10
