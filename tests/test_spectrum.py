"""Spectrum parametrizations: radii, membership margins, character values,
analytic evaluation, and the conjugate-representation identity."""

import numpy as np
import pytest

from bfw import (
    OperatorField,
    SemidirectLabel,
    Su2Spin,
    TorusChar,
    character_field,
    evaluate,
    make_weight,
    multiply,
)
from bfw.spectrum import (
    SemidirectSpectrumPoint,
    Su2SpectrumPoint,
    TorusSpectrumPoint,
    analytic_eval,
    char_eval,
    conj_rep_residual,
    membership,
    point_to_spectrum,
    spectrum_bounds,
    spectrum_point_inv,
    strip_bracket,
)

from conftest import random_field


def test_torus_annulus(t1):
    w = make_weight(t1, "exp:lambda=2")
    desc = spectrum_bounds(t1, w, n_max=1024)
    lo, hi = desc.annulus()
    assert abs(lo - 0.5) < 1e-9 and abs(hi - 2.0) < 1e-9
    assert not desc.equals_group


def test_semidirect_annulus(sd):
    w = make_weight(sd, "exp:lambda=2")
    desc = spectrum_bounds(sd, w, n_max=512)
    lo, hi = desc.annulus()
    assert abs(lo - 0.5) < 1e-9 and abs(hi - 2.0) < 1e-9


def test_su2_poly_equals_group(su2):
    desc = spectrum_bounds(su2, make_weight(su2, "poly:alpha=1"))
    assert desc.equals_group
    assert all(abs(r - 1.0) <= 1e-3 for r in desc.radii.values())


def test_membership_group_point(su2, rng):
    w = make_weight(su2, "poly:alpha=1")
    theta = point_to_spectrum(su2, su2.random_point(rng))
    res = membership(su2, theta, w, cutoff=16)
    assert res.member and abs(res.margin - 1.0) < 1e-10


def test_membership_boundary(su2):
    w = make_weight(su2, "exp:lambda=2")
    res = membership(su2, Su2SpectrumPoint(np.eye(2), 2.0), w, cutoff=40)
    assert res.member and abs(res.margin - 1.0) < 1e-9


def test_membership_non_member(su2):
    w = make_weight(su2, "poly:alpha=1")
    res = membership(su2, Su2SpectrumPoint(np.eye(2), 1.1), w, cutoff=64)
    assert not res.member and res.certified and res.margin > 1.0


def test_lam_canonicalization():
    p = Su2SpectrumPoint(np.eye(2), 0.5)
    assert p.lam == 2.0


@pytest.mark.parametrize("make", [
    lambda: Su2SpectrumPoint(np.eye(2), float("nan")),
    lambda: Su2SpectrumPoint(np.eye(2), float("inf")),
    lambda: Su2SpectrumPoint(np.array([[np.nan, 0], [0, 1]]), 2.0),
    lambda: TorusSpectrumPoint((float("nan"),)),
    lambda: TorusSpectrumPoint((1.0, complex(1.0, float("inf")))),
    lambda: SemidirectSpectrumPoint(float("nan")),
    lambda: SemidirectSpectrumPoint(complex(float("-inf"), 0.0), True),
], ids=["su2-lam-nan", "su2-lam-inf", "su2-s-nan", "torus-nan", "torus-inf", "txz2-nan", "txz2-inf"])
def test_non_finite_spectrum_points_are_rejected(make):
    # a NaN lam ended in "spin-1 irrep overflows", a NaN torus z in an SVD that did not converge
    with pytest.raises(ValueError, match="finite"):
        make()


def test_su2_spectrum_point_needs_a_unitary_s():
    # the margin of s diag(lam, 1/lam) is read from lam alone, which holds for unitary s only
    for s in (np.diag([2.0, 0.5]), np.eye(3), np.ones((2, 2))):
        with pytest.raises(ValueError, match="unitary"):
            Su2SpectrumPoint(s, 1.5)


def test_char_eval_examples(su2):
    theta = Su2SpectrumPoint(np.eye(2), 2.0)
    u = character_field(su2, Su2Spin(1))
    assert abs(char_eval(su2, theta, u) - 2.5) < 1e-14
    # consistency with evaluation at group points
    rng = np.random.default_rng(4)
    s = su2.random_point(rng)
    u2 = random_field(su2, 3, rng, n_terms=3)
    assert abs(char_eval(su2, point_to_spectrum(su2, s), u2) - evaluate(u2, s)) < 1e-10


def test_char_eval_multiplicative(su2, rng):
    theta = Su2SpectrumPoint(np.eye(2), 1.5)
    for _ in range(20):
        u = random_field(su2, 3, rng, n_terms=2)
        v = random_field(su2, 2, rng, n_terms=2)
        lhs = char_eval(su2, theta, multiply(u, v))
        rhs = char_eval(su2, theta, u) * char_eval(su2, theta, v)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_char_eval_multiplicative_semidirect(sd, rng):
    theta = SemidirectSpectrumPoint(1.5, False)
    for _ in range(10):
        u = random_field(sd, 3, rng, n_terms=2)
        v = random_field(sd, 2, rng, n_terms=2)
        lhs = char_eval(sd, theta, multiply(u, v))
        rhs = char_eval(sd, theta, u) * char_eval(sd, theta, v)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_analytic_eval(su2):
    u = character_field(su2, Su2Spin(1))
    theta = Su2SpectrumPoint(np.eye(2), 2.0)
    # z = 0 gives the value at the identity, z = 1 the character value
    assert abs(analytic_eval(su2, u, theta, 0.0) - 2.0) < 1e-14
    assert abs(analytic_eval(su2, u, theta, 1.0) - char_eval(su2, theta, u)) < 1e-14
    for t in (0.25, 1.0, 2.5):
        want = 2.0 * np.cos(t * np.log(2.0))
        assert abs(analytic_eval(su2, u, theta, 1j * t) - want) < 1e-12


def test_analytic_eval_torus(t1):
    u = OperatorField.from_terms(t1, {TorusChar((2,)): np.array([[1.5]])})
    theta = TorusSpectrumPoint((1.3,))
    z = 0.7 + 0.2j
    want = 1.5 * np.exp(z * 2 * np.log(1.3))
    assert abs(analytic_eval(t1, u, theta, z) - want) < 1e-13


def test_analytic_eval_requires_positive(su2, rng):
    u = character_field(su2, Su2Spin(1))
    theta = Su2SpectrumPoint(su2.random_point(rng), 2.0)
    with pytest.raises(ValueError):
        analytic_eval(su2, u, theta, 0.5)


def test_conj_rep_residual(su2, sd, t1):
    assert conj_rep_residual(su2, Su2SpectrumPoint(np.eye(2), 1.0), Su2Spin(2)) < 1e-14
    for lam in (1.5, 3.0):
        assert conj_rep_residual(su2, Su2SpectrumPoint(np.eye(2), lam), Su2Spin(1)) < 1e-12
        assert conj_rep_residual(su2, Su2SpectrumPoint(np.eye(2), lam), Su2Spin(4)) < 1e-12
    assert conj_rep_residual(sd, SemidirectSpectrumPoint(1.7, False), SemidirectLabel("pi", 2)) < 1e-12
    assert conj_rep_residual(t1, TorusSpectrumPoint((1.4,)), TorusChar((3,))) < 1e-12


def test_reinhardt_margin_invariance(su2, rng):
    # margins depend only on the positive part
    w = make_weight(su2, "exp:lambda=2")
    base = Su2SpectrumPoint(np.eye(2), 1.5)
    m0 = membership(su2, base, w, cutoff=24).margin
    for _ in range(3):
        s = su2.random_point(rng)
        rotated = Su2SpectrumPoint(s, 1.5)
        m1 = membership(su2, rotated, w, cutoff=24).margin
        assert abs(m0 - m1) < 1e-12


def test_log_convexity_margins(su2):
    w = make_weight(su2, "exp:lambda=2")
    th1 = Su2SpectrumPoint(np.eye(2), 1.8)
    th2 = Su2SpectrumPoint(np.eye(2), 1.2)
    m1 = membership(su2, th1, w, cutoff=24).margin
    m2 = membership(su2, th2, w, cutoff=24).margin
    for s in (0.25, 0.5, 0.75):
        mid = Su2SpectrumPoint(np.eye(2), 1.8**s * 1.2 ** (1 - s))
        m = membership(su2, mid, w, cutoff=24).margin
        assert m <= max(m1, m2) + 1e-9


def test_symmetric_inverse_margin(su2, sd):
    w = make_weight(su2, "exp:lambda=2")
    theta = Su2SpectrumPoint(np.eye(2), 1.7)
    inv = spectrum_point_inv(su2, theta)
    m1 = membership(su2, theta, w, cutoff=24).margin
    m2 = membership(su2, inv, w, cutoff=24).margin
    assert abs(m1 - m2) < 1e-12
    wsd = make_weight(sd, "exp:lambda=2")
    th = SemidirectSpectrumPoint(1.3 * np.exp(0.4j), False)
    m1 = membership(sd, th, wsd, cutoff=24).margin
    m2 = membership(sd, spectrum_point_inv(sd, th), wsd, cutoff=24).margin
    assert abs(m1 - m2) < 1e-12


def test_semidirect_flip_involution(sd):
    th = SemidirectSpectrumPoint(1.5 * np.exp(0.3j), True)
    inv = spectrum_point_inv(sd, th)
    lab = SemidirectLabel("pi", 2)
    assert np.allclose(
        sd.rep(lab, th) @ sd.rep(lab, inv), np.eye(2), atol=1e-12
    )


def test_strip_bracket(su2):
    w = make_weight(su2, "exp:lambda=2")
    theta = Su2SpectrumPoint(np.eye(2), 2.0)
    lo, hi = strip_bracket(su2, theta, w, cutoff=32, s_max=4.0, step=0.25)
    # 2^s stays within [1/2, 2] exactly for |s| <= 1
    assert abs(hi - 1.0) < 1e-12 and abs(lo + 1.0) < 1e-12


@pytest.mark.parametrize("kw", [{"step": 0.0}, {"step": -0.25}, {"step": float("nan")}, {"step": float("inf")},
                                {"s_max": float("inf")}, {"s_max": float("nan")}, {"s_max": -1.0}],
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_strip_bracket_rejects_unbounded_scans(su2, monkeypatch, kw):
    # under exp:lambda=2 the powers of lam = 1.5 are members for |s| <= 1.7, so a
    # zero step would test s = 0 forever, and s_max = inf never stops at lam = 1;
    # each bad argument is rejected before any membership call
    import bfw.spectrum as spectrum

    def never(*args):
        raise AssertionError("membership called")

    monkeypatch.setattr(spectrum, "membership", never)
    with pytest.raises(ValueError, match="strip_bracket"):
        strip_bracket(su2, Su2SpectrumPoint(np.eye(2), 1.5), make_weight(su2, "exp:lambda=2"), cutoff=8, **kw)


def test_spectrum_json(su2):
    desc = spectrum_bounds(su2, make_weight(su2, "exp:lambda=2"), n_max=256)
    doc = desc.to_json()
    assert doc["family"] == "su2" and "annulus" in doc
    assert abs(doc["annulus"][1] - 2.0) < 1e-9


def test_semidirect_margin_rotation_invariance(sd):
    # margins depend only on the modulus of the circle coordinate
    w = make_weight(sd, "exp:lambda=2")
    m0 = membership(sd, SemidirectSpectrumPoint(1.5, False), w, cutoff=24).margin
    for ang in (0.7, 2.1):
        for flip in (False, True):
            m1 = membership(sd, SemidirectSpectrumPoint(1.5 * np.exp(1j * ang), flip), w,
                            cutoff=24).margin
            assert abs(m0 - m1) < 1e-12


def test_torus_membership_annulus(t1):
    from bfw.spectrum import TorusSpectrumPoint

    w = make_weight(t1, "exp:lambda=2")
    assert membership(t1, TorusSpectrumPoint((1.99,)), w, cutoff=64).member
    assert membership(t1, TorusSpectrumPoint((0.51,)), w, cutoff=64).member
    res = membership(t1, TorusSpectrumPoint((2.2,)), w, cutoff=64)
    assert not res.member and res.certified


def test_spectrum_bounds_truncation(t1, su2):
    w = make_weight(t1, "exp:lambda=2")
    assert spectrum_bounds(t1, w).truncation == 4096
    assert spectrum_bounds(su2, make_weight(su2, "exp:lambda=2"), n_max=16).truncation == 16
    for bad in (0, -3):
        with pytest.raises(ValueError):
            spectrum_bounds(t1, w, n_max=bad)
