"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 10b and 10c check the point-derivation dichotomy
on SU(2) under ``poly:alpha``: the scanned quantity sup ||dpi(X)||/w(pi) equals
c n/(1+n)^alpha with c = max|eig X|, bounded for alpha = 1 and divergent for
alpha = 0.5.  Both tests match the scan to that closed form (and to dense
matrix norms at sampled n), and take every threshold index, such as where
the increments fall below 1e-6 or where tenfold growth arrives, from the
closed form.
"""

import itertools
import math
import time

import numpy as np

from bfw import (
    OperatorField,
    ProductDual,
    SemidirectDual,
    SemidirectLabel,
    Su2Dual,
    Su2Spin,
    TorusChar,
    TorusDual,
    character_field,
    coefficient_field,
    convolve,
    evaluate,
    factorize,
    make_weight,
    multiply,
    norm_a_omega,
    norm_l2_omega,
    one_field,
)
from bfw.calculus import (
    CasimirData,
    central_values,
    derivation_bound_scan,
    exp_itu,
    growth_curve,
    nu_decompose,
    pairing_identity_check,
    point_derivation,
    separating_function,
)
from bfw.duals import su2_algebra_rep, su2_class_angle
from bfw.quadrature import HaarGrid, grid_values
from bfw.spectrum import Su2SpectrumPoint, char_eval, spectrum_bounds
from bfw.weights import Weight, growth_rate

import fuse_oracle
from conftest import random_field

WEIGHT_SPECS = ("const:1", "dim", "poly:alpha=1", "exp:lambda=2")


def _report(num, name, ok, detail, t0, budget=None):
    dt = time.time() - t0
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>3} {name}: {status} ({dt:.1f}s) {detail}"
    print(line)
    if budget is not None:
        assert dt < budget, f"runtime {dt:.1f}s over the {budget}s budget"
    assert ok, line


def bessel_signed(k, x, terms=90):
    kk = abs(k)
    tot, term = 0.0, (x / 2.0) ** kk / math.factorial(kk)
    for m in range(terms):
        tot += term
        term *= -((x / 2.0) ** 2) / ((m + 1) * (m + 1 + kk))
    return tot * (1.0 if k >= 0 else (-1.0) ** k)


def test_criterion_01_fusion_dimension_consistency():
    t0 = time.time()
    duals = [TorusDual(1), TorusDual(2), Su2Dual(), SemidirectDual()]
    checked = 0
    for dual in duals:
        labels = dual.ball(10)
        for i, a in enumerate(labels):
            da = dual.dim(a)
            for b in labels[i:]:
                total = sum(m * dual.dim(s) for s, m in fuse_oracle.fuse(dual, a, b))
                assert total == da * dual.dim(b), (dual.family, a, b)
                checked += 1
    prod = ProductDual(Su2Dual(), TorusDual(1))
    labels = prod.ball(4)
    for i, a in enumerate(labels):
        for b in labels[i:]:
            total = sum(m * prod.dim(s) for s, m in fuse_oracle.fuse(prod, a, b))
            assert total == prod.dim(a) * prod.dim(b)
            checked += 1
    _report(1, "fusion-dimension-consistency", True, f"{checked} pairs exact", t0, budget=5.0)


def test_criterion_02_norm_submultiplicativity():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for dual in (TorusDual(1), Su2Dual(), SemidirectDual()):
        for spec in WEIGHT_SPECS:
            w = make_weight(dual, spec)
            for _ in range(200):
                u = random_field(dual, 3, rng, n_terms=2)
                v = random_field(dual, 3, rng, n_terms=2)
                lhs = norm_a_omega(multiply(u, v), w)
                rhs = norm_a_omega(u, w) * norm_a_omega(v, w)
                worst = max(worst, lhs / rhs - 1.0 if rhs > 0 else 0.0)
                assert lhs <= rhs * (1.0 + 1e-9), (dual.family, spec)
    _report(2, "norm-submultiplicativity", True,
            f"2400 pairs, worst excess {worst:.2e}", t0, budget=60.0)


def test_criterion_03_product_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(3)
    su2 = Su2Dual()
    grid = HaarGrid(su2, 16)
    out_labels = su2.ball(8)
    worst = 0.0
    for _ in range(50):
        u = random_field(su2, 4, rng, n_terms=3)
        v = random_field(su2, 4, rng, n_terms=3)
        uv = multiply(u, v)
        vals = grid_values(u, grid) * grid_values(v, grid)
        oracle = grid.coefficients(vals, out_labels)
        dev = max(
            float(np.max(np.abs(oracle[a] - uv[a])))
            for a in set(oracle.coeffs) | set(uv.coeffs)
        )
        worst = max(worst, dev)
        assert dev <= 1e-8
    _report(3, "product-oracle-equivalence", True,
            f"50 pairs, max coefficient deviation {worst:.2e}", t0, budget=120.0)


def test_criterion_04_growth_rates():
    t0 = time.time()
    sd, su2 = SemidirectDual(), Su2Dual()
    cert_exp = growth_rate(sd, make_weight(sd, "exp:lambda=2"), SemidirectLabel("pi", 1), 128)
    exp_dev = max(abs(r - 2.0) for _, r in cert_exp.seq)
    assert exp_dev <= 1e-12
    cert_poly = growth_rate(su2, make_weight(su2, "poly:alpha=1"), Su2Spin(1), 512)
    assert 1.0 < cert_poly.rho_hat <= 1.02
    run = math.inf
    for _, root in cert_poly.seq:
        new = min(run, root)
        assert new <= run + 1e-15
        run = new
    assert abs(cert_poly.rho_hat - 513.0 ** (1.0 / 512.0)) < 1e-12
    _report(4, "growth-rates", True,
            f"exp dev {exp_dev:.1e}; poly rho_hat {cert_poly.rho_hat:.5f} in (1, 1.02]",
            t0, budget=10.0)


def test_criterion_05_spectrum():
    t0 = time.time()
    t1, sd, su2 = TorusDual(1), SemidirectDual(), Su2Dual()
    lo, hi = spectrum_bounds(t1, make_weight(t1, "exp:lambda=2")).annulus()
    assert abs(lo - 0.5) <= 1e-9 and abs(hi - 2.0) <= 1e-9
    lo2, hi2 = spectrum_bounds(sd, make_weight(sd, "exp:lambda=2")).annulus()
    assert abs(lo2 - 0.5) <= 1e-9 and abs(hi2 - 2.0) <= 1e-9
    for alpha in (0.5, 1.0):
        desc = spectrum_bounds(su2, make_weight(su2, {"kind": "poly", "alpha": alpha}))
        assert desc.equals_group, (alpha, desc.radii)
    # character multiplicativity at theta = diag(1.5, 1/1.5) under exp(2)
    rng = np.random.default_rng(5)
    theta = Su2SpectrumPoint(np.eye(2), 1.5)
    worst = 0.0
    for _ in range(100):
        u = random_field(su2, 3, rng, n_terms=2)
        v = random_field(su2, 2, rng, n_terms=2)
        lhs = char_eval(su2, theta, multiply(u, v))
        rhs = char_eval(su2, theta, u) * char_eval(su2, theta, v)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        assert rel <= 1e-8
    _report(5, "spectrum", True,
            f"annuli [0.5,2.0]; su2 poly equals-G; char-mult residual {worst:.2e}",
            t0)


def test_criterion_06_factorization():
    t0 = time.time()
    su2 = Su2Dual()
    rng = np.random.default_rng(6)
    w1 = make_weight(su2, "dim")
    w2 = make_weight(su2, "exp:lambda=2")
    w_geo = Weight(su2, lambda a: math.sqrt(w1(a) * w2(a)), "geometric-mean")
    worst_rec, worst_gap = 0.0, -math.inf
    for _ in range(100):
        u = random_field(su2, 3, rng, n_terms=3)
        f, g = factorize(u, w1, w2)
        back = convolve(f, g)
        rel = max(
            float(np.max(np.abs(back[a] - u[a]))) / max(1.0, float(np.max(np.abs(u[a]))))
            for a in u.coeffs
        )
        worst_rec = max(worst_rec, rel)
        assert rel <= 1e-12
        lhs = norm_a_omega(u, w_geo)
        rhs = norm_l2_omega(f, w2) * norm_l2_omega(g, w1)
        worst_gap = max(worst_gap, lhs - rhs)
        assert lhs <= rhs + 1e-9
    u = coefficient_field(su2, Su2Spin(2), rng.standard_normal(3) + 1j * rng.standard_normal(3),
                          rng.standard_normal(3))
    f, g = factorize(u, w1, w2)
    eq_gap = abs(norm_a_omega(u, w_geo) - norm_l2_omega(f, w2) * norm_l2_omega(g, w1))
    assert eq_gap <= 1e-9
    _report(6, "factorization", True,
            f"100 fields; reconstruction {worst_rec:.1e}; bound gap {worst_gap:.1e}; "
            f"single-coefficient equality gap {eq_gap:.1e}", t0)


def test_criterion_07_jacobi_anger():
    t0 = time.time()
    t1 = TorusDual(1)
    u = OperatorField.from_terms(
        t1, {TorusChar((1,)): np.array([[1.0]]), TorusChar((-1,)): np.array([[1.0]])}
    )
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        fld, _ = exp_itu(t1, u, t, cutoff=44)
        for k in range(-20, 21):
            got = complex(fld[TorusChar((k,))][0, 0])
            want = (1j) ** k * bessel_signed(k, 2.0 * t)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-8, (t, k)
    _report(7, "jacobi-anger-oracle", True, f"max deviation {worst:.2e}", t0)


def test_criterion_08_exp_growth_curve():
    t0 = time.time()
    su2 = Su2Dual()
    u = character_field(su2, Su2Spin(1)) * 0.5  # unit-normalized character
    w = make_weight(su2, "poly:alpha=1")
    curve = growth_curve(su2, u, w, [1, 2, 4, 8, 16, 32, 64], cutoff_cap=120, tail_tol=1e-6)
    assert all(np.isfinite(r[1]) for r in curve.rows)
    assert all(r[3] <= 120 for r in curve.rows)
    worst_tail = max(r[4] for r in curve.rows)
    assert worst_tail <= 1e-6
    assert curve.slope <= 3.0
    _report(8, "exp-itu-growth", True,
            f"slope {curve.slope:.3f} <= 3.0; max tail {worst_tail:.1e}; "
            f"cutoffs {[r[3] for r in curve.rows]}", t0, budget=300.0)


def test_criterion_09_nu_identities():
    t0 = time.time()
    su2 = Su2Dual()
    rng = np.random.default_rng(9)
    w = make_weight(su2, "dim")
    worst_norm, worst_grid, worst_pair = 0.0, 0.0, 0.0
    for i in range(50):
        u = random_field(su2, 2, rng, n_terms=2)
        T = random_field(su2, 3, rng, n_terms=3)
        nu = nu_decompose(u, w)
        na = norm_a_omega(u, w)
        dev = max(abs(nu.phi_norm_sq_sum() - na), abs(nu.psi_norm_sq_sum() - na))
        worst_norm = max(worst_norm, dev)
        assert dev <= 1e-9 * max(1.0, na)
        if i < 10:
            for _ in range(3):
                s, t = su2.random_point(rng), su2.random_point(rng)
                gd = abs(nu.reconstruct(s, t) - evaluate(u, su2.point_mul(s, su2.point_inv(t))))
                worst_grid = max(worst_grid, gd)
                assert gd <= 1e-9
        pr = pairing_identity_check(T, u, w)
        worst_pair = max(worst_pair, pr)
        assert pr <= 1e-9
    _report(9, "nu-identities", True,
            f"norm dev {worst_norm:.1e}; grid dev {worst_grid:.1e}; pairing {worst_pair:.1e}",
            t0)


def test_criterion_10a_derivation_leibniz():
    t0 = time.time()
    su2 = Su2Dual()
    rng = np.random.default_rng(10)
    X = CasimirData(su2).basis[2]
    worst = 0.0
    for _ in range(20):
        u = random_field(su2, 2, rng, n_terms=2)
        v = random_field(su2, 2, rng, n_terms=2)
        lhs = point_derivation(su2, X, multiply(u, v))
        rhs = point_derivation(su2, X, u) * evaluate(v, su2.identity())
        rhs += evaluate(u, su2.identity()) * point_derivation(su2, X, v)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9
    _report("10a", "derivation-leibniz", True, f"max residual {worst:.1e}", t0, budget=30.0)


def _derivation_scan_closed_form(spec, alpha, n_max):
    """Scan s(n) = sup_{k<=n} ||dpi_k(X)|| / w(pi_k) under w = ``spec`` and
    measure it against its closed form c n / (1+n)^alpha.

    X is the Casimir-orthonormal generator i sigma_3 / (2 sqrt 2), and
    c = max|eig X| comes from the eigenvalues of X, not from the scan.  Since
    n / (1+n)^alpha increases for alpha <= 1, the sup is attained at pi_n, so
    at sampled n the scan is also checked against the dense matrix 2-norm of
    su2_algebra_rep (independent of the eigenvalue shortcut inside the scan).
    ``alpha`` is passed apart from ``spec`` so that a scan under the wrong
    weight cannot match.  Returns (c, s, closed-form dev, oracle dev), the
    deviations relative.
    """
    su2 = Su2Dual()
    X = CasimirData(su2).basis[2]
    c = float(np.max(np.abs(np.linalg.eigvals(X))))
    assert abs(c - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-15, c
    w = make_weight(su2, spec)
    s = dict(derivation_bound_scan(su2, X, w, n_max))
    assert sorted(s) == list(range(1, n_max + 1))
    closed_dev = max(abs(v - c * n / (1 + n) ** alpha) / (c * n / (1 + n) ** alpha)
                     for n, v in s.items())
    oracle_dev = max(
        abs(s[n] - np.linalg.norm(su2_algebra_rep(n, X), 2) / w(Su2Spin(n))) / s[n]
        for n in (1, 2, 5, 10, 50, 100, 200) if n <= n_max
    )
    return c, s, closed_dev, oracle_dev


def _first(pred, ns=None):
    """Least n (from 1, or in the iterable ns) satisfying pred, else None."""
    return next((n for n in (itertools.count(1) if ns is None else ns) if pred(n)), None)


def test_criterion_10b_derivation_alpha1_increments():
    # alpha = 1: a derivation at the identity is bounded, s(n) = c n/(1+n) <= c.
    # The increments s(n) - s(n-1) = c/(n(n+1)) are ~3.5e-5 at n = 100 and fall
    # below 1e-6 only from the crossover N solved from the closed form (595).
    t0 = time.time()
    alpha, n_max = 1.0, 700
    c, s, closed_dev, oracle_dev = _derivation_scan_closed_form("poly:alpha=1", alpha, n_max)
    inc = {n: s[n] - s[n - 1] for n in range(2, n_max + 1)}
    # each s(n) carries a product and a quotient rounding, so an increment may
    # exceed its exact value by a few ulps of c
    slack = 4.0 * float(np.spacing(c))
    crossover = _first(lambda n: c / (n * (n + 1)) < 1e-6)
    scan_crossover = max((n for n, v in inc.items() if v >= 1e-6), default=1) + 1
    checks = {
        "closed form to 1e-12": closed_dev <= 1e-12,
        "dense-norm oracle to 1e-12": oracle_dev <= 1e-12,
        "s(n) <= c": max(s.values()) <= c,
        "0 <= increment <= c/(n(n+1))": all(
            0.0 <= v <= c / (n * (n + 1)) + slack for n, v in inc.items()),
        "crossover inside the scan": crossover <= n_max,
        "increments < 1e-6 exactly from the crossover on": scan_crossover == crossover,
    }
    failed = [k for k, v in checks.items() if not v]
    _report("10b", "derivation-alpha1-stabilization", not failed,
            f"closed-form dev {closed_dev:.1e}, oracle dev {oracle_dev:.1e}; "
            f"s({n_max}) = {s[n_max]:.6f} (c = {c:.6f}); s(101)-s(100) = {inc[101]:.3e} "
            f"(closed form {c / (101 * 102):.3e}); increments < 1e-6 from n={scan_crossover} "
            f"(closed form {crossover})"
            + (f"; failed: {failed}" if failed else ""), t0, budget=30.0)


def test_criterion_10c_derivation_alpha05_divergence():
    # alpha = 0.5: no bounded derivation, s(n) = c n/sqrt(1+n) grows like
    # sqrt(n).  The ratio s(500)/s(10) = 50 sqrt(11/501) ~ 7.41 for any
    # generator scale; tenfold growth over s(10) arrives at n = 911 and over
    # s(1) at n = 51, both solved from the closed form.
    t0 = time.time()
    alpha, n_max = 0.5, 1000
    c, s, closed_dev, oracle_dev = _derivation_scan_closed_form("poly:alpha=0.5", alpha, n_max)
    f = lambda n: n / (1 + n) ** alpha  # s(n) / c
    ratio, ratio_closed = s[500] / s[10], f(500) / f(10)
    # d log s / d log n = 1 - alpha n/(1+n), within alpha/101 of 1 - alpha on [100, 1000]
    ns = np.arange(100, n_max + 1)
    slope = float(np.polyfit(np.log(ns), np.log([s[n] for n in ns]), 1)[0])
    tenfold_10 = _first(lambda n: f(n) > 10.0 * f(10))
    tenfold_1 = _first(lambda n: f(n) > 10.0 * f(1))
    scan_10 = _first(lambda n: s[n] > 10.0 * s[10], s)
    scan_1 = _first(lambda n: s[n] > 10.0 * s[1], s)
    checks = {
        "closed form to 1e-12": closed_dev <= 1e-12,
        "dense-norm oracle to 1e-12": oracle_dev <= 1e-12,
        "s(500)/s(10) = 50 sqrt(11/501)": abs(ratio - ratio_closed) <= 1e-12 * ratio_closed,
        "log-log slope 0.5 +- 0.01": abs(slope - (1.0 - alpha)) <= 0.01,
        "10x s(10) crossover inside the scan": tenfold_10 <= n_max,
        "10x s(10) first exceeded at the crossover": scan_10 == tenfold_10,
        "10x s(1) first exceeded at the crossover": scan_1 == tenfold_1,
    }
    failed = [k for k, v in checks.items() if not v]
    _report("10c", "derivation-alpha05-divergence", not failed,
            f"closed-form dev {closed_dev:.1e}, oracle dev {oracle_dev:.1e}; "
            f"s(500)/s(10) = {ratio:.4f} (closed form {ratio_closed:.4f}); slope on "
            f"[100,{n_max}] {slope:.4f}; 10x s(1) at n={scan_1} (closed form {tenfold_1}), "
            f"10x s(10) at n={scan_10} (closed form {tenfold_10})"
            + (f"; failed: {failed}" if failed else ""), t0, budget=30.0)


def test_criterion_11_separating_function():
    t0 = time.time()
    su2 = Su2Dual()
    rng = np.random.default_rng(11)
    # (1 + chi/2) with the unit-normalized character, shifted into [0, 1]
    u0 = character_field(su2, Su2Spin(1)) * 0.25 + one_field(su2) * 0.5
    rep = separating_function(su2, u0, n_modes=160, cutoff_cap=512, sample_points=0)
    angles = np.array([su2_class_angle(su2.random_point(rng)) for _ in range(1000)])
    v_vals = central_values(su2, rep.field, angles)
    u_vals = np.real(central_values(su2, u0, angles))
    low = u_vals < 0.1
    high = u_vals > 0.9
    low_dev = float(np.max(np.abs(v_vals[low]))) if low.any() else 0.0
    high_dev = float(np.max(np.abs(v_vals[high] - 1.0))) if high.any() else 0.0
    assert low.sum() > 10 and high.sum() > 10
    assert low_dev <= 0.05
    assert high_dev <= 0.05
    _report(11, "separating-function", True,
            f"{int(low.sum())} low pts |v|<= {low_dev:.1e}; "
            f"{int(high.sum())} high pts |v-1| <= {high_dev:.1e}; "
            f"bump tail {rep.series_tail:.1e}", t0, budget=300.0)


def test_criterion_12_casimir():
    t0 = time.time()
    su2 = Su2Dual()
    cas = CasimirData(su2)
    assert cas.eigenvalue(Su2Spin(0)) == 0.0
    assert abs(cas.eigenvalue(Su2Spin(1)) - 0.375) <= 1e-12
    worst_res = 0.0
    for n in range(1, 201):
        worst_res = max(worst_res, cas.off_scalar_residual(Su2Spin(n)))
    assert worst_res <= 1e-10
    ratios = [cas.eigenvalue(Su2Spin(n)) / (1.0 + n * n) for n in range(1, 201)]
    assert 0.05 <= min(ratios) and max(ratios) <= 0.5
    _report(12, "casimir", True,
            f"c(pi1)=3/8 exact to {abs(cas.eigenvalue(Su2Spin(1)) - 0.375):.1e}; "
            f"max off-scalar residual {worst_res:.1e}; ratios in "
            f"[{min(ratios):.3f}, {max(ratios):.3f}]", t0)
