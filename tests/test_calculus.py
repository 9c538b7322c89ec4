"""Casimir data, e^{itu}, growth curves, separating functions, derivations,
synthesis degrees, and the shifted-argument tensor identities."""

import json
import math

import numpy as np
import pytest

from bfw import (
    OperatorField,
    Su2Spin,
    TorusChar,
    character_field,
    coefficient_field,
    evaluate,
    make_weight,
    multiply,
    norm_a_omega,
    one_field,
)
from bfw import So3Dual, Su2Dual
from bfw.calculus import (
    CasimirData,
    SplineBump,
    algebra_rep,
    apply_one_minus_laplacian,
    casimir_eigenvalue,
    central_values,
    derivation_bound_scan,
    exp_itu,
    exp_itu_auto,
    growth_curve,
    nu_decompose,
    pairing_identity_check,
    point_derivation,
    separating_function,
    series_tail,
    smooth_embedding_check,
    synthesis_degree,
    _ExpItu,
    _scalar_field,
)
from bfw.duals import TorusDual, parse_group, su2_algebra_rep, su2_irrep
from bfw import calculus
from bfw.errors import FamilyMismatchError, InsufficientCutoffError
from bfw.fields import PRUNE_TOL
from bfw.quadrature import HaarGrid, grid_values
from bfw.spectrum import Su2SpectrumPoint, char_eval, membership

import derivation_oracle
from conftest import field_max_abs, fields_close, random_field
from derivation_oracle import algebra_norm
from exp_oracle import su2_exp_kernel


def bessel_series(k, x, terms=80):
    """Independent power-series Bessel oracle, k >= 0."""
    tot, term = 0.0, (x / 2.0) ** k / math.factorial(k)
    for m in range(terms):
        tot += term
        term *= -((x / 2.0) ** 2) / ((m + 1) * (m + 1 + k))
    return tot


def bessel_signed(k, x):
    return bessel_series(abs(k), x) * (1.0 if k >= 0 else (-1.0) ** k)


# --- Casimir -------------------------------------------------------------------

def test_casimir_su2(su2):
    cas = CasimirData(su2)
    assert cas.eigenvalue(Su2Spin(0)) == 0.0
    assert abs(cas.eigenvalue(Su2Spin(1)) - 0.375) < 1e-12
    for n in (1, 2, 3, 10, 50, 200):
        assert cas.off_scalar_residual(Su2Spin(n)) < 1e-10
    # strictly increasing
    vals = [cas.eigenvalue(Su2Spin(n)) for n in range(12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # bounded ratio against the squared word length (existence of constants)
    ratios = [cas.eigenvalue(Su2Spin(n)) / (1.0 + n * n) for n in range(1, 201)]
    assert 0.05 <= min(ratios) and max(ratios) <= 0.5


def test_casimir_torus(t2):
    cas = CasimirData(t2)
    assert cas.eigenvalue(TorusChar((0, 0))) == 0.0
    assert abs(cas.eigenvalue(TorusChar((3, -2))) - 13.0) < 1e-12
    assert cas.off_scalar_residual(TorusChar((5, 1))) < 1e-14


def test_casimir_function(su2):
    assert abs(casimir_eigenvalue(su2, Su2Spin(2)) - 1.0) < 1e-12  # 2*4/8


# --- series tails ----------------------------------------------------------------

def test_series_tail_su2_convergent(su2):
    rows = series_tail(su2, 2.0, 500)
    incs = [r[2] for r in rows]
    assert incs[500] < 1e-3
    # shrinking like n^-2: ratio of increments at doubled index near 1/4
    assert incs[400] / incs[200] < 0.4


def test_series_tail_su2_divergent(su2):
    rows = series_tail(su2, 1.0, 400)
    # partial sums grow like log n: still visibly increasing at the tail
    assert rows[400][1] - rows[200][1] > 0.5


def test_series_tail_torus(t1):
    rows = series_tail(t1, 1.0, 400)
    assert rows[400][2] < 1e-4  # terms ~ n^-2


# --- e^{itu} ---------------------------------------------------------------------

def test_exp_itu_t0(su2, t1):
    for dual in (su2, t1):
        u = (
            character_field(dual, Su2Spin(1)) * 0.5
            if dual is su2
            else OperatorField.from_terms(dual, {TorusChar((1,)): np.array([[0.5]]),
                                                 TorusChar((-1,)): np.array([[0.5]])})
        )
        fld, defect = exp_itu(dual, u, 0.0, cutoff=8)
        assert fields_close(fld, one_field(dual), tol=1e-12)
        assert defect < 1e-12


def test_exp_itu_requires_self_adjoint(t1):
    u = OperatorField.from_terms(t1, {TorusChar((1,)): np.array([[1.0]])})  # e^{i theta}
    with pytest.raises(ValueError):
        exp_itu(t1, u, 1.0, cutoff=8)


def test_exp_itu_su2_requires_central(su2):
    u = OperatorField.from_terms(su2, {Su2Spin(2): np.diag([1.0, 0.0, 1.0])})
    with pytest.raises(ValueError):
        exp_itu(su2, u, 1.0, cutoff=8)


def test_jacobi_anger(t1):
    u = OperatorField.from_terms(
        t1, {TorusChar((1,)): np.array([[1.0]]), TorusChar((-1,)): np.array([[1.0]])}
    )  # 2 cos(theta)
    for t in (0.5, 1.0, 2.0, 5.0):
        fld, defect = exp_itu(t1, u, t, cutoff=44)
        assert defect < 1e-12
        for k in range(-20, 21):
            got = complex(fld[TorusChar((k,))][0, 0])
            want = (1j) ** k * bessel_signed(k, 2.0 * t)
            assert abs(got - want) < 1e-8, (t, k)


def test_exp_itu_su2_parseval_unimodular(su2, rng):
    u = character_field(su2, Su2Spin(1)) * 0.5  # cos of the class angle
    for t in (1.0, 7.0):
        fld, defect = exp_itu(su2, u, t, cutoff=40)
        assert defect < 1e-8
        angles = rng.uniform(0.2, np.pi - 0.2, size=8)
        vals = central_values(su2, fld, angles)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-8


def test_exp_itu_group_law(su2):
    u = character_field(su2, Su2Spin(1)) * 0.5
    f1, _ = exp_itu(su2, u, 1.0, cutoff=48)
    f2, _ = exp_itu(su2, u, 2.0, cutoff=48)
    f3, _ = exp_itu(su2, u, 3.0, cutoff=48)
    assert field_max_abs(multiply(f1, f2) - f3) < 1e-9


def test_exp_itu_insufficient_cutoff(t1):
    u = OperatorField.from_terms(
        t1, {TorusChar((1,)): np.array([[1.0]]), TorusChar((-1,)): np.array([[1.0]])}
    )
    with pytest.raises(InsufficientCutoffError) as exc:
        exp_itu(t1, u, 30.0, cutoff=10)
    assert exc.value.defect > 1e-6


def test_exp_itu_auto_grows(t1):
    u = OperatorField.from_terms(
        t1, {TorusChar((1,)): np.array([[1.0]]), TorusChar((-1,)): np.array([[1.0]])}
    )
    fld, defect, used = exp_itu_auto(t1, u, 30.0, cutoff_cap=256)
    assert defect < 1e-6 and used <= 256


@pytest.mark.parametrize("group", ["su2", "so3", "torus:1"])
def test_exp_itu_overflow_and_non_finite_t(group):
    # t u past the float range gave the zero field with a NaN defect on SU(2)
    dual = parse_group(group)
    a = {"su2": Su2Spin(1), "so3": Su2Spin(2)}.get(group)
    u = (character_field(dual, a) if a is not None else  # sup |u| >= 2
         OperatorField.from_terms(dual, {TorusChar((1,)): np.array([[1.0]]),
                                         TorusChar((-1,)): np.array([[1.0]])}))
    with pytest.raises(OverflowError, match=r"not finite at t=1e\+308"):
        exp_itu(dual, u, 1e308, 8)
    # the adaptive cutoff 1.2 |t| sup|u| overflows before any grid is built
    with pytest.raises(OverflowError, match=r"no finite cutoff at t=1e\+308: .* overflows"):
        exp_itu_auto(dual, u, 1e308, 64)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            exp_itu(dual, u, t, 8)
        with pytest.raises(ValueError, match="t must be finite"):
            exp_itu_auto(dual, u, t, 64)


# --- growth curves -----------------------------------------------------------------

def test_growth_curve_su2(su2):
    u = character_field(su2, Su2Spin(1)) * 0.5
    w = make_weight(su2, "poly:alpha=1")
    curve = growth_curve(su2, u, w, [1, 2, 4, 8, 16], cutoff_cap=120)
    assert curve.bound_exponent == 2.5
    assert curve.passed and curve.slope <= 3.0
    assert all(r[4] <= 1e-6 for r in curve.rows)
    # Python floats and an int cutoff, which the CLI's CSV writer prints as repr and str
    assert all(list(map(type, r)) == [float, float, float, int, float] for r in curve.rows)
    # t = 0 has norm w(trivial) = 1
    fld, _ = exp_itu(su2, u, 0.0, cutoff=8)
    assert abs(norm_a_omega(fld, w) - 1.0) < 1e-12


def test_growth_curve_even_in_t(su2):
    u = character_field(su2, Su2Spin(1)) * 0.5
    w = make_weight(su2, "poly:alpha=1")
    for t in (1.0, 3.0):
        fp, _ = exp_itu(su2, u, t, cutoff=40)
        fm, _ = exp_itu(su2, u, -t, cutoff=40)
        assert abs(norm_a_omega(fp, w) - norm_a_omega(fm, w)) < 1e-10


def test_growth_curve_torus_bessel_scale(t1):
    # ||e^{itu}||_A = sum |J_k(2t)| grows like sqrt(t) for u = 2cos
    u = OperatorField.from_terms(
        t1, {TorusChar((1,)): np.array([[1.0]]), TorusChar((-1,)): np.array([[1.0]])}
    )
    w = make_weight(t1, "poly:alpha=0.001")  # essentially the plain algebra norm
    curve = growth_curve(t1, u, w, [2, 4, 8, 16, 32], cutoff_cap=256)
    assert curve.slope <= 1.0


# --- growth curves from coefficient vectors, against the dense fields ---------------

EPS = np.finfo(float).eps


def _dense_rows(dual, u, weights, ts, cutoff_cap):
    """Rows of each weight's growth curve through the dense fields of
    exp_itu_auto and the SVD norms of norm_a_omega."""
    rows = {w.descriptor: [] for w in weights}
    for t in ts:
        fld, defect, used = exp_itu_auto(dual, u, float(t), cutoff_cap)
        for w in weights:
            bound = (1.0 + abs(t)) ** (dual.lie_dim() / 2.0 + calculus._poly_alpha(w))
            rows[w.descriptor].append((float(t), norm_a_omega(fld, w), bound, used, defect))
    return rows


@pytest.mark.parametrize("group,spin", [("su2", 1), ("so3", 2)])
def test_growth_curve_su2_rows_equal_dense_oracle(group, spin):
    dual = parse_group(group)
    u = character_field(dual, Su2Spin(spin)) * (1.0 / (spin + 1))
    weights = [make_weight(dual, f"poly:alpha={a:g}") for a in (0.5, 1, 1.5, 2)]
    ts = [1, 2, 3, 4, 8, 16, 32, 64, 100, 128]
    want = _dense_rows(dual, u, weights, ts, 400)
    for w in weights:
        got = growth_curve(dual, u, w, ts, cutoff_cap=400).rows
        for (t, norm, bound, used, tail), row in zip(got, want[w.descriptor]):
            assert (t, bound, used, tail) == (row[0], row[2], row[3], row[4])
            # d |c| against the SVD of c I, summed: a last-bit difference
            assert abs(norm - row[1]) <= 4 * EPS * row[1]


@pytest.mark.parametrize("rank", [1, 2])
def test_growth_curve_torus_rows_equal_dense_oracle(rank):
    dual = TorusDual(rank)
    u = _half_cos(dual) * 2.0 + one_field(dual) * 0.5
    weights = [make_weight(dual, f"poly:alpha={a:g}") for a in (0.5, 1, 2)]
    ts = [1, 2, 3, 5, 8] if rank == 2 else [1, 2, 3, 4, 8, 16, 32]
    want = _dense_rows(dual, u, weights, ts, 256)
    for w in weights:
        assert list(growth_curve(dual, u, w, ts, cutoff_cap=256).rows) == want[w.descriptor]


def _from_terms_scalar_field(dual, coords, coef, positions):
    """The field _scalar_field builds, through from_terms label by label."""
    pairs = ((dual.label_at(coords[i].tolist()), coef[i]) for i in positions)
    return OperatorField.from_terms(
        dual, {a: c * np.eye(dual.dim(a)) for a, c in pairs if dual.contains(a)}
    )


def _scalar_coefs(n):
    """Coefficients at, just below and just above PRUNE_TOL, with negative
    real parts (their blocks hold -0.0 off the diagonal), pure imaginary and
    zero ones."""
    above = np.nextafter(PRUNE_TOL, 1.0)
    pool = [PRUNE_TOL, above, -above, np.nextafter(PRUNE_TOL, 0.0), 1j * above,
            -PRUNE_TOL * 1j, -0.3 + 0.2j, 0.7 - 1e-16j, -2.5, 0.0, -0.0, 1e-300j, 0.4j]
    return np.array([pool[i % len(pool)] for i in range(n)], dtype=complex)


def _assert_bytes_equal(got, want):
    assert list(got.coeffs) == list(want.coeffs)
    for a, M in want.coeffs.items():
        G = got.coeffs[a]
        assert (G.dtype, G.shape, G.flags.writeable, G.flags.c_contiguous) == (
            M.dtype, M.shape, M.flags.writeable, M.flags.c_contiguous)
        assert G.tobytes() == M.tobytes()


@pytest.mark.parametrize("group", ["su2", "so3", "torus:1", "torus:2"])
def test_scalar_field_equals_from_terms(group):
    dual = parse_group(group)
    coords = np.arange(30)[:, None] if dual.family in ("su2", "so3") else dual.ball_coords(6)
    coef = _scalar_coefs(len(coords))
    rng = np.random.default_rng(7)
    for positions in (range(len(coords)), dict.fromkeys(rng.permutation(len(coords))[:20].tolist()), []):
        want = _from_terms_scalar_field(dual, coords, coef, positions)
        _assert_bytes_equal(_scalar_field(dual, coords, coef, positions), want)
    # the coordinates and coefficient vectors of an e^{itu} grid, plus the
    # coefficients above spread over the grid
    if dual.family == "torus":
        u, cutoff = _half_cos(dual) * 2.0 + one_field(dual) * 0.5, 40
    else:
        u, cutoff = character_field(dual, Su2Spin(2)) * (1.0 / 3.0) + one_field(dual) * 0.2, 60
    grid_coords, grid_coef, _ = _ExpItu(dual, u).coefs(3.0, cutoff, 1e-6)
    mixed = grid_coef.copy()
    mixed[::3] = _scalar_coefs(mixed[::3].size)
    for c in (grid_coef, mixed, -grid_coef):
        for positions in (range(c.size), rng.permutation(c.size).tolist()):
            want = _from_terms_scalar_field(dual, grid_coords, c, positions)
            _assert_bytes_equal(_scalar_field(dual, grid_coords, c, positions), want)
    full = _from_terms_scalar_field(dual, coords, coef, range(len(coords)))
    assert any(np.signbit(M.real).any() for M in full.coeffs.values())
    # a non-finite coefficient raises from_terms' error at the first label it keeps
    for bad in (np.nan, complex(np.inf, 0.0), complex(0.0, np.nan)):
        c = coef.copy()
        c[[4, 9]] = bad  # spins 4 and 9: SO(3) drops the odd one
        with pytest.raises(ValueError) as want, np.errstate(invalid="ignore"):  # inf * 0
            _from_terms_scalar_field(dual, coords, c, range(len(coords))[::-1])
        with pytest.raises(ValueError) as got:
            _scalar_field(dual, coords, c, range(len(coords))[::-1])
        assert str(got.value) == str(want.value)
    if group == "so3":  # at a dropped odd spin alone, a NaN is dropped with it
        c = coef.copy()
        c[9] = np.nan
        _assert_bytes_equal(_scalar_field(dual, coords, c, range(len(coords))),
                            _from_terms_scalar_field(dual, coords, c, range(len(coords))))


def test_growth_curve_builds_no_field_and_no_svd(su2, monkeypatch):
    u = character_field(su2, Su2Spin(1)) * 0.5
    w = make_weight(su2, "poly:alpha=1")
    want = growth_curve(su2, u, w, [1, 2, 4, 8, 16, 32])

    def forbidden(*args, **kwargs):
        raise AssertionError("growth_curve built a field or took an SVD")

    monkeypatch.setattr(OperatorField, "from_terms", staticmethod(forbidden))
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(calculus, "_scalar_field", forbidden)
    assert growth_curve(su2, u, w, [1, 2, 4, 8, 16, 32]) == want


# (u, t values, keywords, exception type, message): each written from the
# dense growth curve, where the error was raised by exp_itu_auto
GROWTH_ERRORS = [
    ("non-central", [1.0, 2.0], {}, ValueError, "sup estimate needs a central u on SU(2)"),
    ("i chi_1/2", [1.0, 2.0], {}, ValueError, "u is not self-adjoint (residual 5.00e-01)"),
    ("chi_1/2", [1e308, 2e307], {}, InsufficientCutoffError, "tail mass 6.681e-01 outside cutoff 120"),
    ("chi_1", [1e308, 2e307], {}, OverflowError,
     "e^{itu} has no finite cutoff at t=1e+308: 1.2 |t| sup|u| overflows"),
    ("chi_1/2", [math.nan, 1.0, 2.0], {}, ValueError, "t must be finite, got nan"),
    ("chi_1/2", [1.0, 2.0, math.inf], {}, ValueError, "t must be finite, got inf"),
    ("chi_1/2", [1.0, 2.0], {"tail_tol": -1}, ValueError, "tail_tol must be finite and >= 0, got -1"),
    ("chi_1/2", [1.0, 2.0, 4.0, 8.0], {"cutoff_cap": 4}, InsufficientCutoffError,
     "tail mass 5.358e-05 outside cutoff 4"),
]


@pytest.mark.parametrize("name,ts,kwargs,etype,message", GROWTH_ERRORS)
def test_growth_curve_errors_as_dense_path(su2, name, ts, kwargs, etype, message):
    chi = character_field(su2, Su2Spin(1))
    u = {
        "non-central": coefficient_field(su2, Su2Spin(1), [1, 0], [1, 0]),
        "i chi_1/2": chi * 0.5j,
        "chi_1/2": chi * 0.5,
        "chi_1": chi,
    }[name]
    with pytest.raises(etype) as err:
        growth_curve(su2, u, make_weight(su2, "poly:alpha=1"), ts, **kwargs)
    assert type(err.value) is etype and str(err.value) == message


@pytest.mark.parametrize("ts", [[], [1.0], [1, 1, 1], [-1.0, -2.0], [0.0, 0.5], [1.0, 100.0],
                                [math.nan, math.nan], [math.inf, 1.0]])
def test_growth_curve_rejects_unfittable_times(su2, monkeypatch, ts):
    monkeypatch.setattr(calculus, "_ExpItu", None)  # rejected before any e^{itu} work
    with pytest.raises(ValueError, match="two distinct sample times"):
        growth_curve(su2, character_field(su2, Su2Spin(1)) * 0.5,
                     make_weight(su2, "poly:alpha=1"), ts)


def test_growth_curve_resolves_u_once(su2, monkeypatch):
    # the family, trace weights, sup|u| and self-adjointness depend on u alone:
    # a 7-point curve works them out once, not once per t
    u = character_field(su2, Su2Spin(1)) * 0.5
    w = make_weight(su2, "poly:alpha=1")
    ts = [1, 2, 4, 8, 16, 32, 64]
    want = growth_curve(su2, u, w, ts)
    calls = {"_su2_central_parts": 0, "_check_self_adjoint": 0}
    for name in calls:
        def counted(*args, _f=getattr(calculus, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(calculus, name, counted)
    assert growth_curve(su2, u, w, ts) == want
    assert calls == {"_su2_central_parts": 1, "_check_self_adjoint": 1}
    for (t, norm, _, cutoff, tail) in want.rows:
        fld, defect, n = exp_itu_auto(su2, u, t, 120)
        assert (cutoff, tail) == (n, defect)
        assert norm == pytest.approx(norm_a_omega(fld, w), rel=1e-12)


def _two_fault_inputs():
    from bfw.labels import SemidirectLabel

    su2, t1, sd = Su2Dual(), TorusDual(1), parse_group("txz2")
    chi = character_field(su2, Su2Spin(1))
    nonc = coefficient_field(su2, Su2Spin(1), [1, 0], [0, 1])  # neither central nor self-adjoint
    i_pi1 = character_field(sd, SemidirectLabel("pi", 1)) * 1j
    t_nonsa = OperatorField.from_terms(t1, {TorusChar((1,)): np.array([[1.0]])})
    w = make_weight(su2, "poly:alpha=1")
    return {
        "exp_itu non-central, not self-adjoint": lambda: exp_itu(su2, nonc, 1.0, 8),
        "exp_itu t, tail_tol": lambda: exp_itu(su2, nonc, math.nan, 8, tail_tol=-1),
        "exp_itu t, not self-adjoint": lambda: exp_itu(su2, nonc, math.nan, 8),
        "exp_itu txz2, not self-adjoint": lambda: exp_itu(sd, i_pi1, 1.0, 8),
        "exp_itu txz2, t": lambda: exp_itu(sd, i_pi1, math.nan, 8),
        "exp_itu torus t, not self-adjoint": lambda: exp_itu(t1, t_nonsa, math.nan, 8),
        "auto non-central, not self-adjoint": lambda: exp_itu_auto(su2, nonc, 1.0, 64),
        "auto txz2, not self-adjoint": lambda: exp_itu_auto(sd, i_pi1, 1.0, 64),
        "auto t, non-central": lambda: exp_itu_auto(su2, nonc, math.inf, 8),
        "auto tail_tol, non-central": lambda: exp_itu_auto(su2, nonc, 1.0, 8, tail_tol=-1),
        "auto tail_tol, not self-adjoint": lambda: exp_itu_auto(su2, chi * 0.5j, 1.0, 8, tail_tol=-1),
        "auto overflow, tail_tol": lambda: exp_itu_auto(su2, chi, 1e308, 8, tail_tol=-1),
        "auto torus t, not self-adjoint": lambda: exp_itu_auto(t1, t_nonsa, math.nan, 8),
        "curve non-central, not self-adjoint": lambda: growth_curve(su2, nonc, w, [1.0, 2.0]),
        "curve t, non-central": lambda: growth_curve(su2, nonc, w, [math.nan, 1.0, 2.0]),
        "curve tail_tol, non-central": lambda: growth_curve(su2, nonc, w, [1.0, 2.0], tail_tol=-1),
        "curve overflow, tail_tol": lambda: growth_curve(su2, chi, w, [1e308, 2e307], tail_tol=-1),
        "curve large t, not self-adjoint": lambda: growth_curve(su2, chi * 0.5j, w, [1e308, 2e307]),
        "separating non-central, not self-adjoint":
            lambda: separating_function(su2, nonc, n_modes=4, sample_points=0),
        "separating txz2, not self-adjoint":
            lambda: separating_function(sd, i_pi1, n_modes=4, sample_points=0),
        "separating overflow, not self-adjoint":
            lambda: separating_function(su2, chi * 1e307j, n_modes=8, sample_points=0),
        "separating overflow, larger |m| first":
            lambda: separating_function(su2, chi * 1e307, n_modes=8, sample_points=0),
    }


# (entry point and faults, exception type, message): each written from the
# helper-per-check code this engine replaced
TWO_FAULTS = [
    ("exp_itu non-central, not self-adjoint", ValueError, "u is not self-adjoint (residual 5.00e-01)"),
    ("exp_itu t, tail_tol", ValueError, "tail_tol must be finite and >= 0, got -1"),
    ("exp_itu t, not self-adjoint", ValueError, "t must be finite, got nan"),
    ("exp_itu txz2, not self-adjoint", ValueError, "u is not self-adjoint (residual 1.00e+00)"),
    ("exp_itu txz2, t", ValueError, "t must be finite, got nan"),
    ("exp_itu torus t, not self-adjoint", ValueError, "t must be finite, got nan"),
    ("auto non-central, not self-adjoint", ValueError, "sup estimate needs a central u on SU(2)"),
    ("auto txz2, not self-adjoint", FamilyMismatchError, "e^{itu} not implemented on txz2"),
    ("auto t, non-central", ValueError, "t must be finite, got inf"),
    ("auto tail_tol, non-central", ValueError, "sup estimate needs a central u on SU(2)"),
    ("auto tail_tol, not self-adjoint", ValueError, "tail_tol must be finite and >= 0, got -1"),
    ("auto overflow, tail_tol", OverflowError,
     "e^{itu} has no finite cutoff at t=1e+308: 1.2 |t| sup|u| overflows"),
    ("auto torus t, not self-adjoint", ValueError, "t must be finite, got nan"),
    ("curve non-central, not self-adjoint", ValueError, "sup estimate needs a central u on SU(2)"),
    ("curve t, non-central", ValueError, "t must be finite, got nan"),
    ("curve tail_tol, non-central", ValueError, "sup estimate needs a central u on SU(2)"),
    ("curve overflow, tail_tol", OverflowError,
     "e^{itu} has no finite cutoff at t=1e+308: 1.2 |t| sup|u| overflows"),
    ("curve large t, not self-adjoint", ValueError, "u is not self-adjoint (residual 5.00e-01)"),
    ("separating non-central, not self-adjoint", ValueError, "sup estimate needs a central u on SU(2)"),
    ("separating txz2, not self-adjoint", FamilyMismatchError, "e^{itu} not implemented on txz2"),
    ("separating overflow, not self-adjoint", ValueError, "u is not self-adjoint (residual 1.00e+307)"),
    ("separating overflow, larger |m| first", OverflowError,
     f"e^{{itu}} has no finite cutoff at t={2.0 * np.pi * -7 / 4.0!r}: "
     "1.2 |t| sup|u| overflows"),
]


@pytest.mark.parametrize("name,etype,message", TWO_FAULTS)
def test_e_itu_check_order(name, etype, message):
    with pytest.raises(etype) as err:
        _two_fault_inputs()[name]()
    assert type(err.value) is etype and str(err.value) == message


def _product_then_quotient_sup(parts):
    """sup|u| on 512 class-angle midpoints, summed as (b sin((n+1) theta)) / sin theta."""
    theta = np.pi * (np.arange(512) + 0.5) / 512
    vals = np.zeros(512, dtype=complex)
    for n, b in parts.items():
        vals += b * np.sin((n + 1) * theta) / np.sin(theta)
    return float(np.max(np.abs(vals)))


@pytest.mark.parametrize("seed", range(12))
def test_exp_itu_auto_first_cutoff(su2, monkeypatch, seed):
    # the first cutoff is ceil(1.2 t sup|u|) + 24; each attempt is replaced by
    # a stub, so no grid is built at t up to 4096
    rng = np.random.default_rng(seed)
    spins = rng.choice(9, size=int(rng.integers(1, 5)), replace=False)
    parts = {int(n): float(rng.normal()) for n in spins}
    u = OperatorField.from_terms(su2, {Su2Spin(n): b / (n + 1) * np.eye(n + 1) for n, b in parts.items()})
    monkeypatch.setattr(calculus, "exp_itu", lambda *args: (None, 0.0))
    sup = _product_then_quotient_sup(calculus._su2_central_parts(u))
    for k in range(13):
        t = 2.0**k
        assert exp_itu_auto(su2, u, t, 10**9)[2] == math.ceil(1.2 * t * sup) + 24


@pytest.mark.parametrize("group", ["su2", "so3", "torus:1", "torus:2"])
def test_e_itu_rejects_bad_cutoffs_and_caps(group):
    dual = parse_group(group)
    if isinstance(dual, TorusDual):
        axis = (0,) * (dual.n - 1)
        u = OperatorField.from_terms(dual, {TorusChar((s,) + axis): np.array([[0.5]]) for s in (1, -1)})
    else:
        u = character_field(dual, Su2Spin(2)) * 0.5
    for cutoff in (-1, 2.5, 30.0):
        with pytest.raises(ValueError, match=rf"^cutoff must be an integer >= 0, got {cutoff!r}$"):
            exp_itu(dual, u, 1.0, cutoff)
    w = make_weight(dual, "poly:alpha=1")
    for cap in (-5, 2.5):
        with pytest.raises(ValueError, match=rf"^cutoff_cap must be an integer >= 0, got {cap!r}$"):
            exp_itu_auto(dual, u, 1.0, cap)
        with pytest.raises(ValueError, match=rf"^cutoff_cap must be an integer >= 0, got {cap!r}$"):
            growth_curve(dual, u, w, [1.0, 2.0], cutoff_cap=cap)
        with pytest.raises(ValueError, match=rf"^cutoff_cap must be an integer >= 0, got {cap!r}$"):
            separating_function(dual, u, n_modes=4, cutoff_cap=cap, sample_points=0)
    assert exp_itu(dual, u, 1.0, np.int64(12))[1] == exp_itu(dual, u, 1.0, 12)[1]


# --- the class-angle FFT against the dense kernel ----------------------------------

def _central_u(group):
    """u = chi_1/2 on SU(2) and chi_2/3 on SO(3), as `uchar:1` and `uchar:2` build them."""
    dual = parse_group(group)
    spin = 1 if group == "su2" else 2
    return dual, character_field(dual, Su2Spin(spin)) * (1.0 / (spin + 1))


@pytest.mark.parametrize("group", ["su2", "so3"])
@pytest.mark.parametrize("t", [0.0, 0.5, -0.5, 3.0, 17.0, 128.0])
def test_su2_exp_fft_equals_kernel_oracle(group, t):
    # coefficient vectors, not supports: a label within rounding of PRUNE_TOL may flip
    dual, u = _central_u(group)
    cutoff = exp_itu_auto(dual, u, t, 512)[2]
    coords, coef, defect = _ExpItu(dual, u).coefs(t, cutoff, 1e-6)
    want, want_defect = su2_exp_kernel(calculus._su2_central_parts(u), t, cutoff)
    assert coords.tolist() == [[n] for n in range(cutoff + 1)]
    assert np.max(np.abs(coef - want)) <= 1e-13
    assert abs(defect - want_defect) <= 1e-13


def _uchar1_curve(alpha, top):
    su2, u = _central_u("su2")
    w = make_weight(su2, f"poly:alpha={alpha:g}")
    return growth_curve(su2, u, w, [2.0**j for j in range(top + 1)], cutoff_cap=24000)


def test_su2_curve_parseval_to_2_14():
    curve = _uchar1_curve(1, 14)
    assert [r[0] for r in curve.rows] == [2.0**j for j in range(15)]
    assert max(r[4] for r in curve.rows) <= 1e-12
    assert curve.rows[-1][3] == math.ceil(1.2 * 2.0**14) + 24  # no doubling: sup|chi_1/2| = 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_su2_curve_slope_converges(alpha):
    # the fitted slope approaches dim/2 + alpha as t grows
    gap = abs(_uchar1_curve(alpha, 14).slope - (1.5 + alpha))
    assert gap <= 0.02
    assert gap < abs(_uchar1_curve(alpha, 10).slope - (1.5 + alpha))


def test_e_itu_errors_print_t_as_a_float():
    # separating_function passes NumPy scalars to the e^{itu} engine
    su2 = Su2Dual()
    chi = character_field(su2, Su2Spin(1))
    with pytest.raises(OverflowError) as err:
        separating_function(su2, chi * 1e307, n_modes=8, sample_points=0)
    assert str(err.value) == ("e^{itu} has no finite cutoff at t=-10.995574287564276: "
                              "1.2 |t| sup|u| overflows")
    with pytest.raises(OverflowError) as err:
        exp_itu_auto(su2, chi, np.float64(1e308), 8)
    assert str(err.value) == "e^{itu} has no finite cutoff at t=1e+308: 1.2 |t| sup|u| overflows"
    with pytest.raises(OverflowError) as err:
        exp_itu(su2, chi, np.float64(1e308), 8)
    assert str(err.value) == "e^{itu} is not finite at t=1e+308"


# --- smoothing kernels ---------------------------------------------------------------

def test_smooth_embedding(su2):
    g = character_field(su2, Su2Spin(1))
    rep = smooth_embedding_check(g, 1.0, 0.4, cutoff=10)
    assert rep.precondition_ok  # 1 > 3/4 + 0.2
    assert rep.holds
    assert rep.kernel_finite  # 2 - 0.4 > 3/2


def test_smooth_embedding_zero(su2):
    rep = smooth_embedding_check(OperatorField.from_terms(su2, {}), 1.0, 0.4, cutoff=4)
    assert rep.lhs == 0.0 and rep.holds


def test_smooth_embedding_finiteness_flag(su2):
    g = character_field(su2, Su2Spin(1))
    rep = smooth_embedding_check(g, 0.8, 0.4, cutoff=8)
    assert rep.kernel_finite == (2 * 0.8 - 0.4 > 1.5)


def test_one_minus_laplacian(su2):
    g = character_field(su2, Su2Spin(1))
    out = apply_one_minus_laplacian(g, 2.0)
    c = casimir_eigenvalue(su2, Su2Spin(1))
    assert np.allclose(out[Su2Spin(1)], (1 + c) ** 2 * g[Su2Spin(1)])


# --- separating function ----------------------------------------------------------------

def test_spline_bump_shape():
    bump = SplineBump(5)
    assert bump(0.0) == 0.0 and bump(0.15) == 0.0
    assert abs(bump(1.0) - 1.0) < 1e-14
    assert abs(bump(0.8) - 1.0) < 1e-14 and abs(bump(1.2) - 1.0) < 1e-14
    assert bump(1.9) == 0.0 and bump(-0.5) == 0.0
    xs = np.linspace(0.2, 0.8, 100)
    vals = bump(xs)
    assert np.all(np.diff(vals) >= -1e-15)


@pytest.mark.parametrize("k", [3, 5])
def test_bump_fourier_decay(k):
    # |phi^(t)| <= C / (1 + |t|)^k for the order-k bump.  Multiples of four
    # vanish exactly (the unit periodization of the bump is constant), so the
    # envelope is read off the odd modes above the noise floor.
    bump = SplineBump(k)
    ms, coefs = bump.fourier_series(n_modes=1024, samples=1 << 18)
    mags = np.abs(coefs)
    sel = (ms >= 17) & (ms % 2 == 1) & (mags > 1e-14)
    x, y = np.log(ms[sel]), np.log(mags[sel])
    bins = np.linspace(x.min(), x.max(), 12)
    bx, by = [], []
    for lo, hi in zip(bins, bins[1:]):
        m = (x >= lo) & (x < hi)
        if m.any():
            bx.append(x[m][np.argmax(y[m])])
            by.append(y[m].max())
    slope = np.polyfit(bx, by, 1)[0]
    assert slope <= -(k + 1)
    # the constant is witnessed at small frequencies
    prods = mags[sel] * (1.0 + ms[sel] / 4.0) ** k
    assert prods.max() <= prods[:20].max() + 1e-12


def test_bump_spectrum_taken_once(su2, monkeypatch):
    # separating_function reads n_modes and, for its tail estimate, 4 n_modes
    # modes of one bump: one transform of the samples serves both, bit for bit
    fresh = {n: SplineBump(5).fourier_series(n_modes=n) for n in (96, 384)}
    lengths = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        lengths.append(len(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    u0 = character_field(su2, Su2Spin(1)) * 0.25 + one_field(su2) * 0.5
    rep = separating_function(su2, u0, smoothness=5, n_modes=96, sample_points=0)
    assert lengths.count(1 << 16) == 1
    bump = SplineBump(5)
    for n in (96, 384, 96):
        ms, coefs = bump.fourier_series(n_modes=n)
        assert np.array_equal(ms, fresh[n][0]) and coefs.tobytes() == fresh[n][1].tobytes()
    assert rep.series_tail == calculus._bump_tail_estimate(SplineBump(5), 96)


def test_separating_function_su2(su2):
    # u0 = (1 + cos)/2 in [0, 1]
    u0 = character_field(su2, Su2Spin(1)) * 0.25 + one_field(su2) * 0.5
    rep = separating_function(su2, u0, n_modes=96, cutoff_cap=320, sample_points=300)
    assert rep.achieved_sup_error <= 0.05
    angles = np.array([0.05, 2.9])  # u0 ~ 1 and u0 ~ 0
    vals = central_values(su2, rep.field, angles)
    assert abs(vals[0] - 1.0) <= 0.05
    assert abs(vals[1]) <= 0.05
    # honest matrix evaluation agrees with the class-angle values
    g = np.diag([np.exp(1j * 0.05), np.exp(-1j * 0.05)]).astype(complex)
    assert abs(evaluate(rep.field, g) - vals[0]) < 1e-8


def _separating_field_sum(dual, u0, smoothness, n_modes, cutoff_cap):
    """Reference: sum of c_m * exp_itu_auto(...)[0] with field * and +."""
    ms, coefs = SplineBump(smoothness).fourier_series(n_modes=n_modes)
    acc = None
    for mm, c in zip(ms, coefs):
        if abs(c) < 1e-14:
            continue
        fld, _, _ = exp_itu_auto(dual, u0, 2.0 * np.pi * mm / 4.0, cutoff_cap)
        piece = c * fld
        acc = piece if acc is None else acc + piece
    return acc


def _assert_same_field(got, want):
    """Same labels in the same order, and bit-equal coefficients, signs of zero included."""
    assert list(got.coeffs) == list(want.coeffs)
    for a, M in want.coeffs.items():
        assert np.array_equal(got.coeffs[a], M), a
        assert np.array_equal(np.signbit(got.coeffs[a].view(float)), np.signbit(M.view(float))), a


def _half_cos(dual):
    """(1 + cos)/2 of the class angle on SU(2); on a torus, of each angle, averaged over them."""
    if isinstance(dual, TorusDual):
        terms = {dual.trivial: np.array([[0.5]])}
        for j in range(dual.n):
            for s in (1, -1):
                mu = [0] * dual.n
                mu[j] = s
                terms[TorusChar(tuple(mu))] = np.array([[0.25 / dual.n]])
        return OperatorField.from_terms(dual, terms)
    return character_field(dual, Su2Spin(1)) * 0.25 + one_field(dual) * 0.5


@pytest.mark.parametrize("n_modes", [24, 96])
def test_separating_su2_equals_field_sum(su2, n_modes):
    u0 = character_field(su2, Su2Spin(1)) * 0.25 + one_field(su2) * 0.5
    rep = separating_function(su2, u0, smoothness=5, n_modes=n_modes, cutoff_cap=512,
                              sample_points=0)
    ref = _separating_field_sum(su2, u0, 5, n_modes, 512)
    assert list(rep.field.coeffs) == list(ref.coeffs)  # same support, same order
    for a, M in ref.coeffs.items():
        assert np.array_equal(rep.field.coeffs[a], M)


@pytest.mark.parametrize("rank,smoothness,n_modes,cutoff_cap", [
    (1, 4, 64, 256),
    (1, 5, 96, 512),
    (2, 4, 24, 64),
])
def test_separating_torus_equals_field_sum(rank, smoothness, n_modes, cutoff_cap):
    dual = TorusDual(rank)
    u0 = _half_cos(dual)
    rep = separating_function(dual, u0, smoothness=smoothness, n_modes=n_modes,
                              cutoff_cap=cutoff_cap, sample_points=0)
    _assert_same_field(rep.field, _separating_field_sum(dual, u0, smoothness, n_modes, cutoff_cap))


def test_separating_su2_cutoff_failure_equals_field_sum(su2):
    # the torus cap fails too, and with the same error as the field sum
    for dual, smoothness, cutoff_cap in ((su2, 5, 64), (TorusDual(1), 4, 32)):
        u0 = _half_cos(dual)
        with pytest.raises(InsufficientCutoffError) as got:
            separating_function(dual, u0, smoothness=smoothness, n_modes=96,
                                cutoff_cap=cutoff_cap, sample_points=0)
        with pytest.raises(InsufficientCutoffError) as want:
            _separating_field_sum(dual, u0, smoothness, 96, cutoff_cap)
        assert got.value.cutoff == want.value.cutoff == cutoff_cap
        assert got.value.defect == want.value.defect


def _torus_exp_itu_loop(dual, u, t, cutoff):
    """Reference: e^{itu} on a torus with one FFT lookup per label of the ball."""
    m = 2 * (cutoff + max(32, cutoff)) + 1
    g = np.exp(1j * t * dual.fft_values(u.coeffs, m).real)
    spec = np.fft.fftn(g) / g.size
    terms, coefs = {}, []
    for a in dual.ball(cutoff):
        c = spec[tuple(mu_j % m for mu_j in a.mu)]
        terms[a] = np.array([[c]])
        coefs.append(c)
    return OperatorField.from_terms(dual, terms), abs(1.0 - float(np.sum(np.abs(np.array(coefs)) ** 2)))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("t", [0.0, 0.7, -3.0, 11.0])
@pytest.mark.parametrize("cutoff", [3, 24, 40])
def test_exp_itu_torus_equals_label_loop(rank, t, cutoff):
    dual = TorusDual(rank)
    u = _half_cos(dual) * 2.0 + one_field(dual) * 0.5
    fld_want, defect = _torus_exp_itu_loop(dual, u, t, cutoff)
    fld, got = exp_itu(dual, u, t, cutoff, tail_tol=1.0)  # the defect 1 - mass is at most 1
    assert got == defect
    _assert_same_field(fld, fld_want)


def test_irrep_stacks_equal_per_label_irreps(su2, rng):
    grid = HaarGrid(su2, 10)
    u = OperatorField.from_terms(
        su2, {Su2Spin(n): rng.standard_normal((n + 1, n + 1)) for n in (5, 0, 3)}
    )
    grid_values(u, grid)
    grid.coefficients(np.ones(len(grid.points)), su2.ball(7))
    for n in range(8):
        want = np.stack([su2_irrep(n, p) for p in grid.points])
        assert np.array_equal(grid.rep_stack(Su2Spin(n)), want)
    w = make_weight(su2, "exp:lambda=2")
    for lam in (1.0, 1.5, 2.0, 2.5):
        s = su2.random_point(rng)
        theta = Su2SpectrumPoint(s, lam)
        res = membership(su2, theta, w, cutoff=40)
        margins = [np.linalg.norm(su2_irrep(a.n, theta.matrix()), 2) / w(a)
                   for a in su2.ball(40)]
        # the margin comes in closed form, (lam/2)^n at its top: SVD margins
        # agree to rounding, and the exact tie at lam = 2 goes to pi:0
        assert abs(res.margin - max(margins)) <= 1e-12 * max(margins)
        assert res.argmax == ("pi:40" if lam > 2.0 else "pi:0")
        want = sum(u.dual.dim(a) * complex(np.trace(M @ su2_irrep(a.n, theta.matrix())))
                   for a, M in u.coeffs.items())
        assert char_eval(su2, theta, u) == want


def _shell_rows_reference(dual, X, w, s, n_max):
    """The scans as sums over ball(n) minus the labels already seen."""
    scan, best, seen = [], 0.0, set()
    for n in range(1, n_max + 1):
        for a in dual.ball(n):
            if a not in seen:
                seen.add(a)
                best = max(best, algebra_norm(dual, a, X) / w(a))
        scan.append((n, best))
    tail, total, seen = [], 0.0, set()
    for n in range(n_max + 1):
        shell = [a for a in dual.ball(n) if a not in seen]
        seen.update(shell)
        inc = sum(dual.dim(a) ** 2 * (1.0 + dual.word_length(a) ** 2) ** (-s) for a in shell)
        total += inc
        tail.append((n, total, inc))
    return scan, tail


@pytest.mark.parametrize("group", ["su2", "torus:2"])
def test_shell_scans_equal_ball_differences(su2, group):
    dual = su2 if group == "su2" else TorusDual(2)
    X = CasimirData(dual).basis[2 if group == "su2" else 1]
    w = make_weight(dual, "poly:alpha=0.5")
    scan, tail = _shell_rows_reference(dual, X, w, 1.7, 40)
    assert derivation_bound_scan(dual, X, w, 40) == scan
    assert series_tail(dual, 1.7, 40) == tail


# --- derivations ----------------------------------------------------------------------

def test_point_derivation_leibniz(su2, rng):
    cas = CasimirData(su2)
    for X in cas.basis:
        u = random_field(su2, 2, rng, n_terms=2)
        v = random_field(su2, 2, rng, n_terms=2)
        lhs = point_derivation(su2, X, multiply(u, v))
        rhs = point_derivation(su2, X, u) * evaluate(v, su2.identity()) + evaluate(
            u, su2.identity()
        ) * point_derivation(su2, X, v)
        assert abs(lhs - rhs) < 1e-9


def test_point_derivation_finite_difference(su2, t1, rng):
    # independent oracle: central difference along the one-parameter subgroup
    cas = CasimirData(su2)
    X = cas.basis[2]
    u = random_field(su2, 3, rng, n_terms=3)
    h = 1e-6
    vals, vecs = np.linalg.eig(h * X)
    expm = lambda M: np.linalg.eig(M)[1] @ np.diag(np.exp(np.linalg.eig(M)[0])) @ np.linalg.inv(np.linalg.eig(M)[1])
    fd = (evaluate(u, expm(h * X)) - evaluate(u, expm(-h * X))) / (2 * h)
    assert abs(fd - point_derivation(su2, X, u)) < 1e-5
    Xt = np.array([1.0])
    ut = random_field(t1, 3, rng, n_terms=3)
    fd = (evaluate(ut, np.array([h])) - evaluate(ut, np.array([-h]))) / (2 * h)
    assert abs(fd - point_derivation(t1, Xt, ut)) < 1e-5


def test_derivation_scan_shapes(su2):
    cas = CasimirData(su2)
    X = cas.basis[2]
    w1 = make_weight(su2, "poly:alpha=1")
    rows = derivation_bound_scan(su2, X, w1, 300)
    sups = [s for _, s in rows]
    # alpha = 1: bounded, converging to |X| eigenvalue scale
    assert sups[-1] <= 1.0 / (2 * math.sqrt(2)) + 1e-12
    incs = np.diff(sups)
    assert np.all(incs >= -1e-15)
    assert incs[-1] < incs[10]
    # alpha = 0.5: diverging; passes 10x its initial value well before 500
    w05 = make_weight(su2, "poly:alpha=0.5")
    rows05 = derivation_bound_scan(su2, X, w05, 500)
    s05 = dict(rows05)
    assert s05[500] > 10.0 * s05[1]


def _linalg_calls(monkeypatch):
    """Names of the np.linalg functions called from here on, in order."""
    calls = []
    for name in ("norm", "svd", "eig", "eigh", "eigvals", "eigvalsh"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=f, _name=name, **k: calls.append(_name) or _f(*a, **k))
    return calls


@pytest.mark.parametrize("group", ["su2", "so3"])
@pytest.mark.parametrize("kind", ["basis0", "basis1", "basis2", "nilpotent", "non-normal"])
def test_derivation_scan_one_eigen_solve(group, kind, monkeypatch):
    dual = parse_group(group)
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    X = {"nilpotent": E, "non-normal": 1j * np.diag([1.0, -1.0]) + E}.get(kind)
    if X is None:
        X = CasimirData(dual).basis[int(kind[-1])]
    w = make_weight(dual, "poly:alpha=0.75")
    n_max = 24
    normal = kind.startswith("basis")
    if not normal:  # the per-label norm is still the SVD of dpi(X)
        for a in dual.ball(n_max):
            assert algebra_norm(dual, a, X) == float(np.linalg.norm(su2_algebra_rep(a.n, X), 2))
    want = [(n, max(algebra_norm(dual, a, X) / w(a) for a in dual.ball(n)))
            for n in range(1, n_max + 1)]
    calls = _linalg_calls(monkeypatch)
    assert derivation_bound_scan(dual, X, w, n_max) == want
    # one eigenvalue solve for a normal X, else one spectral norm per spin
    assert calls == (["eigvals"] if normal else ["norm"] * len(dual.ball(n_max)))


def test_algebra_norm_non_normal(su2):
    # the eigenvalue shortcut n * max|eig X| is the operator norm only for
    # normal X; the nilpotent E has no nonzero eigenvalue but dpi_1(E) = E
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = 1j * np.diag([1.0, -1.0])
    assert abs(algebra_norm(su2, Su2Spin(1), E) - 1.0) <= 1e-12
    for X in (E, H + E):
        for n in (1, 3, 4, 10):
            want = np.linalg.norm(su2_algebra_rep(n, X), 2)
            assert abs(algebra_norm(su2, Su2Spin(n), X) - want) <= 1e-12 * want, (n, X)
    # normal inputs keep the shortcut value exactly
    X = CasimirData(su2).basis[0]
    c = float(np.max(np.abs(np.linalg.eigvals(X))))
    assert algebra_norm(su2, Su2Spin(7), X) == 7 * c


# --- the scans on coordinate rows against the shell loop --------------------------------

SCAN_RECIPES = ["dim", "poly:alpha=0.75", "exp:lambda=1.5", "prod(dim,poly:alpha=1)", "pow(dim,2)",
                '{"kind": "table", "base": {"kind": "poly", "alpha": 0.5}, "entries": {}}', "exp:lambda=1e300"]
# ball(40) of torus:3 holds 88,641 labels, too many for one SVD each
SCAN_RADII = {"su2": (0, 1, 7, 40), "so3": (0, 1, 7, 40), "torus:1": (0, 1, 7, 40), "torus:2": (0, 1, 7, 40),
              "torus:3": (0, 1, 4, 10)}
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _outcome(scan, *args):
    """The rows as text, or the error's type and message."""
    try:
        return repr(scan(*args))
    except Exception as exc:  # the scans must fail alike
        return type(exc), str(exc)


def _scan_elements(dual, rng):
    """The basis, then non-basis X: non-normal ones on SU(2) and SO(3)."""
    basis = list(CasimirData(dual).basis)
    if isinstance(dual, TorusDual):
        return basis + [rng.standard_normal(dual.n), 1e3 * rng.standard_normal(dual.n), np.full(dual.n, 1 / 3)]
    return basis + [NILPOTENT, 1j * np.diag([1.0, -1.0]) + NILPOTENT,
                    rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]


@pytest.mark.parametrize("group", sorted(SCAN_RADII))
@pytest.mark.parametrize("recipe", SCAN_RECIPES, ids=["dim", "poly", "exp", "prod", "pow", "table", "exp-overflow"])
def test_derivation_scan_equals_shell_loop(group, recipe, rng):
    # bit for bit, and the same error at the same first failing label
    dual = parse_group(group)
    w = make_weight(dual, json.loads(recipe) if recipe.startswith("{") else recipe)
    for X in _scan_elements(dual, rng):
        for n_max in SCAN_RADII[group]:
            assert _outcome(derivation_bound_scan, dual, X, w, n_max) == \
                _outcome(derivation_oracle.derivation_scan, dual, X, w, n_max), (X, n_max)


@pytest.mark.parametrize("group", ["su2", "so3", "torus:1", "torus:2", "torus:3", "txz2", "prod(su2,torus:1)",
                                   "prod(prod(su2,txz2),torus:1)"])
def test_series_tail_equals_shell_loop(group):
    dual = parse_group(group)
    for s in (0.5, 1.0, 1.7, 3.0, -2.0):
        for n_max in (0, 1, 5, 12):
            assert _outcome(series_tail, dual, s, n_max) == _outcome(derivation_oracle.series_tail, dual, s, n_max)


@pytest.mark.parametrize("group", ["txz2", "prod(su2,torus:1)"])
def test_derivation_scan_without_lie_data(group):
    # n_max = 0 gives no rows and evaluates nothing; past it the family is refused first
    dual = parse_group(group)
    calls = []
    w = make_weight(dual, "dim")
    probe = lambda a: calls.append(a) or w(a)
    assert derivation_bound_scan(dual, np.eye(2), probe, 0) == []
    with pytest.raises(FamilyMismatchError, match="no Lie data"):
        derivation_bound_scan(dual, np.eye(2), probe, 3)
    assert calls == []


def test_derivation_scan_rejects_non_finite_elements(su2, t1):
    for dual, X in ((su2, np.full((2, 2), np.nan)), (su2, np.diag([np.inf, 0.0])), (t1, np.array([np.inf]))):
        with pytest.raises(ValueError, match="finite"):
            derivation_bound_scan(dual, X, make_weight(dual, "dim"), 4)


def test_torus_scan_makes_no_linalg_call(monkeypatch):
    # |mu . X| per row: no 1 x 1 SVDs
    dual = TorusDual(2)
    X, w = CasimirData(dual).basis[1], make_weight(dual, "poly:alpha=1")
    want = derivation_oracle.derivation_scan(dual, X, w, 30)
    calls = _linalg_calls(monkeypatch)
    assert derivation_bound_scan(dual, X, w, 30) == want
    assert calls == []


def test_algebra_rep_values(su2):
    X = 1j * np.diag([1.0, -1.0])
    M = algebra_rep(su2, Su2Spin(2), X)
    assert np.allclose(np.diag(M), [2j, 0, -2j])


# --- synthesis degree -------------------------------------------------------------------

def test_synthesis_degree():
    assert synthesis_degree(0, 0.5) == 1
    assert synthesis_degree(1, 1.0) == 2
    assert synthesis_degree(2, 1.5) == 3
    for alpha in (0.1, 0.5, 0.999):
        assert synthesis_degree(0, alpha) == 1
    for alpha in (1.0, 1.5, 2.0):
        assert synthesis_degree(0, alpha) >= 2
    with pytest.raises(ValueError):
        synthesis_degree(-1, 1.0)


# --- Nu decomposition ---------------------------------------------------------------------

def test_nu_norms_single_block(su2):
    w = make_weight(su2, "const:1")
    u = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([1.0, 0.0])})
    nu = nu_decompose(u, w)
    assert abs(nu.phi_norm_sq_sum() - 2.0) < 1e-12
    assert abs(nu.psi_norm_sq_sum() - 2.0) < 1e-12


def test_nu_zero(su2):
    w = make_weight(su2, "dim")
    nu = nu_decompose(OperatorField.from_terms(su2, {}), w)
    assert nu.phi_norm_sq_sum() == 0.0 and nu.psi_norm_sq_sum() == 0.0


def test_nu_norm_identity_random(su2, sd, rng):
    for dual in (su2, sd):
        w = make_weight(dual, "dim")
        u = random_field(dual, 3, rng, n_terms=3)
        nu = nu_decompose(u, w)
        na = norm_a_omega(u, w)
        assert abs(nu.phi_norm_sq_sum() - na) < 1e-9 * max(1.0, na)
        assert abs(nu.psi_norm_sq_sum() - na) < 1e-9 * max(1.0, na)


def test_nu_reconstruction(su2, rng):
    w = make_weight(su2, "dim")
    u = random_field(su2, 3, rng, n_terms=3)
    nu = nu_decompose(u, w)
    for _ in range(6):
        s = su2.random_point(rng)
        t = su2.random_point(rng)
        want = evaluate(u, su2.point_mul(s, su2.point_inv(t)))
        assert abs(nu.reconstruct(s, t) - want) < 1e-9


def test_pairing_identity_matrix_coefficient(su2):
    w = make_weight(su2, "dim")
    e = np.eye(2)
    T = OperatorField.from_terms(su2, {Su2Spin(1): np.diag([5.0, 0.0])})
    u = coefficient_field(su2, Su2Spin(1), e[0], e[0])
    assert pairing_identity_check(T, u, w) < 1e-12
    assert pairing_identity_check(OperatorField.from_terms(su2, {}), u, w) < 1e-15


def test_pairing_identity_random(su2, t1, rng):
    for dual in (su2, t1):
        w = make_weight(dual, "poly:alpha=1")
        for _ in range(10):
            u = random_field(dual, 2, rng, n_terms=2)
            T = random_field(dual, 3, rng, n_terms=3)
            assert pairing_identity_check(T, u, w) < 1e-9


def test_separating_function_torus(t1):
    u0 = OperatorField.from_terms(
        t1,
        {
            TorusChar((0,)): np.array([[0.5]]),
            TorusChar((1,)): np.array([[0.25]]),
            TorusChar((-1,)): np.array([[0.25]]),
        },
    )  # (1 + cos)/2
    rep = separating_function(t1, u0, smoothness=4, n_modes=64, cutoff_cap=256,
                              sample_points=200)
    assert rep.achieved_sup_error <= 0.05


@pytest.mark.parametrize("t,cutoff", [(1.0, 20), (6.0, 40)])
def test_exp_itu_so3_is_su2_at_even_spins(t, cutoff):
    # u is even under the center, so e^{itu} lives on the even spins, the
    # SO(3) labels; the SU(2) path leaves rounding noise at the odd ones
    su2, so3 = Su2Dual(), So3Dual()
    u2 = 0.5 * character_field(su2, Su2Spin(2)) + 0.2 * one_field(su2)
    u3 = 0.5 * character_field(so3, Su2Spin(2)) + 0.2 * one_field(so3)
    f2, d2 = exp_itu(su2, u2, t, cutoff)
    f3, d3 = exp_itu(so3, u3, t, cutoff)
    assert d3 == d2
    assert list(f3.coeffs) == [a for a in f2.coeffs if a.n % 2 == 0]
    assert all(np.array_equal(f3.coeffs[a], f2.coeffs[a]) for a in f3.coeffs)
    b = _ExpItu(su2, u2).coefs(t, cutoff, 1e-6)[1] * np.arange(1, cutoff + 2)  # trace weights
    assert np.max(np.abs(b[1::2])) < 1e-14
    assert np.min(np.abs(b[0:8:2])) > 1e-6


def test_separating_so3_equals_field_sum():
    so3 = So3Dual()
    u0 = 0.5 * one_field(so3) + 0.25 * character_field(so3, Su2Spin(2))
    rep = separating_function(so3, u0, smoothness=5, n_modes=24, cutoff_cap=256,
                              sample_points=200)
    ref = _separating_field_sum(so3, u0, 5, 24, 256)
    assert list(rep.field.coeffs) == list(ref.coeffs)
    for a, M in ref.coeffs.items():
        assert np.array_equal(rep.field.coeffs[a], M)
    assert rep.achieved_sup_error < 0.05
