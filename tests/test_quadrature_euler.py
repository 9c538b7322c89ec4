"""The Euler-separated SU(2)/SO(3) Haar transform against the per-label stack
transform of ``quadrature_oracle`` and bit for bit against its memoized
complex-stack transform, at high degree against ``multiply``, Schur
orthogonality and a peak-memory bound, and the grid-degree and import checks."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bfw
import quadrature_oracle
from bfw import OperatorField, Su2Spin, multiply, parse_group
from bfw import duals
from bfw.duals import GroupDual, Su2Dual, su2_euler_point
from bfw.fields import evaluate
from bfw.quadrature import HaarGrid, grid_values


def random_terms(dual, labels, rng):
    return {a: rng.standard_normal((dual.dim(a),) * 2) + 1j * rng.standard_normal((dual.dim(a),) * 2)
            for a in labels}


def scale_of(dual, terms):
    """A bound on sup |f| for f = sum_a d_a tr(a(g) M_a)."""
    return sum(dual.dim(a) * float(np.abs(M).sum()) for a, M in terms.items())


def euler_angles(degree, g):
    """(alpha, beta, gamma) of the g-th point of the degree-``degree`` SU(2) grid."""
    k, q = degree + 1, (degree + 6) // 4
    betas = np.arccos(np.polynomial.legendre.leggauss(q)[0])
    m_a, rest = divmod(g, q * k)
    j, m_g = divmod(rest, k)
    return 4.0 * math.pi * m_a / k, float(betas[j]), 4.0 * math.pi * m_g / k


@pytest.mark.parametrize("group", ["su2", "so3"])
@pytest.mark.parametrize("degree", range(17))
def test_euler_transform_equals_stack_oracle(group, degree):
    # labels up to spin 10 also reach past the grid degree, where the circle
    # frequencies fold; the values there are still exact at the grid points
    rng = np.random.default_rng(1000 + degree)
    dual = parse_group(group)
    labels = dual.ball(10 if group == "su2" else 5)
    picked = [labels[int(i)] for i in rng.choice(len(labels), size=4, replace=False)]
    terms = random_terms(dual, picked, rng)
    u = OperatorField.from_terms(dual, terms)
    scale = scale_of(dual, terms)
    grid = HaarGrid(dual, degree)
    vals = grid_values(u, grid)
    want = quadrature_oracle.grid_values(dual, degree, u.coeffs)
    assert np.max(np.abs(vals - want)) <= 1e-13 * scale
    out_labels = dual.ball(12 if group == "su2" else 6)
    got = grid.coefficients(vals, out_labels)
    want = quadrature_oracle.coefficients(dual, degree, vals, out_labels)
    for a in out_labels:
        M = got[a] if a in got.coeffs else np.zeros((dual.dim(a),) * 2)
        assert np.max(np.abs(M - want[a])) <= 1e-13 * scale, a


def test_euler_transform_builds_no_stack(monkeypatch):
    rng = np.random.default_rng(7)
    su2 = Su2Dual()
    u = OperatorField.from_terms(su2, random_terms(su2, su2.ball(6)[::2], rng))
    grid = HaarGrid(su2, 14)
    want = grid.coefficients(grid_values(u, grid), su2.ball(7))

    def refuse(*args, **kwargs):
        raise AssertionError("a (G, d, d) stack or the grid points were built")

    for owner, name in ((HaarGrid, "rep_stack"), (HaarGrid, "_fill"), (GroupDual, "reps"), (Su2Dual, "reps"),
                        (GroupDual, "haar_grid"), (Su2Dual, "_haar_points")):
        monkeypatch.setattr(owner, name, refuse)
    grid = HaarGrid(su2, 14)
    got = grid.coefficients(grid_values(u, grid), su2.ball(7))
    assert "points" not in vars(grid)
    assert list(got.coeffs) == list(want.coeffs)
    assert all(np.array_equal(got[a], want[a]) for a in want.coeffs)


def test_small_d_stacks_extend_bit_for_bit(monkeypatch):
    # values at spins <= 4, then coefficients at spins <= 8 on the same grid,
    # equal a fresh grid's bit for bit, with one leggauss per degree
    rng = np.random.default_rng(48)
    su2 = Su2Dual()
    u = OperatorField.from_terms(su2, random_terms(su2, su2.ball(4), rng))
    fresh = HaarGrid(su2, 16)
    want_coefs = fresh.coefficients(np.ones(len(fresh.weights)), su2.ball(8))
    want_vals = grid_values(u, fresh)
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(*args):
        calls.append(args)
        return leggauss(*args)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    duals._su2_grid_axes.cache_clear()
    grid = HaarGrid(su2, 16)
    vals = grid_values(u, grid)
    got = grid.coefficients(np.ones(len(grid.weights)), su2.ball(8))
    assert len(calls) == 1
    assert vals.tobytes() == want_vals.tobytes()
    assert list(got.coeffs) == list(want_coefs.coeffs)
    assert all(got[a].tobytes() == want_coefs[a].tobytes() for a in got.coeffs)
    _, betas, ws = duals._su2_grid_axes(16)
    assert not betas.flags.writeable and not ws.flags.writeable


def oracle_check(dual, grid, oracle_grid, terms, labels):
    """Values of ``terms`` and coefficients of those values at ``labels``: the
    dual's hooks against the memoized complex-stack transform, bytes and
    label order equal.  Returns the values."""
    vals = dual.haar_values(grid, terms)
    assert vals.tobytes() == quadrature_oracle.euler_values(dual, oracle_grid, terms).tobytes()
    wf = grid.weights * vals
    got = dual.haar_coefficients(grid, wf, labels)
    want = quadrature_oracle.euler_coefficients(dual, oracle_grid, wf, labels)
    assert list(got) == list(want)
    for a in want:
        assert got[a].dtype == want[a].dtype and got[a].tobytes() == want[a].tobytes(), a
    return vals


@pytest.mark.parametrize("group", ["su2", "so3"])
@pytest.mark.parametrize("degree", [*range(17), 64])
def test_euler_transform_equals_memoized_oracle_bit_for_bit(group, degree):
    # full blocks on every spin of a ball reaching past the degree, in shuffled
    # order, at three scales; then repeated calls on the same two grids, with the
    # oracle's memo extended from a lower spin and reused
    rng = np.random.default_rng(2100 + degree)
    dual = parse_group(group)
    radius = degree + 4 if group == "su2" else degree // 2 + 2
    labels = list(dual.ball(radius))
    grid, oracle_grid = HaarGrid(dual, degree), quadrature_oracle.EulerGrid(degree)
    low = [a for a in labels if a.n <= degree // 2]
    rng.shuffle(low)
    oracle_check(dual, grid, oracle_grid, random_terms(dual, low, rng), low[::-1])
    for scale in (1.0, 1e-3, 1e5):
        rng.shuffle(labels)
        terms = {a: scale * M for a, M in random_terms(dual, labels, rng).items()}
        out = list(labels)
        rng.shuffle(out)
        oracle_check(dual, grid, oracle_grid, terms, out)
    assert "points" not in vars(grid)


@pytest.mark.parametrize("group", ["su2", "so3"])
def test_euler_transform_empty_field_and_labels_equal_oracle(group):
    # no spins at all: the spectrum still has the grid's q middle angles
    dual = parse_group(group)
    rng = np.random.default_rng(21)
    for degree in (0, 5, 16):
        grid, oracle_grid = HaarGrid(dual, degree), quadrature_oracle.EulerGrid(degree)
        vals = oracle_check(dual, grid, oracle_grid, {}, ())
        assert vals.shape == grid.weights.shape and not vals.any()
        terms = random_terms(dual, dual.ball(3)[1:], rng)
        assert oracle_check(dual, grid, oracle_grid, terms, ()).any()
        assert grid.coefficients(vals, ()).coeffs == {}


def test_degree_240_square_of_character_60_stays_small():
    # chi_60^2 = chi_0 + chi_2 + ... + chi_120, so its coefficients are I/(k+1)
    # at even k <= 120 and 0 elsewhere; a child process reports its own peak RSS
    # as VmHWM: its ru_maxrss would start from the peak of the process that started it
    src = Path(bfw.__file__).resolve().parents[1]
    code = """
import json
import numpy as np
from bfw import Su2Dual, Su2Spin
from bfw.fields import character_field
from bfw.quadrature import HaarGrid, grid_values

su2 = Su2Dual()
grid = HaarGrid(su2, 240)
vals = grid_values(character_field(su2, Su2Spin(60)), grid)
out = grid.coefficients(vals * vals, su2.ball(120))
err = max(float(np.max(np.abs(out[a] - (a.n % 2 == 0) * np.eye(a.n + 1) / (a.n + 1)))) for a in su2.ball(120))
with open("/proc/self/status") as f:
    rss_mb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
print(json.dumps({"err": err, "rss_mb": rss_mb}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    report = json.loads(out.stdout)
    assert report["err"] <= 1e-12, report
    assert report["rss_mb"] < 500, report


def test_bulk_grid_points_equal_scalar_euler_points():
    su2 = Su2Dual()
    for degree in (0, 1, 5, 16):
        points, weights = su2.haar_grid(degree)
        k, q = degree + 1, (degree + 6) // 4
        ws = np.polynomial.legendre.leggauss(q)[1]
        assert len(points) == len(weights) == k * q * k
        for g in range(len(points)):
            assert np.max(np.abs(points[g] - su2_euler_point(*euler_angles(degree, g)))) <= 4e-16
            assert weights[g] == ws[(g // k) % q] / (2.0 * k * k)


def test_degree_64_product_equals_multiply():
    rng = np.random.default_rng(64)
    su2 = Su2Dual()
    u = OperatorField.from_terms(su2, random_terms(su2, su2.ball(16), rng))
    v = OperatorField.from_terms(su2, random_terms(su2, su2.ball(16), rng))
    start = time.perf_counter()
    grid = HaarGrid(su2, 64)
    got = grid.coefficients(grid_values(u, grid) * grid_values(v, grid), su2.ball(32))
    assert time.perf_counter() - start < 5.0
    uv = multiply(u, v)
    scale = max(float(np.max(np.abs(M))) for M in uv.coeffs.values())
    assert set(got.coeffs) == set(uv.coeffs)
    assert max(float(np.max(np.abs(got[a] - uv[a]))) for a in uv.coeffs) <= 1e-10 * scale


@pytest.fixture(scope="module")
def grid128():
    return HaarGrid(Su2Dual(), 128)


def test_degree_128_round_trip(grid128):
    rng = np.random.default_rng(128)
    su2 = grid128.dual
    labels = su2.ball(64)
    u = OperatorField.from_terms(su2, random_terms(su2, labels, rng))
    start = time.perf_counter()
    vals = grid_values(u, grid128)
    back = grid128.coefficients(vals, labels)
    assert time.perf_counter() - start < 20.0
    scale = max(float(np.max(np.abs(M))) for M in u.coeffs.values())
    assert max(float(np.max(np.abs(back[a] - u[a]))) for a in labels) <= 1e-12 * scale
    # the values at sampled grid points, against the field evaluated at the scalar Euler point
    for g in rng.choice(len(vals), size=12, replace=False):
        want = evaluate(u, su2_euler_point(*euler_angles(128, int(g))))
        assert abs(vals[g] - want) <= 1e-12 * scale_of(su2, u.coeffs)


def test_degree_128_schur_orthogonality(grid128):
    # f = pi_a[i, j] is the field {a: E_ji / d_a}; its coefficients at b are
    # int pi_a[i, j] conj(pi_b[l, k]) = delta_ab delta_il delta_jk / d_a, i.e. the field back
    su2 = grid128.dual
    spins = [Su2Spin(n) for n in (0, 5, 31, 64)]
    for a in spins:
        d = a.n + 1
        for i, j in {(0, 0), (0, d - 1), (d - 1, 0), (d // 2, d // 3)}:
            M = np.zeros((d, d))
            M[j, i] = 1.0 / d
            vals = grid_values(OperatorField.from_terms(su2, {a: M}), grid128)
            got = grid128.coefficients(vals, spins)
            for b in spins:
                want = M if b == a else 0.0
                G = got[b] if b in got.coeffs else np.zeros((b.n + 1,) * 2)
                assert np.max(np.abs(G - want)) <= 1e-12, (a, b, i, j)


GROUPS = ["su2", "so3", "torus:1", "torus:2", "txz2", "prod(su2,torus:1)", "prod(txz2,so3)"]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("degree", [-1, -5, 2.5, 2.0, "4", None])
def test_grid_rejects_bad_degree(group, degree):
    dual = parse_group(group)
    for build in (lambda: HaarGrid(dual, degree), lambda: dual.haar_grid(degree), lambda: dual.haar_weights(degree)):
        with pytest.raises(ValueError, match="grid degree") as err:
            build()
        assert repr(degree) in str(err.value)


@pytest.mark.parametrize("group", GROUPS)
def test_grid_weights_are_a_probability_measure(group):
    dual = parse_group(group)
    for degree in (0, 1, 3, np.int64(4)):
        points, weights = dual.haar_grid(degree)
        assert len(points) == len(weights)
        assert np.array_equal(dual.haar_weights(degree), weights)
        assert abs(float(weights.sum()) - 1.0) < 1e-13


def test_import_bfw_loads_no_fft():
    src = Path(bfw.__file__).resolve().parents[1]
    code = "import sys, bfw; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
