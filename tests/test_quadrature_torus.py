"""The torus Haar transform by one n-D FFT against the per-label stack transform
of ``quadrature_oracle`` and its meshgrid sum, without stacks, and the peak
memory of a torus:3 growth curve in a child process."""

import json

import numpy as np
import pytest

import quadrature_oracle
from conftest import cli_child
from bfw import OperatorField
from bfw.calculus import _ExpItu, exp_itu
from bfw.duals import GroupDual, TorusDual
from bfw.labels import TorusChar
from bfw.quadrature import HaarGrid, grid_values
from bfw.serialize import dumps, element_to_json


def random_terms(dual, degree, rng, scale):
    """Random (1, 1) blocks times ``scale`` on five labels of ball(degree + 3)
    and one past the grid degree on every axis, where the frequencies fold."""
    pool = dual.ball(degree + 3)
    labels = [pool[int(i)] for i in rng.choice(len(pool), size=min(5, len(pool)), replace=False)]
    labels.append(TorusChar(tuple(degree + 1 + j for j in range(dual.n))))
    return {a: scale * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))) for a in labels}


def unit_characters(dual):
    """u = 1/2 (sum of the 2 rank unit characters): cos theta_1 + ... + cos theta_rank."""
    return OperatorField.from_terms(dual, {a: np.array([[0.5]]) for a in dual.generators()})


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("degree", range(17))
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e5])
def test_torus_transform_equals_stack_oracle(rank, degree, scale):
    rng = np.random.default_rng(100 * rank + degree)
    dual = TorusDual(rank)
    terms = random_terms(dual, degree, rng, scale)
    bound = sum(float(np.abs(M).sum()) for M in terms.values())
    grid = HaarGrid(dual, degree)
    vals = grid_values(OperatorField.from_terms(dual, terms), grid)
    assert vals.shape == grid.weights.shape
    assert np.max(np.abs(vals - quadrature_oracle.grid_values(dual, degree, terms))) <= 1e-13 * bound
    out_labels = dual.ball(3) + tuple(random_terms(dual, degree, rng, 1.0))
    got = grid.coefficients(vals, out_labels)
    want = quadrature_oracle.coefficients(dual, degree, vals, out_labels)
    for a in out_labels:
        assert np.max(np.abs(got[a] - want[a])) <= 1e-13 * bound, a


@pytest.mark.parametrize("rank, m", [(1, 1), (1, 7), (1, 256), (2, 1), (2, 8), (2, 33), (3, 5)])
def test_torus_fft_values_equal_meshgrid_sum(rank, m):
    # the meshgrid sum loses about |mu| 2 pi eps per term, so |mu| stays small;
    # for m <= 13 the labels still fold
    rng = np.random.default_rng(m + rank)
    dual = TorusDual(rank)
    terms = random_terms(dual, min(m - 1, 12), rng, 1.0)
    bound = sum(float(np.abs(M).sum()) for M in terms.values())
    got = dual.fft_values(terms, m)
    want = quadrature_oracle.torus_mesh_values(dual, terms, m)
    assert got.shape == want.shape == (m,) * rank
    assert np.max(np.abs(got - want)) <= 1e-13 * bound
    # the Haar hook is the same function on the degree m - 1 grid, in point order
    u = OperatorField.from_terms(dual, terms)
    assert np.array_equal(grid_values(u, HaarGrid(dual, m - 1)), got.ravel())
    assert not dual.fft_values({}, m).any()


def test_torus_transform_builds_no_stack(monkeypatch):
    rng = np.random.default_rng(11)
    dual = TorusDual(2)
    u = OperatorField.from_terms(dual, random_terms(dual, 6, rng, 1.0))
    grid = HaarGrid(dual, 12)
    want = grid.coefficients(grid_values(u, grid), dual.ball(6))
    cos = unit_characters(dual)
    want_exp = exp_itu(dual, cos, 1.5, 20)
    want_sup = _ExpItu(dual, cos).sup

    def refuse(*args, **kwargs):
        raise AssertionError("a (G, 1, 1) stack was built")

    for owner, name in ((HaarGrid, "rep_stack"), (HaarGrid, "_fill"), (GroupDual, "reps"),
                        (TorusDual, "reps")):
        monkeypatch.setattr(owner, name, refuse)
    grid = HaarGrid(dual, 12)
    got = grid.coefficients(grid_values(u, grid), dual.ball(6))
    assert list(got.coeffs) == list(want.coeffs)
    assert all(np.array_equal(got[a], want[a]) for a in want.coeffs)
    fld, defect = exp_itu(dual, cos, 1.5, 20)
    assert defect == want_exp[1] and list(fld.coeffs) == list(want_exp[0].coeffs)
    assert _ExpItu(dual, cos).sup == want_sup


def test_torus3_expcurve_stays_small(tmp_path):
    # the sup estimate takes u on 256^3 points: one inverse FFT, no grid weights
    # and no exponential per character; a child process reports its own peak RSS
    (tmp_path / "u.json").write_text(dumps(element_to_json(unit_characters(TorusDual(3)))))
    out = cli_child(["expcurve", "--group", "torus:3", "--u", "u.json", "--weight", "poly:alpha=1",
                     "--tmax", "4", "--cutoff-cap", "40", "--out", "c.csv"], tmp_path)
    assert out.returncode == 0, out.stderr
    *summary, rss_mb = out.stdout.splitlines()
    assert float(rss_mb) < 800, rss_mb
    assert json.loads("\n".join(summary))["passed"] is True
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,norm,bound,cutoff,tail" and len(lines) == 4  # t = 1, 2, 4
    assert all(float(cell) >= 0.0 for line in lines[1:] for cell in line.split(","))
