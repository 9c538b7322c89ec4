"""References for the FFT-based Haar transforms of :mod:`bfw.quadrature`.

``grid_values`` and ``coefficients`` run the Haar transform through per-label
(G, d, d) stacks: every label is evaluated at every point of
``dual.haar_grid(degree)`` by ``dual.reps``, and the sums run over the grid
points.  ``euler_values`` and ``euler_coefficients`` are the Euler-separated
SU(2)/SO(3) transform with its complex small-d stacks memoized per grid.
``torus_mesh_values`` sums one exponential per torus character over a meshgrid.
"""

import numpy as np

from bfw.duals import _su2_freqs, _su2_grid_axes


def grid_values(dual, degree, coeffs) -> np.ndarray:
    """Values of sum_a d_a tr(a(g) M_a) at the grid points."""
    points, weights = dual.haar_grid(degree)
    vals = np.zeros(len(weights), dtype=complex)
    labels = list(coeffs)
    for a, P in zip(labels, dual.reps(labels, points)):
        vals += dual.dim(a) * np.einsum("gij,ji->g", P, coeffs[a])
    return vals


def coefficients(dual, degree, values, labels) -> dict:
    """u^(a) = sum_g w_g f(g) a(g)^* per label, from the values f at the grid points."""
    points, weights = dual.haar_grid(degree)
    wf = weights * np.asarray(values, dtype=complex)
    labels = list(labels)
    return {a: np.einsum("g,gji->ij", wf, P.conj()) for a, P in zip(labels, dual.reps(labels, points))}


def torus_mesh_values(dual, coeffs, m) -> np.ndarray:
    """sum_mu c_mu e^{i mu.theta} on the product grid of m uniform angles per
    torus axis, shape (m,) * rank, for the map ``coeffs`` of labels to (1, 1) blocks."""
    mesh = np.meshgrid(*[2.0 * np.pi * np.arange(m) / m] * dual.n, indexing="ij")
    vals = np.zeros(mesh[0].shape, dtype=complex)
    for a, M in coeffs.items():
        vals += M[0, 0] * np.exp(1j * sum(mu_j * th for mu_j, th in zip(a.mu, mesh)))
    return vals


# ---------------------------------------------------------------------------
# the Euler-separated SU(2)/SO(3) transform with complex small-d stacks kept per
# grid, as it ran before the recursion streamed real levels: the reference that
# Su2Dual.haar_values and Su2Dual.haar_coefficients must match bit for bit
# ---------------------------------------------------------------------------

class EulerGrid:
    """The degree and the per-grid memo that ``_su2_euler_data`` reads."""

    def __init__(self, degree):
        self.degree = degree
        self.memo = {}


def su2_irrep_stack(n_max, gs):
    gs = np.asarray(gs, dtype=complex)
    return _su2_extend_stack([np.ones(gs.shape[:1] + (1, 1), dtype=complex)], n_max, gs)


def _su2_extend_stack(out, n_max, gs):
    """Append the levels len(out)..n_max of su2_irrep_stack at gs to out, its
    levels 0..len(out)-1 there; level n depends only on level n-1."""
    for n in range(len(out), n_max + 1):
        prev = out[-1]
        j = np.arange(n + 1)
        cur = np.zeros(gs.shape[:1] + (n + 1, n + 1), dtype=complex)
        w = np.sqrt(np.outer(n - j, n - j)) / n
        cur[:, : n, : n] += w[: n, : n] * prev * gs[:, None, None, 0, 0]
        w = np.sqrt(np.outer(n - j, j)) / n
        cur[:, : n, 1:] += w[: n, 1:] * prev * gs[:, None, None, 0, 1]
        w = np.sqrt(np.outer(j, n - j)) / n
        cur[:, 1:, : n] += w[1:, : n] * prev * gs[:, None, None, 1, 0]
        w = np.sqrt(np.outer(j, j)) / n
        cur[:, 1:, 1:] += w[1:, 1:] * prev * gs[:, None, None, 1, 1]
        out.append(cur)
    return out


def _su2_euler_data(grid, n_max):
    """(k, small-d stacks up to at least n_max) of an SU(2) grid.

    The small-d stack of spin n is the real array (q, n+1, n+1) of the irrep
    at rot(beta/2) for each middle angle beta.  The grid's memo keeps the
    recursion, and a call for a higher spin extends it from its last level.
    """
    memo = grid.memo.get("su2_euler")
    if memo is None:
        k, betas, _ = _su2_grid_axes(grid.degree)
        c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
        rots = np.zeros((len(betas), 2, 2), dtype=complex)
        rots[:, 0, 0], rots[:, 0, 1], rots[:, 1, 0], rots[:, 1, 1] = c, -s, s, c
        memo = grid.memo["su2_euler"] = (k, rots, su2_irrep_stack(n_max, rots))
    k, rots, stack = memo
    _su2_extend_stack(stack, n_max, rots)
    return k, [level.real for level in stack]


def euler_values(dual, grid, coeffs):
    # (n+1) M^T o d_n(beta) at the folded frequencies, then one FFT over both circle axes
    dual._check(*coeffs)
    k, d = _su2_euler_data(grid, max((a.n for a in coeffs), default=0))
    spec = np.zeros((len(d[0]), k, k), dtype=complex)
    for a, M in coeffs.items():
        f = _su2_freqs(a.n, k)
        np.add.at(spec, (slice(None), f[:, None], f), (a.n + 1) * M.T * d[a.n])
    return np.fft.fft2(spec).transpose(1, 0, 2).ravel()


def euler_coefficients(dual, grid, wf, labels):
    # F = unscaled inverse FFT over both circle axes per beta, then
    # u^(n)[i, j] = sum_beta d_n(beta)[j, i] F[beta, (n-2j) mod k, (n-2i) mod k]
    dual._check(*labels)
    k, d = _su2_euler_data(grid, max((a.n for a in labels), default=0))
    spec = np.fft.ifft2(wf.reshape(k, len(d[0]), k), axes=(0, 2), norm="forward").transpose(1, 0, 2)
    out = {}
    for a in labels:
        f = _su2_freqs(a.n, k)
        out[a] = np.einsum("bji,bji->ij", d[a.n], spec[:, f[:, None], f])
    return out
