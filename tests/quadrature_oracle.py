"""The Haar transform through per-label (G, d, d) stacks, kept as the reference
for the Euler-separated SU(2)/SO(3) transform of :mod:`bfw.quadrature`.

Every label is evaluated at every point of ``dual.haar_grid(degree)`` by
``dual.reps``, and the sums run over the grid points.
"""

import numpy as np


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
