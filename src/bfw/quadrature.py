"""Haar-measure quadrature: function values -> operator-field coefficients.

Grids come from :meth:`GroupDual.haar_grid` and are exact on matrix entries
whose label indices total at most the grid degree:

* torus: uniform product grid;
* SU(2): uniform angles over the doubled period for the two circle factors
  times Gauss-Legendre in the cosine of the middle angle (after the circle
  sums only even entry-products survive, and those are polynomials there);
* circle-with-flip: a circle grid on each of the two components, averaged.

Grid evaluation reduces in a fixed order, so results are reproducible
bit-for-bit for a given grid.
"""

from __future__ import annotations

import numpy as np

from .duals import GroupDual
from .duals import su2_irrep_stack  # noqa: F401  perfbench's tracer self-test reads it here
from .errors import QuadratureConvergenceError
from .fields import OperatorField
from .labels import IrrepLabel

__all__ = ["HaarGrid", "quadrature_coeffs", "grid_values"]


class HaarGrid:
    """A quadrature rule on one group with cached representation stacks."""

    def __init__(self, dual: GroupDual, degree: int):
        self.dual = dual
        self.degree = degree
        self.points, self.weights = dual.haar_grid(degree)
        self._stacks: dict[IrrepLabel, np.ndarray] = {}

    def rep_stack(self, a: IrrepLabel) -> np.ndarray:
        """Array (G, d, d) of the irrep a at every grid point."""
        self._fill((a,))
        return self._stacks[a]

    def _fill(self, labels) -> None:
        """Cache the stacks of the labels, all from one batched evaluation."""
        missing = [a for a in labels if a not in self._stacks]
        if missing:
            self._stacks.update(zip(missing, self.dual.reps(missing, self.points)))

    def coefficients(self, values: np.ndarray, labels) -> OperatorField:
        """Transform of the function with the given grid values, per label."""
        wf = self.weights * np.asarray(values, dtype=complex)
        labels = tuple(labels)
        self._fill(labels)
        out = {}
        for a in labels:
            P = self.rep_stack(a)
            # u^(a) = sum_g w_g f(g) a(g)^*, entrywise (i,j) -> conj(P[g, j, i])
            out[a] = np.einsum("g,gji->ij", wf, P.conj())
        return OperatorField.from_terms(self.dual, out)


def grid_values(u: OperatorField, grid: HaarGrid) -> np.ndarray:
    """Values of the represented function at every grid point."""
    vals = np.zeros(len(grid.points), dtype=complex)
    grid._fill(u.coeffs)
    for a, M in u.coeffs.items():
        vals += u.dual.dim(a) * np.einsum("gij,ji->g", grid.rep_stack(a), M)
    return vals


def quadrature_coeffs(
    fn,
    dual: GroupDual,
    cutoff: int,
    degree: int | None = None,
    grid: HaarGrid | None = None,
    check_refine: bool = False,
    refine_tol: float = 1e-9,
) -> OperatorField:
    """Coefficients of ``fn`` on all labels of word length <= cutoff.

    ``fn`` is a callable on group points or an :class:`OperatorField` (then
    its exact values are used).  The default grid degree ``2 * cutoff`` is
    exact whenever fn is a trigonometric polynomial within the cutoff.  With
    ``check_refine`` the transform is recomputed on a finer grid and a
    mismatch raises, reporting both estimates.
    """
    if degree is None:
        degree = 2 * cutoff
    labels = dual.ball(cutoff)

    def run(deg, g=None):
        g = g or HaarGrid(dual, deg)
        if isinstance(fn, OperatorField):
            vals = grid_values(fn, g)
        else:
            vals = np.array([fn(p) for p in g.points], dtype=complex)
        return g.coefficients(vals, labels)

    out = run(degree, grid)
    if check_refine:
        fine = run(2 * degree + 1)
        dev = 0.0
        for a in labels:
            dev = max(dev, float(np.max(np.abs(out[a] - fine[a]))))
        if dev > refine_tol:
            raise QuadratureConvergenceError(out, fine, dev)
    return out
