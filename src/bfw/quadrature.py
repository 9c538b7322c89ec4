"""Haar-measure quadrature: function values -> operator-field coefficients.

Grids come from :meth:`GroupDual.haar_grid` and are exact on matrix entries
whose grid indices total at most the grid degree.  The degree counts each
family's grid index, not word length: |m| per torus axis, m of the
circle-with-flip pi_m, and the spin n on SU(2) and SO(3) (twice the word
length on SO(3)).

* torus: uniform product grid;
* SU(2), SO(3): uniform angles over the doubled period for the two circle
  factors times Gauss-Legendre in the cosine of the middle angle (after the
  circle sums only even entry-products survive, and those are polynomials
  there);
* circle-with-flip: a circle grid on each of the two components, averaged.

Each family transforms through its dual's hooks :meth:`GroupDual.haar_values`
and :meth:`GroupDual.haar_coefficients`.  A torus takes one n-D FFT.  SU(2)
and SO(3) separate the Euler angles: FFTs over the two circle axes and small
real stacks d_n(beta) over the middle angles, streamed one spin at a time.
Neither builds a per-label (G, d, d) stack or keeps anything on the grid.
Only the circle-with-flip and products sum over per-label stacks of the grid
(:meth:`HaarGrid.rep_stack`).

Grid evaluation reduces in a fixed order, so results are reproducible
bit-for-bit for a given grid.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .duals import GroupDual
from .duals import su2_irrep_stack  # noqa: F401  perfbench's tracer self-test reads it here
from .errors import QuadratureConvergenceError
from .fields import OperatorField
from .labels import IrrepLabel

__all__ = ["HaarGrid", "quadrature_coeffs", "grid_values"]


class HaarGrid:
    """A quadrature rule on one group, of one degree (see the module docstring).

    The points are built on first access.  Representation stacks are built
    per label on demand and cached.  The torus and SU(2)/SO(3) transforms
    read neither and keep no state on the grid.
    """

    def __init__(self, dual: GroupDual, degree: int):
        self.dual = dual
        self.degree = degree
        self.weights = dual.haar_weights(degree)
        self._stacks: dict[IrrepLabel, np.ndarray] = {}

    @cached_property
    def points(self) -> list:
        return self.dual.haar_grid(self.degree)[0]

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
        return OperatorField.from_terms(self.dual, self.dual.haar_coefficients(self, wf, tuple(labels)))


def grid_values(u: OperatorField, grid: HaarGrid) -> np.ndarray:
    """Values of the represented function at every grid point."""
    return grid.dual.haar_values(grid, u.coeffs)


def quadrature_coeffs(
    fn,
    dual: GroupDual,
    cutoff: int,
    degree: int | None = None,
    check_refine: bool = False,
) -> OperatorField:
    """Coefficients of ``fn`` on all labels of word length <= cutoff.

    ``fn`` is a callable on group points or an :class:`OperatorField` (then
    its exact values are used).  The default grid degree is twice the largest
    absolute lattice coordinate over those labels, which bounds each family's
    grid index (the spin on SU(2) and SO(3)); it is exact whenever fn is a
    trigonometric polynomial within the cutoff.  With ``check_refine`` the
    transform is recomputed on a finer grid and a mismatch above 1e-9 raises,
    reporting both estimates.
    """
    coords = dual.ball_coords(cutoff)
    labels = tuple(map(dual.label_at, coords.tolist()))
    if degree is None:
        degree = 2 * int(np.abs(coords).max())

    def run(deg):
        g = HaarGrid(dual, deg)
        if isinstance(fn, OperatorField):
            vals = grid_values(fn, g)
        else:
            vals = np.array([fn(p) for p in g.points], dtype=complex)
        return g.coefficients(vals, labels)

    out = run(degree)
    if check_refine:
        fine = run(2 * degree + 1)
        dev = 0.0
        for a in labels:
            dev = max(dev, float(np.max(np.abs(out[a] - fine[a]))))
        if dev > 1e-9:
            raise QuadratureConvergenceError(out, fine, dev)
    return out
