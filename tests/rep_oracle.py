"""Irreps evaluated one label and one point at a time, kept as the reference
that the batched :meth:`bfw.duals.GroupDual.reps` must equal bit for bit.

``rep`` takes a group point, ``rep_at`` a group point or a spectrum point
(a point of the complexified group).
"""

import math

import numpy as np

from bfw.duals import (
    _SWAP2,
    ProductDual,
    ProductSpectrumPoint,
    SemidirectDual,
    SemidirectPoint,
    SemidirectSpectrumPoint,
    Su2Dual,
    Su2SpectrumPoint,
    TorusDual,
    TorusSpectrumPoint,
    su2_irrep,
)


def rep(dual, a, point) -> np.ndarray:
    """Unitary matrix of the irrep a at a group point."""
    dual._check(a)
    if isinstance(dual, TorusDual):
        return np.array([[np.exp(1j * float(np.dot(a.mu, point)))]])
    if isinstance(dual, Su2Dual):
        return su2_irrep(a.n, point)
    if isinstance(dual, SemidirectDual):
        if a.kind == "triv":
            return np.ones((1, 1), dtype=complex)
        if a.kind == "sgn":
            return np.array([[-1.0 if point.flip else 1.0]], dtype=complex)
        z = np.exp(1j * a.m * point.theta)
        M = np.diag([z, np.conj(z)])
        return M @ _SWAP2 if point.flip else M
    if isinstance(dual, ProductDual):
        return np.kron(rep(dual.left, a.left, point[0]), rep(dual.right, a.right, point[1]))
    raise TypeError(f"unknown dual {dual!r}")


def rep_at(dual, a, theta) -> np.ndarray:
    """Matrix of the irrep a at a spectrum point (or a plain group point)."""
    dual._check(a)
    if isinstance(dual, TorusDual):
        if isinstance(theta, TorusSpectrumPoint):
            val = math.prod(z**m for z, m in zip(theta.z, a.mu))
            return np.array([[val]], dtype=complex)
        return rep(dual, a, theta)
    if isinstance(dual, Su2Dual):
        if isinstance(theta, Su2SpectrumPoint):
            return su2_irrep(a.n, theta.matrix())
        return rep(dual, a, theta)
    if isinstance(dual, SemidirectDual):
        if isinstance(theta, SemidirectSpectrumPoint):
            lam = abs(theta.z)
            angle = float(np.angle(theta.z))
            base = rep(dual, a, SemidirectPoint(angle, theta.flip))
            if a.kind != "pi":
                return base
            return base @ np.diag([lam**a.m, lam**-a.m]).astype(complex)
        return rep(dual, a, theta)
    if isinstance(dual, ProductDual):
        if isinstance(theta, ProductSpectrumPoint):
            return np.kron(
                rep_at(dual.left, a.left, theta.left), rep_at(dual.right, a.right, theta.right)
            )
        return rep(dual, a, theta)
    raise TypeError(f"unknown dual {dual!r}")
