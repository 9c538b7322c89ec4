"""e^{itu} for a central u on SU(2) and SO(3) through the dense class-angle
kernel, kept as the reference for the FFT that :class:`bfw.calculus._Su2ExpGrid`
takes instead.

The kernel is (cutoff + 1) x m, so keep the cutoff small (a few hundred).
"""

import numpy as np

GRID_PAD = 32  # bfw.calculus.GRID_PAD: the grid is the one the library uses


def su2_exp_kernel(parts: dict, t: float, cutoff: int):
    """(coef, defect) of e^{itu} at spins 0..cutoff for u = sum_n b_n chi_n,
    with parts mapping n to the trace weight b_n.

    The trace weights of e^{itu} are the kernel product
    b_n = sum_j (2/m) sin((n+1) theta_j) sin(theta_j) e^{itu(theta_j)} over the
    m midpoint class angles theta_j of the doubled period; coef[n] is
    b_n/(n+1) (0 where |b_n| <= 1e-300) and the defect is |1 - sum |b_n|^2|.
    """
    m = 2 * (cutoff + max(GRID_PAD, cutoff // 2)) + 2
    theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    vals = np.zeros(m, dtype=complex)
    for n, b in parts.items():
        vals += b if n == 0 else b * (np.sin((n + 1) * theta) / np.sin(theta))
    ns = np.arange(cutoff + 1)
    kernel = (2.0 / m) * (np.sin(np.outer(ns + 1, theta)) * np.sin(theta))
    b = kernel @ np.exp(1j * t * vals)
    defect = abs(1.0 - float(np.sum(np.abs(b) ** 2)))
    return np.where(np.abs(b) > 1e-300, b / (ns + 1), 0.0), defect
