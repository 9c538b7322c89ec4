"""The scalar Clebsch-Gordan lowering loop, kept as the reference that the
library's batched :func:`bfw.duals._su2_cg_pair` must equal bit for bit."""

import math

import numpy as np

from bfw.duals import _jplus
from bfw.errors import IntertwinerSynthesisError


def su2_cg_isometry(n1: int, n2: int, n: int) -> np.ndarray:
    """Clebsch-Gordan isometry onto the spin-n/2 component of n1 (x) n2.

    Phase fixed so the highest-weight coefficient at maximal first-factor
    exponent is real positive (Condon-Shortley style).
    """
    j1, j2, j = n1 / 2.0, n2 / 2.0, n / 2.0
    d1, d2, d = n1 + 1, n2 + 1, n + 1
    # highest-weight vector over first-factor exponents m1, with m2 = j - m1
    m1_hi = min(j1, j + j2)
    m1_lo = max(-j1, j - j2)
    count = int(round(m1_hi - m1_lo)) + 1
    coeff = np.zeros(count)
    coeff[0] = 1.0  # index i corresponds to m1 = m1_hi - i
    for i in range(count - 1):
        p = m1_hi - i
        coeff[i + 1] = -coeff[i] * _jplus(j2, j - p) / _jplus(j1, p - 1)
    coeff /= math.sqrt(float(np.dot(coeff, coeff)))
    if coeff[0] < 0:
        coeff = -coeff
    top = np.zeros(d1 * d2)
    for i in range(count):
        m1 = m1_hi - i
        k1 = int(round(j1 - m1))
        k2 = int(round(j2 - (j - m1)))
        top[k1 * d2 + k2] = coeff[i]

    V = np.zeros((d1 * d2, d), dtype=complex)
    V[:, 0] = top
    vec = top
    for col in range(1, d):
        m = j - (col - 1)
        nxt = np.zeros(d1 * d2)
        arr = vec.reshape(d1, d2)
        for k1 in range(d1):
            for k2 in range(d2):
                c = arr[k1, k2]
                if c == 0.0:
                    continue
                m1, m2 = j1 - k1, j2 - k2
                if k1 + 1 < d1:
                    nxt[(k1 + 1) * d2 + k2] += c * _jplus(j1, m1 - 1)
                if k2 + 1 < d2:
                    nxt[k1 * d2 + (k2 + 1)] += c * _jplus(j2, m2 - 1)
        vec = nxt / _jplus(j, m - 1)
        V[:, col] = vec
    if not np.allclose(V.conj().T @ V, np.eye(d), atol=1e-10):
        raise IntertwinerSynthesisError(f"CG isometry residual too large for ({n1},{n2})->{n}")
    return V
