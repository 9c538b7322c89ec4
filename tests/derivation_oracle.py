"""The derivation scan and the Sobolev series tail label by label, shell by
shell: the reference for :func:`bfw.calculus.derivation_bound_scan` and
:func:`bfw.calculus.series_tail`.

Shells are built as label objects, and every norm of dpi_a(X) is one SVD per
label, except on SU(2) and SO(3) for a normal X, where it is n max|eig X| (the
library's closed form, whose bits the scan must keep).  The library takes
the same figures in one pass over ``ball_coords`` rows.
"""

import numpy as np

from bfw.calculus import _normal_top_eigenvalue, algebra_rep
from bfw.duals import Su2Dual


def algebra_norm(dual, a, X) -> float:
    """||dpi_a(X)||, the operator norm, for one label."""
    top = _normal_top_eigenvalue(X) if isinstance(dual, Su2Dual) else None
    if top is not None:
        return a.n * top
    return float(np.linalg.norm(algebra_rep(dual, a, X), 2))


def shells(dual, n_max: int) -> list[list]:
    """Shell n lists the labels of word length n, n <= n_max, in ball order."""
    out: list[list] = [[] for _ in range(n_max + 1)]
    coords = dual.ball_coords(n_max)
    for c, n in zip(coords.tolist(), dual.word_lengths_at(coords).tolist()):
        out[n].append(dual.label_at(c))
    return out


def derivation_scan(dual, X, w, n_max: int) -> list[tuple]:
    """Rows (n, running max of ||dpi(X)|| / w(pi)), shell after shell."""
    rows, best = [], 0.0
    by_length = shells(dual, n_max)
    for n in range(1, n_max + 1):
        # the trivial label sorts first, so shells 0 and 1 are ball(1) in order
        for a in by_length[0] + by_length[1] if n == 1 else by_length[n]:
            best = max(best, algebra_norm(dual, a, X) / w(a))
        rows.append((n, best))
    return rows


def series_tail(dual, s: float, n_max: int) -> list[tuple]:
    """Rows (n, partial sum, shell n's sum of d^2 (1 + n^2)^(-s))."""
    rows, total = [], 0.0
    for n, shell in enumerate(shells(dual, n_max)):
        inc = sum(dual.dim(a) ** 2 * (1.0 + n**2) ** (-s) for a in shell)
        total += inc
        rows.append((n, total, inc))
    return rows
