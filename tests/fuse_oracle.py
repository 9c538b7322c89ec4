"""Each family's fusion rule label by label, kept as the reference for
:meth:`bfw.duals.GroupDual.fusion_table` and its one-pair view ``fuse``.

These are the rules the library stated per label before ``fusion_table``
became its only statement of fusion: tori add characters, SU(2)/SO(3) give
|a - b|, |a - b| + 2, ..., a + b, T x| Z2 follows its character arithmetic,
and products pair their factors' components.  Each decomposition is sorted
by label_key.  No rule here reads coordinate rows.  Decompositions are
cached per (dual, a, b), since the pair loops that use them meet each pair
once per weight.
"""

from functools import lru_cache

from bfw import ProductDual, SemidirectDual, Su2Dual, TorusDual
from bfw.labels import ProductLabel, SemidirectLabel, Su2Spin, TorusChar, label_key


@lru_cache(maxsize=None)
def fuse(dual, a, b):
    """Decomposition of a (x) b as a label_key-sorted tuple of (label, multiplicity)."""
    return tuple(sorted(_rule(dual, a, b), key=lambda p: label_key(p[0])))


def _rule(dual, a, b):
    if isinstance(dual, TorusDual):
        return [(TorusChar(tuple(x + y for x, y in zip(a.mu, b.mu))), 1)]
    if isinstance(dual, Su2Dual):  # SO(3) too: its labels are the even spins
        lo, hi = abs(a.n - b.n), a.n + b.n
        return [(Su2Spin(k), 1) for k in range(lo, hi + 1, 2)]
    if isinstance(dual, SemidirectDual):
        return _txz2(a, b)
    if isinstance(dual, ProductDual):
        out = []
        for sl, ml in fuse(dual.left, a.left, b.left):
            for sr, mr in fuse(dual.right, a.right, b.right):
                out.append((ProductLabel(sl, sr), ml * mr))
        return out
    raise TypeError(dual)


def _txz2(a, b):
    ka, kb = a.kind, b.kind
    if ka != "pi" and kb != "pi":
        out = "triv" if ka == kb else "sgn"
        return [(SemidirectLabel(out), 1)]
    if ka != "pi" or kb != "pi":
        m = a.m if ka == "pi" else b.m
        return [(SemidirectLabel("pi", m), 1)]
    if a.m != b.m:
        return [
            (SemidirectLabel("pi", a.m + b.m), 1),
            (SemidirectLabel("pi", abs(a.m - b.m)), 1),
        ]
    return [
        (SemidirectLabel("pi", 2 * a.m), 1),
        (SemidirectLabel("triv"), 1),
        (SemidirectLabel("sgn"), 1),
    ]
