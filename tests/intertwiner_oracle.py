"""Intertwiner blocks built one isometry at a time, the reference that the
column blocks of ``dual.intertwiners`` must equal bit for bit.

:func:`column_blocks` slices a pair's unitary W by ``fuse_oracle``.  :func:`oracle_blocks`
builds the same blocks without W: Clebsch-Gordan isometries from the scalar
loop on SU(2)/SO(3), hand-built block lists on T x| Z2, and one Kronecker
product per pair of factor blocks on products, each list sorted by label_key.
"""

import math

import numpy as np

from bfw import ProductDual, SemidirectDual, SemidirectLabel, Su2Dual, TorusDual
from bfw.labels import ProductLabel, label_key
import fuse_oracle
from cg_oracle import su2_cg_isometry


def column_blocks(dual, a, b):
    """(sigma, V) for every copy of every component of a (x) b, in the
    label_key order of ``fuse_oracle``: V is the column block of
    ``dual.intertwiners(a, b)`` onto that copy."""
    W = dual.intertwiners(a, b)
    out, col = [], 0
    for sigma, mult in fuse_oracle.fuse(dual, a, b):
        d = dual.dim(sigma)
        for _ in range(mult):
            out.append((sigma, W[:, col:col + d]))
            col += d
    assert col == W.shape[1]
    return out


def oracle_blocks(dual, a, b):
    """(sigma, V) for every copy of every component of a (x) b, sorted by label_key."""
    return [(sigma, V) for sigma, vs in _grouped(dual, a, b) for V in vs]


def _grouped(dual, a, b):
    # (sigma, list of isometries) per component
    if isinstance(dual, TorusDual):
        (sigma, _), = fuse_oracle.fuse(dual, a, b)
        return [(sigma, [np.ones((1, 1), dtype=complex)])]
    if isinstance(dual, Su2Dual):
        return [(sigma, [su2_cg_isometry(a.n, b.n, sigma.n)])
                for sigma, _ in fuse_oracle.fuse(dual, a, b)]
    if isinstance(dual, SemidirectDual):
        return _txz2(dual, a, b)
    if isinstance(dual, ProductDual):
        return _product(dual, a, b)
    raise TypeError(dual)


def _txz2(dual, a, b):
    one = np.ones((1, 1), dtype=complex)
    sgn_twist = np.diag([1.0, -1.0]).astype(complex)
    ka, kb = a.kind, b.kind
    if ka != "pi" and kb != "pi":
        (sigma, _), = fuse_oracle.fuse(dual, a, b)
        return [(sigma, [one])]
    if ka != "pi" or kb != "pi":
        scalar_is_sgn = (a if ka != "pi" else b).kind == "sgn"
        (sigma, _), = fuse_oracle.fuse(dual, a, b)
        return [(sigma, [sgn_twist if scalar_is_sgn else np.eye(2, dtype=complex)])]
    # pi_n (x) pi_m on basis (++, +-, -+, --) of weights n+m, n-m, m-n, -(n+m)
    top = np.zeros((4, 2), dtype=complex)
    top[0, 0] = 1.0
    top[3, 1] = 1.0
    blocks = [(SemidirectLabel("pi", a.m + b.m), [top])]
    if a.m != b.m:
        mid = np.zeros((4, 2), dtype=complex)
        if a.m > b.m:
            mid[1, 0] = 1.0
            mid[2, 1] = 1.0
        else:
            mid[2, 0] = 1.0
            mid[1, 1] = 1.0
        blocks.append((SemidirectLabel("pi", abs(a.m - b.m)), [mid]))
    else:
        plus = np.zeros((4, 1), dtype=complex)
        plus[1, 0] = plus[2, 0] = 1.0 / math.sqrt(2.0)
        minus = np.zeros((4, 1), dtype=complex)
        minus[1, 0] = 1.0 / math.sqrt(2.0)
        minus[2, 0] = -1.0 / math.sqrt(2.0)
        blocks.append((SemidirectLabel("triv"), [plus]))
        blocks.append((SemidirectLabel("sgn"), [minus]))
    blocks.sort(key=lambda p: label_key(p[0]))
    return blocks


def _product(dual, a, b):
    da1, da2 = dual.left.dim(a.left), dual.right.dim(a.right)
    db1, db2 = dual.left.dim(b.left), dual.right.dim(b.right)
    blocks = []
    for sl, Vls in _grouped(dual.left, a.left, b.left):
        for sr, Vrs in _grouped(dual.right, a.right, b.right):
            vs = []
            for Vl in Vls:
                for Vr in Vrs:
                    V = np.kron(Vl, Vr)  # (da1 db1 da2 db2, ds1 ds2)
                    V = V.reshape(da1, db1, da2, db2, -1)
                    vs.append(V.transpose(0, 2, 1, 3, 4).reshape(da1 * da2 * db1 * db2, -1))
            blocks.append((ProductLabel(sl, sr), vs))
    blocks.sort(key=lambda p: label_key(p[0]))
    return blocks
