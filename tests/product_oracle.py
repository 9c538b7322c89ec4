"""Two references for :func:`bfw.fields.multiply`.

:func:`pair_loop_multiply` is the per-pair loop the library ran before it read
one fusion table for all pairs: the components of each pair come from
``fuse_oracle``, and the arithmetic is the library's, so the two agree bit for
bit.

:func:`multiply` is the rank-one product.  Each coefficient is split by an
SVD into rank-one pieces (eta_k, xi_k) with u^(a) = sum_k eta_k xi_k* / d_a,
singular values below 1e-14 of the largest pruned, and every pair of pieces
is routed through each column block V of the pair's intertwiner unitary:
(eta (x) eta', xi (x) xi') contributes (V*(eta (x) eta'))(V*(xi (x) xi'))* / d_sigma
at each component sigma.
"""

import numpy as np

from bfw import OperatorField

import fuse_oracle
from intertwiner_oracle import column_blocks

SVD_RANK_TOL = 1e-14  # relative singular-value cutoff


def pair_loop_multiply(u: OperatorField, v: OperatorField) -> OperatorField:
    """The product, pair by pair (b innermost) and component by component in
    fuse_oracle order, each block (d_a d_b / d_sigma) V*(u^(a) (x) v^(b))V."""
    u._same_dual(v)
    dual = u.dual
    acc: dict = {}
    for a, Ma in u.coeffs.items():
        d_a = dual.dim(a)
        for b, Mb in v.coeffs.items():
            d_b = dual.dim(b)
            W = dual.intertwiners(a, b)
            Y = (Ma @ W.reshape(d_a, -1)).reshape(d_a, d_b, -1)
            Y = np.matmul(Mb, Y).reshape(d_a * d_b, -1)
            Wh = W.conj().T  # row block [col, col + d_s) is V^H
            col = 0
            for sigma, mult in fuse_oracle.fuse(dual, a, b):
                d_s = dual.dim(sigma)
                for _ in range(mult):
                    block = (Wh[col:col + d_s] @ Y[:, col:col + d_s]) * (d_a * d_b / d_s)
                    col += d_s
                    if sigma in acc:
                        acc[sigma] = acc[sigma] + block
                    else:
                        acc[sigma] = block
    return OperatorField.from_terms(dual, acc)


def rank_one_parts(dual, a, M):
    """Vectors (eta_k, xi_k) with M = sum eta_k xi_k* / d, small ranks pruned."""
    U, s, Vh = np.linalg.svd(M)
    keep = s > SVD_RANK_TOL * s[0] if s.size and s[0] > 0 else np.zeros_like(s, bool)
    d = dual.dim(a)
    return (d * s[keep]) * U[:, keep], Vh[keep].conj().T  # columns eta_k, xi_k


def multiply(u: OperatorField, v: OperatorField) -> OperatorField:
    u._same_dual(v)
    dual = u.dual
    acc: dict = {}
    v_parts = [(b, rank_one_parts(dual, b, Mb)) for b, Mb in v.coeffs.items()]
    for a, Ma in u.coeffs.items():
        Ea, Xa = rank_one_parts(dual, a, Ma)
        if Ea.shape[1] == 0:
            continue
        for b, (Eb, Xb) in v_parts:
            if Eb.shape[1] == 0:
                continue
            # all Kronecker pairs at once: columns are eta_k (x) eta'_l
            EE = np.einsum("ak,bl->abkl", Ea, Eb).reshape(Ea.shape[0] * Eb.shape[0], -1)
            XX = np.einsum("ak,bl->abkl", Xa, Xb).reshape(Xa.shape[0] * Xb.shape[0], -1)
            for sigma, V in column_blocks(dual, a, b):
                P = V.conj().T @ EE
                Q = V.conj().T @ XX
                block = (P @ Q.conj().T) / dual.dim(sigma)
                if sigma in acc:
                    acc[sigma] = acc[sigma] + block
                else:
                    acc[sigma] = block
    return OperatorField.from_terms(dual, acc)


def norm_a_omega(u: OperatorField, w) -> float:
    """sum over the support of ||u^(pi)||_1 d_pi w(pi), one SVD per block."""
    total = 0.0
    for a, M in u.coeffs.items():
        total += float(np.sum(np.linalg.svd(M, compute_uv=False))) * u.dual.dim(a) * w(a)
    return total
