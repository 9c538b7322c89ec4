"""The rank-one product, kept as the reference for :func:`bfw.fields.multiply`.

Each coefficient is split by an SVD into rank-one pieces (eta_k, xi_k) with
u^(a) = sum_k eta_k xi_k* / d_a, singular values below 1e-14 of the largest
pruned, and every pair of pieces is routed through each column block V of the
pair's intertwiner unitary:
(eta (x) eta', xi (x) xi') contributes (V*(eta (x) eta'))(V*(xi (x) xi'))* / d_sigma
at each component sigma.
"""

import numpy as np

from bfw import OperatorField
from intertwiner_oracle import column_blocks

SVD_RANK_TOL = 1e-14  # relative singular-value cutoff


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
