"""Finitely supported operator fields and the weighted-algebra operations.

An :class:`OperatorField` assigns to finitely many labels a complex d x d
matrix.  One object serves three roles: an element of the weighted Fourier
algebra, a vector of the weighted L^2 space, and (via the sup-type norm) a
continuous functional.

Coefficient convention
----------------------
For a matrix coefficient u(s) = (pi(s) eta, xi) the transform is

    u^(pi) = eta xi* / d_pi,

so that the duality pairing <u, T> = sum_pi d_pi Tr(u^(pi) T_pi) gives
(T_pi eta, xi), and evaluation at a group point s is
sum_pi d_pi Tr(u^(pi) pi(s)).  Note the 1/d factor: some harmonic-analysis
texts normalize the transform differently.

Convolution is coefficientwise in the order (f * g)^(pi) = g^(pi) f^(pi),
which makes :func:`factorize` followed by :func:`convolve` reproduce the
input exactly.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .duals import GroupDual
from .errors import FamilyMismatchError, WeightOverflowError
from .labels import IrrepLabel, format_label, label_key
from .weights import Weight

__all__ = [
    "OperatorField",
    "zero_field",
    "one_field",
    "character_field",
    "coefficient_field",
    "norm_a_omega",
    "norm_l2_omega",
    "dual_norm",
    "dual_norm_report",
    "point_margin",
    "DualNormResult",
    "multiply",
    "evaluate",
    "pair",
    "translate",
    "involution",
    "involution_blocks",
    "factorize",
    "convolve",
    "scale_diag",
    "l2_inner",
    "PRUNE_TOL",
]

PRUNE_TOL = 1e-15  # matrices with max |entry| below this are dropped


@dataclass(frozen=True)
class OperatorField:
    """Immutable finitely supported map label -> complex d x d matrix."""

    dual: GroupDual
    coeffs: dict  # treated as frozen after construction

    @staticmethod
    def from_terms(dual: GroupDual, terms: dict) -> "OperatorField":
        clean = {}
        for a, M in terms.items():
            dual._check(a)
            M = np.asarray(M, dtype=complex)
            d = dual.dim(a)
            if M.shape != (d, d):
                raise ValueError(
                    f"coefficient at {format_label(a)} has shape {M.shape}, expected {(d, d)}"
                )
            if not np.isfinite(M).all():
                raise ValueError(f"coefficient at {format_label(a)} is not finite")
            if np.max(np.abs(M)) > PRUNE_TOL:
                M = M.copy()
                M.flags.writeable = False
                clean[a] = M
        return OperatorField(dual, clean)

    @property
    def support(self) -> tuple[IrrepLabel, ...]:
        return tuple(sorted(self.coeffs, key=label_key))

    def __getitem__(self, a: IrrepLabel) -> np.ndarray:
        d = self.dual.dim(a)
        return self.coeffs.get(a, np.zeros((d, d), dtype=complex))

    def __add__(self, other):
        self._same_dual(other)
        out = {a: M.copy() for a, M in self.coeffs.items()}
        for a, M in other.coeffs.items():
            out[a] = out.get(a, 0) + M
        return OperatorField.from_terms(self.dual, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        return OperatorField.from_terms(self.dual, {a: c * M for a, M in self.coeffs.items()})

    __rmul__ = __mul__

    def _same_dual(self, other):
        if self.dual != other.dual:
            raise FamilyMismatchError(f"fields live on {self.dual!r} and {other.dual!r}")

    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def trace_norms(self) -> dict:
        """Trace norm ||u^(pi)||_1 of each block, in coefficient order, taken once per field."""
        return {a: float(np.sum(np.linalg.svd(M, compute_uv=False))) for a, M in self.coeffs.items()}


def zero_field(dual: GroupDual) -> OperatorField:
    return OperatorField.from_terms(dual, {})


def one_field(dual: GroupDual) -> OperatorField:
    """The constant function 1."""
    return OperatorField.from_terms(dual, {dual.trivial: np.ones((1, 1))})


def character_field(dual: GroupDual, a: IrrepLabel) -> OperatorField:
    """The ordinary character Tr pi_a(.), i.e. coefficient I/d at a."""
    d = dual.dim(a)
    return OperatorField.from_terms(dual, {a: np.eye(d) / d})


def coefficient_field(dual: GroupDual, a: IrrepLabel, xi, eta) -> OperatorField:
    """The matrix coefficient s -> (pi_a(s) eta, xi)."""
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    return OperatorField.from_terms(dual, {a: np.outer(eta, xi.conj()) / dual.dim(a)})


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_a_omega(u: OperatorField, w: Weight) -> float:
    """Weighted trace-norm sum: sum over the support of ||u^(pi)||_1 d_pi w(pi)."""
    total = 0.0
    for a, t in u.trace_norms.items():
        total += t * u.dual.dim(a) * w(a)
    if not math.isfinite(total):
        raise WeightOverflowError(f"A_omega norm under {w.descriptor} overflows")
    return total


def norm_l2_omega(f: OperatorField, w: Weight) -> float:
    """Weighted L^2 norm (sum over the support of ||f^(pi)||_2^2 d_pi w(pi))^(1/2)."""
    ws = [w(a) for a in f.coeffs]
    with np.errstate(over="ignore", invalid="ignore"):
        total = 0.0
        for (a, M), wa in zip(f.coeffs.items(), ws):
            total += float(np.sum(np.abs(M) ** 2)) * f.dual.dim(a) * wa
        if math.isfinite(total):
            return float(np.sqrt(total))
        # the sum overflows where the norm may not: divide by the largest sqrt(d w)|entry| first
        parts = [np.abs(M) * math.sqrt(f.dual.dim(a)) * math.sqrt(wa)
                 for (a, M), wa in zip(f.coeffs.items(), ws)]
        top = max(float(np.max(P)) for P in parts)
        total = top * math.sqrt(sum(float(np.sum((P / top) ** 2)) for P in parts))
    if not math.isfinite(total):
        raise WeightOverflowError(f"L2 norm under {w.descriptor} overflows")
    return total


def l2_inner(x: OperatorField, y: OperatorField, w: Weight) -> complex:
    """Weighted L^2 inner product (x, y) = sum d w Tr(y^(pi)* x^(pi))."""
    x._same_dual(y)
    total = 0.0 + 0.0j
    for a in set(x.coeffs) & set(y.coeffs):
        total += x.dual.dim(a) * w(a) * complex(np.trace(y.coeffs[a].conj().T @ x.coeffs[a]))
    return total


_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # e^x is finite for x up to this


class DualNormResult(NamedTuple):
    value: float
    cutoff: int | None  # None when the sup ran over a finite support exactly
    exact: bool


def dual_norm_report(T, w: Weight, cutoff: int | None = None,
                     dual: GroupDual | None = None) -> DualNormResult:
    """Sup of operator norm over weight, with the truncation that produced it.

    For an :class:`OperatorField` the sup runs over its (finite) support and
    is exact.  For a group or spectrum point, pass ``dual`` and ``cutoff``;
    the scan covers labels of word length <= cutoff.
    """
    if isinstance(T, OperatorField):
        if T.is_zero():
            return DualNormResult(0.0, None, True)
        val = max(float(np.linalg.norm(M, 2)) / w(a) for a, M in T.coeffs.items())
        return DualNormResult(val, None, True)
    if dual is None or cutoff is None:
        raise ValueError("points need dual= and cutoff=")
    return DualNormResult(point_margin(dual, T, w, cutoff)[0], cutoff, False)


def point_margin(dual: GroupDual, theta, w: Weight, cutoff: int) -> tuple[float, IrrepLabel]:
    """sup of ||pi(theta)|| / w(pi) over the labels of word length <= cutoff,
    with the first label in label_key order that attains it.

    The sup is taken in log space from the positive part of theta, in closed
    form (:meth:`GroupDual.log_norms_at`): mu . log|z| on tori, n log lam on
    SU(2)/SO(3), m |log|z|| on pi_m of T x| Z2 (0 on triv and sgn), the sum of
    the factors' values on products, and 0 at group points.  So neither
    ||pi(theta)|| nor w(pi) has to be finite, only the margin: one above the
    largest float raises OverflowError naming the label.  Building every irrep
    at theta and taking one SVD per label is the test oracle.
    """
    c = dual.ball_coords(cutoff)
    x = dual.log_norms_at(c, theta) - w.log_values(c)
    i = int(np.argmax(x))  # the first maximum
    a = dual.label_at(c[i].tolist())
    if x[i] > _LOG_MAX_FLOAT:
        raise OverflowError(f"the membership margin overflows at {format_label(a)}")
    return math.exp(x[i]), a


def dual_norm(T, w: Weight, cutoff: int | None = None, dual: GroupDual | None = None) -> float:
    return dual_norm_report(T, w, cutoff, dual).value


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def multiply(u: OperatorField, v: OperatorField) -> OperatorField:
    """Pointwise product of the represented functions.

    One :meth:`GroupDual.fusion_table` call over all pairs (a, b) of
    supp u x supp v gives the components of every a (x) b.  Each component
    sigma gets (d_a d_b / d_sigma) V*(u^(a) (x) v^(b))V for every column block
    V of the pair's unitary W, walked in the order of the pair's table rows,
    pair by pair with b innermost.  u^(a) (x) v^(b) acts on all of W's
    columns at once: a column, read as a d_a x d_b matrix X, maps to
    u^(a) X v^(b)^T.
    """
    u._same_dual(v)
    dual = u.dual
    ca, cb = (np.array([dual.coords(a) for a in f.coeffs], dtype=np.int64).reshape(-1, dual.lattice_rank)
              for f in (u, v))
    ia, ib = np.divmod(np.arange(len(ca) * len(cb)), len(cb))
    pair, rows, mults = dual.fusion_table(ca[ia], cb[ib])
    # the rows of each pair, in pair order
    spans = itertools.pairwise(np.searchsorted(pair, np.arange(len(ia) + 1)).tolist())
    keys = list(map(tuple, rows.tolist()))
    labels = {c: dual.label_at(c) for c in set(keys)}
    dims, mults = dual.dims_at(rows).tolist(), mults.tolist()
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
            for r in range(*next(spans)):
                sigma, d_s = labels[keys[r]], dims[r]
                for _ in range(mults[r]):
                    block = (Wh[col:col + d_s] @ Y[:, col:col + d_s]) * (d_a * d_b / d_s)
                    col += d_s
                    if sigma in acc:
                        acc[sigma] = acc[sigma] + block
                    else:
                        acc[sigma] = block
    return OperatorField.from_terms(dual, acc)


# ---------------------------------------------------------------------------
# evaluation, pairing, translations, involution
# ---------------------------------------------------------------------------

def evaluate(u: OperatorField, s) -> complex:
    """Fourier inversion at a group point or spectrum point: sum d_pi Tr(u^(pi) pi(s))."""
    total = 0.0 + 0.0j
    labels = tuple(u.coeffs)
    for a, R in zip(labels, u.dual.reps(labels, [s])):
        total += u.dual.dim(a) * complex(np.trace(u.coeffs[a] @ R[0]))
    return total


def pair(T, u: OperatorField) -> complex:
    """Duality pairing sum d_pi Tr(u^(pi) T_pi); T a field or a group point."""
    if isinstance(T, OperatorField):
        T._same_dual(u)
        total = 0.0 + 0.0j
        for a in set(T.coeffs) & set(u.coeffs):
            total += u.dual.dim(a) * complex(np.trace(u.coeffs[a] @ T.coeffs[a]))
        return total
    return evaluate(u, T)


def translate(u: OperatorField, t, side: str = "right") -> OperatorField:
    """Coefficientwise unitary translation; preserves the weighted norm.

    Right translation maps u^(pi) to pi(t) u^(pi); left translation to
    u^(pi) pi(t^{-1}).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out = {}
    for a, M in u.coeffs.items():
        if side == "right":
            out[a] = u.dual.rep(a, t) @ M
        else:
            out[a] = M @ u.dual.rep(a, u.dual.point_inv(t))
    return OperatorField.from_terms(u.dual, out)


def involution(u: OperatorField) -> OperatorField:
    """Pointwise complex conjugate, computed through conjugation intertwiners."""
    return OperatorField.from_terms(u.dual, involution_blocks(u))


def involution_blocks(u: OperatorField) -> dict:
    """The blocks of :func:`involution` before from_terms checks and prunes them."""
    out: dict = {}
    for a, M in u.coeffs.items():
        abar, J = u.dual.conj_intertwiner(a)
        Jinv = J.conj().T  # J unitary for all supported families
        block = Jinv @ M.conj() @ J
        if abar in out:
            out[abar] = out[abar] + block
        else:
            out[abar] = block
    return out


# ---------------------------------------------------------------------------
# factorization and convolution
# ---------------------------------------------------------------------------

def factorize(u: OperatorField, w1: Weight, w2: Weight) -> tuple[OperatorField, OperatorField]:
    """Split u = f * g with g in L^2_{w1} and f in L^2_{w2}.

    Per label, with the polar decomposition u^ = V |u^| and
    w = (w1 w2)^(1/2):

        g^ = (w1/w)^(1/2) V |u^|^(1/2),   f^ = (w2/w)^(1/2) |u^|^(1/2).

    Then ||u||_{A_w} <= ||f||_{2,w2} ||g||_{2,w1}, with equality when the
    support is a single label.
    """
    gs, fs = {}, {}
    for a, M in u.coeffs.items():
        U, s, Vh = np.linalg.svd(M)
        root = Vh.conj().T * np.sqrt(s)  # |M|^(1/2) = W sqrt(S) W*
        half = root @ Vh
        vpol = U @ Vh
        w1a, w2a = w1(a), w2(a)
        wa = np.sqrt(w1a * w2a)
        gs[a] = np.sqrt(w1a / wa) * (vpol @ half)
        fs[a] = np.sqrt(w2a / wa) * half
    return OperatorField.from_terms(u.dual, fs), OperatorField.from_terms(u.dual, gs)


def convolve(f: OperatorField, g: OperatorField) -> OperatorField:
    """Convolution as coefficientwise product (f * g)^(pi) = g^(pi) f^(pi)."""
    f._same_dual(g)
    out = {}
    for a in set(f.coeffs) & set(g.coeffs):
        out[a] = g.coeffs[a] @ f.coeffs[a]
    return OperatorField.from_terms(f.dual, out)


def scale_diag(xi: OperatorField, w: Weight, direction: str) -> OperatorField:
    """Diagonal weight scaling: 'q' multiplies by sqrt(w), 'r' by 1/sqrt(w)."""
    if direction not in ("q", "r"):
        raise ValueError(f"direction must be 'q' or 'r', got {direction!r}")
    out = {}
    for a, M in xi.coeffs.items():
        c = np.sqrt(w(a))
        out[a] = M * (c if direction == "q" else 1.0 / c)
    return OperatorField.from_terms(xi.dual, out)
