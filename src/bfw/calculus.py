"""Lie-analytic layer on SU(2) and tori.

Casimir data, smoothness embeddings, the unitary one-parameter groups
e^{itu} with their weighted-norm growth curves, the separating-function
construction behind regularity, bounded point derivations, synthesis-degree
arithmetic, and the coefficient families realizing u(st^{-1}) as a projective
tensor.

Normalization: on su(2) the inner product is minus the Killing form with
kappa(X, Y) = 4 tr(XY); the orthonormal basis is i sigma_j / (2 sqrt(2)) and
the quadratic Casimir acts on the spin-n irrep by n(n+2)/8.  On the torus the
standard basis of the angle coordinates is used, giving |mu|^2.  Eigenvalues
are always computed from the matrices, never from those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .duals import (
    GroupDual,
    Su2Dual,
    TorusDual,
    su2_algebra_rep,
    su2_class_angle,
)
from .errors import FamilyMismatchError, InsufficientCutoffError, WeightOverflowError
from .fields import (
    PRUNE_TOL,
    OperatorField,
    coefficient_field,
    evaluate,
    involution,
    involution_blocks,
    l2_inner,
    norm_a_omega,
    norm_l2_omega,
    pair,
)
from .labels import IrrepLabel, format_label
from .weights import Weight, make_weight

__all__ = [
    "CasimirData",
    "casimir_eigenvalue",
    "series_tail",
    "SmoothingKernel",
    "apply_one_minus_laplacian",
    "smooth_embedding_check",
    "exp_itu",
    "GrowthCurve",
    "growth_curve",
    "SplineBump",
    "separating_function",
    "point_derivation",
    "derivation_bound_scan",
    "algebra_rep",
    "synthesis_degree",
    "NuDecomposition",
    "nu_decompose",
    "shift_operator",
    "pairing_identity_check",
]


# ---------------------------------------------------------------------------
# Casimir data
# ---------------------------------------------------------------------------

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _lie_basis(dual: GroupDual):
    if isinstance(dual, Su2Dual):
        return tuple(1.0j * s / (2.0 * math.sqrt(2.0)) for s in _SIGMA)
    if isinstance(dual, TorusDual):
        return tuple(np.eye(dual.n)[j] for j in range(dual.n))
    raise FamilyMismatchError(f"no Lie data for {dual!r}")


def algebra_rep(dual: GroupDual, a: IrrepLabel, X) -> np.ndarray:
    """Derived representation of the algebra element X on the irrep a."""
    if isinstance(dual, Su2Dual):
        return su2_algebra_rep(a.n, X)
    if isinstance(dual, TorusDual):
        return np.array([[1.0j * float(np.dot(a.mu, X))]])
    raise FamilyMismatchError(f"no Lie data for {dual!r}")


class CasimirData:
    """Orthonormal algebra basis with the induced Laplacian eigenvalues."""

    def __init__(self, dual: GroupDual):
        self.dual = dual
        self.basis = _lie_basis(dual)
        self._eig: dict[IrrepLabel, float] = {}

    def _square_sum(self, a: IrrepLabel) -> np.ndarray:
        d = self.dual.dim(a)
        M = np.zeros((d, d), dtype=complex)
        for X in self.basis:
            R = algebra_rep(self.dual, a, X)
            M -= R @ R
        return M

    def eigenvalue(self, a: IrrepLabel) -> float:
        v = self._eig.get(a)
        if v is None:
            M = self._square_sum(a)
            v = float(np.mean(np.real(np.diag(M))))
            self._eig[a] = v
        return v

    def off_scalar_residual(self, a: IrrepLabel) -> float:
        M = self._square_sum(a)
        return float(np.max(np.abs(M - self.eigenvalue(a) * np.eye(M.shape[0]))))


def casimir_eigenvalue(dual: GroupDual, a: IrrepLabel) -> float:
    return CasimirData(dual).eigenvalue(a)


def series_tail(dual: GroupDual, s: float, n_max: int):
    """Partial sums of sum d^2 (1 + wordlength^2)^(-s) by word-length shells.

    Returns rows (n, partial_sum, increment); convergent for s above half the
    group dimension.  Each shell's terms are summed in ball order.
    """
    coords = dual.ball_coords(n_max)
    shells = [[] for _ in range(n_max + 1)]
    for n, d in zip(dual.word_lengths_at(coords).tolist(), dual.dims_at(coords).tolist()):
        shells[n].append(d)
    incs = [sum(d**2 * (1.0 + n**2) ** (-s) for d in dims) for n, dims in enumerate(shells)]
    return list(zip(range(n_max + 1), np.cumsum(incs).tolist(), incs))


# ---------------------------------------------------------------------------
# smoothing kernels and the embedding check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingKernel:
    """Truncated field with coefficient (1 + c(pi))^(-m) I per label."""

    exponent: float
    cutoff: int
    field: OperatorField
    tail_estimate: float  # crude continuation of the squared-weighted tail


def smoothing_kernel(dual: GroupDual, m: float, cutoff: int, w2: Weight) -> SmoothingKernel:
    cas = CasimirData(dual)
    terms = {}
    for a in dual.ball(cutoff):
        terms[a] = np.eye(dual.dim(a)) / (1.0 + cas.eigenvalue(a)) ** m
    fld = OperatorField.from_terms(dual, terms)
    tail = 0.0
    coords = dual.ball_coords(4 * cutoff)
    for c in coords[dual.word_lengths_at(coords) > cutoff].tolist():
        a = dual.label_at(c)
        tail += dual.dim(a) ** 2 * w2(a) / (1.0 + cas.eigenvalue(a)) ** (2 * m)
    return SmoothingKernel(m, cutoff, fld, tail)


def apply_one_minus_laplacian(u: OperatorField, n: float) -> OperatorField:
    """(1 - Laplacian)^n acting diagonally by (1 + c(pi))^n."""
    cas = CasimirData(u.dual)
    out = {a: (1.0 + cas.eigenvalue(a)) ** n * M for a, M in u.coeffs.items()}
    return OperatorField.from_terms(u.dual, out)


@dataclass(frozen=True)
class EmbeddingReport:
    lhs: float
    rhs: float
    holds: bool
    precondition_ok: bool  # n > d/4 + alpha/2
    kernel_l2w2_sq: float
    kernel_finite: bool  # full series converges iff 2n - alpha > d/2


def smooth_embedding_check(
    g: OperatorField, n: float, alpha: float, cutoff: int | None = None
) -> EmbeddingReport:
    """Check ||g||_{A_{w_a}} <= ||E_n||_{2, w_a^2} ||(1-Lap)^n g||_2 numerically.

    The kernel is truncated at ``cutoff`` (at least the support radius of g;
    the identity g = E_n * (1-Lap)^n g is labelwise, so a covering truncation
    keeps the bound valid).
    """
    dual = g.dual
    d = dual.lie_dim()
    w_a = make_weight(dual, {"kind": "poly", "alpha": alpha})
    w_sq = make_weight(dual, {"kind": "pow", "base": {"kind": "poly", "alpha": alpha}, "alpha": 2.0})
    radius = max((dual.word_length(a) for a in g.coeffs), default=0)
    cutoff = max(cutoff or 0, radius)
    kern = smoothing_kernel(dual, n, cutoff, w_sq)
    lhs = norm_a_omega(g, w_a)
    kern_norm = norm_l2_omega(kern.field, w_sq)
    rhs = kern_norm * norm_l2_omega(apply_one_minus_laplacian(g, n), make_weight(dual, "const:1"))
    return EmbeddingReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs * (1.0 + 1e-9),
        precondition_ok=n > d / 4.0 + alpha / 2.0,
        kernel_l2w2_sq=kern_norm**2,
        kernel_finite=2.0 * n - alpha > d / 2.0,
    )


# ---------------------------------------------------------------------------
# e^{itu}
# ---------------------------------------------------------------------------

GRID_PAD = 32  # the least padding of an e^{itu} quadrature grid beyond the cutoff
CUTOFF_RATE, CUTOFF_MARGIN = 1.2, 24  # adaptive first cutoff ceil(rate |t| sup|u|) + margin
SLOPE_SLACK = 0.5  # a growth curve passes with slope <= dim/2 + alpha + slack
BUMP_PERIOD = 4.0  # period of the separating functions' bump series


def _check_self_adjoint(u: OperatorField) -> None:
    """Raise unless the blocks of involution(u) - u are at most 1e-10 entrywise.

    The blocks are pruned and checked as from_terms would, without building
    either field.
    """
    star = {a: S for a, S in involution_blocks(u).items() if np.max(np.abs(S)) > PRUNE_TOL}
    res = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        for a in {**star, **u.coeffs}:
            D = star.get(a, 0.0) - u.coeffs.get(a, 0.0)
            if not np.isfinite(D).all():
                raise ValueError(f"coefficient at {format_label(a)} is not finite")
            res = max(res, float(np.max(np.abs(D))))
    if res > 1e-10:
        raise ValueError(f"u is not self-adjoint (residual {res:.2e})")


def _su2_central_parts(u: OperatorField):
    """Trace weights b_n with u = sum b_n Tr pi_n(.), or None if not central."""
    out = {}
    for a, M in u.coeffs.items():
        d = a.n + 1
        b = complex(np.trace(M)) / d
        if np.max(np.abs(M - b * np.eye(d))) > 1e-10:
            return None
        out[a.n] = b * d  # coefficient field is (b d) I/d = trace weight b d
    return out


def exp_itu(
    dual: GroupDual,
    u: OperatorField,
    t: float,
    cutoff: int,
    tail_tol: float = 1e-6,
) -> tuple[OperatorField, float]:
    """Coefficients of e^{itu} up to the cutoff, with the Parseval defect.

    ``u`` must be self-adjoint (checked), and central on SU(2) and SO(3).
    The defect |1 - sum d ||coef||_2^2| measures the mass outside the cutoff;
    above ``tail_tol`` (finite and >= 0) an insufficient-cutoff error carries
    it.  ``t`` must be finite and the cutoff an integer >= 0; a t u too large
    for floats raises ``OverflowError``.
    """
    coords, coef, defect = _ExpItu(dual, u).coefs(t, cutoff, tail_tol)
    return _scalar_field(dual, coords, coef, range(coef.size)), defect


def _check_t(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")


def _check_count(name: str, n) -> int:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {n!r}")
    return int(n)


def _defect_error(defect: float, t: float, cutoff: int) -> Exception:
    """The error for a Parseval defect above tail_tol: a non-finite one means
    e^{itu} overflowed, which no cutoff mends."""
    if not math.isfinite(defect):
        return OverflowError(f"e^{{itu}} is not finite at t={float(t)!r}")
    return InsufficientCutoffError(defect, cutoff)


class _ExpItu:
    """e^{itu} for one u at any t and cutoff.  What depends on u alone is
    resolved once, on first use: the family (u's trace weights on SU(2)/SO(3),
    ``None`` on a torus), the sup|u| estimate that sets adaptive cutoffs, and
    the self-adjointness check.  Only the last cutoff's grid is kept."""

    def __init__(self, dual: GroupDual, u: OperatorField):
        self.dual, self.u = dual, u
        self._adjoint = False  # u passed the self-adjointness check
        self._grid = None

    @cached_property
    def _parts(self):
        if isinstance(self.dual, TorusDual):
            return None
        if not isinstance(self.dual, Su2Dual):
            raise FamilyMismatchError(f"e^{{itu}} not implemented on {self.dual!r}")
        parts = _su2_central_parts(self.u)
        if parts is None:
            raise ValueError("sup estimate needs a central u on SU(2)")
        return parts

    @cached_property
    def sup(self) -> float:
        """max |u| over 256 angles per torus axis or 512 class-angle midpoints."""
        if self._parts is None:
            return float(np.max(np.abs(self.dual.fft_values(self.u.coeffs, 256))))
        return float(np.max(np.abs(_class_values(self._parts, np.pi * (np.arange(512) + 0.5) / 512))))

    def check_self_adjoint(self) -> None:
        if not self._adjoint:
            _check_self_adjoint(self.u)
            self._adjoint = True

    def coefs(self, t: float, cutoff: int, tail_tol: float):
        """(coords, coef, defect): e^{itu} = sum coef[i] I at the label with
        lattice coordinates coords[i], up to the cutoff.  Checks tail_tol, t,
        self-adjointness, then the family and centrality."""
        if not (math.isfinite(tail_tol) and tail_tol >= 0.0):
            raise ValueError(f"tail_tol must be finite and >= 0, got {tail_tol!r}")
        _check_t(t)
        self.check_self_adjoint()
        parts = self._parts
        cutoff = _check_count("cutoff", cutoff)
        if self._grid is None or self._grid.cutoff != cutoff:
            self._grid = None  # drop the old grid before building the next
            self._grid = (_TorusExpGrid(self.dual, self.u, cutoff) if parts is None
                          else _Su2ExpGrid(parts, cutoff))
        coef, defect = self._grid(t, tail_tol)
        return self._grid.coords, coef, defect

    def auto(self, t: float, cutoff_cap: int, attempt):
        """(attempt(n), n) at the first cutoff n without an insufficient-cutoff
        error, from ceil(CUTOFF_RATE |t| sup) + CUTOFF_MARGIN doubling up to
        the cap.  Checks t, the family and centrality, then the first cutoff."""
        _check_t(t)
        need = CUTOFF_RATE * abs(float(t)) * self.sup  # a float overflows to inf, unwarned
        if not math.isfinite(need):
            raise OverflowError(f"e^{{itu}} has no finite cutoff at t={float(t)!r}: "
                                f"{CUTOFF_RATE} |t| sup|u| overflows")
        cutoff_cap = _check_count("cutoff_cap", cutoff_cap)
        n = min(cutoff_cap, int(math.ceil(need)) + CUTOFF_MARGIN)
        while True:
            try:
                return attempt(n), n
            except InsufficientCutoffError:
                if n >= cutoff_cap:
                    raise
                n = min(cutoff_cap, 2 * n)


def _class_values(parts: dict, theta) -> np.ndarray:
    """sum_n b_n chi_n(theta) at class angles theta, for the trace weights b_n
    in parts: chi_n = sin((n+1) theta)/sin theta, and chi_0 = 1."""
    theta = np.asarray(theta, dtype=float)
    vals = np.zeros(theta.shape, dtype=complex)
    sin_t = np.sin(theta)
    for n, b in parts.items():
        vals += b if n == 0 else b * (np.sin((n + 1) * theta) / sin_t)
    return vals


class _Su2ExpGrid:
    """e^{itu} for a central u on SU(2) and SO(3), spins 0..cutoff; called at
    (t, tail_tol), it gives the coefficient per spin and the Parseval defect.

    The trace weights of a class function g are the quadrature sums
    b_n = (2/m) sum_j g(theta_j) sin((n+1) theta_j) sin(theta_j) over the m
    midpoint class angles theta_j = 2 pi (j + 1/2)/m of the doubled period.
    With h = g sin(theta) and F its length-m FFT, each is one read of F:
    b_n = (e^{i pi k/m} F[(m-k) mod m] - e^{-i pi k/m} F[k])/(i m), k = n + 1.
    The grid keeps u's values, sin(theta_j) and the phases e^{i pi k/m}, all
    O(m) and independent of t.
    """

    def __init__(self, parts: dict, cutoff: int):
        self.cutoff = cutoff
        self.m = m = 2 * (cutoff + max(GRID_PAD, cutoff // 2)) + 2
        theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        self.vals = _class_values(parts, theta)
        self.sin = np.sin(theta)
        self.phase = np.exp(1j * np.pi * np.arange(1, cutoff + 2) / m)
        self.coords = np.arange(cutoff + 1)[:, None]  # spins 0..cutoff

    def __call__(self, t: float, tail_tol: float):
        n = self.cutoff + 1
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the defect
            F = np.fft.fft(np.exp(1j * t * self.vals) * self.sin)
            # F[::-1][k - 1] is F[m - k]
            b = (self.phase * F[::-1][:n] - self.phase.conj() * F[1:n + 1]) / (1j * self.m)
            defect = abs(1.0 - float(np.sum(np.abs(b) ** 2)))
        if not defect <= tail_tol:
            raise _defect_error(defect, t, self.cutoff)
        # trace weight b_n is the coefficient b_n I/(n+1), read as 0 where |b_n| <= 1e-300
        return np.where(np.abs(b) > 1e-300, b / np.arange(1, b.size + 1), 0.0), defect


class _TorusExpGrid:
    """e^{itu} on a torus, at the coordinates of ball(cutoff): the FFT of
    e^{itu} on the product grid of m uniform angles per axis, read there."""

    def __init__(self, dual: TorusDual, u: OperatorField, cutoff: int):
        m = 2 * (cutoff + max(GRID_PAD, cutoff)) + 1
        self.cutoff = cutoff
        self.vals = dual.fft_values(u.coeffs, m).real  # u is self-adjoint: drop the FFT's rounding
        self.coords = dual.ball_coords(cutoff)
        self.index = tuple((self.coords % m).T)

    def __call__(self, t: float, tail_tol: float):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the defect
            g = np.exp(1j * t * self.vals)
        coef = np.fft.fftn(g)[self.index] / g.size
        defect = abs(1.0 - float(np.sum(np.abs(coef) ** 2)))
        if not defect <= tail_tol:
            raise _defect_error(defect, t, self.cutoff)
        return coef, defect


def _kept(dual, coords, coef, positions) -> list[tuple[int, IrrepLabel]]:
    """(i, label) for the positions i, in the given order, at which the scalar
    field with coefficient coef[i] I at the label with coordinates coords[i]
    keeps a block: |coef[i]| > PRUNE_TOL, as from_terms prunes, and the dual
    contains the label.  A label is built only where coef[i] passes the
    first test, and once.  A non-finite coefficient there raises from_terms'
    error.

    On SO(3) the odd spins are dropped: u is even under the center, so there
    the class-angle quadrature leaves only rounding noise (about 1e-17).
    """
    bad = ~np.isfinite(coef)
    live = bad | (np.abs(coef) > PRUNE_TOL)
    pos = np.fromiter(positions, dtype=np.intp)
    pos = pos[live[pos]]
    kept = []
    for i, c in zip(pos.tolist(), coords[pos].tolist()):
        a = dual.label_at(c)
        if dual.contains(a):
            if bad[i]:
                raise ValueError(f"coefficient at {format_label(a)} is not finite")
            kept.append((i, a))
    return kept


def _scalar_field(dual, coords, coef, positions) -> OperatorField:
    """The field with coefficient coef[i] I at the label with coordinates
    coords[i] for each position i :func:`_kept` keeps, in the given order.
    Its blocks are those of from_terms, byte for byte, built without its
    per-label checks: the blocks of one dimension d are read-only views of
    one product coef[idx, None, None] * eye(d).
    """
    kept = _kept(dual, coords, coef, positions)
    pos = np.array([i for i, _ in kept], dtype=np.intp)
    dims = dual.dims_at(coords[pos])
    order = np.argsort(dims, kind="stable")
    ds, starts = np.unique(dims[order], return_index=True)
    blocks = [None] * len(kept)
    for d, at in zip(ds.tolist(), np.split(order, starts[1:])):
        stack = coef[pos[at], None, None] * np.eye(d)
        stack.flags.writeable = False
        for j, M in zip(at.tolist(), stack):
            blocks[j] = M
    return OperatorField(dual, {a: M for (_, a), M in zip(kept, blocks)})


def _scalar_norm(dual, coords, coef, w: Weight) -> float:
    """norm_a_omega of _scalar_field(dual, coords, coef, range(coef.size))
    without building it: the sum of (d |c|) d w(a) over the kept positions in
    order, with |c| as LAPACK's SVD gives the one singular value of [c]
    (dlapy3), so rank-one labels match the dense norm bit for bit; a d x d
    block c I differs from it in the last bits."""
    kept = _kept(dual, coords, coef, range(coef.size))
    pos = np.array([i for i, _ in kept], dtype=np.intp)
    c = coef[pos]
    re, im = np.abs(c.real), np.abs(c.imag)
    top = np.maximum(re, im)  # > PRUNE_TOL at kept positions
    mod = top * np.sqrt((re / top) ** 2 + (im / top) ** 2 + 0.0)
    total = 0.0
    for (_, a), d, m in zip(kept, dual.dims_at(coords[pos]).tolist(), mod.tolist()):
        total += (d * m) * d * w(a)
    if not math.isfinite(total):
        raise WeightOverflowError(f"A_omega norm under {w.descriptor} overflows")
    return total


def exp_itu_auto(
    dual: GroupDual,
    u: OperatorField,
    t: float,
    cutoff_cap: int,
    tail_tol: float = 1e-6,
) -> tuple[OperatorField, float, int]:
    """Adaptive cutoff: grows with |t| (ceil(1.2 |t| sup|u|) + 24), doubling
    on defect failures up to the cap, an integer >= 0."""
    # each attempt is a call of exp_itu, which the benchmark's tracer counts
    (fld, defect), n = _ExpItu(dual, u).auto(t, cutoff_cap, lambda n: exp_itu(dual, u, t, n, tail_tol))
    return fld, defect, n


# ---------------------------------------------------------------------------
# growth curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthCurve:
    rows: tuple[tuple[float, float, float, int, float], ...]  # t, norm, bound, cutoff, tail
    slope: float
    bound_exponent: float  # d/2 + alpha
    passed: bool


def _poly_alpha(w: Weight) -> float:
    desc = w.descriptor
    if not desc.startswith("poly:alpha="):
        raise ValueError("growth curves are calibrated for poly weights")
    return float(desc.split("=", 1)[1])


def growth_curve(
    dual: GroupDual,
    u: OperatorField,
    w: Weight,
    t_list,
    cutoff_cap: int = 120,
    tail_tol: float = 1e-6,
) -> GrowthCurve:
    """Weighted norms of e^{itu} with the polynomial reference bound.

    The log-log slope is fitted over the largest decade of t, [max/10, max],
    which must hold two distinct times (else ``ValueError``); the pass flag
    compares it against (group dimension)/2 + alpha + SLOPE_SLACK.  Norms are
    taken from the coefficient vectors of exp_itu_auto, whose cutoffs and
    errors they share; no field is built.
    """
    alpha = _poly_alpha(w)
    exponent = dual.lie_dim() / 2.0 + alpha
    times = [float(t) for t in t_list]
    # a non-finite t is left to the e^{itu} checks, which reject it in list order
    top = max((t for t in times if math.isfinite(t)), default=math.nan)
    if len({t for t in times if top / 10.0 <= t <= top}) < 2:
        raise ValueError(
            f"a growth curve needs two distinct sample times in its fit window "
            f"[max/10, max], got {times!r}"
        )
    exp = _ExpItu(dual, u)
    rows = []
    for t in times:
        (coords, coef, defect), used = exp.auto(t, cutoff_cap, lambda n: exp.coefs(t, n, tail_tol))
        rows.append((t, _scalar_norm(dual, coords, coef, w), (1.0 + abs(t)) ** exponent, used, defect))
    ts = np.array(times)
    norms = np.array([r[1] for r in rows])
    sel = ts >= ts.max() / 10.0
    slope = float(np.polyfit(np.log1p(ts[sel]), np.log(norms[sel]), 1)[0])
    passed = bool(slope <= exponent + SLOPE_SLACK)
    return GrowthCurve(tuple(rows), slope, exponent, passed)


# ---------------------------------------------------------------------------
# separating functions
# ---------------------------------------------------------------------------

class SplineBump:
    """Piecewise-polynomial bump, exactly C^k: 0 on [-0.2, 0.2] and outside
    [0.2, 1.8], 1 on [0.8, 1.2], glued with order-k smoothstep ramps."""

    def __init__(self, k: int):
        self.k = int(k)
        self._spectra: dict[int, np.ndarray] = {}  # samples -> FFT of the samples / samples

    def _step(self, x):
        # regularized incomplete-beta smoothstep of order k on [0, 1]
        x = np.clip(x, 0.0, 1.0)
        k = self.k
        j = np.arange(k + 1)
        coef = (
            np.array([math.comb(k + j_i, j_i) * math.comb(2 * k + 1, k - j_i) for j_i in j])
            * (-1.0) ** j
        )
        return x ** (k + 1) * np.polyval(coef[::-1], x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        r0, r1, f0, f1 = 0.2, 0.8, 1.2, 1.8
        up = self._step((x - r0) / (r1 - r0))
        down = self._step((f1 - x) / (f1 - f0))
        return np.where(x <= r0, 0.0, np.where(x >= f1, 0.0, np.minimum(up, down)))

    def fourier_series(self, n_modes: int = 256, samples: int = 1 << 16):
        """Coefficients c_m of the periodization: phi(x) = sum c_m e^{2 pi i m x / BUMP_PERIOD}."""
        spec = self._spectra.get(samples)
        if spec is None:  # one transform per sample count, sliced for every n_modes
            xs = -BUMP_PERIOD / 2.0 + BUMP_PERIOD * np.arange(samples) / samples
            spec = self._spectra[samples] = np.fft.fft(self(xs)) / samples
        ms = np.arange(-n_modes, n_modes + 1)
        # grid starts at -period/2: undo the translation phase
        coefs = spec[ms % samples] * np.exp(2.0j * np.pi * ms * (-0.5))
        return ms, coefs


@dataclass(frozen=True)
class SeparatingReport:
    field: OperatorField
    series_tail: float  # l1 mass of the dropped bump modes
    achieved_sup_error: float  # max |v - phi(u0)| on the sample grid


def central_values(dual: GroupDual, u: OperatorField, angles: np.ndarray) -> np.ndarray:
    """Values of a central SU(2) field at points with the given class angles."""
    parts = _su2_central_parts(u)
    if parts is None:
        raise ValueError("central evaluation needs scalar coefficients")
    return _class_values(parts, angles)


def separating_function(
    dual: GroupDual,
    u0: OperatorField,
    smoothness: int | None = None,
    n_modes: int = 160,
    cutoff_cap: int = 512,
    sample_points: int = 1000,
) -> SeparatingReport:
    """Build v with v ~ 0 where u0 ~ 0 and v ~ 1 where u0 ~ 1.

    v = sum_m c_m e^{2 pi i (m/P) u0} over the Fourier series of a C^k bump
    periodized with period P = 4; since u0 takes values well inside a period,
    the periodization is exact and v(x) = bump(u0(x)) up to the dropped-mode
    tail.  Each exponential gets the cutoff :func:`exp_itu_auto` would give
    it, and the field equals the sum of those fields bit for bit.  The bump
    is C^k with k = ``smoothness``, by default ceil(dim/2 + 3).
    """
    if smoothness is None:
        smoothness = math.ceil(dual.lie_dim() / 2.0 + 3.0)
    bump = SplineBump(smoothness)
    ms, coefs = bump.fourier_series(n_modes=n_modes)
    tail = _bump_tail_estimate(bump, n_modes)
    modes = [(mm, c) for mm, c in zip(ms, coefs) if abs(c) >= 1e-14]
    acc = _separating_field(dual, u0, modes, cutoff_cap)
    return SeparatingReport(acc, tail, _sampled_error(dual, acc, u0, bump, sample_points))


def _separating_field(dual, u0, modes, cutoff_cap) -> OperatorField:
    """sum_m c_m e^{2 pi i (m/P) u0} through coefficient vectors.

    Mirrors the field sum of c_m * exp_itu_auto(dual, u0, t_m, cutoff_cap)[0]
    exactly.  There each label carries a scalar matrix, so only its diagonal
    entry matters: the coefficient in the exponential, c_m times that in the
    piece, and a running sum in the accumulator.  The same PRUNE_TOL test
    drops a label at each of those three points, and labels enter the result
    in the order the field sums insert them.  A position indexes the label
    coordinates of the largest cutoff used; each smaller cutoff's are a prefix
    of them (spins 0..n, or a torus ball sorted by word length).
    """
    exp = _ExpItu(dual, u0)
    exp.sup  # the family and centrality, then self-adjointness, before any mode
    exp.check_self_adjoint()
    # larger |m| first, the modes +-m together: they start from the same
    # cutoff and share its grid; a failing mode raises when the sum reaches it
    exps: list = [None] * len(modes)
    coords, top = np.zeros((0, 1), dtype=np.int64), -1  # the label coordinates of the largest cutoff used
    for i in sorted(range(len(modes)), key=lambda i: -abs(int(modes[i][0]))):
        t = 2.0 * np.pi * modes[i][0] / BUMP_PERIOD
        try:
            (grid_coords, exps[i], _), n = exp.auto(t, cutoff_cap, lambda n: exp.coefs(t, n, 1e-6))
        except InsufficientCutoffError as exc:
            exps[i] = exc
            continue
        if n > top:
            coords, top = grid_coords, n
    acc = np.zeros(len(coords), dtype=complex)  # 0 at positions not in the sum
    order: dict[int, None] = {}  # positions in the sum, in insertion order
    for (_, c), coef in zip(modes, exps):
        if isinstance(coef, InsufficientCutoffError):
            raise coef
        piece = c * coef
        pos = np.flatnonzero((np.abs(coef) > PRUNE_TOL) & (np.abs(piece) > PRUNE_TOL))
        acc[pos] += piece[pos]
        kept = np.abs(acc[pos]) > PRUNE_TOL
        for i in pos[~kept].tolist():
            order.pop(i, None)
        acc[pos[~kept]] = 0.0
        order.update(dict.fromkeys(pos[kept].tolist()))
    return _scalar_field(dual, coords, acc, order)


def _sampled_error(dual, v, u0, bump, sample_points) -> float:
    """max |v - bump(u0)| over random points of a fixed-seed generator."""
    rng = np.random.default_rng(0)
    if sample_points <= 0:
        return 0.0
    if isinstance(dual, Su2Dual):
        # central fields only depend on the class angle; evaluate all sample
        # points through it (identical to the matrix-trace evaluation)
        angles = np.array(
            [su2_class_angle(dual.random_point(rng)) for _ in range(sample_points)]
        )
        v_vals = central_values(dual, v, angles)
        u_vals = central_values(dual, u0, angles)
        return float(np.max(np.abs(v_vals - bump(np.real(u_vals)))))
    err = 0.0
    for _ in range(sample_points):
        s = dual.random_point(rng)
        v_val = evaluate(v, s)
        u_val = evaluate(u0, s)
        err = max(err, abs(v_val - complex(bump(float(np.real(u_val))))))
    return err


def _bump_tail_estimate(bump, n_modes):
    ms, coefs = bump.fourier_series(n_modes=4 * n_modes)
    outside = np.abs(ms) > n_modes
    return float(np.sum(np.abs(coefs[outside])))


# ---------------------------------------------------------------------------
# point derivations
# ---------------------------------------------------------------------------

def point_derivation(dual: GroupDual, X, u: OperatorField) -> complex:
    """<X, u> = sum d Tr(u^(pi) dpi(X)): the derivative of u at the identity."""
    total = 0.0 + 0.0j
    for a, M in u.coeffs.items():
        total += dual.dim(a) * complex(np.trace(M @ algebra_rep(dual, a, X)))
    return total


def derivation_bound_scan(dual: GroupDual, X, w: Weight, n_max: int):
    """Rows (n, sup over labels of word length <= n of ||dpi(X)|| / w(pi)).

    One pass over ball_coords(n_max), taking w label by label in ball order
    (word-length order on these families); n_max = 0 evaluates nothing.
    """
    if n_max == 0:
        return []
    coords = dual.ball_coords(n_max)
    norm_at = _dpi_norm_rule(dual, X)
    best = np.zeros(n_max + 1)
    ratios = [norm_at(c) / w(dual.label_at(c)) for c in coords.tolist()]
    np.maximum.at(best, dual.word_lengths_at(coords), ratios)
    return list(enumerate(np.maximum.accumulate(best).tolist()))[1:]


def _dpi_norm_rule(dual: GroupDual, X):
    """Lattice coordinates -> ||dpi(X)||: |mu . X| on a torus, one float dot
    product a label (a batched product loses the 1 x 1 SVD's bits); on SU(2)
    and SO(3) n max|eig X| for a normal X, else the SVD of dpi_n(X)."""
    if not isinstance(dual, (Su2Dual, TorusDual)):
        raise FamilyMismatchError(f"no Lie data for {dual!r}")
    if not np.isfinite(X).all():
        raise ValueError("the algebra element X must be finite")
    if isinstance(dual, TorusDual):
        return lambda c: abs(float(np.dot(c, X)))
    top = _normal_top_eigenvalue(X)
    if top is not None:
        return lambda c: c[0] * top
    return lambda c: float(np.linalg.norm(su2_algebra_rep(c[0], X), 2))


def _normal_top_eigenvalue(X) -> float | None:
    """max |eig X| for a normal X, else None.

    A normal X is unitarily diagonalizable, so dpi(X) is unitarily conjugate
    to dpi of the diagonalization of X, whose norm is n times this modulus.
    """
    X = np.asarray(X, dtype=complex)
    Xh = X.conj().T
    if not np.array_equal(X @ Xh, Xh @ X):
        return None
    return float(np.max(np.abs(np.linalg.eigvals(X))))


# ---------------------------------------------------------------------------
# synthesis degree
# ---------------------------------------------------------------------------

def synthesis_degree(m: int, alpha: float) -> int:
    """Nilpotency bound floor(m/2 + alpha) + 1 for weak synthesis on an
    m-dimensional submanifold under a polynomial weight of exponent alpha."""
    if m < 0 or alpha <= 0:
        raise ValueError("need m >= 0 and alpha > 0")
    return int(math.floor(m / 2.0 + alpha)) + 1


# ---------------------------------------------------------------------------
# the shifted-argument tensor decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuDecomposition:
    """Families phi, psi with u(s t^{-1}) = sum_ij phi_ij(s) psi_ij(t).

    Per label, with the polar decomposition u^ = V |u^| and A = |u^|^(1/2):

        phi_ij(s) = sqrt(d) (A pi(s) e_i, e_j),
        psi_ij(t) = sqrt(d) (e_j, A V* pi(t) e_i);

    both families are square-summable in the weighted L^2 norm with total
    exactly the weighted algebra norm of u.
    """

    u: OperatorField
    w: Weight
    parts: tuple[tuple[IrrepLabel, np.ndarray, np.ndarray], ...]  # (label, A, V)

    def phi_norm_sq_sum(self) -> float:
        total = 0.0
        for a, A, _ in self.parts:
            d = self.u.dual.dim(a)
            # ||phi_ij||_{2,w}^2 = w(a) (A^2 e_j, e_j), summed over i adds d
            total += d * self.w(a) * float(np.real(np.trace(A @ A)))
        return total

    def psi_norm_sq_sum(self) -> float:
        total = 0.0
        for a, A, V in self.parts:
            d = self.u.dual.dim(a)
            abar = self.u.dual.conjugate(a)
            B = V @ A
            total += d * self.w(abar) * float(np.real(np.trace(B.conj().T @ B)))
        return total

    def reconstruct(self, s, t) -> complex:
        """sum_ij phi_ij(s) psi_ij(t), evaluated from the explicit families."""
        dual = self.u.dual
        total = 0.0 + 0.0j
        for a, A, V in self.parts:
            d = dual.dim(a)
            Ps = A @ dual.rep(a, s)        # phi matrix: phi_ij = sqrt(d) (Ps)_{j i}
            Pt = A @ V.conj().T @ dual.rep(a, t)  # psi_ij = sqrt(d) conj((Pt)_{j i})
            total += d * complex(np.sum(Ps.T * Pt.T.conj()))
        return total

    def phi_fields(self):
        """The phi family as honest operator fields (small supports only):
        phi_ij is the matrix coefficient (pi(s) e_i, A e_j) times sqrt(d)."""
        dual = self.u.dual
        for a, A, _ in self.parts:
            d = dual.dim(a)
            for i in range(d):
                for j in range(d):
                    yield (a, i, j), coefficient_field(dual, a, A[:, j], np.eye(d)[i]) * math.sqrt(d)

    def psi_fields(self):
        """The psi family as fields: psi_ij is the conjugate of the matrix
        coefficient (pi(t) e_i, V A e_j)."""
        dual = self.u.dual
        for a, A, V in self.parts:
            d = dual.dim(a)
            VA = V @ A
            for i in range(d):
                for j in range(d):
                    base = coefficient_field(dual, a, VA[:, j], np.eye(d)[i]) * math.sqrt(d)
                    yield (a, i, j), involution(base)


def nu_decompose(u: OperatorField, w: Weight) -> NuDecomposition:
    parts = []
    for a, M in u.coeffs.items():
        U, sv, Vh = np.linalg.svd(M)
        A = (Vh.conj().T * np.sqrt(sv)) @ Vh  # |M|^(1/2)
        V = U @ Vh
        parts.append((a, A, V))
    return NuDecomposition(u, w, tuple(parts))


def shift_operator(T: OperatorField, w: Weight, f: OperatorField) -> OperatorField:
    """The bounded operator induced by a functional T on the weighted L^2
    space: coefficientwise f^(pi) -> f^(pi) pi(T) / w(pi)."""
    out = {}
    for a, M in f.coeffs.items():
        Ta = T.coeffs.get(a)
        if Ta is not None:
            out[a] = (M @ Ta) / w(a)
    return OperatorField.from_terms(f.dual, out)


def pairing_identity_check(T: OperatorField, u: OperatorField, w: Weight) -> float:
    """|<T, u> - <S(T), Nu>| with both sides computed independently.

    The left side is the plain duality pairing.  The right side pairs the
    induced operator with the tensor decomposition of the shifted function:
    S(T) acts on the first-variable family phi and is paired against the
    conjugate of the second-variable family psi in the weighted L^2 inner
    product, sum_ij (S(T) phi_ij, conj(psi_ij)).
    """
    nu = nu_decompose(u, w)
    lhs = pair(T, u)
    rhs = 0.0 + 0.0j
    psis = dict(nu.psi_fields())
    for key, phi in nu.phi_fields():
        rhs += l2_inner(shift_operator(T, w, phi), involution(psis[key]), w)
    return abs(lhs - rhs)
