"""Dual objects of the supported compact groups as explicit fusion rings.

Each :class:`GroupDual` bundles, for one group family, everything the rest of
the workbench needs: dimensions, conjugation, fusion multiplicities, a default
generating set with word-length arithmetic, concrete representation matrices
at group points, Haar quadrature grids, and Clebsch-Gordan style intertwiners.

Families: the torus T^n, SU(2), the circle-with-flip group T x| Z2 (the
semidirect product where the flip inverts the circle), the quotient SO(3) of
SU(2), and binary products of any of these.

All instances are immutable values; every method is pure.  Memo caches only
store values that are functions of their key, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    FamilyMismatchError,
    IntertwinerSynthesisError,
    LabelCapError,
    NotGeneratedError,
    UnsupportedBranchingError,
)
from .labels import (
    IrrepLabel,
    ProductLabel,
    SemidirectLabel,
    Su2Spin,
    TorusChar,
    label_key,
    split_top,
)

__all__ = [
    "GroupDual",
    "TorusDual",
    "Su2Dual",
    "So3Dual",
    "SemidirectDual",
    "ProductDual",
    "SemidirectPoint",
    "TorusSpectrumPoint",
    "Su2SpectrumPoint",
    "SemidirectSpectrumPoint",
    "ProductSpectrumPoint",
    "IntertwinerSet",
    "su2_irrep",
    "su2_euler_point",
    "su2_irrep_stack",
    "su2_algebra_rep",
    "su2_class_angle",
    "branch_su2_to_torus",
    "so3_lift",
    "parse_group",
    "group_token",
]

_EPS_FLIP = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # det-1 conjugator of SU(2)
_SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# a block of GroupDual.power_maxima ends at this many steps or support cells
_BLOCK_STEPS = 64
_BLOCK_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# lattice masks
# ---------------------------------------------------------------------------

def _axis(ax: int, start: int, stop: int, step: int | None = None) -> tuple:
    """Index selecting start:stop:step along axis ax and everything along the others."""
    return (slice(None),) * ax + (slice(start, stop, step),)


def _crop(supp, lo, shape) -> np.ndarray:
    """The entries of the array supp = (arr, its lo) over the window (lo, shape), 0 outside."""
    arr, alo = supp
    out = np.zeros(shape, dtype=arr.dtype)
    src, dst = [], []
    for l, n, l2, n2 in zip(alo, arr.shape, lo, shape):
        a, b = max(l, l2), min(l + n, l2 + n2)
        if b <= a:
            return out
        src.append(slice(a - l, b - l))
        dst.append(slice(a - l2, b - l2))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _union(parts):
    """OR of supports, over the smallest window that holds them all."""
    full = [p for p in parts if p[0].size]
    if len(full) <= 1:
        return full[0] if full else parts[0]
    lo = tuple(map(min, *(p[1] for p in full)))
    hi = tuple(map(max, *(tuple(l + n for l, n in zip(p[1], p[0].shape)) for p in full)))
    out = np.zeros([h - l for l, h in zip(lo, hi)], dtype=bool)
    for arr, alo in full:
        out[tuple(slice(a - l, a - l + n) for a, l, n in zip(alo, lo, arr.shape))] |= arr
    return out, lo


def _grid_degree(degree) -> int:
    """A Haar grid degree: an integer >= 0, else ValueError."""
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError(f"a Haar grid degree is an integer >= 0, got {degree!r}")
    return int(degree)


# ---------------------------------------------------------------------------
# SU(2) representation matrices
# ---------------------------------------------------------------------------

def su2_irrep(n: int, g: np.ndarray) -> np.ndarray:
    """Matrix of the (n+1)-dimensional irrep at a 2x2 matrix g.

    Realized on the n-th symmetric power of C^2 in the orthonormalized
    monomial basis e_k, k = 0..n (e_0 the highest torus exponent), evaluated
    by contracting against the spin-1/2 factor one step at a time.  Works for
    any invertible g (unitary or not), stably up to n of a few hundred.
    """
    return su2_irrep_stack(n, np.asarray(g, dtype=complex)[None])[n][0]


def su2_irrep_stack(n_max: int, gs: np.ndarray) -> list[np.ndarray]:
    """All irreps 0..n_max at a batch of 2x2 matrices, shape (G,2,2) -> (G,k+1,k+1)."""
    gs = np.asarray(gs, dtype=complex)
    return _su2_extend_stack([np.ones(gs.shape[:1] + (1, 1), dtype=complex)], n_max, gs)


def _su2_extend_stack(out: list, n_max: int, gs: np.ndarray) -> list:
    """Append the levels len(out)..n_max of su2_irrep_stack at gs to out, its
    levels 0..len(out)-1 there; level n depends only on level n-1."""
    for n in range(len(out), n_max + 1):
        prev = out[-1]
        j = np.arange(n + 1)
        cur = np.zeros(gs.shape[:1] + (n + 1, n + 1), dtype=complex)
        w = np.sqrt(np.outer(n - j, n - j)) / n
        cur[:, : n, : n] += w[: n, : n] * prev * gs[:, None, None, 0, 0]
        w = np.sqrt(np.outer(n - j, j)) / n
        cur[:, : n, 1:] += w[: n, 1:] * prev * gs[:, None, None, 0, 1]
        w = np.sqrt(np.outer(j, n - j)) / n
        cur[:, 1:, : n] += w[1:, : n] * prev * gs[:, None, None, 1, 0]
        w = np.sqrt(np.outer(j, j)) / n
        cur[:, 1:, 1:] += w[1:, 1:] * prev * gs[:, None, None, 1, 1]
        out.append(cur)
    return out


def su2_algebra_rep(n: int, X: np.ndarray) -> np.ndarray:
    """Derived representation of a 2x2 algebra element on the n-th irrep."""
    X = np.asarray(X, dtype=complex)
    k = np.arange(n + 1)
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[k, k] = (n - k) * X[0, 0] + k * X[1, 1]
    if n >= 1:
        kk = np.arange(n)
        M[kk + 1, kk] = X[1, 0] * np.sqrt((n - kk) * (kk + 1.0))
        M[kk, kk + 1] = X[0, 1] * np.sqrt((kk + 1.0) * (n - kk))
    return M


def su2_class_angle(g: np.ndarray) -> float:
    """Conjugacy-class angle in [0, pi]: eigenvalues of g are exp(+-i angle)."""
    half_tr = 0.5 * float(np.real(np.trace(g)))
    return math.acos(min(1.0, max(-1.0, half_tr)))


def su2_euler_point(alpha: float, beta: float, gamma: float) -> np.ndarray:
    ca, sa = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
    cg, sg = np.exp(-0.5j * gamma), np.exp(0.5j * gamma)
    cb, sb = math.cos(beta / 2.0), math.sin(beta / 2.0)
    return np.array([[ca * cb * cg, -ca * sb * sg], [sa * sb * cg, sa * cb * sg]])


# ---------------------------------------------------------------------------
# the SU(2) Euler grid and its separated transform
# ---------------------------------------------------------------------------
# The degree-D grid is su2_euler_point(alpha, beta, gamma) over k = D + 1
# angles alpha = 4 pi m_a / k, q = (D + 6) // 4 Gauss-Legendre middle angles
# beta_j and k angles gamma = 4 pi m_g / k, in that (alpha, beta, gamma)
# order.  The diagonal torus acts on the monomial basis diagonally, so
#   pi_n(g)[i, l] = e^{-2 pi i m_a (n-2i)/k} d_n(beta_j)[i, l] e^{-2 pi i m_g (n-2l)/k}
# with d_n(beta) = pi_n(rot(beta/2)) real: a transform is FFTs over the two
# circle axes and small-d stacks over the q middle angles (Kostelec and
# Rockmore, "FFTs on the rotation group", J. Fourier Anal. Appl. 14, 2008).

@lru_cache(maxsize=16)
def _su2_grid_axes(degree: int):
    """(k, betas, Gauss-Legendre weights of the betas) of the degree-``degree``
    grid, read-only and computed once per degree."""
    k, q = degree + 1, (degree + 6) // 4
    xs, ws = np.polynomial.legendre.leggauss(q)
    betas = np.arccos(xs)
    betas.flags.writeable = ws.flags.writeable = False
    return k, betas, ws


def _su2_euler_data(grid, n_max: int):
    """(k, small-d stacks up to at least n_max) of an SU(2) grid.

    The small-d stack of spin n is the real array (q, n+1, n+1) of the irrep
    at rot(beta/2) for each middle angle beta.  The grid's memo keeps the
    recursion, and a call for a higher spin extends it from its last level.
    """
    memo = grid.memo.get("su2_euler")
    if memo is None:
        k, betas, _ = _su2_grid_axes(grid.degree)
        c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
        rots = np.zeros((len(betas), 2, 2), dtype=complex)
        rots[:, 0, 0], rots[:, 0, 1], rots[:, 1, 0], rots[:, 1, 1] = c, -s, s, c
        memo = grid.memo["su2_euler"] = (k, rots, su2_irrep_stack(n_max, rots))
    k, rots, stack = memo
    _su2_extend_stack(stack, n_max, rots)
    return k, [level.real for level in stack]


def _su2_freqs(n: int, k: int) -> np.ndarray:
    """Circle frequencies n - 2i (i = 0..n) of the spin-n weights, folded mod k."""
    return (n - 2 * np.arange(n + 1)) % k


# ---------------------------------------------------------------------------
# points of the circle-with-flip group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemidirectPoint:
    """Group point (theta, flip): circle angle plus optional inversion flip."""

    theta: float
    flip: bool = False


# ---------------------------------------------------------------------------
# spectrum points: points of the complexified group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSpectrumPoint:
    z: tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(x) for x in self.z)
        if any(x == 0 for x in z):
            raise ValueError("torus spectrum coordinates must be nonzero")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class Su2SpectrumPoint:
    """s . diag(lam, 1/lam) with s special unitary; canonicalized to lam >= 1."""

    s: np.ndarray
    lam: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        lam = float(self.lam)
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        if lam < 1.0:
            # conjugate by the Weyl flip: equivalent point with lam >= 1
            s = _EPS_FLIP @ s @ _EPS_FLIP.conj().T
            lam = 1.0 / lam
        s.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "lam", lam)

    def matrix(self) -> np.ndarray:
        return self.s @ np.diag([self.lam, 1.0 / self.lam]).astype(complex)


@dataclass(frozen=True)
class SemidirectSpectrumPoint:
    z: complex
    flip: bool = False

    def __post_init__(self):
        if complex(self.z) == 0:
            raise ValueError("spectrum coordinate must be nonzero")
        object.__setattr__(self, "z", complex(self.z))


@dataclass(frozen=True)
class ProductSpectrumPoint:
    left: object
    right: object


@dataclass(frozen=True)
class IntertwinerSet:
    """Isometries embedding each fusion component into a tensor product.

    ``blocks`` maps a component label sigma to a list of isometries
    V: C^{d_sigma} -> C^{d_a d_b}, one per multiplicity, with orthogonal
    ranges; together the ranges fill the whole product space.
    """

    a: IrrepLabel
    b: IrrepLabel
    blocks: tuple[tuple[IrrepLabel, tuple[np.ndarray, ...]], ...]

    def __iter__(self):
        return iter(self.blocks)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class GroupDual:
    family = "?"

    def __init__(self):
        self._fuse_cache: dict = {}
        self._iw_cache: dict = {}

    # --- structure -------------------------------------------------------
    @property
    def trivial(self) -> IrrepLabel:
        raise NotImplementedError

    def contains(self, a: IrrepLabel) -> bool:
        raise NotImplementedError

    def dim(self, a: IrrepLabel) -> int:
        raise NotImplementedError

    def conjugate(self, a: IrrepLabel) -> IrrepLabel:
        raise NotImplementedError

    def generators(self) -> tuple[IrrepLabel, ...]:
        raise NotImplementedError

    def lie_dim(self) -> int:
        raise NotImplementedError

    def _fuse(self, a, b):
        raise NotImplementedError

    def _check(self, *labels):
        for a in labels:
            if not self.contains(a):
                raise FamilyMismatchError(f"{a!r} does not belong to {self!r}")

    def fuse(self, a: IrrepLabel, b: IrrepLabel) -> tuple[tuple[IrrepLabel, int], ...]:
        """Decomposition of a (x) b as a sorted multiset of (label, multiplicity)."""
        self._check(a, b)
        key = (a, b)
        hit = self._fuse_cache.get(key)
        if hit is None:
            hit = tuple(sorted(self._fuse(a, b), key=lambda p: label_key(p[0])))
            self._fuse_cache[key] = hit
        return hit

    # --- word length machinery --------------------------------------------
    def support_step(self, supp: frozenset, S) -> frozenset:
        """One tensor-power step on a frozenset of labels, through ``fuse``.

        The library steps supports as lattice masks (:meth:`support_walk`);
        this label-by-label form is the reference those masks are tested
        against.
        """
        out = set()
        for a in supp:
            for s in S:
                out.update(sigma for sigma, _ in self.fuse(a, s))
        return frozenset(out)

    def tensor_power_support(self, S, k: int) -> tuple[IrrepLabel, ...]:
        """Labels occurring in some k-fold tensor product of members of S."""
        if k == 0:
            return (self.trivial,)
        S = tuple(S)
        if not S:
            raise ValueError("empty generating set with k >= 1")
        walk = self.support_walk(S)
        for _ in range(k - 1):
            next(walk)
        return self.mask_labels(*next(walk))

    def word_length(self, a: IrrepLabel, S=None, cap: int = 512) -> int:
        """Minimal k with a inside a k-fold product over S; trivial has length 0.

        With S=None this is the family's rule on ``coords(a)``, which the
        walk over the default generators is tested against."""
        self._check(a)
        if S is None:
            return self._word_length_rule(self.coords(a))
        if a == self.trivial:
            return 0
        S = tuple(S)
        self._check(*S)
        target = self.coords(a)
        seen = supp = self.mask((self.trivial,))
        for k in range(1, cap + 1):
            supp = self.lattice_step(supp, S)
            arr, lo = supp
            at = tuple(c - l for c, l in zip(target, lo))
            if all(0 <= i < n for i, n in zip(at, arr.shape)) and arr[at]:
                return k
            if k > 1 and not (arr & ~_crop(seen, lo, arr.shape)).any():
                raise NotGeneratedError(a, k)
            seen = _union([seen, supp])
        raise NotGeneratedError(a, cap)

    def ball(self, radius: int, S=None) -> tuple[IrrepLabel, ...]:
        """All labels of word length <= radius (cumulative tensor-power support).

        Over the default generators (S=None) they are the labels of a box of
        coordinates that the family contains and whose :meth:`word_lengths_at`
        is at most radius.  The box holds what radius steps from the trivial
        label reach when a step moves each coordinate at most as far as some
        generator lies from the trivial label.
        """
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        if S is None:
            triv = np.array(self.coords(self.trivial), dtype=np.int64)
            off = np.array([self.coords(s) for s in self.generators()], dtype=np.int64) - triv
            lo = triv + radius * np.minimum(off.min(axis=0), 0)
            hi = triv + radius * np.maximum(off.max(axis=0), 0)
            shape = tuple((hi - lo + 1).tolist())
            box = np.indices(shape).reshape(len(shape), -1).T + lo
            inside = self.word_lengths_at(box).reshape(shape) <= radius
            return tuple(a for a in self.mask_labels(inside, lo) if self.contains(a))
        S = tuple(S)
        acc = supp = self.mask((self.trivial,))
        if radius > 0:
            self._check(*S)
        for _ in range(radius):
            supp = self.lattice_step(supp, S)
            acc = _union([acc, supp])
        return self.mask_labels(*acc)

    # --- integer-lattice supports -------------------------------------------
    # A support is a pair (arr, lo): a boolean mask over a window of the
    # family's label lattice, holding the labels whose coordinates are lo
    # plus an index where arr is True.
    lattice_rank = 1

    def coords(self, a: IrrepLabel) -> tuple[int, ...]:
        """Integer-lattice coordinates of a label."""
        raise NotImplementedError

    def label_at(self, c) -> IrrepLabel:
        """The label with lattice coordinates c (inverse of :meth:`coords`)."""
        raise NotImplementedError

    def _word_length_rule(self, c):
        """Word length over the default generators of the label at coordinates
        c, given as r ints (one label) or r int64 columns (many labels)."""
        raise NotImplementedError

    def word_lengths_at(self, c: np.ndarray) -> np.ndarray:
        """Default word lengths (:meth:`word_length` with S=None) of the labels
        at the rows of the (k, r) int64 coordinate array c."""
        return self._word_length_rule(tuple(c.T))

    def dims_at(self, c: np.ndarray) -> np.ndarray:
        """Dimensions of the labels at the rows of c."""
        raise NotImplementedError

    def _step_mask(self, arr, lo, s, ax):
        """The support (arr, lo) tensored by the generator s, acting on the
        lattice axes ax, ax+1, ... that hold this family's coordinates.

        Returns arr itself, with lo moved, exactly when s acts by a
        translation: a torus character, or a trivial label.
        """
        raise NotImplementedError

    def mask(self, labels) -> tuple[np.ndarray, tuple[int, ...]]:
        """The support holding the given labels."""
        r = self.lattice_rank
        pts = np.array([self.coords(a) for a in labels], dtype=np.int64).reshape(-1, r)
        if not len(pts):
            return np.zeros((0,) * r, dtype=bool), (0,) * r
        lo = pts.min(axis=0)
        arr = np.zeros(pts.max(axis=0) - lo + 1, dtype=bool)
        arr[tuple((pts - lo).T)] = True
        return arr, tuple(lo.tolist())

    def mask_labels(self, arr, lo) -> tuple[IrrepLabel, ...]:
        """The labels of a support, sorted by label_key."""
        pts = (np.argwhere(arr) + np.array(lo, dtype=np.int64)).tolist()
        return tuple(sorted((self.label_at(p) for p in pts), key=label_key))

    def lattice_step(self, supp, S):
        """One tensor-power step on a support: the OR over the generators in S."""
        if not S:
            return self.mask(())
        arr, lo = supp
        if len(S) == 1:
            return self._step_mask(arr, lo, S[0], 0)
        return _union([self._step_mask(arr, lo, s, 0) for s in S])

    def support_walk(self, S):
        """Iterator over the supports of the k-fold tensor powers over S, k = 1, 2, ..."""
        S = tuple(S)
        self._check(*S)

        def walk(supp):
            while True:
                yield supp
                supp = self.lattice_step(supp, S)

        return walk(self.mask(S))

    def power_maxima(self, S, n: int, log_values, cap: int) -> list[float]:
        """max of the log weight over the support of the k-fold tensor power of S, k = 1..n.

        ``log_values`` maps a (k, r) int64 array of lattice coordinates to k
        floats (:meth:`bfw.weights.Weight.log_values`).  It is called once per
        block of steps, on the coordinates the block reaches first, in the
        order the steps reach them, so every label is evaluated once.  Each
        maximum is taken over a float array of those values, so it is the
        float a max over the labels gives.  Raises :class:`LabelCapError` at
        the first support of more than ``cap`` labels, after that step's
        values.
        """
        S = tuple(S)
        walk = self.support_walk(S)
        if n < 1:
            return []
        arr, lo = next(walk)
        if len(S) == 1 and cap >= 1:
            arr2, lo2 = self._step_mask(arr, lo, S[0], 0)
            if arr2 is arr:
                # s acts by a translation: the support is the one label
                # lo + (k-1) shift, a new one at every step unless shift is 0
                shift = np.subtract(lo2, lo)
                steps = np.arange(n if shift.any() else 1)
                got = log_values(lo + np.outer(steps, shift)).tolist()
                return got if shift.any() else got * n
        return self._block_maxima(itertools.chain([(arr, lo)], walk), n, log_values, cap)

    def _block_maxima(self, walk, n, log_values, cap):
        """power_maxima on the supports the walk yields, in blocks of steps.

        A block's window keeps the values looked up so far and drops the
        rest.  In a walk from one generator that loses nothing: a torus
        coordinate moves one way, and the other families' windows only grow.
        """
        out: list[float] = []
        steps: list = []  # (mask, its nonzero indices, lo) of steps taken, not yet evaluated
        known = vals = wlo = None  # the values looked up so far, over the window at wlo
        while len(out) < n:
            total = sum(len(st[1][0]) for st in steps)
            while (len(out) + len(steps) < n and len(steps) < _BLOCK_STEPS
                   and total < _BLOCK_CELLS and not (steps and len(steps[-1][1][0]) > cap)):
                arr, lo = next(walk)
                steps.append((arr, np.nonzero(arr), lo))
                total += len(steps[-1][1][0])
            # the block: the steps before its window grows sparse (one step at least)
            lo_k = np.array([st[2] for st in steps], dtype=np.int64)
            hi_k = lo_k + np.array([st[0].shape for st in steps], dtype=np.int64)
            counts = [len(st[1][0]) for st in steps]
            blo, bhi = np.minimum.accumulate(lo_k), np.maximum.accumulate(hi_k)
            volume = np.prod((bhi - blo).astype(float), axis=1)
            sparse = np.flatnonzero(volume > 8.0 * np.cumsum(counts) + 4096.0)
            m = max(1, int(sparse[0])) if sparse.size else len(steps)
            block, counts, steps = steps[:m], counts[:m], steps[m:]
            blo = blo[m - 1]
            shape = tuple((bhi[m - 1] - blo).tolist())
            strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
            # flat window index of every label of every step, step by step
            base = [sum(i * st for i, st in zip(nz, strides)) for _, nz, _ in block]
            idx = np.concatenate(base) + np.repeat((lo_k[:m] - blo) @ strides, counts)
            blo = tuple(blo.tolist())
            if wlo is None:
                known, vals = np.zeros(shape, dtype=bool), np.zeros(shape)
            else:
                known, vals = _crop((known, wlo), blo, shape), _crop((vals, wlo), blo, shape)
            wlo = blo
            kf, vf = known.reshape(-1), vals.reshape(-1)
            fresh = idx[~kf[idx]]
            if fresh.size:
                flat, first = np.unique(fresh, return_index=True)
                flat = flat[np.argsort(first)]  # in the order the steps reach them
                vf[flat] = log_values(np.column_stack(np.unravel_index(flat, shape)) + blo)
                kf[flat] = True
            out.extend(np.maximum.reduceat(vf[idx], np.cumsum([0] + counts[:-1])).tolist())
            if counts[-1] > cap:
                raise LabelCapError(cap, counts[-1])
        return out

    # --- points and representations ---------------------------------------
    def identity(self):
        raise NotImplementedError

    def random_point(self, rng):
        raise NotImplementedError

    def point_mul(self, s, t):
        raise NotImplementedError

    def point_inv(self, s):
        raise NotImplementedError

    def reps(self, labels, points) -> list[np.ndarray]:
        """Arrays (G, d, d): each irrep of ``labels`` at all G ``points``.

        The points are group points, or all of them this family's spectrum
        points (points of the complexified group).  Every entry equals the
        matrix one label at one point gives, bit for bit.
        """
        raise NotImplementedError

    def rep(self, a: IrrepLabel, point) -> np.ndarray:
        """Matrix of the irrep a at a group point (unitary) or a spectrum point."""
        return self.reps((a,), [point])[0][0]

    def conj_intertwiner(self, a: IrrepLabel):
        """(abar, J) with conj(rep(a, s)) == J rep(abar, s) J^{-1} for all s."""
        raise NotImplementedError

    def haar_grid(self, degree: int):
        """(points, weights) integrating exactly all products of matrix entries
        whose grid indices total at most ``degree``.

        The grid index is the family's own: |m| per axis of a torus character,
        m of the circle-with-flip pi_m, the spin n (not the word length) on
        SU(2) and SO(3), each factor's on a product.
        """
        degree = _grid_degree(degree)
        return self._haar_points(degree), self._haar_weights(degree)

    def haar_weights(self, degree: int) -> np.ndarray:
        """The weights of :meth:`haar_grid`, without building its points."""
        return self._haar_weights(_grid_degree(degree))

    def _haar_points(self, degree):
        raise NotImplementedError

    def _haar_weights(self, degree):
        raise NotImplementedError

    def haar_values(self, grid, coeffs) -> np.ndarray:
        """Values of sum_a d_a tr(a(g) M_a) at the points of ``grid``, a
        :class:`~bfw.quadrature.HaarGrid` of this family, for the map
        ``coeffs`` of labels a to matrices M_a.

        This default sums over the grid's per-label (G, d, d) stacks.
        """
        grid._fill(coeffs)
        vals = np.zeros(len(grid.weights), dtype=complex)
        for a, M in coeffs.items():
            vals += self.dim(a) * np.einsum("gij,ji->g", grid.rep_stack(a), M)
        return vals

    def haar_coefficients(self, grid, wf: np.ndarray, labels) -> dict:
        """u^(a) = sum_g wf_g a(g)^* for each label a, from the weighted values
        wf at the points of ``grid``.  This default sums over the grid's stacks."""
        grid._fill(labels)
        # entrywise (i,j) -> conj(P[g, j, i])
        return {a: np.einsum("g,gji->ij", wf, grid.rep_stack(a).conj()) for a in labels}

    # --- intertwiners -------------------------------------------------------
    def intertwiners(self, a: IrrepLabel, b: IrrepLabel) -> IntertwinerSet:
        self._check(a, b)
        key = (a, b)
        hit = self._iw_cache.get(key)
        if hit is None:
            hit = self._build_intertwiners(a, b)
            self._iw_cache[key] = hit
        return hit

    def _build_intertwiners(self, a, b) -> IntertwinerSet:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self):
        return hash((type(self).__name__, self._params()))

    def _params(self):
        return ()

    def __repr__(self):
        return group_token(self)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

class TorusDual(GroupDual):
    family = "torus"

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise ValueError("torus rank must be >= 1")
        self.n = n
        self.lattice_rank = n

    def _params(self):
        return (self.n,)

    @property
    def trivial(self):
        return TorusChar((0,) * self.n)

    def contains(self, a):
        return isinstance(a, TorusChar) and len(a.mu) == self.n

    def dim(self, a):
        self._check(a)
        return 1

    def conjugate(self, a):
        self._check(a)
        return TorusChar(tuple(-m for m in a.mu))

    def generators(self):
        out = []
        for j in range(self.n):
            e = [0] * self.n
            e[j] = 1
            out.append(TorusChar(tuple(e)))
            e[j] = -1
            out.append(TorusChar(tuple(e)))
        return tuple(out)

    def lie_dim(self):
        return self.n

    def _fuse(self, a, b):
        return [(TorusChar(tuple(x + y for x, y in zip(a.mu, b.mu))), 1)]

    def coords(self, a):
        return a.mu

    def label_at(self, c):
        return TorusChar(c)

    def _word_length_rule(self, c):
        return sum(abs(m) for m in c)

    def dims_at(self, c):
        return np.ones(len(c), dtype=np.int64)

    def _step_mask(self, arr, lo, s, ax):
        # a pure translation: the window moves and the mask is not copied
        lo = list(lo)
        for i, m in enumerate(s.mu):
            lo[ax + i] += m
        return arr, tuple(lo)

    def identity(self):
        return np.zeros(self.n)

    def random_point(self, rng):
        return rng.uniform(0.0, 2.0 * np.pi, size=self.n)

    def point_mul(self, s, t):
        return np.mod(np.asarray(s) + np.asarray(t), 2.0 * np.pi)

    def point_inv(self, s):
        return np.mod(-np.asarray(s), 2.0 * np.pi)

    def reps(self, labels, points):
        self._check(*labels)
        if points and isinstance(points[0], TorusSpectrumPoint):
            vals = [[math.prod(z**m for z, m in zip(p.z, a.mu)) for p in points] for a in labels]
        else:  # one float dot product per point: a batched P @ mu differs in the last bits
            vals = [np.exp(1j * np.array([float(np.dot(a.mu, p)) for p in points])) for a in labels]
        return [np.array(v, dtype=complex).reshape(-1, 1, 1) for v in vals]

    def conj_intertwiner(self, a):
        self._check(a)
        return self.conjugate(a), np.ones((1, 1), dtype=complex)

    def _haar_points(self, degree):
        m = degree + 1
        axis = 2.0 * np.pi * np.arange(m) / m
        return [np.array(p) for p in itertools.product(axis, repeat=self.n)]

    def _haar_weights(self, degree):
        m = degree + 1
        return np.full(m**self.n, 1.0 / m**self.n)

    def _build_intertwiners(self, a, b):
        (sigma, _), = self.fuse(a, b)
        return IntertwinerSet(a, b, ((sigma, (np.ones((1, 1), dtype=complex),)),))


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

class Su2Dual(GroupDual):
    family = "su2"

    @property
    def trivial(self):
        return Su2Spin(0)

    def contains(self, a):
        return isinstance(a, Su2Spin)

    def dim(self, a):
        self._check(a)
        return a.n + 1

    def conjugate(self, a):
        self._check(a)
        return a

    def generators(self):
        return (Su2Spin(1),)

    def lie_dim(self):
        return 3

    def _fuse(self, a, b):
        lo, hi = abs(a.n - b.n), a.n + b.n
        return [(Su2Spin(k), 1) for k in range(lo, hi + 1, 2)]

    def coords(self, a):
        return (a.n,)

    def label_at(self, c):
        return Su2Spin(c[0])

    def _word_length_rule(self, c):
        return c[0]

    def dims_at(self, c):
        return c[:, 0] + 1

    def _step_mask(self, arr, lo, s, ax):
        # a (x) s holds a + d for d = -s, -s+2, ..., s where a + d >= |a - s|,
        # that is where 2a >= s - d (Clebsch-Gordan)
        n = s.n
        if n == 0:
            return arr, lo
        l, size = lo[ax], arr.shape[ax]
        new_l = max(0, l - n)
        shape = list(arr.shape)
        shape[ax] = l + size + n - new_l
        out = np.zeros(shape, dtype=bool)
        for d in range(-n, n + 1, 2):
            i0 = max(0, (n - d) // 2 - l)
            if i0 < size:
                off = l + d - new_l
                out[_axis(ax, i0 + off, size + off)] |= arr[_axis(ax, i0, size)]
        return out, lo[:ax] + (new_l,) + lo[ax + 1:]

    def identity(self):
        return np.eye(2, dtype=complex)

    def random_point(self, rng):
        alpha, gamma = rng.uniform(0.0, 4.0 * np.pi, size=2)
        beta = math.acos(rng.uniform(-1.0, 1.0))
        return su2_euler_point(alpha, beta, gamma)

    def point_mul(self, s, t):
        return np.asarray(s) @ np.asarray(t)

    def point_inv(self, s):
        return np.asarray(s).conj().T

    def reps(self, labels, points):
        # one recursion up to the largest spin; its level n does not depend on where it stops
        self._check(*labels)
        n_max = max((a.n for a in labels), default=0)
        if points and isinstance(points[0], Su2SpectrumPoint):
            with np.errstate(over="ignore", invalid="ignore"):  # the entries grow like |g|^n
                stack = su2_irrep_stack(n_max, np.stack([p.matrix() for p in points]))
            if not np.isfinite(stack[-1]).all():
                n = next(n for n, level in enumerate(stack) if not np.isfinite(level).all())
                raise OverflowError(f"the spin-{n} irrep overflows at a spectrum point")
        else:
            stack = su2_irrep_stack(n_max, np.stack(points))
        return [stack[a.n] for a in labels]

    def conj_intertwiner(self, a):
        self._check(a)
        # conj(g) = eps g eps^{-1} in SU(2); entries of the irrep are real
        # polynomials in the entries of g, so the relation lifts verbatim.
        return a, su2_irrep(a.n, _EPS_FLIP).real.astype(complex)

    def _haar_points(self, degree):
        # su2_euler_point broadcast over the (alpha, beta, gamma) axes; entries
        # may differ from the scalar products in the last bit
        k, betas, _ = _su2_grid_axes(degree)
        axis = 4.0 * np.pi * np.arange(k) / k
        a_m, a_p = np.exp(-0.5j * axis)[:, None, None], np.exp(0.5j * axis)[:, None, None]
        g_m, g_p = a_m.reshape(1, 1, k), a_p.reshape(1, 1, k)
        cb, sb = np.cos(betas / 2.0)[:, None], np.sin(betas / 2.0)[:, None]
        pts = np.empty((k, len(betas), k, 2, 2), dtype=complex)
        pts[..., 0, 0] = a_m * cb * g_m
        pts[..., 0, 1] = -a_m * sb * g_p
        pts[..., 1, 0] = a_p * sb * g_m
        pts[..., 1, 1] = a_p * cb * g_p
        return list(pts.reshape(-1, 2, 2))

    def _haar_weights(self, degree):
        k, betas, ws = _su2_grid_axes(degree)
        return np.repeat(np.tile(ws / (2.0 * k * k), k), k)

    def haar_values(self, grid, coeffs):
        # (n+1) M^T o d_n(beta) at the folded frequencies, then one FFT over both circle axes
        self._check(*coeffs)
        k, d = _su2_euler_data(grid, max((a.n for a in coeffs), default=0))
        spec = np.zeros((len(d[0]), k, k), dtype=complex)
        for a, M in coeffs.items():
            f = _su2_freqs(a.n, k)
            np.add.at(spec, (slice(None), f[:, None], f), (a.n + 1) * M.T * d[a.n])
        return np.fft.fft2(spec).transpose(1, 0, 2).ravel()

    def haar_coefficients(self, grid, wf, labels):
        # F = unscaled inverse FFT over both circle axes per beta, then
        # u^(n)[i, j] = sum_beta d_n(beta)[j, i] F[beta, (n-2j) mod k, (n-2i) mod k]
        self._check(*labels)
        k, d = _su2_euler_data(grid, max((a.n for a in labels), default=0))
        spec = np.fft.ifft2(wf.reshape(k, len(d[0]), k), axes=(0, 2), norm="forward").transpose(1, 0, 2)
        out = {}
        for a in labels:
            f = _su2_freqs(a.n, k)
            out[a] = np.einsum("bji,bji->ij", d[a.n], spec[:, f[:, None], f])
        return out

    def _build_intertwiners(self, a, b):
        isos = _su2_cg_pair(a.n, b.n)
        blocks = [(sigma, (isos[sigma.n],)) for sigma, _ in self.fuse(a, b)]
        return IntertwinerSet(a, b, tuple(blocks))


def _jplus(j: float, m: float) -> float:
    return math.sqrt(max(j * (j + 1) - m * (m + 1), 0.0))


def _su2_cg_top(n1: int, n2: int, n: int) -> np.ndarray:
    """Highest-weight vector of the spin-n/2 component of n1 (x) n2, as a
    (d1, d2) array over the factors' weight indices.

    Phase fixed so the coefficient at maximal first-factor exponent is real
    positive (Condon-Shortley style).
    """
    j1, j2, j = n1 / 2.0, n2 / 2.0, n / 2.0
    # coefficients over first-factor exponents m1, with m2 = j - m1
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
    top = np.zeros((n1 + 1, n2 + 1))
    for i in range(count):
        m1 = m1_hi - i
        top[int(round(j1 - m1)), int(round(j2 - (j - m1)))] = coeff[i]
    return top


def _su2_cg_pair(n1: int, n2: int) -> dict:
    """Clebsch-Gordan isometries onto every component of n1 (x) n2, keyed by
    the component's spin index n.

    Each isometry has the component's highest-weight vector (:func:`_su2_cg_top`)
    as its first column and the lowered vector J_- v / J_-(m) as each next one.
    All components are lowered together, highest spin first; a component drops
    out of the stack once its columns are done.  An entry of J_- v is the
    first-factor term plus the second-factor term, added in that order.
    """
    j1, j2 = n1 / 2.0, n2 / 2.0
    d1, d2 = n1 + 1, n2 + 1
    spins = range(n1 + n2, abs(n1 - n2) - 1, -2)
    a1 = np.array([_jplus(j1, j1 - k - 1) for k in range(n1)])[:, None]
    a2 = np.array([_jplus(j2, j2 - k - 1) for k in range(n2)])
    vec = np.stack([_su2_cg_top(n1, n2, n) for n in spins])  # (components, d1, d2)
    out = {n: np.zeros((d1 * d2, n + 1), dtype=complex) for n in spins}
    for col in range(n1 + n2 + 1):
        for n, v in zip(spins, vec):  # vec holds the components with a column col
            out[n][:, col] = v.ravel()
        live = [n for n in spins if n > col]
        vec = vec[: len(live)]
        nxt = np.zeros_like(vec)
        nxt[:, 1:, :] = vec[:, :-1, :] * a1
        nxt[:, :, 1:] += vec[:, :, :-1] * a2
        vec = nxt / np.array([_jplus(n / 2.0, n / 2.0 - col - 1) for n in live])[:, None, None]
    for n, V in out.items():
        if not np.allclose(V.conj().T @ V, np.eye(n + 1), atol=1e-10):
            raise IntertwinerSynthesisError(f"CG isometry residual too large for ({n1},{n2})->{n}")
    return out


# ---------------------------------------------------------------------------
# SO(3) = SU(2) / center; labels are the even spins
# ---------------------------------------------------------------------------

class So3Dual(Su2Dual):
    family = "so3"

    def contains(self, a):
        return isinstance(a, Su2Spin) and a.n % 2 == 0

    def generators(self):
        return (Su2Spin(2),)

    def _word_length_rule(self, c):
        return c[0] // 2


# ---------------------------------------------------------------------------
# circle-with-flip group T x| Z2
# ---------------------------------------------------------------------------

class SemidirectDual(GroupDual):
    """Dual of the semidirect product of the circle by the inversion flip.

    Fusion is forced by character arithmetic: the two-dimensional characters
    vanish on flipped elements, so pi_m (x) pi_m = pi_{2m} + triv + sgn.
    """

    family = "txz2"

    @property
    def trivial(self):
        return SemidirectLabel("triv")

    def contains(self, a):
        return isinstance(a, SemidirectLabel)

    def dim(self, a):
        self._check(a)
        return 2 if a.kind == "pi" else 1

    def conjugate(self, a):
        self._check(a)
        return a

    def generators(self):
        return (SemidirectLabel("pi", 1),)

    def lie_dim(self):
        return 1

    def _fuse(self, a, b):
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

    def coords(self, a):
        return ({"triv": 0, "sgn": 1}.get(a.kind, a.m + 1),)

    def label_at(self, c):
        i = c[0]
        if i < 0:
            raise ValueError(f"no circle-with-flip label at coordinate {i}")
        if i < 2:
            return SemidirectLabel(("triv", "sgn")[i])
        return SemidirectLabel("pi", i - 1)

    def _word_length_rule(self, c):
        i = c[0]  # triv 0 -> 0, sgn 1 -> 2, pi_m m + 1 -> m
        return (i < 2) * (i + 1) + i - 1

    def dims_at(self, c):
        return np.where(c[:, 0] < 2, 1, 2)

    def _step_mask(self, arr, lo, s, ax):
        # the fusion table in slices, on a window from index 0 (triv 0, sgn 1, pi_m at m + 1)
        if s.kind == "triv":
            return arr, lo
        m = s.m if s.kind == "pi" else 0
        lo0 = lo[:ax] + (0,) + lo[ax + 1:]
        shape = list(arr.shape)
        shape[ax] = max(2, lo[ax] + arr.shape[ax] + m + 1)
        A = _crop((arr, lo), lo0, shape)
        if s.kind == "sgn":  # swaps triv and sgn, fixes every pi_k
            A[_axis(ax, 0, 2)] = A[_axis(ax, 1, None, -1)].copy()
            return A, lo0
        at = lambda i: _axis(ax, i, i + 1)
        L = shape[ax]
        out = np.zeros(shape, dtype=bool)
        out[at(m + 1)] |= A[at(0)] | A[at(1)]  # triv, sgn -> pi_m
        out[_axis(ax, m + 2, L)] |= A[_axis(ax, 2, L - m)]  # pi_k -> pi_{k+m}
        out[_axis(ax, 2, L - m)] |= A[_axis(ax, m + 2, L)]  # pi_k -> pi_{k-m}, k > m
        out[_axis(ax, 2, m + 1)] |= A[_axis(ax, m, 1, -1)]  # pi_k -> pi_{m-k}, k < m
        out[at(0)] |= A[at(m + 1)]  # pi_m -> triv + sgn
        out[at(1)] |= A[at(m + 1)]
        return out, lo0

    def identity(self):
        return SemidirectPoint(0.0, False)

    def random_point(self, rng):
        return SemidirectPoint(float(rng.uniform(0.0, 2.0 * np.pi)), bool(rng.integers(2)))

    def point_mul(self, s, t):
        theta = s.theta + (-t.theta if s.flip else t.theta)
        return SemidirectPoint(theta % (2.0 * np.pi), s.flip != t.flip)

    def point_inv(self, s):
        return SemidirectPoint(s.theta if s.flip else (-s.theta) % (2.0 * np.pi), s.flip)

    def reps(self, labels, points):
        # spectrum point (z, flip): the group point (arg z, flip) times diag(|z|^m, |z|^-m) on pi_m
        self._check(*labels)
        spectral = bool(points) and isinstance(points[0], SemidirectSpectrumPoint)
        theta = np.array([float(np.angle(p.z)) if spectral else p.theta for p in points], float)
        flip = np.array([p.flip for p in points], dtype=bool)
        out = []
        for a in labels:
            if a.kind != "pi":
                sign = np.where(flip & (a.kind == "sgn"), -1.0, 1.0)
                out.append(sign.astype(complex).reshape(-1, 1, 1))
                continue
            z = np.exp(1j * (a.m * theta))
            M = np.zeros((len(points), 2, 2), dtype=complex)
            M[:, 0, 0], M[:, 1, 1] = z, np.conj(z)
            M[flip] = M[flip] @ _SWAP2
            if spectral:
                positive = np.array([[abs(p.z) ** a.m, abs(p.z) ** -a.m] for p in points])
                M = M @ (np.eye(2) * positive[:, None])
            out.append(M)
        return out

    def conj_intertwiner(self, a):
        self._check(a)
        if a.kind == "pi":
            return a, _SWAP2.copy()
        return a, np.ones((1, 1), dtype=complex)

    def _haar_points(self, degree):
        m = degree + 1
        return [SemidirectPoint(2.0 * np.pi * j / m, flip) for flip in (False, True) for j in range(m)]

    def _haar_weights(self, degree):
        m = degree + 1
        return np.full(2 * m, 0.5 / m)

    def _build_intertwiners(self, a, b):
        one = np.ones((1, 1), dtype=complex)
        sgn_twist = np.diag([1.0, -1.0]).astype(complex)
        ka, kb = a.kind, b.kind
        if ka != "pi" and kb != "pi":
            (sigma, _), = self.fuse(a, b)
            return IntertwinerSet(a, b, ((sigma, (one,)),))
        if ka != "pi" or kb != "pi":
            scalar_is_sgn = (a if ka != "pi" else b).kind == "sgn"
            (sigma, _), = self.fuse(a, b)
            V = sgn_twist if scalar_is_sgn else np.eye(2, dtype=complex)
            return IntertwinerSet(a, b, ((sigma, (V,)),))
        # pi_n (x) pi_m on basis (++, +-, -+, --) of weights n+m, n-m, m-n, -(n-m)
        top = np.zeros((4, 2), dtype=complex)
        top[0, 0] = 1.0
        top[3, 1] = 1.0
        blocks = [(SemidirectLabel("pi", a.m + b.m), (top,))]
        if a.m != b.m:
            mid = np.zeros((4, 2), dtype=complex)
            if a.m > b.m:
                mid[1, 0] = 1.0
                mid[2, 1] = 1.0
            else:
                mid[2, 0] = 1.0
                mid[1, 1] = 1.0
            blocks.append((SemidirectLabel("pi", abs(a.m - b.m)), (mid,)))
        else:
            plus = np.zeros((4, 1), dtype=complex)
            plus[1, 0] = plus[2, 0] = 1.0 / math.sqrt(2.0)
            minus = np.zeros((4, 1), dtype=complex)
            minus[1, 0] = 1.0 / math.sqrt(2.0)
            minus[2, 0] = -1.0 / math.sqrt(2.0)
            blocks.append((SemidirectLabel("triv"), (plus,)))
            blocks.append((SemidirectLabel("sgn"), (minus,)))
        blocks.sort(key=lambda p: label_key(p[0]))
        return IntertwinerSet(a, b, tuple(blocks))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class ProductDual(GroupDual):
    family = "product"

    def __init__(self, left: GroupDual, right: GroupDual):
        super().__init__()
        self.left = left
        self.right = right
        self.lattice_rank = left.lattice_rank + right.lattice_rank

    def _params(self):
        return (self.left, self.right)

    @property
    def trivial(self):
        return ProductLabel(self.left.trivial, self.right.trivial)

    def contains(self, a):
        return (
            isinstance(a, ProductLabel)
            and self.left.contains(a.left)
            and self.right.contains(a.right)
        )

    def dim(self, a):
        self._check(a)
        return self.left.dim(a.left) * self.right.dim(a.right)

    def conjugate(self, a):
        self._check(a)
        return ProductLabel(self.left.conjugate(a.left), self.right.conjugate(a.right))

    def generators(self):
        lt, rt = self.left.trivial, self.right.trivial
        out = [ProductLabel(s, rt) for s in self.left.generators()]
        out += [ProductLabel(lt, s) for s in self.right.generators()]
        return tuple(out)

    def lie_dim(self):
        return self.left.lie_dim() + self.right.lie_dim()

    def _fuse(self, a, b):
        out = []
        for sl, ml in self.left.fuse(a.left, b.left):
            for sr, mr in self.right.fuse(a.right, b.right):
                out.append((ProductLabel(sl, sr), ml * mr))
        return out

    def coords(self, a):
        return tuple(self.left.coords(a.left)) + tuple(self.right.coords(a.right))

    def label_at(self, c):
        r = self.left.lattice_rank
        return ProductLabel(self.left.label_at(c[:r]), self.right.label_at(c[r:]))

    def _word_length_rule(self, c):
        r = self.left.lattice_rank
        return self.left._word_length_rule(c[:r]) + self.right._word_length_rule(c[r:])

    def dims_at(self, c):
        r = self.left.lattice_rank
        return self.left.dims_at(c[:, :r]) * self.right.dims_at(c[:, r:])

    def _step_mask(self, arr, lo, s, ax):
        # each factor's rule along its own axes
        arr, lo = self.left._step_mask(arr, lo, s.left, ax)
        return self.right._step_mask(arr, lo, s.right, ax + self.left.lattice_rank)

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def random_point(self, rng):
        return (self.left.random_point(rng), self.right.random_point(rng))

    def point_mul(self, s, t):
        return (self.left.point_mul(s[0], t[0]), self.right.point_mul(s[1], t[1]))

    def point_inv(self, s):
        return (self.left.point_inv(s[0]), self.right.point_inv(s[1]))

    def reps(self, labels, points):
        # Kronecker products of the factors' stacks, one multiplication per entry as in np.kron
        self._check(*labels)
        pairs = [(p.left, p.right) if isinstance(p, ProductSpectrumPoint) else p for p in points]
        sides = []
        for dual, part, i in ((self.left, "left", 0), (self.right, "right", 1)):
            keys = list(dict.fromkeys(getattr(a, part) for a in labels))
            sides.append(dict(zip(keys, dual.reps(keys, [p[i] for p in pairs]))))
        out = []
        for a in labels:
            L, R, d = sides[0][a.left], sides[1][a.right], self.dim(a)
            out.append((L[:, :, None, :, None] * R[:, None, :, None, :]).reshape(-1, d, d))
        return out

    def conj_intertwiner(self, a):
        self._check(a)
        cl, Jl = self.left.conj_intertwiner(a.left)
        cr, Jr = self.right.conj_intertwiner(a.right)
        return ProductLabel(cl, cr), np.kron(Jl, Jr)

    def _haar_points(self, degree):
        rp = self.right._haar_points(degree)
        return [(p, q) for p in self.left._haar_points(degree) for q in rp]

    def _haar_weights(self, degree):
        return np.outer(self.left._haar_weights(degree), self.right._haar_weights(degree)).ravel()

    def _build_intertwiners(self, a, b):
        iwl = self.left.intertwiners(a.left, b.left)
        iwr = self.right.intertwiners(a.right, b.right)
        da1, da2 = self.left.dim(a.left), self.right.dim(a.right)
        db1, db2 = self.left.dim(b.left), self.right.dim(b.right)
        blocks = []
        for sl, Vls in iwl:
            for sr, Vrs in iwr:
                sigma = ProductLabel(sl, sr)
                vs = []
                for Vl in Vls:
                    for Vr in Vrs:
                        W = np.kron(Vl, Vr)  # (da1 db1 da2 db2, ds1 ds2)
                        W = W.reshape(da1, db1, da2, db2, -1)
                        W = W.transpose(0, 2, 1, 3, 4).reshape(da1 * da2 * db1 * db2, -1)
                        vs.append(W)
                blocks.append((sigma, tuple(vs)))
        blocks.sort(key=lambda p: label_key(p[0]))
        return IntertwinerSet(a, b, tuple(blocks))


# ---------------------------------------------------------------------------
# branching and quotient lifts
# ---------------------------------------------------------------------------

def branch_su2_to_torus(a: Su2Spin) -> tuple[tuple[TorusChar, int], ...]:
    """Restriction of the SU(2) irrep to the diagonal torus: exponents n-2j."""
    if not isinstance(a, Su2Spin):
        raise UnsupportedBranchingError(f"unsupported branching for {a!r}")
    return tuple((TorusChar((a.n - 2 * j,)), 1) for j in range(a.n + 1))


def so3_lift(m: int) -> Su2Spin:
    """SO(3) label m pulled back through the double cover: the spin-2m irrep."""
    if m < 0:
        raise ValueError("SO(3) label must be >= 0")
    return Su2Spin(2 * m)


# ---------------------------------------------------------------------------
# group tokens
# ---------------------------------------------------------------------------

def group_token(dual: GroupDual) -> str:
    if isinstance(dual, TorusDual):
        return f"torus:{dual.n}"
    if isinstance(dual, So3Dual):
        return "so3"
    if isinstance(dual, Su2Dual):
        return "su2"
    if isinstance(dual, SemidirectDual):
        return "txz2"
    if isinstance(dual, ProductDual):
        return f"prod({group_token(dual.left)},{group_token(dual.right)})"
    raise FamilyMismatchError(f"unknown dual {dual!r}")


def parse_group(token: str) -> GroupDual:
    token = token.strip()
    if token == "su2":
        return Su2Dual()
    if token == "so3":
        return So3Dual()
    if token == "txz2":
        return SemidirectDual()
    if token.startswith("torus:"):
        return TorusDual(int(token.split(":", 1)[1]))
    if token.startswith("prod(") and token.endswith(")"):
        parts = split_top(token[5:-1], ",")
        if len(parts) != 2:
            raise ValueError(f"bad product group {token!r}")
        return ProductDual(*(parse_group(p) for p in parts))
    raise ValueError(f"unknown group {token!r}")
