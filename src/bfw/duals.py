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

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    FamilyMismatchError,
    IntertwinerSynthesisError,
    LabelCapError,
    UnsupportedBranchingError,
)
from .labels import (
    IrrepLabel,
    ProductLabel,
    SemidirectLabel,
    Su2Spin,
    TorusChar,
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
_BLOCK_ROWS = 1 << 18  # a translating product's reach table comes in blocks of this many rows

# ---------------------------------------------------------------------------
# coordinate rows
# ---------------------------------------------------------------------------
# Labels are read in bulk as the rows of (k, r) int64 arrays of their lattice
# coordinates (GroupDual.coords).  Each family states its ball
# (GroupDual.ball_coords) and its fusion rule (GroupDual.fusion_table) once on
# such rows.

def _runs(count: np.ndarray):
    """(run, offset) over runs of the lengths ``count`` laid end to end: the
    run index of each position and its offset within its run."""
    run = np.repeat(np.arange(len(count)), count)
    return run, np.arange(len(run)) - (np.cumsum(count) - count)[run]


def _pair_table(dual, a, b):
    """``dual.fusion_table`` of the one pair (a, b)."""
    return dual.fusion_table(*(np.array([dual.coords(x)], dtype=np.int64) for x in (a, b)))


def _support_sizes(first, p, n) -> np.ndarray:
    """The number of labels in the supports of steps 1..n of a reach table."""
    sizes = np.bincount(first, minlength=n + 1)[: n + 1]
    for r in range(p):  # a row stays in every p-th support from its first on
        sizes[r::p] = np.cumsum(sizes[r::p])
    return sizes[1:]


def _slots(c, first, p, k):
    """A reach table at the steps of the column k: a (len(k), A) mask of the
    slots each step's support fills, and the slots' coordinates and firsts.
    Slots are all rows in coordinate order (p >= 1), or per step its run of
    rows (p = 0), which (first, coords) order puts in coordinate order."""
    c, first = c[first <= k[-1]], first[first <= k[-1]]
    if p:
        order = np.lexsort(c.T[::-1])
        c, first = c[order], first[order]
        mask = (first <= k) & (first % p == k % p)
        return mask, np.broadcast_to(c, (len(k), *c.shape)), np.broadcast_to(first, mask.shape)
    count = np.bincount(first - k[0], minlength=len(k))[: len(k)]
    t = np.arange(count.max())
    at = np.minimum((np.cumsum(count) - count)[:, None] + t, len(c) - 1)
    return t < count[:, None], c[at], first[at]


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
    if n_max < 0:
        raise ValueError(f"a spin is an integer >= 0, got {n_max!r}")
    return list(itertools.islice(_su2_levels(np.asarray(gs, dtype=complex)), n_max + 1))


def _su2_levels(gs: np.ndarray):
    """The levels n = 0, 1, 2, ... of su2_irrep_stack at gs, without end, in
    the dtype of gs; level n is computed from level n-1 alone."""
    prev = np.ones(gs.shape[:1] + (1, 1), dtype=gs.dtype)
    for n in itertools.count(1):
        yield prev
        r = np.concatenate([np.arange(n, -1, -1), np.arange(n + 1)])  # rows and columns of P: n - j, then j
        P = np.sqrt(np.outer(r, r)) / n
        cur = np.zeros(gs.shape[:1] + (n + 1, n + 1), dtype=gs.dtype)
        cur[:, : n, : n] += P[: n, : n] * prev * gs[:, None, None, 0, 0]
        cur[:, : n, 1:] += P[: n, n + 2:] * prev * gs[:, None, None, 0, 1]
        cur[:, 1:, : n] += P[n + 2:, : n] * prev * gs[:, None, None, 1, 0]
        cur[:, 1:, 1:] += P[n + 2:, n + 2:] * prev * gs[:, None, None, 1, 1]
        prev = cur


def su2_algebra_rep(n: int, X: np.ndarray) -> np.ndarray:
    """Derived representation of a 2x2 algebra element on the n-th irrep."""
    if n < 0:
        raise ValueError(f"a spin is an integer >= 0, got {n!r}")
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
# Each transform walks the real recursion of su2_irrep_stack at the rot(beta_j/2)
# once, holding one level at a time; only the grid axes are cached, per degree.

@lru_cache(maxsize=16)
def _su2_grid_axes(degree: int):
    """(k, betas, Gauss-Legendre weights of the betas) of the degree-``degree``
    grid, read-only and computed once per degree."""
    k, q = degree + 1, (degree + 6) // 4
    xs, ws = np.polynomial.legendre.leggauss(q)
    betas = np.arccos(xs)
    betas.flags.writeable = ws.flags.writeable = False
    return k, betas, ws


def _su2_small_d(degree: int, spins):
    """(n, d_n) for the spins n in ``spins``, lowest first: d_n is the real array
    (q, n+1, n+1) of the irrep at rot(beta/2) for each middle angle beta of the
    degree-``degree`` grid, from one recursion that holds one level at a time."""
    _, betas, _ = _su2_grid_axes(degree)
    c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
    rots = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    for n, d in zip(range(max(spins, default=-1) + 1), _su2_levels(rots)):
        if n in spins:
            yield n, d


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
        if not all(map(cmath.isfinite, z)):
            raise ValueError(f"torus spectrum coordinates must be finite, got {z}")
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
        if not (math.isfinite(lam) and np.isfinite(s).all()):
            raise ValueError(f"an SU(2) spectrum point needs a finite s and lam, got lam = {lam}")
        # margins read only lam (Su2Dual.log_norms_at), which holds for unitary s
        if s.shape != (2, 2) or np.abs(s @ s.conj().T - np.eye(2)).max() > 1e-9:
            raise ValueError("an SU(2) spectrum point needs a unitary 2 x 2 s")
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
        if not cmath.isfinite(complex(self.z)):
            raise ValueError(f"spectrum coordinate must be finite, got {self.z}")
        if complex(self.z) == 0:
            raise ValueError("spectrum coordinate must be nonzero")
        object.__setattr__(self, "z", complex(self.z))


@dataclass(frozen=True)
class ProductSpectrumPoint:
    left: object
    right: object


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class GroupDual:
    family = "?"

    def __init__(self):
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

    def _check(self, *labels):
        for a in labels:
            if not self.contains(a):
                raise FamilyMismatchError(f"{a!r} does not belong to {self!r}")

    def fuse(self, a: IrrepLabel, b: IrrepLabel) -> tuple[tuple[IrrepLabel, int], ...]:
        """Decomposition of a (x) b as a sorted multiset of (label, multiplicity):
        the rows of :meth:`fusion_table` of the one pair (a, b), as labels."""
        self._check(a, b)
        _, sigma, mult = _pair_table(self, a, b)
        return tuple(zip(map(self.label_at, sigma.tolist()), mult.tolist()))

    def fusion_table(self, ca: np.ndarray, cb: np.ndarray):
        """The family's fusion rule, the one statement of it in the library:
        for the row-aligned pairs (ca[i], cb[i]) of two (k, r) int64 arrays,
        the int64 arrays (pair index i, sigma coordinates, multiplicity), one
        row per component sigma of a (x) b, in pair order and within a pair in
        label_key order.  ``tests/fuse_oracle.py`` keeps each family's rule
        label by label as its reference."""
        raise NotImplementedError

    # --- word length machinery --------------------------------------------
    def support_step(self, supp: frozenset, S) -> frozenset:
        """One tensor-power step on a frozenset of labels, through ``fuse``
        (one pair of :meth:`fusion_table` at a time).

        The library reads tensor-power supports in closed form
        (:meth:`reach_table`) and balls as coordinate rows
        (:meth:`ball_coords`).  Their reference is the same step walked from
        the trivial label through the per-label rules of
        ``tests/fuse_oracle.py`` (``tests/walk_oracle.py``), which reads no
        fusion table.
        """
        out = set()
        for a in supp:
            for s in S:
                out.update(sigma for sigma, _ in self.fuse(a, s))
        return frozenset(out)

    def word_length(self, a: IrrepLabel) -> int:
        """Minimal k with a inside a k-fold product of the default generators;
        the trivial label has length 0.  This is the family's rule on
        ``coords(a)``, which the tests hold to the walk over the generators."""
        self._check(a)
        return self._word_length_rule(self.coords(a))

    def ball(self, radius: int) -> tuple[IrrepLabel, ...]:
        """All labels of word length <= radius, in label_key order: the labels
        at the rows of :meth:`ball_coords`."""
        return tuple(map(self.label_at, self.ball_coords(radius).tolist()))

    def ball_coords(self, radius: int) -> np.ndarray:
        """The coordinates of ball(radius) as a (k, r) int64 array, one row per
        label, in label_key order.

        They are the rows of a box of coordinates that the family contains
        (:meth:`contains_at`) and whose :meth:`word_lengths_at` is at most
        radius, sorted by one lexsort over :meth:`_key_columns`.  The box holds
        what radius steps from the trivial label reach when a step moves each
        coordinate at most as far as some generator lies from the trivial label.
        """
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        triv = np.array(self.coords(self.trivial), dtype=np.int64)
        off = np.array([self.coords(s) for s in self.generators()], dtype=np.int64) - triv
        lo = triv + radius * np.minimum(off.min(axis=0), 0)
        hi = triv + radius * np.maximum(off.max(axis=0), 0)
        box = np.indices(tuple((hi - lo + 1).tolist())).reshape(len(lo), -1).T + lo
        c = box[(self.word_lengths_at(box) <= radius) & self.contains_at(box)]
        return c[np.lexsort(self._key_columns(c)[::-1])]

    def contains_at(self, c: np.ndarray) -> np.ndarray:
        """Whether the family has a label at each row of the (k, r) int64
        coordinate array c (:meth:`contains` on coordinates)."""
        return np.ones(len(c), dtype=bool)

    def _key_columns(self, c: np.ndarray) -> tuple[np.ndarray, ...]:
        """Columns over the rows of c whose lexicographic order is the
        label_key order of the labels at them, most significant first."""
        return tuple(c.T)

    # --- integer-lattice coordinates ----------------------------------------
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
        """Word lengths (:meth:`word_length`) of the labels at the rows of the
        (k, r) int64 coordinate array c."""
        return self._word_length_rule(tuple(c.T))

    def dims_at(self, c: np.ndarray) -> np.ndarray:
        """Dimensions of the labels at the rows of c."""
        raise NotImplementedError

    def reach_table(self, s: IrrepLabel, n: int, cap: int, lo: int):
        """The labels the powers s^(x)k reach, k = 1..n, in closed form: int64
        lattice coordinates (one row per label), the first k reaching each
        row, and a period p.  A row lies in the support of s^(x)k exactly when
        k >= first and p divides k - first, or k = first when p = 0 (s acts by
        a translation).  Rows are sorted by first, then by coordinates.  Rows
        first reached after step n may be present, and rows past the first
        support of more than ``cap`` labels may be left out.  A translating
        table (p = 0) holds the steps lo + 1 up to the first of its last row,
        each in full: up to n, or fewer when a product's rows pass
        ``_BLOCK_ROWS``.  The walk of :meth:`support_step` from the trivial
        label is the oracle of every table."""
        raise NotImplementedError

    def power_maxima(self, s: IrrepLabel, n: int, log_values, cap: int) -> list[float]:
        """max of the log weight over the support of the k-fold tensor power of s, k = 1..n.

        ``log_values`` maps a (k, r) int64 array of lattice coordinates to k
        floats (:meth:`bfw.weights.Weight.log_values`).  It is called once per
        reach table (:meth:`reach_table`), on the labels the steps reach, in
        first-reached order: once in all, unless the table translates (p = 0)
        and comes in blocks of steps.  Each maximum is taken over a float
        array of those values, so it is the float a max over the labels gives.
        Raises :class:`LabelCapError` at the first support of more than
        ``cap`` labels, after the values of the labels reached up to that step.
        """
        self._check(s)
        # each step's maximum over the rows it reaches first
        top, lo, p = np.full(max(n, 0) + 1, -np.inf), 0, 0
        while lo < n:
            coords, first, p = self.reach_table(s, n, cap, lo)
            sizes = _support_sizes(first, p, n)
            over = np.flatnonzero(sizes > cap)
            end = np.searchsorted(first, over[0] + 1 if over.size else n, "right")
            starts = np.flatnonzero(np.diff(first[:end], prepend=0))
            top[first[starts]] = np.maximum.reduceat(log_values(coords[:end]), starts)
            if over.size:
                raise LabelCapError(cap, int(sizes[over[0]]))
            lo = n if p else int(first[-1])
        for r in range(p):  # then the running maximum along each residue class mod p
            top[r::p] = np.maximum.accumulate(top[r::p])
        return top[1:].tolist()

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

    def log_norms_at(self, c: np.ndarray, theta) -> np.ndarray:
        """log ||pi_a(theta)|| (operator norm) at the labels at the rows of the
        (k, r) int64 coordinate array c.

        A spectrum point is theta = g p with g in the group and p positive, so
        ||pi_a(theta)|| = ||pi_a(p)|| is e to the largest weight of pi_a on
        log p, in closed form per family.  At a group point every value is 0.
        ``reps`` at theta, one spectral norm per label, is the oracle.
        """
        raise NotImplementedError

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
    def intertwiners(self, a: IrrepLabel, b: IrrepLabel) -> np.ndarray:
        """The unitary W of a (x) b: a read-only complex (d_a d_b, d_a d_b) matrix.

        Its columns are the components of a (x) b in the order of the pair's
        :meth:`fusion_table` rows.  A component sigma of multiplicity m takes
        m consecutive blocks of d_sigma columns, and each block is an isometry
        C^{d_sigma} -> C^{d_a d_b} onto one copy of sigma.
        """
        self._check(a, b)
        key = (a, b)
        hit = self._iw_cache.get(key)
        if hit is None:
            hit = self._build_intertwiners(a, b)
            hit.flags.writeable = False
            self._iw_cache[key] = hit
        return hit

    def _build_intertwiners(self, a, b) -> np.ndarray:
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

    def coords(self, a):
        return a.mu

    def label_at(self, c):
        return TorusChar(c)

    def _word_length_rule(self, c):
        return sum(abs(m) for m in c)

    def dims_at(self, c):
        return np.ones(len(c), dtype=np.int64)

    def _key_columns(self, c):
        return (np.abs(c).sum(axis=1), *c.T)  # |mu|_1, then mu

    def fusion_table(self, ca, cb):
        return np.arange(len(ca)), ca + cb, np.ones(len(ca), dtype=np.int64)

    def reach_table(self, s, n, cap, lo):
        mu = np.array(s.mu, dtype=np.int64)  # step k reaches k mu alone
        if not mu.any():
            return mu[None, :], np.ones(1, dtype=np.int64), 1
        k = np.arange(lo + 1, n + 1)
        return k[:, None] * mu, k, 0

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

    def log_norms_at(self, c, theta):
        # |z^mu| = e^{mu . log|z|}, added axis by axis as the exp weight adds its terms
        out = np.zeros(len(c))
        if isinstance(theta, TorusSpectrumPoint):
            for j, z in enumerate(theta.z):
                out = out + c[:, j] * math.log(abs(z))
        return out

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

    def fft_values(self, coeffs, m: int) -> np.ndarray:
        """sum_mu c_mu e^{i mu.theta} for the map ``coeffs`` of labels to (1, 1)
        blocks (c_mu), at the m uniform angles 2 pi j/m per axis: one inverse
        FFT of the c_mu placed at mu mod m.  Shape (m,) * rank, in point order."""
        idx = np.array([a.mu for a in coeffs], dtype=np.int64).reshape(-1, self.n) % m
        spec = np.zeros((m,) * self.n, dtype=complex)
        np.add.at(spec, tuple(idx.T), np.array([M[0, 0] for M in coeffs.values()], dtype=complex))
        return np.fft.ifftn(spec, norm="forward")

    def haar_values(self, grid, coeffs):
        self._check(*coeffs)
        return self.fft_values(coeffs, grid.degree + 1).ravel()

    def haar_coefficients(self, grid, wf, labels):
        # u^(mu) = sum_g wf_g e^{-i mu.theta_g}: one forward FFT, read at mu mod m
        self._check(*labels)
        m = grid.degree + 1
        idx = np.array([a.mu for a in labels], dtype=np.int64).reshape(-1, self.n) % m
        coef = np.fft.fftn(wf.reshape((m,) * self.n))[tuple(idx.T)]
        return dict(zip(labels, coef[:, None, None]))

    def _build_intertwiners(self, a, b):
        return np.ones((1, 1), dtype=complex)


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

    def coords(self, a):
        return (a.n,)

    def label_at(self, c):
        return Su2Spin(c[0])

    def _word_length_rule(self, c):
        return c[0]

    def dims_at(self, c):
        return c[:, 0] + 1

    def fusion_table(self, ca, cb):
        # a (x) b = |a - b|, |a - b| + 2, ..., a + b (Clebsch-Gordan)
        a, b = ca[:, 0], cb[:, 0]
        pair, j = _runs(np.minimum(a, b) + 1)
        return pair, (np.abs(a - b)[pair] + 2 * j)[:, None], np.ones(len(pair), dtype=np.int64)

    def reach_table(self, s, n, cap, lo):
        # step k >= 2 reaches every spin c <= k m with c = k m (mod 2), k m // 2 + 1
        # of them, step 1 m alone; the table ends at the first step over cap
        m = s.n
        n = min(n, max(2, -(-2 * cap // m))) if m else n
        c = np.arange(0, n * m + 1, 2 - m % 2)  # m even: odd spins are never reached
        first = np.maximum(2, -(-c // max(m, 1)))
        first += (first * m - c) % 2
        first[c == m] = 1
        order = np.argsort(first, kind="stable")
        return c[order, None], first[order], 1 + m % 2

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

    def log_norms_at(self, c, theta):
        # the top weight of spin n on log diag(lam, 1/lam) is n log lam
        if not isinstance(theta, Su2SpectrumPoint):
            return np.zeros(len(c))
        return c[:, 0] * math.log(theta.lam)

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
        # (n+1) M^T o d_n(beta) at the folded frequencies, then one FFT over both circle axes;
        # spins of one parity share frequency cells, so the sum runs in coeffs order
        self._check(*coeffs)
        k, betas, _ = _su2_grid_axes(grid.degree)
        d = dict(_su2_small_d(grid.degree, {a.n for a in coeffs}))
        spec = np.zeros((len(betas), k, k), dtype=complex)
        for a, M in coeffs.items():
            f = _su2_freqs(a.n, k)
            np.add.at(spec, (slice(None), f[:, None], f), (a.n + 1) * M.T * d[a.n])
        return np.fft.fft2(spec).transpose(1, 0, 2).ravel()

    def haar_coefficients(self, grid, wf, labels):
        # F = unscaled inverse FFT over both circle axes per beta, then
        # u^(n)[i, j] = sum_beta d_n(beta)[j, i] F[beta, (n-2j) mod k, (n-2i) mod k]
        self._check(*labels)
        k, betas, _ = _su2_grid_axes(grid.degree)
        spec = np.fft.ifft2(wf.reshape(k, len(betas), k), axes=(0, 2), norm="forward").transpose(1, 0, 2)
        out = {}
        for n, d in _su2_small_d(grid.degree, {a.n for a in labels}):
            f = _su2_freqs(n, k)
            out[n] = np.einsum("bji,bji->ij", d, spec[:, f[:, None], f])
        return {a: out[a.n] for a in labels}

    def _build_intertwiners(self, a, b):
        return _su2_cg_pair(a.n, b.n)


def _jplus(j, m):
    """J_+ coefficient sqrt(j(j+1) - m(m+1)); m may be an array of weights."""
    return np.sqrt(np.maximum(j * (j + 1) - m * (m + 1), 0.0))


def _su2_cg_pair(n1: int, n2: int) -> np.ndarray:
    """The Clebsch-Gordan unitary of n1 (x) n2: one block of n + 1 columns per
    component of spin index n, lowest spin first.

    Row i (n2 + 1) + j holds the factors' weight indices (i, j).  Column col of
    component k (spin index n1 + n2 - 2k) is nonzero only on the weight
    diagonal i + j = k + col, so the build holds it as one lane per first-factor
    index i, and one array of shape (components, n1 + 2) holds a step of all of
    them (each component's lanes follow one 0.0 lane).

    The highest-weight vectors of all components (column 0, lanes 0..k) come
    from one recursion over i run in lockstep, and each is normalised by the
    dot product of its exact-length coefficients.  The recursion starts at 1.0
    at maximal first-factor exponent, so that coefficient is real positive
    (Condon-Shortley style).  All components are then lowered together, highest
    spin first: an entry of J_- v is the first-factor term plus the
    second-factor term, added in that order, over the component's J_-(m).  A
    component's lanes go to zero once its columns are done.  W is filled by one
    scatter of the diagonals.

    Each block is checked on its own, highest spin first: every entry of
    |V^H V - I| must be at most 1e-10 + 1e-5 |I|.  A block's columns lie on
    distinct diagonals, so V^H V is diagonal and the check reads
    |v.v - 1| <= 1e-10 + 1e-5, with v.v summed over each column's lanes.
    """
    j1, j2, N = n1 / 2.0, n2 / 2.0, n1 + n2
    d1, D = n1 + 1, (n1 + 1) * (n2 + 1)
    K, P = min(n1, n2) + 1, n1 + 2  # components; lanes per component
    n = np.arange(N, abs(n1 - n2) - 1, -2)  # spin index of component k
    m = (N - 2 - np.arange(2 * N)) / 2.0  # m[N - s:N + s:2] = s/2 - 1 - t for t < s
    a1 = _jplus(j1, m[N - n1:N + n1:2])  # J_- from (i, j) to (i + 1, j)
    a2 = _jplus(j2, m[N - n2:N + n2:2])  # J_- from (i, j) to (i, j + 1)
    # div[k, col]: J_-(m) taking column col of component k to col + 1; inf once the component is done
    div = np.full((K, N), np.inf)
    for k in range(K):
        div[k, :N - 2 * k] = _jplus(N / 2.0 - k, m[2 * k:2 * N - 2 * k:2])

    lanes = np.zeros((N + 1, K, P))  # lanes[col, k, 1 + i]: column col of component k at (i, k + col - i)
    top = lanes[0, :, 1:K + 1]
    top[:, 0] = 1.0
    neg_a2 = -a2
    for i in range(K - 1):  # c[k, i + 1] = -c[k, i] a2[k - i - 1] / a1[i] for the components k > i
        c = top[i + 1:, i + 1]
        np.multiply(top[i + 1:, i], neg_a2[:K - 1 - i], out=c)
        c /= a1[i]
    top /= np.array([math.sqrt(float(np.dot(v, v))) for v in (r[:k + 1] for k, r in enumerate(top))])[:, None]

    # Step col takes lane (k, i) to lane (k, i - 1) times a1[i - 1] plus lane (k, i) times
    # a2[k + col - i], over div[k, col].  The first factor is 0.0 at i = 0, so 0.0 + y a2 is kept
    # there; the second is -0.0 at j = 0, against the 0.0 lane past the diagonal's end, so x a1
    # stays alone.  Lanes past either end of a diagonal and the leading lanes stay 0.0.
    col, k, t = np.arange(N)[:, None, None], np.arange(K)[:, None], np.arange(P)
    a2x = np.zeros(n1 + N + K + 1)  # a2x[n1 + 1 + s] = a2[s]
    a2x[n1] = -0.0
    a2x[n1 + 1:n1 + 1 + n2] = a2
    f1 = np.zeros((K, P))
    f1[:, 2:] = a1
    f2 = a2x[n1 + 2 + col + k - t]
    f2[..., 0] = 0.0
    f1, f2, f = f1.ravel()[1:], f2.reshape(N, K * P)[:, 1:], np.repeat(div.T, P, axis=1)[:, 1:]
    flat = lanes.reshape(N + 1, K * P)
    for x, y, nxt, y_f, nxt_f in zip(flat[:-1, :-1], flat[:-1, 1:], flat[1:, 1:], f2, f):
        np.multiply(x, f1, out=nxt)
        nxt += y * y_f
        nxt /= nxt_f

    col, i = np.arange(N + 1)[:, None, None], np.arange(d1)
    live = col <= n[:, None]  # column col of component k exists
    # v.v per column; a done component's columns are zero and compare with 0
    ok = np.abs(np.einsum("ckt,ckt->ck", lanes, lanes) - live[..., 0]) <= 1e-10 + 1e-5
    if not ok.all():
        bad = np.flatnonzero(~ok.all(axis=0))[0]
        raise IntertwinerSynthesisError(f"CG isometry residual too large for ({n1},{n2})->{n[bad]}")
    on = live & (i <= k + col) & (k + col - i <= n2)
    first = D - np.cumsum(n + 1)  # first column of each block; the highest spin's block is last
    W = np.zeros((D, D), dtype=complex)
    # offset of the real part of W[i n2 + k + col, first[k] + col] in the float view
    at = 2 * ((k + col) * D + first[:, None] + col) + 2 * D * n2 * i
    W.view(float).put(at[on], lanes[..., 1:][on])
    return W


# ---------------------------------------------------------------------------
# SO(3) = SU(2) / center; labels are the even spins
# ---------------------------------------------------------------------------

class So3Dual(Su2Dual):
    family = "so3"

    def contains(self, a):
        return isinstance(a, Su2Spin) and a.n % 2 == 0

    def generators(self):
        return (Su2Spin(2),)

    def contains_at(self, c):
        return c[:, 0] % 2 == 0

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

    def fusion_table(self, ca, cb):
        # on the coordinates (triv 0, sgn 1, pi_m at m + 1): triv and sgn multiply
        # as XOR, a scalar times pi_m is pi_m, and pi_m (x) pi_n = pi_|m-n| + pi_{m+n}
        # with pi_0 read as triv + sgn (coordinates 0, 1)
        a, b = ca[:, 0], cb[:, 0]
        both = (a > 1) & (b > 1)
        count = np.where(both, 2 + (a == b), 1)
        pair, j = _runs(count)
        a, b, both, hi = a[pair], b[pair], both[pair], np.maximum(a, b)[pair]
        low = np.where(both, np.where(a == b, 0, np.abs(a - b) + 1), np.where(hi > 1, hi, a ^ b))
        sigma = np.where(both & (j == count[pair] - 1), a + b - 1, low + j)
        return pair, sigma[:, None], np.ones(len(pair), dtype=np.int64)

    def reach_table(self, s, n, cap, lo):
        # pi_m^(x)k holds pi_{jm} (at jm + 1) for j = k, k - 2, ... >= 1, and
        # triv and sgn (at 0 and 1) when k is even; sgn^(x)k is sgn or triv
        if s.kind == "triv":
            return np.zeros((1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), 1
        if s.kind == "sgn":
            return np.array([[1], [0]], dtype=np.int64), np.array([1, 2], dtype=np.int64), 2
        j = np.arange(2, n + 1)
        return np.concatenate([[s.m + 1, 0, 1], j * s.m + 1])[:, None], np.concatenate([[1, 2, 2], j]), 2

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

    def log_norms_at(self, c, theta):
        # pi_m (coordinate m + 1) at |z| is diag(|z|^m, |z|^-m) up to a unitary; triv, sgn 1
        if not isinstance(theta, SemidirectSpectrumPoint):
            return np.zeros(len(c))
        return np.maximum(c[:, 0] - 1, 0) * abs(math.log(abs(theta.z)))

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
        if a.kind != "pi" and b.kind != "pi":
            return np.ones((1, 1), dtype=complex)
        if a.kind != "pi" or b.kind != "pi":
            # a scalar times pi_m is pi_m, twisted by diag(1, -1) when the scalar is sgn
            sign = -1.0 if "sgn" in (a.kind, b.kind) else 1.0
            return np.diag([1.0, sign]).astype(complex)
        # pi_n (x) pi_m on the basis (++, +-, -+, --) of weights n+m, n-m, m-n, -(n+m):
        # columns triv, sgn (n = m) or pi_|n-m|, then pi_{n+m}
        W = np.zeros((4, 4), dtype=complex)
        W[0, 2] = W[3, 3] = 1.0
        if a.m == b.m:
            r = 1.0 / math.sqrt(2.0)
            W[1, 0] = W[2, 0] = W[1, 1] = r
            W[2, 1] = -r
        elif a.m > b.m:
            W[1, 0] = W[2, 1] = 1.0
        else:
            W[2, 0] = W[1, 1] = 1.0
        return W


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

    def contains_at(self, c):
        r = self.left.lattice_rank
        return self.left.contains_at(c[:, :r]) & self.right.contains_at(c[:, r:])

    def _key_columns(self, c):
        r = self.left.lattice_rank
        return self.left._key_columns(c[:, :r]) + self.right._key_columns(c[:, r:])

    def fusion_table(self, ca, cb):
        # each pair's left rows times its right rows, left-major, as label_key orders them
        r = self.left.lattice_rank
        pl, sl, ml = self.left.fusion_table(ca[:, :r], cb[:, :r])
        pr, sr, mr = self.right.fusion_table(ca[:, r:], cb[:, r:])
        nr = np.bincount(pr, minlength=len(ca))
        il, j = _runs(nr[pl])  # each left row once per right row of its pair
        pair = pl[il]
        ir = (np.cumsum(nr) - nr)[pair] + j
        return pair, np.hstack([sl[il], sr[ir]]), ml[il] * mr[ir]

    def reach_table(self, s, n, cap, lo):
        # the support of a step is the product of the factors' supports
        cl, fl, pl = self.left.reach_table(s.left, n, cap, lo)
        cr, fr, pr = self.right.reach_table(s.right, n, cap, lo)
        sizes = _support_sizes(fl, pl, n) * _support_sizes(fr, pr, n)
        over = np.flatnonzero(sizes > cap)
        n = int(over[0]) + 1 if over.size else n
        if pl and pr:  # rows pair when their firsts agree mod gcd: key them by class
            g, p = math.gcd(pl, pr), math.lcm(pl, pr)
            k, ql, qr = np.arange(n - g + 1, n + 1)[:, None], g, g
        else:  # a translation: key the rows by the steps that reach them, in a block
            # of at most _BLOCK_ROWS rows (one step at least) within the factors' blocks
            n = min(n, *(int(f[-1]) for f, q in ((fl, pl), (fr, pr)) if not q))
            n = lo + max(1, int(np.searchsorted(np.cumsum(sizes[lo:n]), _BLOCK_ROWS, "right")))
            k, ql, qr, p = np.arange(lo + 1, n + 1)[:, None], pl, pr, 0
        (ml, cl, fl), (mr, cr, fr) = _slots(cl, fl, ql, k), _slots(cr, fr, qr, k)
        i, a, b = np.nonzero(ml[:, :, None] & mr[:, None, :])  # by key, then by coordinates
        coords = np.hstack([cl[i, a], cr[i, b]])
        if not p:
            return coords, k[i, 0], 0
        # the first step >= both firsts meeting both periods is within p - 1 steps
        a, b = fl[i, a], fr[i, b]
        first = np.maximum(a, b)
        for _ in range(p - 1):
            first += ((first - a) % pl != 0) | ((first - b) % pr != 0)
        order = np.argsort(first, kind="stable")
        return coords[order], first[order], p

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

    def log_norms_at(self, c, theta):
        # the norm of a Kronecker product is the product of the norms
        left, right = (theta.left, theta.right) if isinstance(theta, ProductSpectrumPoint) else theta
        r = self.left.lattice_rank
        return self.left.log_norms_at(c[:, :r], left) + self.right.log_norms_at(c[:, r:], right)

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
        Wl = self.left.intertwiners(a.left, b.left)
        Wr = self.right.intertwiners(a.right, b.right)
        da1, db1 = self.left.dim(a.left), self.left.dim(b.left)
        da2, db2 = self.right.dim(a.right), self.right.dim(b.right)
        # kron(Wl, Wr), one multiplication per entry as in np.kron, on axes
        # (a_l, a_r, b_l, b_r, left column, right column): the rows of
        # kron's order (a_l, b_l, a_r, b_r) reordered to (a_l, a_r, b_l, b_r)
        K = Wl.reshape(da1, 1, db1, 1, -1, 1) * Wr.reshape(1, da2, 1, db2, 1, -1)
        K = K.reshape(-1, Wl.shape[1], Wr.shape[1])
        # each (sigma_l, sigma_r) block made contiguous, left-major over the factors'
        # components as fusion_table orders them
        left = _copy_columns(self.left, a.left, b.left)
        right = _copy_columns(self.right, a.right, b.right)
        return np.concatenate([
            K[:, l, r].reshape(len(K), -1) for ls in left for rs in right for l in ls for r in rs
        ], axis=1)


def _copy_columns(dual: GroupDual, a, b) -> list:
    """The column slices of ``dual.intertwiners(a, b)`` per component of
    a (x) b, one list per row of the pair's fusion_table and in its order,
    one slice per copy."""
    _, sigma, mult = _pair_table(dual, a, b)
    out, col = [], 0
    for d, m in zip(dual.dims_at(sigma).tolist(), mult.tolist()):
        out.append([slice(col + i * d, col + (i + 1) * d) for i in range(m)])
        col += m * d
    return out


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
