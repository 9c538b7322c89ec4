"""The Gelfand spectrum of a weighted Fourier algebra.

Multiplicative functionals live inside the complexified group; every element
factors as (group point) x (positive part), and membership depends only on
the positive part through the sup over labels of operator norm divided by
weight.  Group-specific parametrizations:

* torus: a nonzero complex number per axis;
* SU(2): a group point times diag(lam, 1/lam), lam >= 1 canonical (points
  with lam < 1 are replaced by their conjugate under the Weyl flip, which
  has identical margins);
* circle-with-flip: a nonzero complex number plus the flip bit.

A truncated scan certifies non-membership when the margin exceeds 1; a
margin <= 1 at the cutoff is evidence only, and results carry the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import (
    GroupDual,
    ProductDual,
    SemidirectDual,
    SemidirectPoint,
    Su2Dual,
    TorusDual,
    su2_irrep,
    su2_irrep_stack,
)
from .errors import FamilyMismatchError
from .fields import OperatorField
from .labels import IrrepLabel, format_label
from .weights import EPS_CLASS, Weight, growth_rate

__all__ = [
    "TorusSpectrumPoint",
    "Su2SpectrumPoint",
    "SemidirectSpectrumPoint",
    "ProductSpectrumPoint",
    "SpectrumDescription",
    "MembershipResult",
    "rep_at",
    "point_to_spectrum",
    "spectrum_point_inv",
    "membership",
    "spectrum_bounds",
    "char_eval",
    "analytic_eval",
    "conj_rep_residual",
    "strip_bracket",
]

_WEYL_FLIP = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


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
            s = _WEYL_FLIP @ s @ _WEYL_FLIP.conj().T
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
class MembershipResult:
    margin: float
    member: bool
    certified: bool  # non-membership is certified; membership is evidence
    cutoff: int
    argmax: str


@dataclass(frozen=True)
class SpectrumDescription:
    family: str
    weight: str
    truncation: int
    radii: dict  # probe string -> outer radius along that probe
    equals_group: bool

    def annulus(self) -> tuple[float, float]:
        """Inner/outer radii for the rank-one and circle-with-flip cases."""
        if self.family == "torus":
            return (1.0 / self.radii["t:(-1)"], self.radii["t:(1)"])
        key = next(iter(self.radii))
        return (1.0 / self.radii[key], self.radii[key])

    def to_json(self):
        out = {
            "family": self.family,
            "weight": self.weight,
            "truncation": self.truncation,
            "radii": dict(self.radii),
            "equals_group": self.equals_group,
        }
        try:
            out["annulus"] = list(self.annulus())
        except KeyError:
            pass
        return out


# ---------------------------------------------------------------------------
# representations at spectrum points
# ---------------------------------------------------------------------------

def rep_at(dual: GroupDual, a: IrrepLabel, theta) -> np.ndarray:
    """Matrix of the irrep a at a spectrum point (or a plain group point)."""
    dual._check(a)
    if isinstance(dual, TorusDual):
        if isinstance(theta, TorusSpectrumPoint):
            val = math.prod(z**m for z, m in zip(theta.z, a.mu))
            return np.array([[val]], dtype=complex)
        return dual.rep(a, theta)
    if isinstance(dual, Su2Dual):
        if isinstance(theta, Su2SpectrumPoint):
            return su2_irrep(a.n, theta.matrix())
        return dual.rep(a, theta)
    if isinstance(dual, SemidirectDual):
        if isinstance(theta, SemidirectSpectrumPoint):
            lam = abs(theta.z)
            angle = float(np.angle(theta.z))
            base = dual.rep(a, SemidirectPoint(angle, theta.flip))
            if a.kind != "pi":
                return base
            return base @ np.diag([lam**a.m, lam**-a.m]).astype(complex)
        return dual.rep(a, theta)
    if isinstance(dual, ProductDual):
        if isinstance(theta, ProductSpectrumPoint):
            return np.kron(
                rep_at(dual.left, a.left, theta.left), rep_at(dual.right, a.right, theta.right)
            )
        return dual.rep(a, theta)
    raise FamilyMismatchError(f"unknown dual {dual!r}")


def _reps_at(dual: GroupDual, labels, theta) -> list[np.ndarray]:
    """rep_at at each label in turn; on SU(2) and SO(3) one irrep stack up to
    the largest spin gives them all (its level n is su2_irrep(n, .))."""
    labels = tuple(labels)
    if isinstance(dual, Su2Dual) and labels:
        dual._check(*labels)
        g = theta.matrix() if isinstance(theta, Su2SpectrumPoint) else theta
        stack = su2_irrep_stack(max(a.n for a in labels), np.asarray(g, dtype=complex)[None])
        return [stack[a.n][0] for a in labels]
    return [rep_at(dual, a, theta) for a in labels]


def point_to_spectrum(dual: GroupDual, s):
    """Embed a group point as a spectrum point with trivial positive part."""
    if isinstance(dual, TorusDual):
        return TorusSpectrumPoint(tuple(np.exp(1j * np.asarray(s))))
    if isinstance(dual, Su2Dual):
        return Su2SpectrumPoint(np.asarray(s, dtype=complex), 1.0)
    if isinstance(dual, SemidirectDual):
        return SemidirectSpectrumPoint(np.exp(1j * s.theta), s.flip)
    if isinstance(dual, ProductDual):
        return ProductSpectrumPoint(
            point_to_spectrum(dual.left, s[0]), point_to_spectrum(dual.right, s[1])
        )
    raise FamilyMismatchError(f"unknown dual {dual!r}")


def spectrum_point_inv(dual: GroupDual, theta):
    """Inverse spectrum point, in canonical form up to group conjugation.

    Membership margins and norms are conjugation invariant, so the returned
    point is interchangeable with the true inverse for those purposes.  Where
    exact matrices of the inverse are needed, use :func:`rep_at_inverse`.
    """
    if isinstance(theta, TorusSpectrumPoint):
        return TorusSpectrumPoint(tuple(1.0 / z for z in theta.z))
    if isinstance(theta, Su2SpectrumPoint):
        return _su2_polar_point(np.linalg.inv(theta.matrix()))
    if isinstance(theta, SemidirectSpectrumPoint):
        # flipped elements are involutions: (z,-1)(z,-1) = (z z^{-1}, 1) = e
        if theta.flip:
            return theta
        return SemidirectSpectrumPoint(1.0 / theta.z, False)
    if isinstance(theta, ProductSpectrumPoint):
        return ProductSpectrumPoint(
            spectrum_point_inv(dual.left, theta.left), spectrum_point_inv(dual.right, theta.right)
        )
    raise FamilyMismatchError(f"no spectrum inverse for {theta!r}")


def _su2_polar_point(M: np.ndarray) -> Su2SpectrumPoint:
    """Factor M in SL2(C) into the canonical (unitary) . diag(lam, 1/lam) form.

    Conjugating by the right singular vectors diagonalizes the positive polar
    part; the conjugated element has the same margins as M.
    """
    U, sv, Vh = np.linalg.svd(M)
    s = Vh @ U  # = V^* (U V^*) V, the unitary polar factor conjugated by V
    return Su2SpectrumPoint(s, float(sv[0]))


def rep_at_inverse(dual: GroupDual, a: IrrepLabel, theta) -> np.ndarray:
    """Exact matrix of the irrep a at the true inverse of theta."""
    if isinstance(theta, TorusSpectrumPoint):
        return rep_at(dual, a, TorusSpectrumPoint(tuple(1.0 / z for z in theta.z)))
    if isinstance(theta, Su2SpectrumPoint):
        return su2_irrep(a.n, np.linalg.inv(theta.matrix()))
    if isinstance(theta, SemidirectSpectrumPoint):
        return rep_at(dual, a, spectrum_point_inv(dual, theta))
    if isinstance(theta, ProductSpectrumPoint):
        return np.kron(
            rep_at_inverse(dual.left, a.left, theta.left),
            rep_at_inverse(dual.right, a.right, theta.right),
        )
    raise FamilyMismatchError(f"no inverse representation at {theta!r}")


# ---------------------------------------------------------------------------
# membership and bounds
# ---------------------------------------------------------------------------

def membership(dual: GroupDual, theta, w: Weight, cutoff: int = 64, tol: float = 1e-9) -> MembershipResult:
    """Margin sup_{labels <= cutoff} ||pi(theta)|| / w(pi) and the verdict.

    Boundary points (margin within tol of 1) count as members.  A margin
    above 1 certifies non-membership; a margin below 1 is evidence bounded
    by the truncation.
    """
    best, arg = 0.0, format_label(dual.trivial)
    labels = dual.ball(cutoff)
    for a, R in zip(labels, _reps_at(dual, labels, theta)):
        val = float(np.linalg.norm(R, 2)) / w(a)
        if val > best:
            best, arg = val, format_label(a)
    member = best <= 1.0 + tol
    return MembershipResult(best, member, not member, cutoff, arg)


def _probe_radius(dual, w, probe, n_max):
    cert = growth_rate(dual, w, probe, n_max)
    return cert.rho_slope


def spectrum_bounds(
    dual: GroupDual,
    w: Weight,
    n_max: int | None = None,
    probes=None,
    eps_class: float = EPS_CLASS,
) -> SpectrumDescription:
    """Spectrum radii from growth certificates along probe directions.

    ``n_max`` defaults to 4096 on tori and 2048 elsewhere.
    """
    if n_max is None:
        n_max = 4096 if isinstance(dual, TorusDual) else 2048
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    probes = tuple(probes) if probes is not None else dual.generators()
    radii = {format_label(p): _probe_radius(dual, w, p, n_max) for p in probes}
    equals = all(abs(r - 1.0) <= eps_class for r in radii.values())
    return SpectrumDescription(dual.family, w.descriptor, n_max, radii, equals)


# ---------------------------------------------------------------------------
# evaluation at spectrum points
# ---------------------------------------------------------------------------

def char_eval(dual: GroupDual, theta, u: OperatorField) -> complex:
    """Value of the multiplicative functional theta on u."""
    total = 0.0 + 0.0j
    for (a, M), R in zip(u.coeffs.items(), _reps_at(dual, u.coeffs, theta)):
        total += dual.dim(a) * complex(np.trace(M @ R))
    return total


def _positive_log_eigs(dual, a, theta):
    """log of the (diagonal) positive matrix pi_a(theta) for positive theta."""
    if isinstance(theta, TorusSpectrumPoint):
        if any(abs(z.imag) > 1e-12 or z.real <= 0 for z in theta.z):
            raise ValueError("analytic evaluation needs a positive spectrum point")
        return np.array([float(np.dot(a.mu, np.log([z.real for z in theta.z])))])
    if isinstance(theta, Su2SpectrumPoint):
        if not np.allclose(theta.s, np.eye(2), atol=1e-12):
            raise ValueError("analytic evaluation needs a positive spectrum point")
        k = np.arange(a.n + 1)
        return (a.n - 2 * k) * math.log(theta.lam)
    if isinstance(theta, SemidirectSpectrumPoint):
        if theta.flip or abs(theta.z.imag) > 1e-12 or theta.z.real <= 0:
            raise ValueError("analytic evaluation needs a positive spectrum point")
        if a.kind != "pi":
            return np.zeros(1)
        return np.array([a.m, -a.m]) * math.log(theta.z.real)
    raise FamilyMismatchError(f"no analytic evaluation at {theta!r}")


def analytic_eval(dual: GroupDual, u: OperatorField, theta, z: complex) -> complex:
    """u_theta(z) = sum d_pi Tr(u^(pi) pi(theta)^z) for positive theta."""
    total = 0.0 + 0.0j
    for a, M in u.coeffs.items():
        logs = _positive_log_eigs(dual, a, theta)
        total += dual.dim(a) * complex(np.sum(np.diag(M) * np.exp(z * logs)))
    return total


def conj_rep_residual(dual: GroupDual, theta, a: IrrepLabel) -> float:
    """|| conjugate-rep(theta) - rep(theta^{-1})^T || via the explicit conjugator."""
    abar, J = dual.conj_intertwiner(a)
    lhs = J @ rep_at(dual, abar, theta) @ J.conj().T
    rhs = rep_at_inverse(dual, a, theta).T
    return float(np.max(np.abs(lhs - rhs)))


def strip_bracket(
    dual: GroupDual,
    theta,
    w: Weight,
    cutoff: int = 64,
    s_max: float = 8.0,
    step: float = 0.25,
) -> tuple[float, float]:
    """Truncation-certified bracket of real exponents s with theta^s a member.

    Returns the widest [lo, hi] found on the step grid; outside exponents had
    margin > 1 at the cutoff (certified non-members), inside ones passed the
    truncated membership test.
    """
    def power(s):
        if isinstance(theta, Su2SpectrumPoint):
            return Su2SpectrumPoint(np.eye(2), theta.lam**s)
        if isinstance(theta, TorusSpectrumPoint):
            return TorusSpectrumPoint(tuple(abs(z) ** s for z in theta.z))
        if isinstance(theta, SemidirectSpectrumPoint):
            return SemidirectSpectrumPoint(abs(theta.z) ** s, False)
        raise FamilyMismatchError(f"no powers for {theta!r}")

    lo = hi = 0.0
    s = step
    while s <= s_max and membership(dual, power(s), w, cutoff).member:
        hi = s
        s += step
    s = -step
    while s >= -s_max and membership(dual, power(s), w, cutoff).member:
        lo = s
        s -= step
    return lo, hi
