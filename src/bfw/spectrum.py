"""The Gelfand spectrum of a weighted Fourier algebra.

Multiplicative functionals live inside the complexified group; every element
factors as (group point) x (positive part), and membership depends only on
the positive part through the sup over labels of operator norm divided by
weight.  Group-specific parametrizations (finite coordinates only), with the
operator norm of an irrep there in closed form:

* torus: a nonzero complex number z_j per axis; |z^mu| = e^{mu . log|z|};
* SU(2): a group point times diag(lam, 1/lam), lam >= 1 canonical (points
  with lam < 1 are replaced by their conjugate under the Weyl flip, which
  has identical margins); spin n has norm lam^n, and so on SO(3);
* circle-with-flip: a nonzero complex number z plus the flip bit; pi_m has
  norm e^{m |log|z||}, triv and sgn norm 1;
* products: the product of the factors' norms; group points: norm 1.

Margins are taken from these in log space over lattice coordinates
(:func:`bfw.fields.point_margin`), so only a margin past the largest float
overflows; building the irreps at the point and taking their SVDs is the
test oracle.  A truncated scan certifies non-membership when the margin
exceeds 1; a margin <= 1 at the cutoff is evidence only, and results carry
the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import (
    GroupDual,
    ProductDual,
    ProductSpectrumPoint,
    SemidirectDual,
    SemidirectSpectrumPoint,
    Su2Dual,
    Su2SpectrumPoint,
    TorusDual,
    TorusSpectrumPoint,
)
from .errors import FamilyMismatchError
from .fields import OperatorField, evaluate, point_margin
from .labels import IrrepLabel, format_label
from .weights import EPS_CLASS, Weight, _power_logs

__all__ = [
    "TorusSpectrumPoint",
    "Su2SpectrumPoint",
    "SemidirectSpectrumPoint",
    "ProductSpectrumPoint",
    "SpectrumDescription",
    "MembershipResult",
    "point_to_spectrum",
    "spectrum_point_inv",
    "membership",
    "spectrum_bounds",
    "char_eval",
    "analytic_eval",
    "conj_rep_residual",
    "strip_bracket",
]


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
    exact matrices of the inverse are needed, use :func:`_exact_inverse`.
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


def _exact_inverse(theta):
    """The true inverse of theta as a point ``dual.reps`` takes: on SU(2) the
    plain matrix, elsewhere :func:`spectrum_point_inv`, which is exact there."""
    if isinstance(theta, Su2SpectrumPoint):
        return np.linalg.inv(theta.matrix())
    if isinstance(theta, ProductSpectrumPoint):
        return ProductSpectrumPoint(_exact_inverse(theta.left), _exact_inverse(theta.right))
    return spectrum_point_inv(None, theta)


# ---------------------------------------------------------------------------
# membership and bounds
# ---------------------------------------------------------------------------

MEMBER_TOL = 1e-9  # a margin within this of 1 counts as a member


def membership(dual: GroupDual, theta, w: Weight, cutoff: int = 64) -> MembershipResult:
    """Margin sup_{labels <= cutoff} ||pi(theta)|| / w(pi) and the verdict.

    Boundary points (margin within MEMBER_TOL of 1) count as members.  A margin
    above 1 certifies non-membership; a margin below 1 is evidence bounded
    by the truncation.
    """
    best, arg = point_margin(dual, theta, w, cutoff)
    member = best <= 1.0 + MEMBER_TOL
    return MembershipResult(best, member, not member, cutoff, format_label(arg))


def spectrum_bounds(
    dual: GroupDual,
    w: Weight,
    n_max: int | None = None,
) -> SpectrumDescription:
    """Spectrum radii from growth certificates along the generators.

    ``n_max`` defaults to 4096 on tori and 2048 elsewhere.
    """
    if n_max is None:
        n_max = 4096 if isinstance(dual, TorusDual) else 2048
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    radii = {format_label(p): _power_logs(dual, w, p, n_max)[1] for p in dual.generators()}
    equals = all(abs(r - 1.0) <= EPS_CLASS for r in radii.values())
    return SpectrumDescription(dual.family, w.descriptor, n_max, radii, equals)


# ---------------------------------------------------------------------------
# evaluation at spectrum points
# ---------------------------------------------------------------------------

def char_eval(dual: GroupDual, theta, u: OperatorField) -> complex:
    """Value of the multiplicative functional theta on u: u evaluated at theta."""
    if dual != u.dual:
        raise FamilyMismatchError(f"a field on {u.dual!r} at a point of {dual!r}")
    return evaluate(u, theta)


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
    lhs = J @ dual.rep(abar, theta) @ J.conj().T
    rhs = dual.rep(a, _exact_inverse(theta)).T
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
    truncated membership test.  Each side tests at most about s_max / step
    exponents, so ``step`` must be finite and > 0 and ``s_max`` finite and >= 0.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"strip_bracket step must be finite and > 0, got {step}")
    if not (math.isfinite(s_max) and s_max >= 0):
        raise ValueError(f"strip_bracket s_max must be finite and >= 0, got {s_max}")

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
