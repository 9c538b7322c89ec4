"""Irreducible-representation labels for the supported group families.

Labels are immutable, structurally comparable, and carry a total order so
that multisets of labels always print and iterate in one canonical way.

Short string forms: torus ``t:(3,-2)``, SU(2) ``pi:3``, the circle-with-flip
group ``triv`` / ``sgn`` / ``pi:2``, products ``a×b``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FamilyMismatchError

__all__ = [
    "TorusChar",
    "Su2Spin",
    "SemidirectLabel",
    "ProductLabel",
    "IrrepLabel",
    "label_key",
    "format_label",
    "parse_label",
]


@dataclass(frozen=True)
class TorusChar:
    """Character index of T^n: an integer vector acting by exp(i mu.theta)."""

    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(int(m) for m in self.mu))


@dataclass(frozen=True)
class Su2Spin:
    """SU(2) irrep with highest torus exponent n (dimension n+1)."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"Su2Spin index must be >= 0, got {self.n}")


@dataclass(frozen=True)
class SemidirectLabel:
    """Irrep of the circle-with-flip group: trivial, sign, or 2-dim pi_m."""

    kind: str  # "triv" | "sgn" | "pi"
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("triv", "sgn", "pi"):
            raise ValueError(f"bad semidirect label kind {self.kind!r}")
        if self.kind == "pi" and self.m < 1:
            raise ValueError("two-dimensional labels need m >= 1")
        if self.kind != "pi" and self.m != 0:
            raise ValueError(f"{self.kind} label carries no index")


@dataclass(frozen=True)
class ProductLabel:
    """Outer tensor product of one label from each factor group."""

    left: "IrrepLabel"
    right: "IrrepLabel"


IrrepLabel = TorusChar | Su2Spin | SemidirectLabel | ProductLabel


def label_key(a: IrrepLabel):
    """Total-order sort key; mixes families deterministically."""
    if isinstance(a, TorusChar):
        return (0, sum(abs(m) for m in a.mu), a.mu)
    if isinstance(a, Su2Spin):
        return (1, a.n)
    if isinstance(a, SemidirectLabel):
        rank = {"triv": 0, "sgn": 1, "pi": 2}[a.kind]
        return (2, a.m, rank)
    if isinstance(a, ProductLabel):
        return (3, label_key(a.left), label_key(a.right))
    raise FamilyMismatchError(f"not a label: {a!r}")


def format_label(a: IrrepLabel) -> str:
    if isinstance(a, TorusChar):
        return "t:(" + ",".join(str(m) for m in a.mu) + ")"
    if isinstance(a, Su2Spin):
        return f"pi:{a.n}"
    if isinstance(a, SemidirectLabel):
        return f"pi:{a.m}" if a.kind == "pi" else a.kind
    if isinstance(a, ProductLabel):
        parts = []
        for side in (a.left, a.right):
            s = format_label(side)
            parts.append(f"({s})" if isinstance(side, ProductLabel) else s)
        return "×".join(parts)
    raise FamilyMismatchError(f"not a label: {a!r}")


_TORUS_RE = re.compile(r"^t:\((-?\d+(?:,-?\d+)*)\)$")
_PI_RE = re.compile(r"^pi:(\d+)$")


def split_top(s: str, sep: str) -> list[str]:
    """s cut at each sep outside parentheses: the parts of ``prod(a,b)``
    groups, of ``prod``/``pow`` recipes and of ``a×b`` labels."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return parts


def parse_label(dual, s: str) -> IrrepLabel:
    """Parse a short label string against the family of ``dual``."""
    from . import duals  # local import to avoid a cycle

    s = s.strip()
    if isinstance(dual, duals.ProductDual):
        parts = split_top(s, "×")
        if len(parts) != 2:
            raise ValueError(f"product label needs two ×-joined parts: {s!r}")
        lp, rp = (p[1:-1] if p.startswith("(") and p.endswith(")") else p for p in parts)
        return ProductLabel(parse_label(dual.left, lp), parse_label(dual.right, rp))
    if isinstance(dual, duals.TorusDual):
        m = _TORUS_RE.match(s)
        if not m:
            raise ValueError(f"bad torus label {s!r}")
        mu = tuple(int(x) for x in m.group(1).split(","))
        if len(mu) != dual.n:
            raise ValueError(f"torus label {s!r} has rank {len(mu)}, dual has {dual.n}")
        return TorusChar(mu)
    if isinstance(dual, (duals.Su2Dual, duals.So3Dual)):
        m = _PI_RE.match(s)
        if not m:
            raise ValueError(f"bad label {s!r}")
        lab = Su2Spin(int(m.group(1)))
        if isinstance(dual, duals.So3Dual) and lab.n % 2:
            raise ValueError(f"{s!r} is not trivial on the kernel of the double cover")
        return lab
    if isinstance(dual, duals.SemidirectDual):
        if s == "triv":
            return SemidirectLabel("triv")
        if s == "sgn":
            return SemidirectLabel("sgn")
        m = _PI_RE.match(s)
        if m and int(m.group(1)) >= 1:
            return SemidirectLabel("pi", int(m.group(1)))
        raise ValueError(f"bad label {s!r}")
    raise FamilyMismatchError(f"unknown dual {dual!r}")
