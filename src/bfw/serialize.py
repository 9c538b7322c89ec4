"""JSON file formats: elements, weights, spectrum points, reports.

Element files:

    {"group": "su2",
     "terms": [{"irrep": "pi:1", "matrix": [[[re, im], ...], ...]}]}

with matrices row-major and complex entries as [re, im] pairs.  Spectrum
points:

    {"group": "su2", "euler": [a, b, c], "lambda": 2.0}
    {"group": "torus:1", "z": [[re, im]]}
    {"group": "txz2", "z": [re, im], "flip": false}

``dumps`` writes exactly the bytes of ``json.dumps(obj, sort_keys=True,
indent=2) + "\n"`` from the running interpreter's stdlib: keys sorted, strings
escaped to ASCII, floats by ``float.__repr__`` (``NaN`` and ``Infinity`` for
the non-finite ones), tuples as lists.  Documents must be acyclic.  A matrix
may also be given as a two-dimensional complex ndarray, written as the nested
``[[[re, im], ...], ...]`` list it stands for, so element documents carry
their coefficient arrays and are never built as nested lists.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .duals import (
    GroupDual, SemidirectDual, Su2Dual, TorusDual, group_token, parse_group, su2_euler_point,
)
from .fields import OperatorField
from .labels import format_label, parse_label
from .spectrum import (
    SemidirectSpectrumPoint,
    Su2SpectrumPoint,
    TorusSpectrumPoint,
)

__all__ = [
    "element_to_json",
    "element_from_json",
    "dumps",
    "spectrum_point_to_json",
    "spectrum_point_from_json",
]


def dumps(obj) -> str:
    """The document as indented JSON text: see the module docstring."""
    return _encode(obj, "\n") + "\n"


def _encode(o, nl: str) -> str:
    """o as JSON, for a value that starts a line indented as ``nl`` ends."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype == complex:
        return _matrix(o, nl)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if not isinstance(k, str):
        if not (isinstance(k, (int, float)) or k is None):  # bool is an int
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = _encode(k, "")
    return encode_basestring_ascii(k)


def _matrix(M: np.ndarray, nl: str) -> str:
    """A complex matrix as the [[[re, im], ...], ...] list it stands for."""
    flat = np.ascontiguousarray(M).view(float).ravel().tolist()
    if not math.isfinite(sum(flat)):  # a finite sum has only finite terms
        flat = [_float(x) for x in flat]
    # one %s per float, filled in row-major order; str(float) is its repr
    r, c, e = nl + "  ", nl + "    ", nl + "      "
    pair = "[" + e + "%s," + e + "%s" + c + "]"
    row = "[" + c + ("," + c).join([pair] * M.shape[1]) + r + "]" if M.shape[1] else "[]"
    text = "[" + r + ("," + r).join([row] * M.shape[0]) + nl + "]" if M.shape[0] else "[]"
    return text % tuple(flat)


def _expect(x, kind: type, what: str):
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {x!r}")
    return x


def _finite(data, shape: tuple, what: str) -> np.ndarray:
    """data as an array of finite floats of the given shape (-1: any length)."""
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = np.array(math.nan)
    bad_shape = arr.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, arr.shape))
    if bad_shape or not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite numbers of shape {shape} (-1: any length)")
    return arr


def _matrix_from_json(data):
    if isinstance(data, np.ndarray) and np.iscomplexobj(data):  # as element_to_json left it
        data = np.stack([data.real, data.imag], axis=-1)
    # each [re, im] pair viewed as one complex number: the bits of complex(re, im)
    return _finite(data, (-1, -1, 2), "a matrix").view(complex)[..., 0]


def element_to_json(u: OperatorField) -> dict:
    return {
        "group": group_token(u.dual),
        "terms": [
            {"irrep": format_label(a), "matrix": np.asarray(u.coeffs[a], complex)}
            for a in u.support
        ],
    }


def element_from_json(data: dict, dual: GroupDual | None = None) -> OperatorField:
    file_dual = parse_group(_expect(_expect(data, dict, "an element")["group"], str, "group"))
    if dual is not None and dual != file_dual:
        raise ValueError(f"element file is for {data['group']}, expected {group_token(dual)}")
    dual = dual or file_dual
    terms = {}
    for term in _expect(data["terms"], list, "terms"):
        a = parse_label(dual, _expect(_expect(term, dict, "a term")["irrep"], str, "irrep"))
        M = _matrix_from_json(term["matrix"])
        terms[a] = terms.get(a, 0) + M
    return OperatorField.from_terms(dual, terms)


def spectrum_point_to_json(dual: GroupDual, theta) -> dict:
    token = group_token(dual)
    if isinstance(theta, TorusSpectrumPoint):
        return {"group": token, "z": [[z.real, z.imag] for z in theta.z]}
    if isinstance(theta, Su2SpectrumPoint):
        alpha, beta, gamma = _su2_to_euler(theta.s)
        return {"group": token, "euler": [alpha, beta, gamma], "lambda": theta.lam}
    if isinstance(theta, SemidirectSpectrumPoint):
        return {"group": token, "z": [theta.z.real, theta.z.imag], "flip": theta.flip}
    raise ValueError(f"cannot serialize {theta!r}")


def spectrum_point_from_json(data: dict):
    dual = parse_group(_expect(_expect(data, dict, "a spectrum point")["group"], str, "group"))
    if isinstance(dual, TorusDual):
        z = _finite(data["z"], (dual.n, 2), "z").tolist()
        return dual, TorusSpectrumPoint(tuple(complex(re, im) for re, im in z))
    if isinstance(dual, Su2Dual):
        alpha, beta, gamma = _finite(data["euler"], (3,), "euler").tolist()
        lam = float(_finite(data["lambda"], (), "lambda"))
        return dual, Su2SpectrumPoint(su2_euler_point(alpha, beta, gamma), lam)
    if isinstance(dual, SemidirectDual):
        re, im = _finite(data["z"], (2,), "z").tolist()
        return dual, SemidirectSpectrumPoint(complex(re, im), bool(data.get("flip", False)))
    raise ValueError(f"no spectrum points for group {data['group']!r}")


def _su2_to_euler(s: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (zyz) of a special unitary 2x2 matrix.

    With g = Rz(alpha) Ry(beta) Rz(gamma) the top-left entry is
    e^{-i(alpha+gamma)/2} cos(beta/2) and the bottom-left is
    e^{+i(alpha-gamma)/2} sin(beta/2).
    """
    s = np.asarray(s, dtype=complex)
    cb = min(1.0, max(0.0, abs(s[0, 0])))
    beta = 2.0 * math.acos(cb)
    if abs(s[0, 0]) > 1e-9 and abs(s[1, 0]) > 1e-9:
        alpha = float(np.angle(s[1, 0]) - np.angle(s[0, 0]))
        gamma = float(-np.angle(s[1, 0]) - np.angle(s[0, 0]))
    elif abs(s[0, 0]) > 1e-9:  # beta ~ 0
        alpha, gamma = float(-2.0 * np.angle(s[0, 0])), 0.0
    else:  # beta ~ pi
        alpha, gamma = float(2.0 * np.angle(s[1, 0])), 0.0
    return alpha % (4 * math.pi), float(beta), gamma % (4 * math.pi)
