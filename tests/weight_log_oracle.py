"""Per-label log-weight formulas: the reference for ``Weight.log_values``.

These are the scalar formulas the recipes evaluated one label at a time
before they read lattice coordinates in bulk.  Parameters come from the spec
dict exactly as ``make_weight`` reads them, never from the weight's
descriptor, which prints them to six digits.

Word lengths come from one walk over the generators
(``walk_oracle.first_steps``), not from the default rule the recipes read.
The walk from the trivial label to a far label (spin 390, or a torus
character of length 520) takes too long, so labels beyond ``WALK_RADIUS``
take the closed forms of ``closed_form_word_length``, which
``test_word_length_closed_forms_equal_walk`` checks against the walk.
"""

import functools
import math

from bfw import ProductDual, SemidirectDual, So3Dual, Su2Dual, TorusDual, make_weight
from bfw.weights import _parse_spec
from walk_oracle import first_steps

WALK_RADIUS = 12


def word_length(dual, a) -> int:
    """Word length of a over the default generators of dual."""
    k = _walk(dual).get(a)
    return closed_form_word_length(dual, a) if k is None else k


@functools.cache
def _walk(dual) -> dict:
    return first_steps(dual, dual.generators(), WALK_RADIUS)


def closed_form_word_length(dual, a) -> int:
    if isinstance(dual, ProductDual):
        return closed_form_word_length(dual.left, a.left) + closed_form_word_length(dual.right, a.right)
    if isinstance(dual, TorusDual):
        return sum(abs(m) for m in a.mu)  # one generator per unit step on each axis
    if isinstance(dual, So3Dual):
        return a.n // 2  # spin 2 adds at most 2 to the spin
    if isinstance(dual, Su2Dual):
        return a.n
    if isinstance(dual, SemidirectDual):
        return {"triv": 0, "sgn": 2}.get(a.kind, a.m)  # sgn first appears in pi_1 (x) pi_1
    raise TypeError(f"no closed form for {dual!r}")


def oracle_log_value(dual, spec, a) -> float:
    """log w(a) for the recipe spec (a string or its dict form) on dual."""
    d = _parse_spec(spec) if isinstance(spec, str) else spec
    kind = d["kind"]
    if kind == "const":
        return math.log(float(d["c"]))
    if kind == "dim":
        return math.log(dual.dim(a))
    if kind == "poly":
        return float(d["alpha"]) * math.log1p(word_length(dual, a))
    if kind == "exp":
        lam = [float(x) for x in d["lam"]]
        if isinstance(dual, TorusDual):
            lam = lam * dual.n if len(lam) == 1 else lam
            return sum(abs(m) * math.log(x) for x, m in zip(lam, a.mu))
        return word_length(dual, a) * math.log(lam[0])
    if kind == "prod":
        f1, f2 = d["factors"]
        return oracle_log_value(dual, f1, a) + oracle_log_value(dual, f2, a)
    if kind == "pow":
        return float(d["alpha"]) * oracle_log_value(dual, d["base"], a)
    # no closed form: the log of the plain value
    return math.log(make_weight(dual, d)(a))
