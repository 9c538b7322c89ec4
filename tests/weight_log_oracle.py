"""Per-label log-weight formulas: the reference for ``Weight.log_values``.

These are the scalar formulas the recipes evaluated one label at a time
before they read lattice coordinates in bulk.  Parameters come from the spec
dict exactly as ``make_weight`` reads them, never from the weight's
descriptor, which prints them to six digits.
"""

import math

from bfw import TorusDual, make_weight
from bfw.weights import _parse_spec


def oracle_log_value(dual, spec, a) -> float:
    """log w(a) for the recipe spec (a string or its dict form) on dual."""
    d = _parse_spec(spec) if isinstance(spec, str) else spec
    kind = d["kind"]
    if kind == "const":
        return math.log(float(d["c"]))
    if kind == "dim":
        return math.log(dual.dim(a))
    if kind == "poly":
        return float(d["alpha"]) * math.log1p(dual.word_length(a))
    if kind == "exp":
        lam = [float(x) for x in d["lam"]]
        if isinstance(dual, TorusDual):
            lam = lam * dual.n if len(lam) == 1 else lam
            return sum(abs(m) * math.log(x) for x, m in zip(lam, a.mu))
        return dual.word_length(a) * math.log(lam[0])
    if kind == "prod":
        f1, f2 = d["factors"]
        return oracle_log_value(dual, f1, a) + oracle_log_value(dual, f2, a)
    if kind == "pow":
        return float(d["alpha"]) * oracle_log_value(dual, d["base"], a)
    # no closed form: the log of the plain value
    return math.log(make_weight(dual, d)(a))
