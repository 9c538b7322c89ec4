"""validate against the pair loop through ``fuse_oracle`` (tests/validate_oracle.py).

The report must equal the loop's field for field, and where the loop raises,
validate raises the same exception type with the same message: the weight
error of the first label the loop meets, or the ZeroDivisionError of a bound
w(a) w(b) that underflows to 0.
"""

import pytest

import validate_oracle
from bfw.duals import parse_group
from bfw.errors import WeightOverflowError
from bfw.labels import format_label
from bfw.weights import make_weight, validate

GROUPS = ["su2", "so3", "txz2", "torus:1", "torus:2", "torus:3", "prod(su2,torus:1)", "prod(txz2,so3)",
          "prod(prod(su2,txz2),torus:1)"]
RECIPES = ["dim", "poly:alpha=2.5", "exp:lambda=2", "prod(dim,poly:alpha=1)", "exp:lambda=1e300"]


def table_weights(dual):
    """Table weights with one bad entry.  On const:1, the last label of
    ball(2) lies in the square of a generator, so 5 there exceeds w(a) w(b) =
    1, and at the generator s, 1e-200 makes the bound w(s) w(s) underflow to
    0.  On exp:lambda=1e300 the same bound underflows, but the loop meets a
    label whose weight overflows first."""
    top, s = format_label(dual.ball(2)[-1]), format_label(dual.generators()[0])
    const, exp = {"kind": "const", "c": 1}, {"kind": "exp", "lam": [1e300]}
    return [{"kind": "table", "base": base, "entries": {label: v}}
            for base, label, v in ((const, top, 5.0), (const, s, 1e-200), (exp, s, 1e-200))]


def outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("group", GROUPS)
def test_validate_equals_pair_loop(group):
    dual = parse_group(group)
    for spec in RECIPES + table_weights(dual):
        for depth in (0, 3, 7):
            want = outcome(lambda: validate_oracle.validate(dual, make_weight(dual, spec), depth))
            assert outcome(lambda: validate(dual, make_weight(dual, spec), depth)) == want, (spec, depth)


def test_overflow_names_the_first_label_the_loop_meets(t2):
    with pytest.raises(WeightOverflowError, match=r"overflows at t:\(-2,0\)$"):
        validate(t2, make_weight(t2, "exp:lambda=1e300"), 3)


def test_underflowing_bound_raises_as_the_loop_does(su2):
    # pi:1 x pi:1 has the bound 1e-200 * 1e-200 = 0.0: the loop's division raises
    # (a known defect, kept so that the validate-weight report stays the same)
    w = make_weight(su2, {"kind": "table", "base": {"kind": "const", "c": 1}, "entries": {"pi:1": 1e-200}})
    with pytest.raises(ZeroDivisionError):
        validate(su2, w, 3)
