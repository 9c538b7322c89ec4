"""Fuzzed CLI invocations and input files: every run ends in a documented exit
code (0 success, 2 verdict, 3 parse, 4 numeric) and never in an uncaught
exception.

Each example writes two element files ``e.json`` and ``f.json``, a weight
file ``w.json`` and a spectrum-point file ``p.json`` into a fresh directory,
then runs one subcommand whose argv may name them.  Sizes stay small (spins
and truncations of a few units) so the whole search takes seconds.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bfw.cli import main

TMP = "@TMP@"  # replaced by the example's directory
E, F, W, P = (f"{TMP}/{name}.json" for name in "efwp")
GROUPS = ["su2", "so3", "txz2", "torus:1", "torus:2", "prod(su2,torus:1)", "torus:0", "sl3", "prod(su2"]
LABELS = ["pi:0", "pi:1", "pi:2", "1", "t:(1)", "t:(-1)", "t:(1,0)", "t:(0,-1)", "triv", "sgn",
          "pi:1×t:(1)", "pi:0×t:(0)", "x"]
RECIPES = ["dim", "const:1", "const:0.5", "poly:alpha=1", "poly:alpha=0.5", "poly:alpha=",
           "exp:lambda=2", "exp:lambda=1e308", "exp:lambda=nan", "prod(dim,poly:alpha=1)", "prod(dim)",
           "pow(dim,2)", "pow(dim,0.5)", "table", W]
ELEMENTS = ["char:1", "char:2", "uchar:1", "char:t:(1)", "cos:1", "cos:x", "char:x", E, F,
            f"{TMP}/missing.json"]
EXTREMES = [0.0, 1e-320, 1e154, 1e308, -1e308, float("inf"), float("nan"), 10**400, "2", "x"]

numbers = st.integers(-2, 4) | st.floats(-3.0, 3.0) | st.sampled_from(EXTREMES)
junk = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3) | st.sampled_from(LABELS + GROUPS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
pairs = st.lists(numbers, min_size=2, max_size=2) | junk
matrices = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(pairs, min_size=d, max_size=d), min_size=d, max_size=d)
) | junk
terms = st.fixed_dictionaries({"irrep": st.sampled_from(LABELS) | junk, "matrix": matrices})
elements = st.fixed_dictionaries({
    "group": st.sampled_from(GROUPS) | junk,
    "terms": st.lists(terms, max_size=3) | junk,
}) | junk
weights = st.recursive(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["const", "dim", "poly", "exp", "table", "zzz"]) | junk},
        optional={"c": numbers | junk, "alpha": numbers | junk,
                  "lam": st.lists(numbers, max_size=2) | junk,
                  "entries": st.dictionaries(st.sampled_from(LABELS), numbers, max_size=2) | junk},
    ),
    lambda inner: (
        st.fixed_dictionaries({"kind": st.just("prod"), "factors": st.lists(inner, max_size=3) | junk})
        | st.fixed_dictionaries({"kind": st.just("pow"), "base": inner, "alpha": numbers})
        | st.fixed_dictionaries({"kind": st.just("table"), "base": inner})
    ),
    max_leaves=3,
) | junk
points = st.fixed_dictionaries(
    {"group": st.sampled_from(["su2", "torus:1", "torus:2", "txz2", "so3", "prod(su2,torus:1)"]) | junk},
    optional={"z": pairs | st.lists(pairs, max_size=3), "euler": st.lists(numbers, max_size=4) | junk,
              "lambda": numbers | junk, "flip": junk},
) | junk


def small(lo, hi):
    return st.integers(lo, hi).map(str) | st.just("x")


tols = st.sampled_from(["1e-9", "0", "nan", "inf", "-1"])


@st.composite
def invocations(draw):
    group = draw(st.sampled_from(GROUPS))
    weight = draw(st.sampled_from(RECIPES) | weights.map(json.dumps))
    u, v = draw(st.sampled_from(ELEMENTS)), draw(st.sampled_from(ELEMENTS))
    commands = {
        "norm": ["--element", u, "--weight", weight, "--kind", draw(st.sampled_from(["a", "l2", "dual"]))],
        "multiply": ["--u", u, "--v", v, "--out", f"{TMP}/uv.json"],
        "factorize": ["--element", u, "--w1", weight, "--w2", draw(st.sampled_from(RECIPES)),
                      "--out-f", f"{TMP}/of.json", "--out-g", f"{TMP}/og.json"],
        "nu-check": ["--element", u, "--weight", weight, "--tol", draw(tols)]
                    + draw(st.sampled_from([[], ["--T", v]])),
        "spectrum": ["--weight", weight, "--num", draw(small(-1, 12)), "--cutoff", draw(small(0, 6)),
                     "--membership-point", P],
        "expcurve": ["--u", u, "--weight", weight,
                     "--tmax", draw(st.sampled_from(["0.5", "2", "4", "inf", "nan"])),
                     "--cutoff-cap", draw(small(-2, 32)), "--out", f"{TMP}/c.csv"]
                    + draw(st.sampled_from([[]] + [["--tail-tol", x]
                                                   for x in ("1e-6", "nan", "-1", "0")])),
        "derivation": ["--weight", weight, "--num", draw(small(-1, 8)),
                       "--basis-index", draw(small(-3, 5)), "--out", f"{TMP}/d.csv"],
        "growth": ["--weight", weight, "--label", draw(st.sampled_from(LABELS)),
                   "--num", draw(small(-1, 12))],
        "validate-weight": ["--weight", weight, "--depth", draw(small(0, 3)), "--tol", draw(tols)],
    }
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name, "--group", group] + commands[name] + draw(st.sampled_from([[], ["--bogus"]]))
    files = {"e": draw(elements), "f": draw(elements), "w": draw(weights), "p": draw(points)}
    return argv, files


def run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            with open(os.path.join(tmp, name + ".json"), "w") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace(TMP, tmp) for a in argv])
    return code, err.getvalue()


VALID = {
    "e": {"group": "su2", "terms": [{"irrep": "pi:1", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
    "w": {"kind": "dim"},
    "p": {"group": "torus:1", "z": [[2, 0]]},
}
NORM = ["norm", "--group", "su2", "--weight", "dim", "--element", E]
WEIGHT = ["norm", "--group", "su2", "--weight", W, "--element", "char:1"]
MEMBERSHIP = ["spectrum", "--weight", "exp:lambda=2", "--num", "8", "--membership-point", P, "--group"]
EXPCURVE = ["expcurve", "--group", "su2", "--u", "uchar:1", "--weight", "poly:alpha=1",
            "--out", f"{TMP}/c.csv"]

# (argv, files replacing VALID's, exit code): each ended in an uncaught
# exception or printed a wrong number before
REPRODUCED = [
    (NORM, {"e": {"group": "su2", "terms": [{"irrep": "pi:1", "matrix": 5}]}}, 3),
    (NORM, {"e": {"group": "su2", "terms": 5}}, 3),
    (NORM, {"e": [1, 2]}, 3),
    (WEIGHT, {"w": {"kind": "exp", "lam": 5}}, 3),
    (WEIGHT, {"w": {"kind": "prod", "factors": [1, 2]}}, 3),
    (MEMBERSHIP + ["torus:1"], {"p": {"group": "torus:1", "z": 5}}, 3),
    (MEMBERSHIP + ["torus:2"], {"p": {"group": "torus:2", "z": [[2, 0]]}}, 3),
    (MEMBERSHIP + ["su2"], {"p": {"group": "su2", "euler": [0, 0, "x"], "lambda": 2}}, 3),
    (MEMBERSHIP + ["txz2"], {"p": {"group": "txz2", "z": [float("inf"), 0]}}, 3),
    (MEMBERSHIP + ["torus:1"], {"p": {"group": "torus:1", "z": [[1e308, 0]]}}, 4),
    (["expcurve", "--group", "txz2", "--u", "char:1", "--weight", "poly:alpha=1", "--tmax", "2",
      "--out", f"{TMP}/c.csv"], {}, 2),
] + [
    (["derivation", "--group", "su2", "--weight", "dim", "--num", "4", "--basis-index", index,
      "--out", f"{TMP}/d.csv"], {}, 3)
    for index in ("7", "3", "-1")
] + [
    (MEMBERSHIP + ["su2", "--cutoff", "6"],
     {"p": {"group": "su2", "euler": [0, 0, 0], "lambda": 1e300}}, 4),
    (EXPCURVE + ["--tmax", "8", "--cutoff-cap", "4", "--tail-tol", "nan"], {}, 3),
    (EXPCURVE + ["--tmax", "inf"], {}, 3),
] + [
    ([cmd, "--group", "su2", "--weight", weight, "--num", "4"] + label, {}, 4)
    for cmd, weight, label in [
        ("growth", "pow(poly:alpha=1e300,1e10)", ["--label", "pi:1"]),
        ("spectrum", "pow(poly:alpha=1e300,1e10)", []),
        ("growth", "pow(exp:lambda=1e300,3)", ["--label", "pi:1"]),
    ]
] + [
    # a negative radius certified membership, wrote an empty scan, or failed in max()
    (["spectrum", "--group", "su2", "--weight", "poly:alpha=1", "--num", "16", "--cutoff", "-3",
      "--membership-point", P], {"p": {"group": "su2", "euler": [0.1, 0.2, 0.3], "lambda": 3.0}}, 3),
    (["derivation", "--group", "su2", "--weight", "poly:alpha=1", "--num", "-5",
      "--out", f"{TMP}/d.csv"], {}, 3),
    (["validate-weight", "--group", "su2", "--weight", "dim", "--depth", "-1"], {}, 3),
    (["validate-weight", "--group", "prod(su2,torus:1,so3)", "--weight", "dim"], {}, 3),
] + [
    # a non-finite or negative tolerance passed every weight, or printed "tol": NaN (not JSON)
    (["validate-weight", "--group", "su2", "--weight", "dim", "--depth", "2", "--tol", tol], {}, 3)
    for tol in ("inf", "nan", "-1")
] + [
    (["nu-check", "--group", "su2", "--element", "char:1", "--weight", "dim", "--tol", "nan"], {}, 3),
    # a negative cap failed as a tail mass outside the cutoff, an infinite alpha in int()
    (EXPCURVE + ["--tmax", "4", "--cutoff-cap", "-5"], {}, 3),
    (["synth-degree", "--m", "1", "--alpha", "inf"], {}, 3),
    # the default --basis-index lay outside the two-element torus:2 basis
    (["derivation", "--group", "torus:2", "--weight", "poly:alpha=1", "--num", "16",
      "--out", f"{TMP}/d.csv"], {}, 0),
    # one sample time printed "slope": NaN (not JSON); none failed in max() of an empty array
    (EXPCURVE + ["--tmax", "1.5"], {}, 3),
    (EXPCURVE + ["--tmax", "0.5"], {}, 3),
]


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
def test_cli_exit_codes(case):
    code, err = run(*case)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


for _argv, _files, _ in REPRODUCED:
    test_cli_exit_codes = example((_argv, {**VALID, **_files}))(test_cli_exit_codes)


@pytest.mark.parametrize("argv,files,code", REPRODUCED)
def test_reproduced_cases_exit_as_documented(argv, files, code):
    assert run(argv, {**VALID, **files})[0] == code
