"""The report writer: the same bytes as the stdlib json encoder, for any
document and for every file and stream the CLI writes."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bfw import serialize
from bfw.calculus import CasimirData, _algebra_norm
from bfw.cli import main
from bfw.duals import parse_group
from bfw.serialize import dumps, element_from_json, element_to_json
from bfw.weights import make_weight

from conftest import random_field


def _matrix_to_json(M):
    """The nested-list form element documents had before they carried arrays."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, complex)]


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return _matrix_to_json(obj)
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


def oracle(obj) -> str:
    return json.dumps(_as_lists(obj), sort_keys=True, indent=2) + "\n"


# --- documents ------------------------------------------------------------------------

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308, 1e-300,
                   1e300, 1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]
_TEXT = st.one_of(st.text(max_size=8),
                  st.text(alphabet='ab×"\\/\x00\x01\x1f\x7f\n\t é\U0001f600', max_size=8))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -10**400, 2**63, -2**63 - 1]),
    st.floats(),  # every double: subnormals, +-0.0, NaN, +-inf included
    st.sampled_from(_SPECIAL_FLOATS),
    _TEXT,
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@seed(20241018)
@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_dumps_equals_stdlib_json(doc):
    assert dumps(doc) == oracle(doc)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (0, 0), (2, 0)])
def test_complex_matrix_equals_nested_lists(shape):
    rng = np.random.default_rng(7)
    vals = np.array(_SPECIAL_FLOATS + list(rng.standard_normal(64)))
    n = shape[0] * shape[1]
    for _ in range(20):
        M = np.empty(shape, complex)
        M.real, M.imag = rng.choice(vals, shape), rng.choice(vals, shape)
        doc = {"b": [M, M.T], "a": {"matrix": M}, "c": M[:, ::-1]}
        assert dumps(doc) == oracle(doc)


def test_non_string_keys_and_unserializable_values():
    for doc in ({2: "x", 1: None}, {1.5: 0, -math.inf: 1}, {True: 1, False: 0}, {None: 0}):
        assert dumps(doc) == oracle(doc)
    for bad in ({(1,): 0}, {"a": object()}, np.zeros((2, 2)), np.zeros(2, complex)):
        with pytest.raises(TypeError):
            dumps(bad)


@pytest.mark.parametrize("group", ["su2", "so3", "txz2", "torus:2", "prod(su2,torus:1)"])
def test_element_documents_equal_list_form(group):
    dual = parse_group(group)
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-300, 1e300):
        u = random_field(dual, 3, rng, n_terms=4, scale=scale)
        doc = element_to_json(u)
        assert dumps(doc) == oracle(doc)
        # the in-memory document reads back to the same bits
        back = element_from_json(doc)
        assert back.dual == dual and set(back.coeffs) == set(u.coeffs)
        for a, M in u.coeffs.items():
            assert np.array_equal(back.coeffs[a], M)


# --- the CLI ----------------------------------------------------------------------------

def _element_file(path, group, radius, rng):
    u = random_field(parse_group(group), radius, rng, n_terms=3)
    path.write_text(oracle(element_to_json(u)))
    return str(path)


def _derivation_csv(group, weight, index, n_max):
    """The scan's CSV from the per-label norm, maximized over each ball."""
    dual = parse_group(group)
    X, w = CasimirData(dual).basis[index], make_weight(dual, weight)
    sups = (max(_algebra_norm(dual, a, X) / w(a) for a in dual.ball(n)) for n in range(1, n_max + 1))
    return "n,sup\n" + "".join(f"{n},{sup!r}\n" for n, sup in enumerate(sups, start=1))


def _commands(tmp, rng):
    P = lambda name: str(tmp / name)
    u = _element_file(tmp / "u.json", "su2", 4, rng)
    v = _element_file(tmp / "v.json", "su2", 3, rng)
    tu = _element_file(tmp / "tu.json", "torus:2", 2, rng)
    pu = _element_file(tmp / "pu.json", "prod(su2,torus:1)", 2, rng)
    return {
        "multiply su2": (["multiply", "--group", "su2", "--u", u, "--v", v, "--out", P("m.json")],
                         ["m.json"]),
        "multiply stdout": (["multiply", "--group", "torus:2", "--u", tu, "--v", tu], []),
        "multiply prod": (["multiply", "--group", "prod(su2,torus:1)", "--u", pu, "--v", pu,
                           "--out", P("m.json")], ["m.json"]),
        "factorize": (["factorize", "--group", "su2", "--element", u, "--w1", "poly:alpha=1",
                       "--w2", "dim", "--out-f", P("f.json"), "--out-g", P("g.json"),
                       "--out", P("r.json")], ["f.json", "g.json", "r.json"]),
        "factorize stdout": (["factorize", "--group", "su2", "--element", v, "--w1", "dim",
                              "--w2", "const:1", "--out-f", P("f.json"), "--out-g", P("g.json")],
                             ["f.json", "g.json"]),
        "norm": (["norm", "--group", "su2", "--weight", "poly:alpha=1.5", "--element", u], []),
        "norm l2": (["norm", "--group", "su2", "--weight", "dim", "--element", u, "--kind", "l2",
                     "--out", P("n.json")], ["n.json"]),
        "spectrum": (["spectrum", "--group", "torus:1", "--weight", "exp:lambda=2", "--num", "64",
                      "--csv", P("s.csv")], []),
        "growth": (["growth", "--group", "txz2", "--weight", "exp:lambda=2", "--label", "pi:1",
                    "--num", "64", "--csv", P("g.csv"), "--out", P("g.json")], ["g.json"]),
        "derivation": (["derivation", "--group", "su2", "--weight", "poly:alpha=1", "--num", "64",
                        "--out", P("d.csv")], []),
        "expcurve": (["expcurve", "--group", "su2", "--u", "uchar:1", "--weight", "poly:alpha=1",
                      "--tmax", "8", "--out", P("c.csv"), "--svg", P("c.svg")], []),
    }


@pytest.mark.parametrize("name", ["multiply su2", "multiply stdout", "multiply prod", "factorize",
                                  "factorize stdout", "norm", "norm l2", "spectrum", "growth",
                                  "derivation", "expcurve"])
def test_cli_outputs_equal_stdlib_json(name, tmp_path, monkeypatch):
    argv, json_files = _commands(tmp_path, np.random.default_rng(5))[name]
    docs = []
    write = serialize.dumps

    def recording(doc):
        docs.append(doc)
        return write(doc)

    monkeypatch.setattr(serialize, "dumps", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    written = [(tmp_path / f).read_text() for f in json_files]
    if out.getvalue():
        written.append(out.getvalue())
    assert sorted(written) == sorted(oracle(doc) for doc in docs)
    if name == "derivation":
        assert (tmp_path / "d.csv").read_text() == _derivation_csv("su2", "poly:alpha=1", 2, 64)
