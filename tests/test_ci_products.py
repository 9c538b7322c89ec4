"""The product checks that CI runs inline on every interpreter, run in-process
through ``cli.main`` in a fresh directory, each with its assertions as CI
states them."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from bfw import OperatorField, evaluate
from bfw.cli import main
from bfw.duals import parse_group
from bfw.serialize import dumps, element_from_json, element_to_json


def bfw(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def read_json(name):
    return json.loads(Path(name).read_text())


def test_chi30_squared_is_the_character_series(tmp_path, monkeypatch):
    # chi_30^2 = chi_0 + chi_2 + ... + chi_60, coefficient I/(k+1) at pi:k
    monkeypatch.chdir(tmp_path)
    bfw("multiply", "--group", "su2", "--u", "char:30", "--v", "char:30", "--out", "p.json")
    terms = read_json("p.json")["terms"]
    assert [t["irrep"] for t in terms] == [f"pi:{k}" for k in range(0, 61, 2)], "support of chi_30^2"
    for t in terms:
        M = np.array(t["matrix"])
        k = int(t["irrep"][3:])
        err = np.max(np.abs(M[..., 0] + 1j * M[..., 1] - np.eye(k + 1) / (k + 1)))
        assert err <= 1e-9, (t["irrep"], err)


def test_txz2_so3_character_product_support_and_blocks(tmp_path, monkeypatch):
    # (triv + sgn + pi_2) x (pi:0 + pi:2 + pi:4), coefficient I/d at each of the nine labels
    monkeypatch.chdir(tmp_path)
    bfw("multiply", "--group", "prod(txz2,so3)", "--u", "char:pi:1×pi:2", "--v", "char:pi:1×pi:2", "--out", "q.json")
    terms = read_json("q.json")["terms"]
    want = [(f"{l}×{r}", dl * dr) for l, dl in (("triv", 1), ("sgn", 1), ("pi:2", 2))
            for r, dr in (("pi:0", 1), ("pi:2", 3), ("pi:4", 5))]
    assert [t["irrep"] for t in terms] == [label for label, _ in want], "support of (chi_pi1 x chi_2)^2"
    for t, (label, d) in zip(terms, want):
        M = np.array(t["matrix"])
        assert M.shape == (d, d, 2), (label, M.shape)
        err = np.max(np.abs(M[..., 0] + 1j * M[..., 1] - np.eye(d) / d))
        assert err <= 1e-12, (label, err)


def random_block_product(group, seed):
    """Full random blocks on ball(2) of group written to element files, their
    product through ``bfw multiply``, and (uv)(g) = u(g) v(g) required to
    1e-10 relative at three random points."""
    dual = parse_group(group)
    rng = np.random.default_rng(seed)
    for name in ("u.json", "v.json"):
        terms = {a: rng.standard_normal((dual.dim(a),) * 2) + 1j * rng.standard_normal((dual.dim(a),) * 2)
                 for a in dual.ball(2)}
        Path(name).write_text(dumps(element_to_json(OperatorField.from_terms(dual, terms))))
    bfw("multiply", "--group", group, "--u", "u.json", "--v", "v.json", "--out", "uv.json")
    u, v, uv = (element_from_json(read_json(name)) for name in ("u.json", "v.json", "uv.json"))
    for _ in range(3):
        g = dual.random_point(rng)
        want = evaluate(u, g) * evaluate(v, g)
        assert abs(evaluate(uv, g) - want) <= 1e-10 * max(1.0, abs(want)), (evaluate(uv, g), want)


def test_txz2_so3_product_at_random_points(tmp_path, monkeypatch):
    # full random blocks see every column of W: (uv)(g) = u(g) v(g) at random points
    monkeypatch.chdir(tmp_path)
    random_block_product("prod(txz2,so3)", 5)


def test_nested_product_at_random_points(tmp_path, monkeypatch):
    # a product factor's intertwiners are built from its own factors' tables
    monkeypatch.chdir(tmp_path)
    random_block_product("prod(prod(su2,txz2),torus:1)", 6)
