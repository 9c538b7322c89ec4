"""CLI surface: subcommands, exit codes, file round trips, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bfw
from bfw import OperatorField, Su2Spin
from bfw.cli import _write_csv, build_parser, main
from bfw.serialize import (
    dumps,
    element_from_json,
    element_to_json,
    spectrum_point_from_json,
    spectrum_point_to_json,
)
from bfw.spectrum import SemidirectSpectrumPoint, Su2SpectrumPoint, TorusSpectrumPoint

import margin_oracle
from conftest import fields_close, random_field


def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def test_synth_degree_cmd():
    code, out = run(["synth-degree", "--m", "2", "--alpha", "1"])
    assert code == 0 and out.strip() == "3"


def test_validate_weight_pass():
    for spec in ("dim", "poly:alpha=1"):
        code, out = run(["validate-weight", "--group", "su2", "--weight", spec, "--depth", "12"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["passed"] and doc["config"]["depth"] == 12


def test_validate_weight_fail_witness(tmp_path):
    bad = {"kind": "table", "entries": {"pi:1": 0.5, "pi:2": 0.33}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(["validate-weight", "--group", "su2", "--weight", str(path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["result"]["witness"] is not None
    assert len(doc["result"]["witness"]) == 3


def test_parse_errors():
    assert run(["validate-weight", "--group", "su2", "--weight", "const:0.5"])[0] == 3
    assert run(["validate-weight", "--group", "bogus", "--weight", "dim"])[0] == 3
    assert run(["no-such-command"])[0] == 3


def test_spectrum_cmd(tmp_path):
    csv = tmp_path / "radii.csv"
    code, out = run(["spectrum", "--group", "torus:1", "--weight", "exp:lambda=2",
                     "--num", "512", "--csv", str(csv)])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["annulus"][0] - 0.5) < 1e-9
    assert abs(doc["result"]["annulus"][1] - 2.0) < 1e-9
    lines = csv.read_text().splitlines()
    assert lines[0] == "probe,radius" and len(lines) == 3


def test_spectrum_membership_point(tmp_path):
    point = {"group": "su2", "euler": [0.0, 0.0, 0.0], "lambda": 2.0}
    p = tmp_path / "pt.json"
    p.write_text(json.dumps(point))
    code, out = run(["spectrum", "--group", "su2", "--weight", "exp:lambda=2",
                     "--num", "256", "--membership-point", str(p), "--cutoff", "32"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["membership"]["member"]
    assert abs(doc["result"]["membership"]["margin"] - 1.0) < 1e-9


def test_norm_cmd():
    code, out = run(["norm", "--group", "su2", "--weight", "dim", "--element", "char:1"])
    assert code == 0
    assert abs(json.loads(out)["result"]["value"] - 4.0) < 1e-12


def test_multiply_cmd(tmp_path):
    out_path = tmp_path / "prod.json"
    code, _ = run(["multiply", "--group", "su2", "--u", "char:1", "--v", "char:1",
                   "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [t["irrep"] for t in doc["terms"]] == ["pi:0", "pi:2"]


def test_factorize_cmd(tmp_path):
    u_path = tmp_path / "u.json"
    su2 = __import__("bfw").Su2Dual()
    u = OperatorField.from_terms(su2, {Su2Spin(1): np.array([[1.0, 0.5], [0.0, 2.0]])})
    u_path.write_text(dumps(element_to_json(u)))
    f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
    code, out = run(["factorize", "--group", "su2", "--element", str(u_path),
                     "--w1", "dim", "--w2", "const:1",
                     "--out-f", str(f_path), "--out-g", str(g_path)])
    assert code == 0
    assert json.loads(out)["result"]["reconstruction_error"] < 1e-12
    f = element_from_json(json.loads(f_path.read_text()))
    g = element_from_json(json.loads(g_path.read_text()))
    from bfw import convolve

    assert fields_close(convolve(f, g), u, tol=1e-12)


def test_expcurve_cmd_and_determinism(tmp_path):
    csv1, csv2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    svg = tmp_path / "c.svg"
    args = ["expcurve", "--group", "su2", "--u", "uchar:1", "--weight", "poly:alpha=1",
            "--tmax", "8"]
    code, out = run(args + ["--out", str(csv1), "--svg", str(svg)])
    assert code == 0
    assert json.loads(out)["passed"]
    code, _ = run(args + ["--out", str(csv2)])
    assert csv1.read_bytes() == csv2.read_bytes()
    lines = csv1.read_text().splitlines()
    assert lines[0] == "t,norm,bound,cutoff,tail"
    assert len(lines) == 5  # t = 1, 2, 4, 8
    assert svg.read_text().startswith("<svg")


def test_derivation_cmd(tmp_path):
    scan = tmp_path / "scan.csv"
    code, _ = run(["derivation", "--group", "su2", "--weight", "poly:alpha=1",
                   "--num", "16", "--out", str(scan)])
    assert code == 0
    lines = scan.read_text().splitlines()
    assert lines[0] == "n,sup" and len(lines) == 17


def test_nu_check_cmd():
    code, out = run(["nu-check", "--group", "su2", "--element", "char:2", "--weight", "dim"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["pairing_residual"] < 1e-9


def test_growth_cmd(tmp_path):
    csv = tmp_path / "g.csv"
    code, out = run(["growth", "--group", "txz2", "--weight", "exp:lambda=2",
                     "--label", "pi:1", "--num", "32", "--csv", str(csv)])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["rho_hat"] - 2.0) < 1e-12
    assert doc["result"]["tag"] == "exponential-witness"
    assert csv.read_text().splitlines()[0] == "n,root,running_inf"


def test_numeric_exit_code(tmp_path):
    # tail mass failure surfaces as exit 4
    code, _ = run(["expcurve", "--group", "torus:1", "--u", "cos:1",
                   "--weight", "poly:alpha=1", "--tmax", "64", "--cutoff-cap", "12"])
    assert code == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_element_exit_code(tmp_path, bad):
    # a non-finite coefficient is a parse error, not a term pruned to 0.0
    element = {"group": "su2", "terms": [
        {"irrep": "pi:0", "matrix": [[[1.0, 0.0]]]},
        {"irrep": "pi:1", "matrix": [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    ]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(element))
    code, out = run(["norm", "--group", "su2", "--weight", "dim", "--element", str(path)])
    assert code == 3 and out == ""


@pytest.mark.parametrize("group,weight,element", [
    ("su2", "exp:lambda=1e308", "char:3"),  # float power raises OverflowError
    ("su2", "prod(exp:lambda=1e200,exp:lambda=1e200)", "char:1"),  # product is inf
    ("torus:2", "exp:lambda=1e200", "char:t:(1,1)"),
])
def test_weight_overflow_exit_code(group, weight, element):
    code, out = run(["norm", "--group", group, "--weight", weight, "--element", element])
    assert code == 4 and out == ""


def test_norm_sum_overflow_exit_code():
    # w(pi:2) = 1e308 is finite, but ||u^(pi:2)||_1 d w = 3e308 is not
    code, out = run(["norm", "--group", "su2", "--weight", "exp:lambda=1e154",
                     "--element", "char:2"])
    assert code == 4 and out == ""


def test_l2_norm_past_the_overflowing_sum(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"group": "torus:1", "terms": [{"irrep": "t:(1)", "matrix": [[[2, 0]]]}]}))
    code, out = run(["norm", "--kind", "l2", "--group", "torus:1", "--weight", "exp:lambda=1e308",
                     "--element", str(path)])
    assert code == 0 and json.loads(out)["result"]["value"] == 2e154
    code, out = run(["norm", "--kind", "l2", "--group", "torus:1", "--weight", "exp:lambda=1e308",
                     "--element", "char:t:(1)"])
    assert code == 0 and json.loads(out)["result"]["value"] == 1e154


@pytest.mark.parametrize("weight", [
    "exp:lambda=nan", "poly:alpha=inf", '{"kind": "table", "entries": {"pi:1": Infinity}}',
])
def test_non_finite_weight_exit_code(weight):
    code, out = run(["growth", "--group", "su2", "--weight", weight,
                     "--label", "pi:1", "--num", "8"])
    assert code == 3 and out == ""


@pytest.mark.parametrize("cmd,weight,message", [
    (["growth", "--label", "pi:1"], "pow(poly:alpha=1e300,1e10)",  # log w is inf
     "log of weight pow(poly:alpha=1e+300,1e+10) overflows at pi:1"),
    (["spectrum"], "pow(poly:alpha=1e300,1e10)",
     "log of weight pow(poly:alpha=1e+300,1e+10) overflows at pi:1"),
    (["growth", "--label", "pi:1"], "pow(exp:lambda=1e300,3)",  # w^(1/n) is not
     "growth rate of weight pow(exp:lambda=1e+300,3) along pi:1 overflows"),
])
def test_overflowing_certificate_exit_code(cmd, weight, message):
    # printed Infinity and NaN (not JSON) with exit 0, or a bare "math range error"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(cmd + ["--group", "su2", "--weight", weight, "--num", "4"])
    assert code == 4 and out == ""
    assert err.getvalue() == f"numeric failure: {message}\n"


def test_spectrum_num_zero_rejected():
    code, out = run(["spectrum", "--group", "torus:1", "--weight", "poly:alpha=1", "--num", "0"])
    assert code == 3 and out == ""


def test_expcurve_so3(tmp_path):
    csv = tmp_path / "so3.csv"
    code, out = run(["expcurve", "--group", "so3", "--u", "uchar:2", "--weight", "poly:alpha=1",
                     "--tmax", "8", "--out", str(csv)])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert len(csv.read_text().splitlines()) == 5  # header and t = 1, 2, 4, 8


@pytest.mark.parametrize("group", ["torus:1", "torus:2"])
def test_expcurve_torus_csv_cells_are_numbers(tmp_path, group):
    # the torus Parseval defect was a NumPy float, written as np.float64(...)
    dual = bfw.parse_group(group)
    u = OperatorField.from_terms(dual, {a: np.array([[0.5]]) for a in dual.generators()})
    (tmp_path / "u.json").write_text(dumps(element_to_json(u)))
    csv = tmp_path / "t.csv"
    code, _ = run(["expcurve", "--group", group, "--u", str(tmp_path / "u.json"), "--weight",
                   "poly:alpha=1", "--tmax", "16", "--cutoff-cap", "256", "--out", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,norm,bound,cutoff,tail" and len(lines) == 6  # t = 1, 2, 4, 8, 16
    assert all(float(cell) >= 0.0 for line in lines[1:] for cell in line.split(","))


def test_csv_writes_numpy_floats_as_python_floats(tmp_path):
    path = tmp_path / "x.csv"
    _write_csv(str(path), "x,y,n", [(np.float64(0.0), 0.1, np.int64(3)), (np.float64(1e-300), 2.5, 4)])
    assert path.read_text() == "x,y,n\n0.0,0.1,3\n1e-300,2.5,4\n"


def test_derivation_default_basis_index_is_last(tmp_path):
    # the last Casimir basis element: i·sigma_3/(2√2) on SU(2), the last axis on a torus
    for group, last in [("su2", "2"), ("torus:2", "1"), ("torus:1", "0")]:
        texts = []
        for extra in ([], ["--basis-index", last]):
            scan = tmp_path / "scan.csv"
            code, _ = run(["derivation", "--group", group, "--weight", "poly:alpha=1",
                           "--num", "16", "--out", str(scan)] + extra)
            assert code == 0
            texts.append(scan.read_text())
        assert texts[0] == texts[1]


def test_parser_built_once(monkeypatch):
    run(["synth-degree", "--m", "2", "--alpha", "1"])

    def refuse(*args, **kwargs):
        raise AssertionError("argument parser rebuilt")

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    code, out = run(["synth-degree", "--m", "2", "--alpha", "1"])
    assert code == 0 and out == "3\n"


# every subcommand's parsed namespace for a minimal argv: these keys and values
# (types included) are the "config" block of its report
PARSED = {
    "validate-weight": (["--group", "su2", "--weight", "dim"],
                        {"group": "su2", "weight": "dim", "depth": 12, "tol": 1e-09, "out": None}),
    "growth": (["--group", "su2", "--weight", "dim", "--label", "pi:1"],
               {"group": "su2", "weight": "dim", "label": "pi:1", "num": 512, "out": None,
                "csv": None}),
    "spectrum": (["--group", "su2", "--weight", "dim"],
                 {"group": "su2", "weight": "dim", "num": None, "cutoff": 64,
                  "membership_point": None, "out": None, "csv": None}),
    "norm": (["--group", "su2", "--weight", "dim", "--element", "char:1"],
             {"group": "su2", "weight": "dim", "element": "char:1", "kind": "a", "out": None}),
    "multiply": (["--group", "su2", "--u", "char:1", "--v", "char:1"],
                 {"group": "su2", "u": "char:1", "v": "char:1", "out": None}),
    "factorize": (["--group", "su2", "--element", "char:1", "--w1", "dim", "--w2", "dim"],
                  {"group": "su2", "element": "char:1", "w1": "dim", "w2": "dim", "out_f": None,
                   "out_g": None, "out": None}),
    "expcurve": (["--group", "su2", "--u", "uchar:1", "--weight", "dim"],
                 {"group": "su2", "u": "uchar:1", "weight": "dim", "tmax": 64.0, "cutoff_cap": 120,
                  "tail_tol": 1e-06, "out": None, "svg": None}),
    # None resolves to the last Casimir basis element (index 2 on SU(2) and SO(3))
    "derivation": (["--group", "su2", "--weight", "dim"],
                   {"group": "su2", "weight": "dim", "num": 512, "basis_index": None, "out": None}),
    "synth-degree": (["--m", "2", "--alpha", "1"], {"m": 2, "alpha": 1.0}),
    "nu-check": (["--group", "su2", "--element", "char:1", "--weight", "dim"],
                 {"group": "su2", "element": "char:1", "weight": "dim", "T": None, "tol": 1e-09,
                  "out": None}),
}


@pytest.mark.parametrize("command", sorted(PARSED))
def test_parsed_config_is_pinned(command):
    argv, expected = PARSED[command]
    parsed = vars(build_parser().parse_args([command] + argv))
    assert parsed.pop("func").__name__ == "cmd_" + command.replace("-", "_")
    expected = {"command": command, **expected}
    assert {k: (type(v), v) for k, v in parsed.items()} == {
        k: (type(v), v) for k, v in expected.items()
    }


def test_import_loads_only_stdlib_and_numpy():
    # start-up cost: importing the library and its CLI pulls in no third-party
    # package but NumPy (no SciPy, no hypothesis); modules the interpreter
    # loaded before the import, such as site hooks, do not count
    src = Path(bfw.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bfw, bfw.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'bfw'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]", out.stdout


# --- serialization round trips -------------------------------------------------

def test_element_round_trip(su2, sd, t2, rng):
    for dual in (su2, sd, t2):
        u = random_field(dual, 3, rng, n_terms=3)
        doc = element_to_json(u)
        back = element_from_json(json.loads(dumps(doc)))
        assert back.dual == dual
        assert fields_close(back, u, tol=1e-15)


def test_element_group_mismatch(su2, t1, rng):
    u = random_field(t1, 2, rng)
    with pytest.raises(ValueError):
        element_from_json(element_to_json(u), su2)


def test_spectrum_point_round_trip(su2, sd, t1, rng):
    pts = [
        (su2, Su2SpectrumPoint(su2.random_point(rng), 1.7)),
        (sd, SemidirectSpectrumPoint(1.3 * np.exp(0.8j), True)),
        (t1, TorusSpectrumPoint((0.5 + 0.2j,))),
    ]
    for dual, theta in pts:
        doc = spectrum_point_to_json(dual, theta)
        dual2, back = spectrum_point_from_json(json.loads(json.dumps(doc)))
        assert dual2 == dual
        for a in dual.ball(3):
            assert np.allclose(dual.rep(a, back), dual.rep(a, theta), atol=1e-9)


@pytest.mark.parametrize("group", ["prod(su2,torus:1)", "prod(prod(su2,txz2),torus:1)"])
def test_product_spectrum_point_round_trip(group, rng):
    dual = bfw.parse_group(group)
    theta = margin_oracle.spectrum_point(dual, rng)
    doc = spectrum_point_to_json(dual, theta)
    # one point document per factor, each of its factor's group
    assert doc["factors"] == [spectrum_point_to_json(dual.left, theta.left),
                              spectrum_point_to_json(dual.right, theta.right)]
    dual2, back = spectrum_point_from_json(json.loads(json.dumps(doc)))
    assert dual2 == dual
    for a in dual.ball(2):
        assert np.allclose(dual.rep(a, back), dual.rep(a, theta), atol=1e-9)
