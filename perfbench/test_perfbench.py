"""Tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench -q

Every check passes on the program's outputs and rejects a slightly wrong
answer: a result scaled by (1 + 1e-9), alpha taken as 0.9 instead of 1, one
Clebsch-Gordan component dropped.  Two traced rounds of one seed count the
same work, and the tracer leaves bfw as it found it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Small operations of every workload, each run once: {name: (op, result)}."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        for op in workloads.build(workload, SEED, str(workdir), small=True):
            if op.name not in out:  # repeated passes run the same operations
                out[op.name] = (op, op.run())
    return out


def find(built, prefix):
    if prefix in built:
        return built[prefix]
    hits = [v for k, v in built.items() if k.startswith(prefix)]
    assert hits, prefix
    return hits[0]


def rejects(op, result) -> bool:
    try:
        op.check(result)
    except checks.CheckFailed:
        return True
    return False


def test_every_check_passes_on_the_program(built):
    for name, (op, result) in built.items():
        op.check(result)


def test_spectrum_checks_reject_wrong_radii(built):
    op, desc = find(built, "spectrum_bounds su2 poly:alpha=1")
    scaled = dataclasses.replace(desc, radii={k: v * (1 + 1e-9) for k, v in desc.radii.items()})
    assert rejects(op, scaled)
    other = workloads._spectrum_call("su2", "poly:alpha=0.9", desc.truncation)()
    assert rejects(op, other)
    op, desc = find(built, "spectrum_bounds torus:2")
    assert rejects(op, dataclasses.replace(desc, radii={k: v * (1 + 1e-9) for k, v in desc.radii.items()}))


def test_growth_validate_membership_scan_checks_reject(built):
    op, cert = find(built, "growth_rate")
    assert rejects(op, dataclasses.replace(cert, rho_slope=cert.rho_slope * (1 + 1e-9)))
    op, rep = find(built, "validate su2 table")
    assert rejects(op, dataclasses.replace(rep, max_violation=rep.max_violation * (1 + 1e-9)))
    assert rejects(op, dataclasses.replace(rep, witness=(rep.witness[0], rep.witness[2], rep.witness[1])))
    op, rep = find(built, "validate su2 dim")
    assert rejects(op, dataclasses.replace(rep, passed=False))
    for name, (op, res) in built.items():
        if name.startswith("membership"):
            assert rejects(op, dataclasses.replace(res, margin=res.margin * (1 + 1e-9)))
    op, rows = find(built, "derivation_bound_scan su2 alpha=1")
    assert rejects(op, [(n, s * (1 + 1e-9)) for n, s in rows])
    n_max = len(rows)
    assert rejects(op, workloads._scan_call(0.9, 2, n_max)())


def test_product_checks_reject(built):
    op, field = find(built, "multiply su2 chi_")
    terms = workloads.as_terms(field)
    dropped = max(terms, key=lambda a: int(a[3:]))
    assert rejects(op, workloads.make_field("su2", {a: M for a, M in terms.items() if a != dropped}))
    op, field = find(built, "multiply txz2 chi_")
    terms = workloads.as_terms(field)
    dropped = sorted(terms)[0]
    assert rejects(op, workloads.make_field("txz2", {a: M for a, M in terms.items() if a != dropped}))
    for group in ("su2", "so3", "txz2", "prod(su2,torus:1)"):
        op, field = find(built, f"multiply {group} r=")
        terms = workloads.as_terms(field)
        top = max(terms, key=lambda a: checks.word_length(group, a))
        assert rejects(op, workloads.make_field(group, {a: M for a, M in terms.items() if a != top}))
        assert rejects(op, workloads.make_field(group, {a: M * (1 + 1e-9) for a, M in terms.items()}))
    op, norms = find(built, "norm_a_omega su2 r=4")
    recipe = "poly:alpha=1"
    nu, nv, nuv = norms[recipe]
    assert rejects(op, {**norms, recipe: (nu, nv, nuv * (1 + 1e-9))})
    op, back = find(built, "factorize+convolve su2 r=8")
    assert rejects(op, back * (1 + 1e-9))
    op, (cu, cv, cuv) = find(built, "char_eval su2 r=4")
    assert rejects(op, (cu, cv, cuv * (1 + 1e-7)))
    assert rejects(op, (cu * (1 + 1e-8), cv, cuv * (1 + 1e-8)))
    op, oracle = find(built, "quadrature product su2")
    terms = workloads.as_terms(oracle)
    top = max(terms, key=lambda a: int(a[3:]))
    assert rejects(op, workloads.make_field("su2", {a: M for a, M in terms.items() if a != top}))


def test_exp_itu_checks_reject(built):
    op, curve = find(built, "growth_curve su2 poly:alpha=1")
    rows = tuple((t, n * (1 + 1e-9), b, c, tail) for t, n, b, c, tail in curve.rows)
    assert rejects(op, dataclasses.replace(curve, rows=rows))
    op, alt = find(built, "growth_curve su2 poly:alpha=1.5")
    assert rejects(find(built, "growth_curve su2 poly:alpha=1")[0], alt)
    op, (field, defect, cutoff) = find(built, "exp_itu su2")
    assert rejects(op, (field * (1 + 1e-9), defect, cutoff))
    for name in ("exp_itu torus:1", "exp_itu torus:2"):
        op, (field, defect) = find(built, name)
        terms = workloads.as_terms(field)
        group = "torus:1" if name.endswith("1") else "torus:2"
        biggest = max(terms, key=lambda a: abs(terms[a][0, 0]))
        assert rejects(op, (workloads.make_field(group, {a: M for a, M in terms.items() if a != biggest}), defect))
        assert rejects(op, (field * (1 + 1e-9), defect))
    op, rep = find(built, "separating_function")
    assert rejects(op, dataclasses.replace(rep, field=rep.field * 1.001))


def test_cli_checks_reject(built):
    op, (code, out) = find(built, "synth-degree")
    assert rejects(op, (0, "4\n"))
    assert rejects(op, (2, out))
    for name in ("validate-weight", "growth", "norm char:1", "factorize big.json"):
        op, (code, out) = find(built, name)
        assert rejects(op, (3, out))


def test_cli_checks_read_the_files(built, tmp_path):
    ops = {op.name: op for op in workloads.build("stepping", SEED, str(tmp_path), small=True)}
    op = ops["norm char:1"]
    op.run()
    path = tmp_path / "norm1.json"
    path.write_text(path.read_text().replace('"value": 4.0', '"value": 4.000000004'))
    assert rejects(op, (0, ""))
    op = ops["derivation"]
    op.run()
    path = tmp_path / "scan.csv"
    lines = path.read_text().splitlines()
    n, sup = lines[100].split(",")
    lines[100] = f"{n},{float(sup) * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert rejects(op, (0, ""))


def _traced_round(tmp_path, workload):
    ops = workloads.build(workload, SEED, str(tmp_path), small=True)
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            op.check(op.run())
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.round_metrics().items() if PER_LAYER[k] != "s"}, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(tmp_path, workload):
    runs = []
    for sub in ("a", "b"):  # equal-length work directories: reports embed their paths
        (tmp_path / sub).mkdir()
        runs.append(_traced_round(tmp_path / sub, workload))
    (first, tracer), (second, _) = runs
    assert first == second
    assert any(first.values())
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)


def test_tracer_restores_bfw():
    import bfw
    from bfw import duals, fields, quadrature, weights

    before = (fields.multiply, bfw.multiply, quadrature.su2_irrep_stack, duals.GroupDual.__dict__["fuse"],
              fields.OperatorField.__dict__["from_terms"], weights.Weight.__dict__["log_value"])
    tracer = Tracer()
    tracer.install()
    assert fields.multiply is not before[0] and bfw.multiply is fields.multiply
    assert workloads.multiply is fields.multiply
    assert quadrature.su2_irrep_stack is duals.su2_irrep_stack is not before[2]
    tracer.uninstall()
    after = (fields.multiply, bfw.multiply, quadrature.su2_irrep_stack, duals.GroupDual.__dict__["fuse"],
             fields.OperatorField.__dict__["from_terms"], weights.Weight.__dict__["log_value"])
    assert all(x is y for x, y in zip(before, after))


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "op_p50_ms", "peak_rss_mb", "setup_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**PER_LAYER, "trace.overhead_s": "s"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stepping", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_closed_forms_against_direct_sums():
    # the own SU(2) representation is a homomorphism and unitary on SU(2)
    rng = np.random.default_rng(0)
    g, h = checks.haar_su2(rng), checks.haar_su2(rng)
    for n in (1, 4, 9):
        assert np.allclose(checks.su2_rep(n, g @ h), checks.su2_rep(n, g) @ checks.su2_rep(n, h), atol=1e-12)
        assert np.allclose(checks.su2_rep(n, g).conj().T @ checks.su2_rep(n, g), np.eye(n + 1), atol=1e-12)
    # b_n traces reproduce e^{it cos theta} on class angles
    theta = np.linspace(0.1, 3.0, 7)
    b = checks.su2_exp_traces(3.0, 60)
    vals = checks.su2_central_values(dict(enumerate(b)), theta)
    assert np.allclose(vals, np.exp(3.0j * np.cos(theta)), atol=1e-12)
    # the scan closed form is the running sup of c n / (1 + n)^alpha
    ns = np.arange(1, 200)
    assert np.all(np.diff(checks.derivation_scan(ns, 1.0, 1.0)) > 0)
