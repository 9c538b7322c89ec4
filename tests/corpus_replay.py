"""The report corpus: fixed ``bfw`` invocations and the exact output of each.

``tests/corpus/cases.json`` lists the invocations, one a line: a name, the
argv, and ``"hashseed": true`` where the output depends on ``PYTHONHASHSEED``
(``nu-check`` on fields with T x| Z2 labels sums over a set of labels, see
CHANGES.md).  Their input files are ``tests/corpus/inputs/``, written from
fixed seeds by :func:`write_inputs`.  ``tests/corpus/out/<name>/`` holds what
each run wrote: ``stdout`` and ``stderr`` (left out when empty) and every
file the run created, under ``files/``.  ``tests/corpus/recorded.json`` holds
each run's exit code, the hash seed, and the machine the corpus was recorded
on (:func:`machine`).  On that machine a replay must give the recorded bytes;
on any other, or where the machine cannot be told, the texts must agree
outside their numbers and the numbers to :func:`same_text`'s tolerance.

Each run starts in a fresh directory holding a copy of ``inputs/`` and calls
``bfw.cli.main`` in-process, with RuntimeWarnings raised as errors, as the
test suite runs.  The hash-seed runs take one child process under the
recorded seed.

Rewrite the corpus, after a change that alters reports on purpose, with

    PYTHONPATH=src python tests/corpus_replay.py

and commit the changed files with the change.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent / "corpus"
HASHSEED = 0

# (file token, group, ball radius) of the seeded element files u_<token>.json and v_<token>.json
ELEMENT_GROUPS = [
    ("su2", "su2", 2), ("so3", "so3", 2), ("txz2", "txz2", 2), ("t1", "torus:1", 2),
    ("t2", "torus:2", 2), ("su2t1", "prod(su2,torus:1)", 2), ("txz2so3", "prod(txz2,so3)", 1),
]

POINTS = {
    "p_su2.json": {"group": "su2", "euler": [0.3, 1.1, 2.0], "lambda": 1.5},
    "p_t1.json": {"group": "torus:1", "z": [[1.5, 0.0]]},
    "p_t2.json": {"group": "torus:2", "z": [[2.1, 0.0], [0.0, 0.5]]},
    "p_txz2.json": {"group": "txz2", "z": [0.0, -0.6], "flip": True},
    "p_su2t1.json": {"group": "prod(su2,torus:1)", "factors": [
        {"group": "su2", "euler": [0.3, 1.1, 2.0], "lambda": 2.1}, {"group": "torus:1", "z": [[0.0, 1.0]]}]},
    "p_su2txz2t1.json": {"group": "prod(prod(su2,txz2),torus:1)", "factors": [
        {"group": "prod(su2,txz2)", "factors": [
            {"group": "su2", "euler": [0.3, 1.1, 2.0], "lambda": 1.5},
            {"group": "txz2", "z": [0.0, -0.6], "flip": True}]},
        {"group": "torus:1", "z": [[1.5, 0.0]]}]},
}

WEIGHTS = {
    "w_table.json": {"kind": "table", "entries": {"pi:1": 0.5, "pi:2": 0.33}},
    "w_exp_t2.json": {"kind": "exp", "lam": [2.0, 1.5]},
}


def platform_key() -> str:
    return f"{platform.system()}-{platform.machine()}"


def cpu_features() -> str | None:
    """The CPU features NumPy dispatches its kernels on, or None where it
    does not say."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        try:  # NumPy 1.x
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return None
    return " ".join(sorted(name for name, on in __cpu_features__.items() if on))


def blas_core() -> str | None:
    """The kernel set of the OpenBLAS a NumPy wheel ships (``SkylakeX``,
    ``Haswell``, ...), or None where no such library is found."""
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(dll, f"{prefix}openblas_get_corename{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_char_p
                    return get().decode()
    return None


def machine() -> dict:
    """What fixes the last bits of a run: the NumPy version, the platform, and
    the CPU kernels of NumPy and of its OpenBLAS.  The same NumPy wheel picks
    other kernels on another CPU, and those round differently."""
    return {"numpy": np.__version__, "platform": platform_key(),
            "cpu_features": cpu_features(), "blas_core": blas_core()}


def exact_replay(recorded: dict) -> bool:
    """Whether this machine is, as far as it can be told, the one the corpus
    was recorded on."""
    here = machine()
    return None not in here.values() and all(recorded.get(k) == v for k, v in here.items())


def write_inputs(dest: Path) -> None:
    """The corpus's input files, from fixed seeds."""
    from bfw import OperatorField
    from bfw.duals import parse_group
    from bfw.serialize import dumps, element_to_json

    dest.mkdir(parents=True, exist_ok=True)
    for seed, (token, group, radius) in enumerate(ELEMENT_GROUPS):
        dual = parse_group(group)
        rng = np.random.default_rng(100 + seed)
        for name in ("u", "v"):
            terms = {}
            for a in dual.ball(radius):
                d = dual.dim(a)
                terms[a] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            field = OperatorField.from_terms(dual, terms)
            (dest / f"{name}_{token}.json").write_text(dumps(element_to_json(field)))
    # u = (cos theta_1 + cos theta_2) / 2 on torus:2, self-adjoint for e^{itu}
    t2 = parse_group("torus:2")
    half = OperatorField.from_terms(t2, {a: np.array([[0.25]]) for a in t2.ball(1)[1:]})
    (dest / "cos_t2.json").write_text(dumps(element_to_json(half)))
    for name, doc in {**POINTS, **WEIGHTS}.items():
        (dest / name).write_text(json.dumps(doc) + "\n")


def load_cases() -> list[dict]:
    return json.loads((CORPUS / "cases.json").read_text())


def run_case(argv: list[str], inputs: Path) -> dict:
    """Run ``bfw argv`` in-process in a fresh directory holding a copy of
    inputs: the exit code, stdout, stderr and every file it created."""
    from bfw.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(inputs, work / "inputs")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = {str(p.relative_to(work)): p.read_text(encoding="utf-8")
                 for p in sorted(work.rglob("*")) if p.is_file() and p.relative_to(work).parts[0] != "inputs"}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_cases(cases: list[dict], inputs: Path, hashseed: int = HASHSEED) -> dict:
    """name -> :func:`run_case` result for every case; the hash-seed cases
    run in one child process under PYTHONHASHSEED=hashseed."""
    results = {c["name"]: run_case(c["argv"], inputs) for c in cases if not c.get("hashseed")}
    seeded = [c["name"] for c in cases if c.get("hashseed")]
    if seeded:
        child = subprocess.run([sys.executable, __file__, "--child", str(inputs), *seeded],
                               capture_output=True, text=True, env=child_env(PYTHONHASHSEED=str(hashseed)),
                               check=True)
        results.update(json.loads(child.stdout))
    return results


def child_env(**extra: str) -> dict:
    """This process's environment, with the bfw it imports first on the path."""
    import bfw

    src = Path(bfw.__file__).resolve().parents[1]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}


def replay() -> tuple[bool, dict]:
    """Replay every case: whether the comparison was byte for byte, and
    name -> :func:`differences` for every case that differs."""
    recorded = json.loads((CORPUS / "recorded.json").read_text())
    cases = load_cases()
    if sorted(recorded["exit"]) != sorted(c["name"] for c in cases):
        raise ValueError("recorded.json and cases.json name different cases: rewrite the corpus")
    exact = exact_replay(recorded)
    results = run_cases(cases, CORPUS / "inputs", recorded["hashseed"])
    failed = {name: diff for name in sorted(results)
              if (diff := differences(expected(name), results[name], exact))}
    return exact, failed


def expected(name: str) -> dict:
    """The recorded output of one case, in :func:`run_case`'s form."""
    base = CORPUS / "out" / name
    text = {k: (base / k).read_text(encoding="utf-8") if (base / k).exists() else ""
            for k in ("stdout", "stderr")}
    files = {str(p.relative_to(base / "files")): p.read_text(encoding="utf-8")
             for p in sorted((base / "files").rglob("*")) if p.is_file()}
    recorded = json.loads((CORPUS / "recorded.json").read_text())
    return {"exit": recorded["exit"][name], **text, "files": files}


_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def same_text(want: str, got: str, rtol: float = 1e-12) -> bool:
    """The texts agree outside their numbers, and number by number to rtol
    times the largest magnitude among the numbers of both texts: the
    comparison for outputs recorded under another NumPy build or platform.
    Rounding errors there scale with the output, not with the number itself:
    a 1e-17 entry next to O(1) entries, or a residual of 1e-15, may change
    by all of itself."""
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    xs = [float(x) for x in _NUMBER.findall(want)]
    ys = [float(y) for y in _NUMBER.findall(got)]
    scale = max((abs(v) for v in xs + ys), default=0.0)
    return all(abs(x - y) <= rtol * scale for x, y in zip(xs, ys))


def differences(want: dict, got: dict, exact: bool) -> list[str]:
    """What differs between two :func:`run_case` results, byte for byte when
    exact, else text by text with :func:`same_text`."""
    same = (lambda x, y: x == y) if exact else same_text
    out = []
    if want["exit"] != got["exit"]:
        out.append(f"exit {got['exit']} != {want['exit']}")
    for key in ("stdout", "stderr"):
        if not same(want[key], got[key]):
            out.append(key)
    if sorted(want["files"]) != sorted(got["files"]):
        out.append(f"files {sorted(got['files'])} != {sorted(want['files'])}")
    out += [f"files/{name}" for name in sorted(set(want["files"]) & set(got["files"]))
            if not same(want["files"][name], got["files"][name])]
    return out


def rewrite() -> None:
    """Write the inputs, run every case and record its output."""
    inputs = CORPUS / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    write_inputs(inputs)
    cases = load_cases()
    results = run_cases(cases, inputs)
    shutil.rmtree(CORPUS / "out", ignore_errors=True)
    for case in cases:
        res, base = results[case["name"]], CORPUS / "out" / case["name"]
        base.mkdir(parents=True)
        for key in ("stdout", "stderr"):
            if res[key]:
                (base / key).write_text(res[key], encoding="utf-8")
        for name, text in res["files"].items():
            (base / "files" / name).parent.mkdir(parents=True, exist_ok=True)
            (base / "files" / name).write_text(text, encoding="utf-8")
    meta = {**machine(), "hashseed": HASHSEED, "exit": {c["name"]: results[c["name"]]["exit"] for c in cases}}
    (CORPUS / "recorded.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        by_name = {c["name"]: c for c in load_cases()}
        inputs = Path(sys.argv[2])
        json.dump({n: run_case(by_name[n]["argv"], inputs) for n in sys.argv[3:]}, sys.stdout)
    elif sys.argv[1:] == ["--check"]:
        exact, failed = replay()
        json.dump({"exact": exact, "machine": machine(), "failed": failed}, sys.stdout)
    else:
        rewrite()
