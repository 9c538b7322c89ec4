#!/usr/bin/env python3
"""Benchmark of the bfw workbench: one workload per process, outputs checked.

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; bfw is imported from the checkout's
``src/``.  The process pins itself to one CPU and BLAS to one thread, builds
the workload's operations from the seed, and repeats whole rounds of them
until the next round would end past ``--seconds`` (at least one round).
Each output is checked against a closed form (see checks.py) between
operations, outside the timed regions.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (summed operation
time per round, over all rounds of the run), ``op_p50_ms`` (median over the
round's operations of each one's mean latency), ``peak_rss_mb`` (ru_maxrss
of this process) and ``setup_s`` (median over five fresh processes of the
time from process start to the first timed operation: interpreter,
``import bfw``, seeded inputs).

``--trace 1`` runs untraced rounds for half the time, then installs the
wrappers of tracing.py and runs traced rounds for the other half.  It
reports the per-layer metrics (per round) and ``trace.overhead_s`` (traced
minus untraced time per round), and writes the spans to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  Untraced runs install
nothing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
READY = "perfbench-ready"


def bootstrap() -> None:
    """Pin to one CPU and import bfw from this checkout's src/, or stop with a
    nonzero exit.  Pinning keeps the process (and its set-up children) on one
    core for the whole run: on a shared 2-vCPU KVM guest, 20 s runs of the
    products part spread 20% (quartile distance over median) unpinned, 13%
    pinned."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "bfw" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bfw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bfw

    if Path(bfw.__file__).resolve().parent != SRC / "bfw":
        raise SystemExit(f"perfbench: imported bfw from {bfw.__file__}, not from {SRC}")


class Tally:
    """Operations attempted and failed, latencies by operation, round wall times."""

    def __init__(self, n_ops: int):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.round_walls: list[float] = []

    def wall_s(self) -> float:
        """Mean round time: summed operation time over the run per round."""
        return statistics.fmean(self.round_walls)

    def op_p50_ms(self) -> float:
        """Median over the round's operations of each one's mean latency."""
        return 1e3 * statistics.median(statistics.fmean(lat) for lat in self.latencies if lat)


def run_round(ops, tally: Tally) -> None:
    from checks import CheckFailed

    wall = 0.0
    for i, op in enumerate(ops):
        tally.attempted += 1
        start = perf_counter()
        try:
            result = op.run()
        except Exception:  # a fault of the program: count it and go on
            wall += perf_counter() - start
            tally.failed += 1
            sys.stderr.write(f"FAILED {op.name}\n{traceback.format_exc()}")
            continue
        elapsed = perf_counter() - start
        wall += elapsed
        tally.latencies[i].append(elapsed)
        try:
            op.check(result)
        except CheckFailed as exc:
            tally.correct = False
            sys.stderr.write(f"WRONG {op.name}: {exc}\n")
        except Exception:  # a check that cannot read the output rejects it
            tally.correct = False
            sys.stderr.write(f"WRONG {op.name}\n{traceback.format_exc()}")
        del result
    tally.round_walls.append(wall)


def run_rounds(ops, seconds: float, tally: Tally, after_round=None) -> int:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    start = perf_counter()
    rounds = 0
    while True:
        run_round(ops, tally)
        if after_round is not None:
            after_round()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return rounds


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its first timed operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "0", "--setup-only"]
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != READY or code != 0:
            raise RuntimeError(f"set-up process exited {code} before its first operation")
        samples.append(ready - start)
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("stepping", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bootstrap()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            print(READY, flush=True)
            return 0
        tally = Tally(len(ops))
        if args.trace:
            metrics = traced(ops, args, tally)
        else:
            run_rounds(ops, args.seconds, tally)
            metrics = {
                "wall_s": metric(tally.wall_s(), "s"),
                "op_p50_ms": metric(tally.op_p50_ms(), "ms"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = metric(measure_setup(args.workload, args.seed), "s")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def traced(ops, args, tally: Tally) -> dict:
    from tracing import PER_LAYER, Tracer

    run_rounds(ops, args.seconds / 2.0, tally)
    untraced_wall = tally.wall_s()
    tally.round_walls.clear()
    tracer = Tracer()
    per_round = []

    def next_round():
        per_round.append(tracer.round_metrics())
        tracer.reset_round()

    tracer.install()
    try:
        run_rounds(ops, args.seconds / 2.0, tally, after_round=next_round)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [r[name] for r in per_round]  # counts repeat exactly from round to round
        metrics[name] = metric(statistics.median(values) if unit == "s" else statistics.median_low(values), unit)
    metrics["trace.overhead_s"] = metric(tally.wall_s() - untraced_wall, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
