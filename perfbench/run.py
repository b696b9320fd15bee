"""Micromaser benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep_large --seed 0 --seconds 10 --trace 0

Run it from anywhere inside a checkout that holds src/micromaser; the
package is imported from that checkout's src/, never from site-packages.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 makes
an untraced and a traced pass, both with workers = 1, and reports the
per-layer metrics; the spans go to perfbench/out/.  --smoke swaps every
input for a tiny grid.  Lines before the last describe the environment and
each metric with its unit; the last line is one JSON object.  Exit code 1
means some output failed its check, 2 that the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, the fresh run included
CHILD_TIMEOUT_S = 150
# Span self times plus cli.other_s must match the traced run's wall time
# within this share, plus COVERAGE_SLACK_S for the timer calls around the root.
COVERAGE_TOL = 0.01
COVERAGE_SLACK_S = 1e-3
WARNING_LINE = re.compile(r"\w*Warning: ")

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_bytes", "B"), ("_ratio", "ratio")
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one setup sample")
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "micromaser" / "__init__.py").is_file():
        fail(f"no micromaser sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import micromaser

    if Path(micromaser.__file__).resolve().parent != SRC / "micromaser":
        fail(f"imported micromaser from {micromaser.__file__}, not from {SRC}")


def environment(args, inputs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {
            key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "workload": args.workload,
        "seed": args.seed,
        "workers": inputs.workers,
        "cells": len(inputs.cells),
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Gate:
    """Counts attempted and failed cells over every checked run."""

    def __init__(self, workloads, reference):
        self.workloads = workloads
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._checked: dict = {}  # CLI output text -> cell values

    def values(self, inputs, out) -> list:
        if out.code != 0 or out.dense is not None:
            return self.workloads.cell_values(inputs, out)
        if out.text not in self._checked:
            self._checked = {out.text: self.workloads.cell_values(inputs, out)}
        return self._checked[out.text]

    def add(self, inputs, values, what: str, reference: bool = True) -> None:
        bad = {i for i, v in enumerate(values) if v is None}
        if reference and self.reference is not None:
            bad |= self.workloads.reference_failures(inputs, values, self.reference)
        self.attempted += len(values)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{what}: {len(bad)} of {len(values)} cells failed")

    def lose(self, inputs, what: str) -> None:
        self.add(inputs, [None] * len(inputs.cells), what, reference=False)


def child(mode: str, args, inputs):
    """Run child.py in a fresh interpreter; (spawn time, report) or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(BENCH / "child.py"), mode, args.workload, str(args.seed),
        "1" if args.smoke else "0", str(inputs.workers),
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} child exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def timed_loop(workloads, inputs, seconds, gate, what, tracer=None) -> list:
    """Closed loop: run, check, repeat until `seconds` have passed (at least once)."""
    outs = []
    start = time.perf_counter()
    while True:
        out = workloads.run_once(inputs, None if tracer is None else tracer.root)
        if tracer is not None:
            tracer.end_request()
        gate.add(inputs, gate.values(inputs, out), f"{what} run {len(outs) + 1}")
        outs.append(out)
        if time.perf_counter() - start >= seconds:
            return outs


def rates(inputs, outs) -> list:
    return [len(inputs.cells) / out.elapsed for out in outs if out.code == 0]


def throughput(inputs, outs) -> float:
    """Cells completed per second of run time, over every run of the loop."""
    done = [out.elapsed for out in outs if out.code == 0]
    return len(inputs.cells) * len(done) / sum(done) if done else 0.0


def describe(samples) -> str:
    if len(samples) < 2:
        return f"{len(samples)} sample"
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"median {median:.6g} of {len(samples)} samples, quartiles {q1:.6g} .. {q3:.6g}"


def fresh_run(args, inputs, gate) -> dict:
    """Run the workload once in a fresh interpreter: peak memory, stderr
    warnings and the first set-up time sample."""
    fresh = child("run", args, inputs)
    if fresh is None or fresh[1]["code"] != 0:
        gate.lose(inputs, "fresh run")
        return {"setup": [], "peak_rss_mb": 0.0, "stderr_warnings": 0}
    spawned, report = fresh
    gate.add(inputs, report["values"], "fresh run")
    return {
        "setup": [report["ready"] - spawned],
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "stderr_warnings": sum(1 for line in report["stderr"].splitlines() if WARNING_LINE.search(line)),
    }


def untraced_metrics(args, workloads, inputs, gate, fresh) -> tuple:
    setup = fresh["setup"]
    while len(setup) < (1 if args.smoke else SETUP_SAMPLES):
        probe = child("setup", args, inputs)
        if probe is None:
            gate.problems.append("setup probe failed")
            break
        setup.append(probe[1]["ready"] - probe[0])
    timed = timed_loop(workloads, inputs, args.seconds, gate, "timed")
    ok_ratio = (gate.attempted - gate.failed) / gate.attempted
    metrics = {
        "points_per_s": throughput(inputs, timed),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": fresh["peak_rss_mb"],
        "ok_ratio": ok_ratio,
    }
    notes = [
        f"points_per_s over {len(timed)} runs; per run: {describe(rates(inputs, timed))}",
        f"setup_s: {describe(setup)}",
    ]
    printed_only = {"fail_ratio": 1.0 - ok_ratio, "stderr_warnings": fresh["stderr_warnings"]}
    return metrics, notes, printed_only


def traced_metrics(args, workloads, inputs, gate, fresh) -> tuple:
    import spans
    from micromaser import cli, models, observables

    untraced = timed_loop(workloads, inputs, args.seconds / 2, gate, "untraced")
    tracer = spans.Tracer()
    with tracer.instrument([cli, models, observables, workloads]):
        traced = timed_loop(workloads, inputs, args.seconds / 2, gate, "traced", tracer)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    per_request = []
    for request, out in enumerate(traced):
        values, info = tracer.request_metrics(request, out.elapsed)
        values["cli.output_bytes"] = len(out.text.encode("utf-8"))
        per_request.append(values)
        gap = abs(values["trace.coverage_ratio"] - 1.0) * out.elapsed
        if gap > COVERAGE_TOL * out.elapsed + COVERAGE_SLACK_S or info["min_self_s"] < -1e-6:
            gate.problems.append(f"traced run {request + 1}: spans do not add up to its wall time")
    metrics = {name: statistics.median(r[name] for r in per_request) for name in per_request[0]}
    traced_speed = throughput(inputs, traced)
    metrics["trace.points_per_s"] = traced_speed
    metrics["trace.overhead_ratio"] = throughput(inputs, untraced) / traced_speed if traced_speed else 0.0
    metrics["cli.stderr_warnings"] = fresh["stderr_warnings"]
    notes = [
        f"traced runs: {len(traced)}, untraced runs: {len(untraced)}",
        f"cli.point_tail_ms: percentile {info['tail_percentile']} of {info['point_samples']} points",
    ]
    return metrics, notes, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed, args.smoke)
    if args.trace:
        inputs = inputs.with_workers(1)
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    print("env " + json.dumps(environment(args, inputs)))
    gate = Gate(workloads, reference)

    # Warm-up on the tiny grid: lazy imports and first-call set-up happen here.
    tiny = workloads.make_inputs(workload, args.seed, smoke=True).with_workers(inputs.workers)
    gate.add(tiny, gate.values(tiny, workloads.run_once(tiny)), "warm-up", reference=False)
    fresh = fresh_run(args, inputs, gate)
    measure = traced_metrics if args.trace else untraced_metrics
    metrics, notes, printed_only = measure(args, workloads, inputs, gate, fresh)

    correct = gate.failed == 0 and not gate.problems
    for problem in gate.problems:
        print(f"check failed: {problem}")
    for note in notes:
        print(f"note {note}")
    units = {name: END_TO_END_UNITS.get(name) or unit_of(name) for name in {**metrics, **printed_only}}
    for name, value in {**metrics, **printed_only}.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
