"""Smoke test of the benchmark: every workload on its tiny grid, in both modes.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

Each run must exit 0, pass its correctness gate, and print every metric that
BENCHMARK.json names, with its unit, both on a `metric` line and in the
final JSON object.  Untraced runs must also print fail_ratio and
stderr_warnings, the two end-to-end figures that read 0 on a clean run.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ZERO_ON_CLEAN_RUN = {"fail_ratio": "ratio", "stderr_warnings": "count"}


def check(workload: str, trace: int) -> None:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "0.5", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            float(value)
            printed[name] = unit
    assert printed == {**expected, **(ZERO_ON_CLEAN_RUN if trace == 0 else {})}


def test_every_workload_prints_every_metric():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check(workload["name"], trace)


if __name__ == "__main__":
    test_every_workload_prints_every_metric()
    print("smoke test passed")
