"""Rewrite reference.json from the package as it stands.

    python3 perfbench/capture_reference.py

Runs every workload once at the default seed and full size, and stores the
checked values of its reference cells and per-model column sums.  Capture
only from a commit whose outputs are known to be right; the benchmark
compares later commits against this file at the default seed.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    record = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.make_inputs(workload, workloads.DEFAULT_SEED)
        values = workloads.cell_values(inputs, workloads.run_once(inputs))
        if any(v is None for v in values):
            print(f"{name}: some cells fail their checks; no reference written", file=sys.stderr)
            return 1
        record[name] = workloads.summarize(inputs, values)
        print(f"{name}: {len(values)} cells, {len(record[name]['cells'])} stored")
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    (BENCH / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
