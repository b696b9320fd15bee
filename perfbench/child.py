"""Fresh-interpreter probe, started by run.py.

    python3 perfbench/child.py {setup|run} WORKLOAD SEED SMOKE WORKERS

Both modes import the package, parse the arguments and load the generated
config, and note {"ready": time.monotonic()} at that point.  `setup` prints
that and exits.  `run` then runs the workload once and adds its exit code,
checked cell values, the program's stderr and the peak resident memory from
resource.getrusage to the one JSON line it prints.
"""

import io
import json
import resource
import sys
import time


def main() -> int:
    mode, name, seed, smoke, workers = sys.argv[1:6]
    import workloads
    from micromaser import cli

    inputs = workloads.make_inputs(workloads.WORKLOADS[name], int(seed), smoke == "1")
    inputs = inputs.with_workers(int(workers))
    if inputs.command != "dense":
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(inputs.config_text())
        cli.load_config(cli.build_parser().parse_args(inputs.argv()))
        sys.stdin = saved_stdin
    report = {"ready": time.monotonic()}
    if mode == "run":
        out = workloads.run_once(inputs)
        report["code"] = out.code
        report["values"] = workloads.cell_values(inputs, out)
        report["stderr"] = out.stderr
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
