"""Golden CLI bytes: stdout, stderr and exit code of every command in both
formats, on configs that reach every model, option and failure path.

The files under tests/golden/ were written by this module's capture() and
are compared byte for byte, so any change to an output number or byte
fails here.  Regenerate them only where a change of output is intended
and explained:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from micromaser.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("steady", "sweep", "compare", "linewidth")
FORMATS = ("csv", "json")

CASES = {
    # every model with options; pump 0 and pump 1e-300 leave the linewidth
    # undefined (mean below the floor), and Mandel Q missing at pump 0
    "options": {
        "models": [
            "exact",
            "post4",
            {"name": "weak_lindblad", "order": 5},
            "weak_lindblad",
            {"name": "uniform_lindblad", "order": 2},
            "uniform_lindblad",
            {"name": "heuristic", "gain": 2.5, "beta": 0.05, "ordering": "a_dag_a"},
            {"name": "heuristic", "ordering": "a_dag_a"},
            "heuristic",
        ],
        "g_tau_bar": 0.15,
        "pump": [0.0, 1e-300, 0.3, 1.1, 2.5],
    },
    # a fixed truncation: post4 without cutoff has negative weights, and its
    # signed weight fails to normalize at some pumps
    "fixed": {
        "models": ["post4", "exact", {"name": "weak_lindblad", "order": 5}, "heuristic"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 5.0, 9.0, 0.0, 40.0],
        "truncation": 30,
        "cutoff": "off",
        "kappa": 2.0,
    },
    # an explicit cutoff below the searched truncation
    "cutoff": {
        "models": ["exact", "post4", "uniform_lindblad", "heuristic"],
        "g_tau_bar": 0.15,
        "pump": [0.5, 1e-300, 5.0],
        "cutoff": 4,
    },
    # the expansion models fail every cell, and the search gives up at its
    # hard cap for some heuristic (beta 0) pumps only
    "failures": {
        "models": ["exact", "weak_lindblad", "post4", {"name": "heuristic", "beta": 0.0}],
        "g_tau_bar": 0.5,
        "pump": [0.0, 0.9, 3.0, 1e-300, 1.2],
        "workers": 3,
    },
}


def run(case: str, command: str, fmt: str, config_path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config_path), "--format", fmt])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", list(CASES))
def test_cli_bytes_equal_the_golden_files(case, command, fmt):
    folder = GOLDEN / case
    assert json.loads((folder / "config.json").read_text()) == CASES[case]
    expected = json.loads((folder / "expected.json").read_text())[command]
    code, out, err = run(case, command, fmt, folder / "config.json")
    assert code == expected["exit"]
    assert err == expected["stderr"]
    assert out == (folder / f"{command}.{fmt}").read_text(encoding="utf-8")


def capture() -> None:
    """Write config.json, <command>.<format> (stdout) and expected.json
    (exit code and stderr per command) for every case."""
    for case, raw in CASES.items():
        folder = GOLDEN / case
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "config.json").write_text(json.dumps(raw, indent=2) + "\n")
        expected = {}
        for command in COMMANDS:
            for fmt in FORMATS:
                code, out, err = run(case, command, fmt, folder / "config.json")
                want = {"exit": code, "stderr": err}
                assert expected.setdefault(command, want) == want
                with open(folder / f"{command}.{fmt}", "w", encoding="utf-8", newline="") as fh:
                    fh.write(out)
        (folder / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(capture())
