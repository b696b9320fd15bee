"""Every demo exits 0, writes nothing to stderr and prints the bytes pinned in
tests/golden/demos/<name>.txt. Regenerate a golden file only for an intended,
explained output change:

    PYTHONPATH=src python3 demos/<name>.py > tests/golden/demos/<name>.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
