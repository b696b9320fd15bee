"""The README's Python examples run as written: every ```python block, in
order, in one interpreter, with warnings as errors."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 3
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)],
        capture_output=True,
        env=checkout_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
