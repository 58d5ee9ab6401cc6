"""The benchmark's own self-test, run as part of the suite.

The layer trace patches functions of pnk by name (``casestudy.desugar``,
``Kernel.apply``, ``star.solve_absorption_row``, ...).  A change that renames
or bypasses one of them makes the self-test fail here, instead of making the
benchmark report zero time for that layer.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
