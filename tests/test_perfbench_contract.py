"""The benchmark's self-test, run as part of the test suite.

``perfbench/`` wraps functions of the package by name, calls every sweep with
``jobs=1`` and checks report digests on its ``tiny`` workload; this test fails
when a change to the package breaks any of that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
