"""Smoke test of the benchmark harness: its self-test runs on tiny inputs.

The self-test checks that every declared metric is printed and that the
correctness and determinism checks catch a perturbed value.  It does not
gate on timings.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "perfbench selftest: ok" in result.stdout
