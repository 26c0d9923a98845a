"""Smoke tests of the scripts under tools/."""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


def test_step_faults_prints_per_step_quantiles():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "step_faults.py"),
                           "--rows", "64", "--steps", "2"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "rows=64 depth=3+3 steps=2 (first is warm-up)"
    assert [line.split()[0] for line in lines[1:]] == ["minflt", "stime_ms", "step_ms"]
    for line in lines[1:]:
        p10, p50 = (float(part.split("=")[1]) for part in line.split()[1:])
        assert 0.0 <= p10 <= p50
