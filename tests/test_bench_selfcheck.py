"""The benchmark harness's self-check passes on the current source.

``bench/selfcheck.py`` imports ``bench/workloads.py`` (and through it calab)
and checks the runner's workload and metric names against BENCHMARK.json,
with canned worker results.  A change to calab that breaks a workload's
imports or names shows up here rather than only when the benchmark runs.
It runs in a fresh interpreter from the repository root and writes no files.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout
