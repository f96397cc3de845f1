"""Every job of the benchmark's workloads passes its own checks at seed 0.

``bench/workloads.py`` declares each job's correctness checks (the CLI's and
the acceptance gate's tolerances).  Running the real jobs here makes a change
that breaks one of them fail in the suite, not only when the benchmark runs.
The jobs run in a fresh interpreter from the repository root, as
``bench/worker.py`` runs them, and write into a temporary directory.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = ["bench", "src"]
import workloads
records = []
for name in workloads.WORKLOADS:
    for job in workloads.make_jobs(name, 0, Path(sys.argv[1]) / name):
        records += workloads.run_job(job)[0]
print(json.dumps(records))
"""


def test_bench_jobs_pass_their_checks(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout.splitlines()[-1])
    jobs = {r["job"] for r in records}
    assert any(j.startswith("smoothing/") for j in jobs) and len(jobs) > 20
    failed = [r for r in records if not r["pass"]]
    assert not failed, json.dumps(failed, indent=1)
