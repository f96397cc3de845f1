"""Self-check of the benchmark harness; runs in a few seconds.

    python3 bench/selfcheck.py

Checks that the workload names and the metric names the runner prints match
``BENCHMARK.json`` (with worker processes replaced by canned results), that
a job which raises, or returns other checks than it declares, is counted as
failed rather than skipped, and the repetition count and time statistics.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import json  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class CannedRunner:
    """Stands in for run.Runner: every worker returns the same result."""

    workload = "selfcheck"
    seed = 0

    def spawn(self, mode, trace=0):
        return {
            "setup_s": 0.5, "env": {}, "job_s": [1.0, 1.0 + trace],
            "host_speed": 1.0,
            "peak_rss_mb": 100.0,
            "checks": [{"job": "j", "check": "c", "value": 1.0, "pass": True,
                        "status": False, "error": None}],
            "digests": {"cli_x": "abc"},
            "layers": tracing.layer_metrics([]),
            "sweep_scaling_eff": 0.5,
        }


def check_names(spec) -> None:
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert set(run.REP_S) == set(workloads.WORKLOADS)
    e2e, _, _ = run.measure(CannedRunner(), 2)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}, sorted(e2e)
    layers, _, _ = run.measure_traced(CannedRunner(), 2)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}, sorted(layers)
    for workload in workloads.WORKLOADS:
        names = [job.name for job in workloads.make_jobs(workload, 0, HERE)]
        assert names and len(names) == len(set(names)), workload


def check_failures() -> None:
    def boom():
        raise RuntimeError("boom")

    records, digest = workloads.run_job(workloads.Job("raises", ("a", "b"), boom))
    assert [r["pass"] for r in records] == [False, False] and digest is None
    assert all("boom" in r["error"] for r in records)

    wrong = workloads.Job("wrong", ("a", "b"), lambda: {"a": (1.0, True)})
    records, _ = workloads.run_job(wrong)
    assert [r["pass"] for r in records] == [False, False]

    status = workloads.Job("stall", ("converged", "el_residual"),
                           lambda: {"converged": (0.0, False),
                                    "el_residual": (1e-8, True)})
    ok = workloads.Job("ok", ("x",), lambda: {"x": (1.0, True)})
    run_of = lambda jobs: {"checks": [r for j in jobs for r in workloads.run_job(j)[0]],
                           "digests": {}}
    assert run._summary([run_of([ok, status])])[:3] == (True, 3, 1)
    assert run._summary([run_of([ok, wrong])])[:3] == (False, 3, 2)

    # a CLI report that differs between processes fails the determinism check
    a = {"checks": [], "digests": {"cli_x": "1"}}
    b = {"checks": [], "digests": {"cli_x": "2"}}
    assert run._summary([a, b])[:3] == (False, 1, 1)
    assert run._summary([a, a, a])[:3] == (True, 2, 0)


def check_timing() -> None:
    # the repetition count depends on the workload and --seconds only
    assert all(run.repetitions(w, s) >= run.MIN_REPS for w in run.REP_S
               for s in (1, 30, 60))
    probe = hostspeed.SpeedProbe()
    p = hostspeed.PERIOD_S
    probe.samples = [(0.0, 1.0), (p, 2.0), (10.0, 4.0)]
    assert probe.speed(0.0, 0.0) == 1.5  # samples within one period
    assert probe.speed(5.0, 5.0) == 2.0  # none close by: the nearest one
    runs = [{"job_s": [1.0, 5.0]}, {"job_s": [2.0, 6.0]}, {"job_s": [9.0, 4.0]}]
    assert run._job_list_s(runs) == 2.0 + 5.0  # per-job medians, summed


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check_names(spec)
    check_failures()
    check_timing()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
