"""calab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` from a checkout's root.  Each
repetition is a fresh single process (``bench/worker.py``) that imports calab
from ``src/``, generates the workload's jobs from the seed and runs them one
after another (closed loop, one client).  A run makes a fixed number of
repetitions, ``--seconds`` over the time budgeted per repetition (``REP_S``)
and at least two, so every statistic is taken over the same number
of samples whatever the code's speed, and each CLI report is compared byte for
byte across processes.

Times are in reference seconds: raw wall time scaled by the host's speed,
sampled while the work runs (see ``hostspeed``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over the
repetitions), ``wall_s`` (each job's median over the repetitions, summed),
``peak_rss_mb`` (median) and ``pass_frac`` (passed over attempted checks).
``--trace 1`` runs untraced and traced repetitions in pairs and prints the
per-layer metrics of the traced ones, ``cli.sweep_scaling_eff`` and
``trace.overhead_frac``; the traced run's spans are kept in ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A check counts as
attempted once per repetition; see ``workloads.STATUS_CHECKS`` for the checks
that count as failed without making the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# One BLAS thread, so no process runs more threads than nproc (the sweep
# scaling run starts nproc threads of its own); OpenBLAS's default of one
# thread per core also made geometry_n3's times swing.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# seconds budgeted per repetition (process start and probe included, in
# reference seconds); they set the repetition count and nothing else
REP_S = {"spectral_n3": 28.0, "planar_n2": 5.0, "geometry_n3": 11.0}
MIN_REPS = 2
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = _worker_env()
        self.spans = ROOT / ".bench_out" / f"spans_{workload}_seed{seed}.jsonl"
        self.count = 0

    def spawn(self, mode: str, trace: int = 0) -> dict:
        """Run one worker process to completion and return its result."""
        self.count += 1
        work = self.tmp / f"w{self.count}"
        work.mkdir(parents=True)
        result = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
               "--tmp", str(work), "--result", str(result)]
        if trace:
            self.spans.parent.mkdir(exist_ok=True)
            cmd += ["--spans", str(self.spans)]
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
        return json.loads(result.read_text())


def _determinism_checks(runs: list[dict]) -> list[dict]:
    """report.json of each CLI job must be byte-identical across processes."""
    records = []
    first = runs[0]["digests"]
    for run in runs[1:]:
        for job, digest in first.items():
            same = digest is not None and run["digests"].get(job) == digest
            records.append({"job": job, "check": "report_identical", "value": None,
                            "pass": same, "status": False, "error": None})
    return records


def _summary(runs: list[dict]) -> tuple[bool, int, int, list[dict]]:
    records = [r for run in runs for r in run["checks"]] + _determinism_checks(runs)
    failed = [r for r in records if not r["pass"]]
    correct = not any(not r["status"] or r["error"] for r in failed)
    return correct, len(records), len(failed), failed


def repetitions(workload: str, seconds: float) -> int:
    return max(MIN_REPS, round(seconds / REP_S[workload]))


def _job_list_s(runs: list[dict]) -> float:
    """Time of the job list: each job's median over the runs, summed."""
    return sum(statistics.median(times) for times in zip(*(r["job_s"] for r in runs)))


def measure(runner: Runner, reps: int) -> tuple[dict, list[dict], dict]:
    """Untraced run: end-to-end metrics."""
    runs = [runner.spawn("run") for _ in range(reps)]
    _, attempted, failed, _ = _summary(runs)
    metrics = {
        "setup_s": statistics.median([r["setup_s"] for r in runs]),
        "wall_s": _job_list_s(runs),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "pass_frac": (attempted - failed) / attempted,
    }
    return metrics, runs, runs[0]["env"]


def measure_traced(runner: Runner, reps: int) -> tuple[dict, list[dict], dict]:
    """Traced run: per-layer metrics, tracing overhead and sweep scaling."""
    scaling = runner.spawn("scaling")
    plain: list[dict] = []
    traced: list[dict] = []
    for _ in range(max(1, reps // 2)):
        plain.append(runner.spawn("run"))
        traced.append(runner.spawn("run", trace=1))
    metrics = {name: statistics.median([t["layers"][name] for t in traced])
               for name in traced[0]["layers"]}
    metrics["cli.sweep_scaling_eff"] = scaling["sweep_scaling_eff"]
    metrics["trace.overhead_frac"] = _job_list_s(traced) / _job_list_s(plain) - 1.0
    return metrics, plain + traced, scaling["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running
    # worker, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        for needed in (ROOT / "src" / "calab" / "__init__.py", ROOT / "configs"):
            if not needed.exists():
                raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a "
                                 "calab checkout")
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}

        tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            runner = Runner(args.workload, args.seed, tmp)
            measure_fn = measure_traced if args.trace else measure
            metrics, runs, env = measure_fn(
                runner, repetitions(args.workload, args.seconds))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                tmp.parent.rmdir()
            except OSError:
                pass
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                             "match BENCHMARK.json")
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, failures = _summary(runs)
    env.update(seed=args.seed, workload=args.workload, processes=len(runs),
               host_speed=[round(r["host_speed"], 4) for r in runs],
               wall_raw_s=sum(statistics.median(t) for t in
                              zip(*(r["job_raw_s"] for r in runs))))
    print(json.dumps({"env": env}))
    for f in failures:
        print(f"FAILED {f['job']} {f['check']} value={f['value']}"
              + (f" error={f['error']}" if f["error"] else ""))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
