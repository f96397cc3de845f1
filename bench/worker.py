"""One benchmark process: set up a workload, run its jobs once, report.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
already fixed in the environment.  Modes:

- ``run``: time ``import calab`` plus generating the jobs (set-up), then run
  every job in order (closed loop) and time each job.  A
  ``hostspeed.SpeedProbe`` samples the host's speed meanwhile, and set-up and
  job times are reported in reference seconds (see ``hostspeed``), next to
  the raw ones;
- ``scaling``: time the sweep config through the CLI at ``--threads 1`` and
  at ``--threads nproc``, without the probe.

``--trace 1`` wraps calab before the jobs run, adds per-layer metrics (raw
seconds, the probe's own time left out) and writes the spans to ``--spans``.
The result is one JSON object written to ``--result``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "scaling"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    tmp = Path(args.tmp)

    import workloads  # imports calab

    jobs = workloads.make_jobs(args.workload, args.seed, tmp)
    t_setup = time.perf_counter()
    out = {}

    if args.mode == "scaling":
        out["sweep_scaling_eff"] = _sweep_scaling(args.seed, tmp)
    else:
        import hostspeed

        probe = hostspeed.SpeedProbe()
        probe.start()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(clock=probe.clock)
            tracing.install(tracer)
        records, digests, job_times = [], {}, []
        for job in jobs:
            t0, c0 = time.perf_counter(), probe.clock()
            recs, digest = workloads.run_job(job)
            job_times.append((t0, time.perf_counter(), probe.clock() - c0))
            records.extend(recs)
            if job.writes_report:
                digests[job.name] = digest
        probe.stop()
        out["setup_s"] = (t_setup - T_START) * probe.speed(T_START, t_setup)
        out["job_raw_s"] = [s for _, _, s in job_times]
        out["job_s"] = [s * probe.speed(t0, t1) for t0, t1, s in job_times]
        out["host_speed"] = statistics.median(s for _, s in probe.samples)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["checks"] = records
        out["digests"] = digests
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer.spans)
            tracing.write_spans(tracer.spans, args.spans)

    out["env"] = _environment()
    Path(args.result).write_text(json.dumps(out))
    return 0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _sweep_scaling(seed: int, tmp: Path) -> float:
    """t(1 thread) / (nproc * t(nproc threads)) for the sweep config."""
    from calab import cli
    from workloads import CONFIGS

    nproc = len(os.sched_getaffinity(0))
    times = {}
    for threads in (1, nproc):
        t0 = time.perf_counter()
        code = cli.main(["sweep", "--config", str(CONFIGS / "sweep_random_n2.json"),
                         "--out", str(tmp / f"scaling_{threads}"),
                         "--seed", str(seed), "--threads", str(threads)])
        times[threads] = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"sweep at --threads {threads} exited {code}")
    return times[1] / (nproc * times[nproc])


if __name__ == "__main__":
    sys.exit(main())
