"""Host-speed normalisation of the benchmark's times.

A shared host runs the same single-threaded code up to ~1.7x faster or
slower, changing within a second and staying for up to minutes (measured on
a 2-vCPU Intel Xeon VM; no steal time shows, so process CPU time swings just
as much).  A raw time then says as much about the host's phase as about
calab.

``SpeedProbe`` runs a fixed calibration kernel (BLAS matrix products,
elementwise array work, a pure-Python loop and small array calls, like
calab's own mix; about 8 ms) every ``PERIOD_S`` seconds from a ``SIGALRM``
handler, which Python runs between bytecodes of the main thread.  The host's
speed at a sample is ``REF_KERNEL_S / kernel time``.  A span of work is
reported in reference seconds: its wall time, without the probe's own time,
times the mean speed of the samples taken during it and one period either
side.  On a host running at the reference speed a reference second is a
second.  On that VM the scaling cut the spread (standard deviation of the
log) of one process's job-list time from 0.13-0.19 to 0.03-0.05 on each
workload.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
START_SAMPLES = 3
# median kernel time on the reference host (2-vCPU Intel Xeon VM, one BLAS
# thread) in its slower, more common phase; a fixed scale, not a tolerance
REF_KERNEL_S = 0.0086

_rng = np.random.default_rng(0)
_A = _rng.random((200, 200))
_X = _rng.random(40_000)
_S = _rng.random(8)


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(3):
        _A @ _A
    for _ in range(3):
        np.sqrt(np.sin(_X) * _X + 1.0)
    s = 0
    for i in range(40_000):
        s += i * i
    for _ in range(300):  # per-call overhead of small array operations
        np.add(_S, 1.0).sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Periodic host-speed samples and a clock that excludes them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, speed)
        self.spent = 0.0  # seconds spent inside the probe
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        d = kernel()
        self.samples.append((t0 + d / 2, REF_KERNEL_S / d))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        for _ in range(START_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clock(self) -> float:
        """perf_counter() minus the time spent in the probe so far."""
        return time.perf_counter() - self.spent

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1] (perf_counter times), widened by one
        period on each side so a short span still has samples."""
        near = [s for t, s in self.samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        if not near:  # no sample close by: the nearest one
            near = [min(self.samples, key=lambda ts: min(abs(ts[0] - t0),
                                                         abs(ts[0] - t1)))[1]]
        return statistics.fmean(near)
