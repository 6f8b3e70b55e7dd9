"""Machine-speed calibration shared by the benchmark's processes.

The 2-vCPU Xeon virtual machine the benchmark was defined on changes speed
by up to half within tens of seconds (host frequency and contention: the
same fixed loop takes 27 ms and then 42 ms), so raw wall times spread more
across runs than any useful regression bound.  Each timed call is therefore
scaled to a nominal machine speed, measured by a fixed probe: a pure-Python
loop, small ``eigh`` calls and small-array numpy operations, the three kinds
of work the workloads do.  Over repeated ``exact`` jobs the probe-scaled
time varies about 5% where raw time varies 17-22%; overall the mix tracks
better than any one of its parts.  The probe runs before and after each
call and, from a timer signal, every ``PERIOD_S`` during it.  Raw wall
times are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0015  # probe time at the nominal speed
PERIOD_S = 0.2

_SYMMETRIC = np.add.outer(np.arange(8.0), np.arange(8.0)) + np.eye(8)
_EIGH = np.linalg.eigh  # bound at import, so a traced run's wrapper never sees the probe


def probe() -> float:
    """Seconds one fixed probe takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    for _ in range(20):
        _EIGH(_SYMMETRIC)
    for _ in range(200):
        a = np.zeros(64)
        a = a + 1.0
        a.sum()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Probe time now; median of five, so one interruption does not count."""
    return statistics.median(probe() for _ in range(5))


def scale(elapsed: float, probes: list[float]) -> float:
    """`elapsed` expressed at the nominal speed, given probe times measured around
    and during it."""
    return elapsed * NOMINAL_S / statistics.fmean(probes)


class SpeedSampler:
    """Runs the probe every ``PERIOD_S`` seconds while active.

    The probes run in the main thread from ``SIGALRM``; a signal that
    arrives during a long native call is handled when the call returns.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
