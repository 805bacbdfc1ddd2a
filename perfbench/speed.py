"""A gauge of the machine's momentary speed, for timing on a shared host.

On a machine shared with other tenants, the same call can take up to
twice as long for stretches of 10 to 40 seconds, longer than a run.  No
in-run statistic of the calls alone (mean, median, best of repeats)
removes that.  So a fixed reference kernel, the harness's own code and
never triqent's, is timed every ``EVERY`` seconds by an interval timer,
also in the middle of a call (its time is taken off the call's
latency); each call's time is scaled by ``NOMINAL_S`` over the median of
the kernel timings taken within ``WINDOW`` seconds of it.  The benchmark
process is pinned to one CPU, which its setup probes inherit, so that
the kernel and the calls it gauges share a core.  A scaled time reads as
"seconds on a machine where the kernel takes ``NOMINAL_S``", which is
what a 2.0 GHz Xeon vCPU takes while its host is quiet.  The raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: kernel time that scaled timings are expressed against
NOMINAL_S = 1.2e-3
#: seconds between two kernel timings
EVERY = 0.1
#: a call is scaled by the median of the kernel timings this many seconds around it
WINDOW = 1.0


def kernel() -> float:
    """Median seconds of three runs of the reference kernel."""
    return sorted(_kernel_once() for _ in range(3))[1]


def _kernel_once() -> float:
    """Seconds taken by a fixed loop of Python float and int arithmetic.

    Plain bytecode tracks the slowdowns of triqent's calls more closely
    than numpy-scalar or small-array work, which slows about twice as
    much as the calls do when the host is loaded.
    """
    t0 = time.perf_counter()
    x = 0.0
    for i in range(10000):
        x += i * 0.5 - (i % 7)
    return time.perf_counter() - t0


class Gauge:
    """Kernel timings taken every ``EVERY`` seconds by an interval timer, also during calls.

    Use as a context manager around the loop.  ``stolen`` is the time the
    timings took so far; a caller subtracts its growth across a call
    from that call's latency.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.seconds.append(kernel())
        self.at.append(time.perf_counter())
        self.stolen += self.at[-1] - t0

    def __enter__(self) -> "Gauge":
        self._tick()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._tick()

    def factors(self, starts: np.ndarray, latencies: np.ndarray) -> np.ndarray:
        """Scale factor of each call from the kernel timings within ``WINDOW`` seconds of it."""
        at, secs = np.asarray(self.at), np.asarray(self.seconds)
        lo = np.searchsorted(at, starts - WINDOW)
        hi = np.searchsorted(at, starts + latencies + WINDOW)
        return np.array([NOMINAL_S / np.median(secs[a:b]) for a, b in zip(lo, hi)])
