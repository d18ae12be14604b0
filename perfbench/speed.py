"""Host-speed probe: rescale a job's time to a reference host speed.

The benchmark host is a small virtual machine on a shared server.  Its
speed swings by about 2x (``kernel`` below takes 0.29 ms in quiet phases
and 0.5-0.6 ms in busy ones) in phases that last from under a second to
over a minute.  The swings show in user CPU time as well as wall time,
so they come mostly from contention for the physical core, not from
steal time.  A run of under a minute can fall wholly in a busy phase, so
no statistic over one run's raw times removes them.

``Probe`` times a fixed kernel (small numpy arrays plus Python float
arithmetic, the mix of the program's hot loops) ``EDGE_REPS`` times right
before and after a job and, every ``PERIOD_S`` of wall time, once inside
it, from a SIGALRM handler on the main thread.  The job's time is then
rescaled:

    normalised = (raw - time spent in probes inside the job) * REF_S / mean probe time

``REF_S`` is the kernel's time on this benchmark's host in a quiet phase,
so a normalised time reads roughly as seconds on a quiet host.  The
rescaling is exact when the job and the kernel slow down by the same
factor.  The program's hot loops slow down somewhat less than the kernel,
so normalised times read about 14% below quiet-phase raw times
(``BASELINE.md``); both sides of a comparison are rescaled alike.

A job that runs worker threads is probed only before and after: inside
it the handler would run on the main thread and wait for the GIL behind
the workers, which would time the program rather than the host.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.05
# kernels timed back to back before and after each job
EDGE_REPS = 5
# the kernel's time on a quiet 2-vCPU host (Intel Xeon, Python 3.11, numpy 2.4)
REF_S = 2.9e-4
# a probe more than this many times the job's median probe was preempted:
# clip it, or a few milliseconds of stall would count a hundred times over
CLIP = 3.0


def kernel() -> float:
    # numpy is imported here, not at the top, so that the benchmark's
    # set-up time still includes numpy's import
    import numpy as np

    x = np.linspace(-1.0, 1.0, 15)
    w = np.full(15, 2.0 / 15)
    s = 0.0
    for i in range(100):
        y = np.exp(-(x * (1.0 + 1e-6 * i)) ** 2)
        s += float(y @ w) + math.sqrt(i + 1.0) * 0.5
    return s


class Probe:
    """Context manager: probes the host around and (optionally) inside a job."""

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.samples: list[float] = []
        self.spent_inside = 0.0
        self._previous = None

    def _probe(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self.spent_inside += self._probe()

    def __enter__(self) -> "Probe":
        for _ in range(EDGE_REPS):
            self._probe()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_REPS):
            self._probe()
        return False

    def mean(self) -> float:
        """Mean probe time, each sample clipped at ``CLIP`` x the median."""
        cap = CLIP * statistics.median(self.samples)
        return statistics.fmean(min(s, cap) for s in self.samples)

    def scale(self) -> float:
        """Factor that takes this job's raw seconds to quiet-host seconds."""
        return REF_S / self.mean()
