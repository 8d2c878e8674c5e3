"""Machine speed, measured with a fixed pure-Python kernel between operations.

On a shared machine the same computation can run 40% slower for seconds
or minutes at a time.  The benchmark times a fixed kernel at a steady
interval throughout a run, from a SIGALRM handler, and scales measured
times by REF_S over the mean kernel time nearest to them: the result is
seconds at a reference machine speed, in which the drift cancels while a
change in the program's own cost stays.  The kernel touches nothing of the program and
allocates no containers, so neither the program's code nor the size of
its heap changes the kernel's time.  The time spent in the handler is
kept in `spent`, so callers can take it out of what they time.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

REF_S = 0.002             # kernel time at the reference speed
REPEATS = 3               # kernel runs per sample; the sample is their median
_TARGETS = {k: 1.0 + 0.05 * k for k in range(64)}


def _f(x: float) -> float:
    return x * x * x + x


def kernel(n: int = 400) -> float:
    """Bisection with Python-level calls and dict lookups, like the program."""
    acc = 0.0
    for k in range(n):
        lo, hi = 0.0, 4.0
        target = _TARGETS[k & 63]
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if _f(mid) <= target:
                lo = mid
            else:
                hi = mid
        acc += lo
    return acc


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []      # when each sample started
        self.spent = 0.0

    def sample(self) -> None:
        start = perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self.stamps.append(start)
        self.spent += perf_counter() - start

    def local(self, start: float, end: float, k: int) -> float:
        """Mean kernel time of the samples taken during [start, end], or,
        when fewer than k were, of the k taken nearest to it.  The mean,
        because the machine flips between a fast and a slow state (kernel
        times near 1.45 and 2.2 ms) and the median of such a mix jumps
        from one state to the other."""
        st = self.stamps
        i, j = bisect.bisect_left(st, start), bisect.bisect_right(st, end)
        while j - i < k and (i > 0 or j < len(st)):
            if j == len(st) or (i > 0 and start - st[i - 1] <= st[j] - end):
                i -= 1
            else:
                j += 1
        return statistics.fmean(self.samples[i:j])

    @contextlib.contextmanager
    def ticking(self, every_s: float):
        """Take a sample every every_s seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

