"""The host's speed, read from a fixed loop, so timings can be scaled to one speed.

The host this benchmark was defined on changes speed by up to 1.5x, for
fractions of a second and for minutes at a time, which moved every timing
15-25 % from run to run.  So a timed run reads the host's speed every
SAMPLE_S seconds, also in the middle of a call, by timing a fixed loop of
modular powers (of the loops tried, the one that tracked the calls best),
and scales each call's time by REFERENCE_S over the mean loop time around
it: timings are reported at one nominal host speed.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.0026  # the loop's time on that host when fast
SAMPLE_S = 0.1


def reference_s():
    """One time of the reference loop: 2000 modular powers."""
    start = perf_counter()
    for p in range(1000003, 1004003, 2):
        pow(3, p - 1, p)
    return perf_counter() - start


class HostClock:
    """Times the reference loop every SAMPLE_S seconds while running.

    A SIGALRM timer runs the loop in the main thread between two bytecodes,
    so a sample lies wholly inside a call or wholly outside it.
    """

    def __init__(self):
        self.ends, self.refs, self.costs = [], [], []

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        ref = reference_s()
        end = perf_counter()
        self.ends.append(end)
        self.refs.append(ref)
        self.costs.append(end - start)

    @contextlib.contextmanager
    def running(self):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def scaled(self, start, end):
        """Seconds from start to end, less the samples taken in between, at
        nominal speed: scaled by those samples and the nearest on each side."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        own = end - start - sum(self.costs[lo:hi])
        return own * REFERENCE_S / statistics.fmean(self.refs[max(lo - 1, 0) : hi + 1])
