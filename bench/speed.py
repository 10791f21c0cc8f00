"""Host-speed sampling for calibrated timings.

The benchmark host's speed drifts by a quarter within seconds, both
between jobs and inside one, so a bare stopwatch spreads too widely to
bound a regression.  While a pass runs, a timer signal interrupts it every
SAMPLE_EVERY_S and times a short fixed pure-Python loop that is
independent of posetassoc.  An interval's calibrated time is its measured
time, less the time spent sampling inside it, scaled by REF_SAMPLE_S over
the median sample taken in and around it: seconds on a host where the loop
takes REF_SAMPLE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.05
REF_SAMPLE_S = 0.0004     # one sample loop on a 2-vCPU x86-64 VM, Python 3.11
MARGIN_S = 0.125          # short intervals also use the samples this close


def _sample_loop() -> None:
    found = set()
    total = 0
    for mask in range(1, 1 << 11):
        low = mask & -mask
        rest = mask ^ low
        if rest and rest & (rest - 1) == 0:
            found.add(frozenset((low, rest)))
        total += (mask >> 3) & low


class SpeedSampler:
    """Times the sample loop from a SIGALRM timer while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _sample_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _durations(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return [self.ends[i] - self.starts[i] for i in range(lo, hi)]

    def calibrated(self, start: float, end: float) -> tuple[float, float]:
        """Measured and calibrated seconds of [start, end], sampling excluded."""
        own = end - start - sum(self._durations(start, end))
        around = self._durations(start - MARGIN_S, end + MARGIN_S)
        if not around:
            raise RuntimeError("no speed sample near the interval")
        return own, own * REF_SAMPLE_S / statistics.median(around)
