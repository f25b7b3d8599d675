"""The host's current speed, sampled while the jobs run.

On a host whose cores are shared with other work, the same pure-Python
computation runs up to twice as slow in bursts that last from seconds to
whole minutes.  A burst that covers a whole run slows every repeat of a
short job alike, so taking the fastest repeat cannot remove it.

The sampler measures the slowdown instead: a SIGALRM timer interrupts the
running job every INTERVAL_S, and the handler times one run of
`calibration_loop`, a small piece of Fraction and dict work.  The handler's
time is subtracted from the job it interrupted.  `speed` compares the
calibration times measured during (or around) a job with REFERENCE_S.
Short jobs slow down about as much as the calibration loop does (their
latency over the calibration time stayed within 3% across 10-s windows in
which the latency itself moved by 20%); long jobs slow down less, which is
why run.py scales only the jobs that workloads.py marks as short.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.2
NEAREST = 5
# Median time of calibration_loop on the reference host: one core of an
# Intel Xeon at 2.1 GHz, CPython 3.11, with no other load on the core.
REFERENCE_S = 0.00105


def calibration_loop() -> Fraction:
    table = {}
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(1, i % 97 + 1)
        table[i % 13] = s
    return s


class Sampler:
    """Samples the host speed on a timer while it is started."""

    def __init__(self):
        self.times: list = []      # start of each calibration sample
        self.durations: list = []  # its duration
        self.stolen = 0.0          # total time spent taking samples
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.stolen += t1 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def calibrate(self, count: int) -> None:
        """Take `count` samples now, outside any job."""
        for _ in range(count):
            self._sample(None, None)

    def speed(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration time in [start, end].

        With fewer than NEAREST samples in the window, the NEAREST samples
        around its middle are used instead.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
