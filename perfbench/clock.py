"""The benchmark's clocks: process CPU time, and CPU time calibrated to machine speed.

On a shared virtual machine the speed of a CPU second drifts by up to 2x
over tens of seconds, with other tenants' load.  A call's CPU time is
therefore rescaled by a calibration loop timed while it runs:

    calibrated = cpu * NOMINAL_S / (CPU time of the loop then)

The loop is pure-Python Fraction arithmetic, like most of torquot's work,
and does not use torquot, so no change to the package can move it.
NOMINAL_S is roughly the loop's CPU time on an unloaded Intel Xeon of the
2-CPU machine the benchmark was defined on, so calibrated seconds read
close to CPU seconds there.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.008
INTERVAL_S = 0.5  # wall seconds between calibration samples


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(i % 17 + 1, i % 13 + 1)
    return total


def calibrate() -> float:
    """CPU seconds the calibration loop takes now."""
    start = cpu_seconds()
    calibration_loop()
    return cpu_seconds() - start


class Calibrator:
    """Samples the calibration loop every INTERVAL_S while active.

    A SIGALRM timer runs the loop in the main thread, in the middle of
    whatever call is running; calibrated() takes the loop's own CPU time back
    out of that call.  (A CPU-time timer would do as well, but while one is
    armed Linux reads the process CPU clock at scheduler-tick resolution.)
    Use as a context manager around the timed calls.
    """

    def __init__(self):
        self.starts: list[float] = []  # CPU clock when each loop run began
        self.spans: list[float] = []  # CPU seconds each loop run took

    def _sample(self, *_):
        self.starts.append(cpu_seconds())
        self.spans.append(calibrate())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of a call that ran from CPU time start to end.

        The loop runs that fell inside the call are subtracted; the speed is
        the mean over those runs and the nearest run on either side.
        """
        first = bisect.bisect_right(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.spans[first:last])
        near = self.spans[max(first - 1, 0):last + 1]
        scale = statistics.fmean(NOMINAL_S / span for span in near)
        return (end - start - inside) * scale
