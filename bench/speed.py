"""Rescaling wall times to a reference machine speed.

The benchmark was defined on a 2-vCPU VM whose speed changes by up to 1.6x,
from one second to the next and for stretches of up to a minute, as other
guests load the host.  A median over one run cannot average that out, and a
calibration before and after a pass misses changes inside it.  So while a
pass runs, :class:`Meter` interrupts it every INTERVAL_S of wall time
(SIGALRM) and times a short piece of pure-Python exact rational arithmetic
that does not touch the program under test.  It reports

    wall_s   = elapsed time minus the time spent in those calibrations
    scaled_s = wall_s * CAL_REF_S / mean(calibration times)

i.e. the time the pass would take on a machine where the calibration takes
CAL_REF_S.  The program's own speed moves scaled_s exactly as it moves
wall_s; the machine's speed cancels to the extent that the calibration and
the program slow down together.  On identical work, this cut the spread
(interquartile range over median) of 20 repeated passes from 0.13 to 0.02.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
CAL_REF_S = 0.0025  # typical calibration time on the reference VM (python 3.11.7)


def calibrate() -> float:
    """Seconds for a fixed short stretch of exact rational arithmetic."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def scaled(wall_s: float, calibration_s: float) -> float:
    return wall_s * CAL_REF_S / calibration_s


class Meter:
    """Context manager timing its body in wall and scaled seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self.wall_s = self.scaled_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())
        self.wall_s = elapsed - self._spent
        self.scaled_s = scaled(self.wall_s, statistics.fmean(self.samples))
