"""Timing in seconds of the sizing machine running uncontended.

The CPU throughput of the machine that sized this benchmark swings by up to
2x over tens of seconds as co-tenants load the host.  A fixed 300-term
``Fraction`` sum took 0.81 to 0.88 ms at best and 1.5 ms at the median over
40 s, and some windows of 40 s or more ran at the slow speed throughout.
Raw wall times of identical work spread by 20 to 45 % between runs.

So every timed call is bracketed by a calibration (that same sum, best of
two), and its wall time is scaled by ``REFERENCE_S`` over the mean of the
calibrations before and after it.  The calibration runs no fanobalance
code, so a change to the package moves scaled times as it moves raw ones.
Run results keep the raw times too.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.00083  # one calibration sum, uncontended, Python 3.11.7
EVERY_S = 0.1  # recalibrate after this much timed work


def calibrate() -> float:
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
        best = min(best, perf_counter() - start)
    return best


def scale(raw: float, before: float, after: float) -> float:
    return raw * 2 * REFERENCE_S / (before + after)


class Stopwatch:
    """Times a sequence of calls, calibrating after every ``EVERY_S`` of them."""

    def __init__(self):
        self.raw: list[float] = []
        self._calibrations: list[tuple[int, float]] = []  # (index of next call, seconds)
        self._since = EVERY_S

    def time(self, fn):
        if self._since >= EVERY_S:
            self._calibrations.append((len(self.raw), calibrate()))
            self._since = 0.0
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            self.raw.append(elapsed)
            self._since += elapsed

    def scaled(self) -> list[float]:
        """Scaled times of all calls so far; closes the sequence."""
        cals = self._calibrations + [(len(self.raw), calibrate())]
        out, j = [], 0
        for i, raw in enumerate(self.raw):
            while cals[j + 1][0] <= i:
                j += 1
            out.append(scale(raw, cals[j][1], cals[j + 1][1]))
        return out
