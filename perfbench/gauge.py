"""Machine-speed gauge: reported times are scaled to a reference speed.

On a shared machine the same work can take 1.7x longer from one second to
the next, with CPU time tracking wall time. A fixed pure-Python Fraction
loop, timed right before and right after each measured stretch, slows down
by the same factor, so every time the benchmark reports is

    wall seconds * REF_NOMINAL_MS / mean(loop ms before, loop ms after)

that is, the time the work would take on a machine running the loop in
REF_NOMINAL_MS. The loop is part of the benchmark, not of epipool, so a
change to the program moves the numerator only.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The loop's typical duration on a quiet shared 2-core x86-64 VM under
# CPython 3.11. It only sets the unit: both sides of any comparison use it.
REF_NOMINAL_MS = 4.0

_LEFT = tuple(Fraction(i, 7) for i in range(1, 60))
_RIGHT = _LEFT[:20]


def reference_ms() -> float:
    """One pass of the fixed reference loop, in wall milliseconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for a in _LEFT:
        for b in _RIGHT:
            if a * b > acc:
                acc = (a + b) / 2
    return (time.perf_counter() - start) * 1000.0


class Gauge:
    """Times the reference loop on demand and keeps every sample of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self, passes: int = 1) -> float:
        """The median of ``passes`` runs of the loop; every run is kept."""
        runs = [reference_ms() for _ in range(passes)]
        self.samples.extend(runs)
        return statistics.median(runs)

    def machine_ref_ms(self) -> float:
        return statistics.median(self.samples)


class Stopwatch:
    """Scaled time of one long stretch, cut into pieces at each lap.

    Every lap samples the gauge, so each piece is scaled by the loop times at
    its own two ends, not by those at the ends of the whole stretch; the
    sampling itself is left out of the total.
    """

    def __init__(self, gauge, passes: int = 1) -> None:
        self.gauge = gauge
        self.passes = passes
        self.total = 0.0
        self.factor = 1.0  # the scale factor of the last piece
        self._ref = gauge.sample(passes)
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Close the current piece; return its scaled seconds."""
        now = time.perf_counter()
        ref = self.gauge.sample(self.passes)
        self.factor = REF_NOMINAL_MS / ((self._ref + ref) / 2)
        piece = (now - self._start) * self.factor
        self.total += piece
        self._ref = ref
        self._start = time.perf_counter()
        return piece


class Unscaled:
    """Stands in for a Gauge inside traced runs, which are scaled per job."""

    def sample(self, passes: int = 1) -> float:
        return REF_NOMINAL_MS


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (a multiple of 10) of at least two values."""
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[pct // 10 - 1]
