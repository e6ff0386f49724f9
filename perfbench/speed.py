"""Machine-speed samples taken during a pass, and times scaled to a reference speed.

On a shared host the same work takes from 0.6x to 1.5x its usual time,
changing from one second to the next as other tenants load the cores, and
neither a 25-second pass nor the median of a few passes averages that out:
raw times of identical runs spread by 20-30% (interquartile range over
median).  So while a pass runs, a SIGALRM handler times two fixed units of
work every ``PERIOD_S`` seconds: a sum of Fractions, like the exact layers,
and a numpy reduction, like the Monte-Carlo layer.  An interval's scaled
duration is its wall duration times the unit's reference cost over the
median cost of the units sampled in and around it: the time the interval
would have taken at the reference speed.  Every time the benchmark reports
is scaled this way; a set-up time is scaled by numpy units timed right
after the import (the Fraction unit, cold there, varies more than the
set-up it would scale).  The handler records when it starts and ends, and its
own time is taken out of every interval it falls in, raw and scaled alike.
It runs with the garbage collector off, so that a collection it would
trigger cannot scan the program's objects and read as a slow host, and it
changes nothing the program computes.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter_ns

import numpy as np

PERIOD_S = 0.025
#: Each unit's typical median cost inside a pass on the 2-vCPU Xeon host
#: the benchmark was defined on, so that a scaled second is close to a
#: second there.
REF_COST_NS = {"exact": 310_000, "numpy": 190_000}
#: The numpy unit's typical cost right after the import, on the same host.
SETUP_REF_COST_NS = 135_000
#: Samples this far outside an interval still describe it (a single norm
#: query is shorter than the sampling period).
WINDOW_NS = 100_000_000


class _Units:
    """The two timed units of work."""

    def __init__(self) -> None:
        self.terms = [Fraction(j, 7) for j in range(200)]
        self.array = np.linspace(0.0, 1.0, 1 << 16)
        self.out = np.empty_like(self.array)  # no allocation while timed

    def exact(self) -> int:
        t0 = perf_counter_ns()
        total = Fraction(0)
        for term in self.terms:
            total += term
        return perf_counter_ns() - t0

    def numpy(self) -> int:
        t0 = perf_counter_ns()
        np.sqrt(self.array, out=self.out)
        np.multiply(self.out, self.array, out=self.out)
        float(self.out.sum())
        return perf_counter_ns() - t0


def setup_scale(repeats: int = 15) -> float:
    """Set-up reference cost over the numpy unit's median cost right now."""
    units = _Units()
    return SETUP_REF_COST_NS / statistics.median(units.numpy() for _ in range(repeats))


class SpeedProbe:
    """Context manager: samples both units from SIGALRM while active."""

    def __init__(self) -> None:
        self.times = array("q")   # when each sample ended
        self.starts = array("q")  # when each sample began
        self.costs = {"exact": array("q"), "numpy": array("q")}
        self._units = _Units()

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.costs["exact"].append(self._units.exact())
            self.costs["numpy"].append(self._units.numpy())
        finally:
            if collecting:
                gc.enable()
            self.starts.append(t0)
            self.times.append(perf_counter_ns())

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)  # so that even a short pass has a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _busy_ns(self, a: int, b: int) -> int:
        """Nanoseconds of ``[a, b)`` not spent in the handler."""
        busy = b - a
        i = bisect_right(self.times, a)  # first sample that ends after a
        while i < len(self.starts) and self.starts[i] < b:
            busy -= min(b, self.times[i]) - max(a, self.starts[i])
            i += 1
        return busy

    def raw_seconds(self, intervals, kind: str = "exact") -> float:
        """Wall seconds of ``[(start_ns, end_ns), ...]``, handler time excluded (``kind`` is unused)."""
        return sum(self._busy_ns(a, b) for a, b in intervals) / 1e9

    def scaled_seconds(self, intervals, kind: str = "exact") -> float:
        """Reference-speed seconds of ``[(start_ns, end_ns), ...]``, handler time excluded."""
        costs = self.costs[kind]
        total = 0.0
        for a, b in intervals:
            i = bisect_left(self.times, a - WINDOW_NS)
            j = bisect_right(self.times, b + WINDOW_NS)
            if i == j:  # no sample near this interval: use the nearest one
                i = min(i, len(self.times) - 1)
                j = i + 1
            cost = statistics.median(costs[i:j])
            total += self._busy_ns(a, b) / 1e9 * REF_COST_NS[kind] / cost
        return total
