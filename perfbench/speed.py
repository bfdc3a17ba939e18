"""Host speed sampling, to normalize times on a shared machine.

On a host whose cores are shared with other tenants, the speed of the same
Python code drifts by 20-40% within seconds, and CPU time drifts with it.
``SpeedProbe`` samples that speed *during* the requests: every
``INTERVAL_S`` a timer signal runs a fixed pure-Python reference unit (no
fuzzint code) a few times and records how long it took.  A block of
requests is then charged its own duration minus the sampling time, divided
by the block's slowdown: reference seconds per unit over the nominal
``REFERENCE_UNIT_S``.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_UNIT_S = 0.0005   # nominal duration of one reference unit
UNITS_PER_SAMPLE = 2
INTERVAL_S = 0.05

_GRADES = [Fraction((i * 37) % 119 + 1, 120) for i in range(64)]


def reference_unit() -> int:
    """Fixed work in the interpreter's common operations: sorting, comparing
    and hashing Fractions, dict updates and int bit operations."""
    xs = sorted(_GRADES)
    seen = {}
    for a, b in zip(xs, xs[1:]):
        seen[a] = (a < b) + seen.get(b, 0)
    mask = 0
    for i in range(600):
        mask ^= i << (i & 15)
    return len(seen) + mask


class SpeedProbe:
    """Context manager that samples the reference speed on SIGALRM."""

    def __init__(self):
        self.sampled = (0, 0.0)      # (units, seconds); replaced atomically

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        for _ in range(UNITS_PER_SAMPLE):
            reference_unit()
        units, seconds = self.sampled
        self.sampled = (units + UNITS_PER_SAMPLE, seconds + perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, units: int, seconds: float) -> float:
        """Slowdown from samples; with none, measure a few units directly."""
        if not units:
            start = perf_counter()
            for _ in range(4 * UNITS_PER_SAMPLE):
                reference_unit()
            units, seconds = 4 * UNITS_PER_SAMPLE, perf_counter() - start
        return seconds / (units * REFERENCE_UNIT_S)


class Block:
    """Requests charged to one speed measurement."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.work: list = []         # seconds per request, sampling excluded
        self.units = 0
        self.seconds = 0.0

    def timed(self, fn):
        """Run ``fn()``; return its result and record its sampled duration."""
        units0, seconds0 = self.probe.sampled
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            units1, seconds1 = self.probe.sampled
            self.units += units1 - units0
            self.seconds += seconds1 - seconds0
            self.work.append(elapsed - (seconds1 - seconds0))

    def normalized(self) -> list:
        slow = self.probe.slowdown(self.units, self.seconds)
        return [w / slow for w in self.work]
