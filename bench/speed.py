"""Machine-speed samples, so timings can be scaled to a reference speed.

On a shared virtual machine the speed of one core can change by a factor of
almost two within seconds, as other tenants come and go. Every timing the
benchmark reports is therefore scaled by a small fixed kernel, timed close to
the measured work: time x CAL_REF_S / (kernel time then). The kernel is the
benchmark's own code, so no change to the program can alter it, and it does
the same kind of work as the program: exact ``Fraction`` accumulation over
integer rows, and list traversal.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the machine the benchmark was written on (2-vCPU KVM
# guest, Intel Xeon, Python 3.11). It only sets the scale of the results.
CAL_REF_S = 0.00225
TICK_S = 0.05

_ROWS = [[(7 * i + 3 * r) % 101 for i in range(120)] for r in range(3)]
_CHILDREN = [[c for c in (2 * v + 1, 2 * v + 2) if c < 255] for v in range(255)]


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    acc = [Fraction(0)] * 120
    for r, row in enumerate(_ROWS):
        p = Fraction(2 * r + 1, 997 * (r + 3))
        for w in range(120):
            acc[w] = acc[w] + p * row[w]
    for _ in range(3):
        stack, seen = [0], 0
        while stack:
            v = stack.pop()
            seen += 1
            stack.extend(_CHILDREN[v])
    return perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns a wall time measured alongside ``samples`` into
    reference seconds. The samples are evenly spaced in time, so their mean
    follows the average speed even when the speed changes in between."""
    return CAL_REF_S / statistics.fmean(samples)


class Sampler:
    """Run the kernel every TICK_S seconds from a SIGALRM handler, in the
    measured thread itself, and keep (start, duration) of each run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append((start, kernel()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Scale the interval [start, end] to reference seconds: the time the
        kernel ran inside it is removed, and the rest is scaled by the
        kernel runs inside it (or by the nearest one when none fell inside)."""
        inside = [d for t, d in self.samples if start <= t < end]
        net = end - start - sum(inside)
        if not inside:
            nearest = min(self.samples, key=lambda s: abs(s[0] - start), default=None)
            inside = [nearest[1] if nearest else kernel()]
        return net * scale(inside)
