"""Timing in nominal seconds, corrected for the host's speed at the moment.

On the 2-CPU VM this benchmark was defined on, a fixed loop of small NumPy
calls ran at speeds a third apart within minutes, and CPU time tracked
wall time, so the process was not simply waiting for a CPU. That swing is
wider than any bound a metric may drift by. So the clock samples a
reference loop (NumPy and Python only, no policyprune code, with the same
mix of small matrix products, in-place ufuncs and interpreter work as a
training step) at both ends of every timed span of program work and, from
a SIGALRM timer, every SAMPLE_EVERY_S seconds inside it. The span is
reported as

    nominal = (wall - time spent in samples) * REFERENCE_S / mean(samples)

the seconds the work would take on a host where the loop takes REFERENCE_S.
A change to the program moves the wall time and not the reference, so it
shows in full; a slow spell of the host moves both, and cancels. In a
200 s test there, the coefficient of variation of the medians of 11 s runs
was 10% in wall time, 8% with samples only at the ends of 2.7 s spans, and
2% with a sample every 0.3 s.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010
REFERENCE_LOOPS = 2000
SAMPLE_EVERY_S = 0.25


def reference_seconds() -> float:
    """Wall time of the fixed reference loop."""
    a, b, x, sink = np.ones((16, 24)), np.ones((24, 8)), np.ones(128), {}
    t0 = perf_counter()
    for i in range(REFERENCE_LOOPS):
        c = a @ b
        x *= 0.999
        x += 0.001
        sink[i & 7] = float(c[0, 0]) + float(x.sum())
    return perf_counter() - t0


class Clock:
    """Laps of program work in nominal seconds; `start` opens the first lap.

    With `sampling` on, a SIGALRM timer takes a reference sample every
    SAMPLE_EVERY_S seconds until `close`. The traced run turns it off, so
    that no sample lands inside a traced span. `wall_s` and `references`
    keep the raw wall seconds and every sample, so the host's own speed
    stays in the record.
    """

    def __init__(self, sampling: bool):
        self.wall_s = 0.0
        self.references: list[float] = []
        self._lap: list[float] = []
        self._in_samples = self._t0 = 0.0
        self._busy = False
        if sampling:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self) -> None:
        self._busy = True
        t = perf_counter()
        ref = reference_seconds()
        self._lap.append(ref)
        self.references.append(ref)
        self._in_samples += perf_counter() - t
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:  # a tick during a sample would count twice
            self._sample()

    def start(self) -> None:
        self._lap = []
        self._sample()
        self._in_samples = 0.0
        self._t0 = perf_counter()

    def lap(self) -> float:
        self._sample()
        wall = perf_counter() - self._t0 - self._in_samples
        nominal = wall * REFERENCE_S * len(self._lap) / sum(self._lap)
        self.wall_s += wall
        self._lap = self._lap[-1:]
        self._in_samples = 0.0
        self._t0 = perf_counter()
        return nominal
