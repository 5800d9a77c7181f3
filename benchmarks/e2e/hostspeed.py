"""How much slower than quiet is this host running right now?

The benchmark's host is a slice of a shared machine whose speed moves by
tens of percent for seconds to minutes at a time, on the CPU (no steal
time shows), so no statistic over a 20 s run of wall times is steady.
The harness therefore times a fixed *reference kernel* — code that never
changes and shares nothing with the program under test — before the
first pass and after every pass, and divides each pass's host time by
the slowdown the readings either side of it show.  Measured here
(README, "Run protocol"): between runs of one commit the best raw pass
spread 5-29 %, the median of the calibrated passes 2-11 %.

The kernel has three parts, one per kind of work a simulated round
mixes: streaming a million-element array (memory), small matmul + ReLU
(BLAS), a pure-Python loop (interpreter).  A reading is the geometric
mean of the three parts' median times, each over its time on the
baseline host in a quiet hour (:data:`NOMINAL_S`), so a reading of 1.0
means "as fast as the baseline host when quiet" and calibrated seconds
read as seconds on that host.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np

NOMINAL_S: Tuple[float, float, float] = (3.75e-3, 7.25e-3, 0.77e-3)
"""(memory, BLAS, interpreter) part times on the baseline host, quiet."""

SAMPLES = 10
"""Kernel runs per reading (~12 ms each)."""


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stream = rng.random(1_000_000)
        self._left = rng.random((64, 256))
        self._right = rng.random((256, 64))

    def _sample(self) -> Tuple[float, float, float]:
        t0 = perf_counter()
        for _ in range(3):
            self._stream * 1.0001 + self._stream
        t1 = perf_counter()
        for _ in range(150):
            np.maximum(self._left @ self._right, 0.0)
        t2 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i & 3
        t3 = perf_counter()
        return t1 - t0, t2 - t1, t3 - t2

    def slowdown(self) -> float:
        """One reading: > 1 when the host runs slower than nominal."""
        samples = [self._sample() for _ in range(SAMPLES)]
        ratios = [
            statistics.median(part) / nominal
            for part, nominal in zip(zip(*samples), NOMINAL_S)
        ]
        return math.exp(statistics.fmean(math.log(r) for r in ratios))


def between(readings: List[float]) -> List[float]:
    """Slowdown of each interval between consecutive readings."""
    return [(a + b) / 2.0 for a, b in zip(readings, readings[1:])]
