"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed available to one process drifts by
tens of percent over seconds to minutes (other tenants load the shared
cores and caches), so two runs of identical code can differ by more than
any useful regression bound.  The benchmark therefore runs a fixed piece
of work that does not touch coherlab, interleaved with the operations, and
scales its timings by how slow that work ran:

    reported time = measured time * NOMINAL_S / median(calibration time)

where the calibration time is the mean of the samples taken just before
and just after the timed stretch, so every reported time is in
milliseconds of a machine on which the calibration work takes NOMINAL_S.
The machine's speed changes over seconds, so each operation is scaled by
its own neighbouring samples rather than by one figure for the run.  A change to coherlab moves the
operations and not the calibration, so it shows in full; a slower or busier
machine slows both and cancels out.  The unscaled values are reported too.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Calibration time of an uncontended run on the reference machine: one
# 64-bit Xeon core with AVX-512, OpenBLAS pinned to one thread.
NOMINAL_S = 0.008
PERIOD_S = 0.25  # at most one calibration sample per this much run time


class Calibration:
    """Samples of the calibration work's duration taken during a run."""

    def __init__(self):
        g = np.random.default_rng(0).standard_normal((96, 192)).view(complex)
        self._mat = g @ g.conj().T
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._last = -np.inf
        self.measure()  # warm-up: the first call pays one-time costs
        self.starts.clear()
        self.samples.clear()

    def measure(self) -> float:
        """Run the calibration work once (dense Hermitian eigenvalues plus
        interpreter-bound loops, the two kinds of work coherlab does) and
        record its duration."""
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.eigvalsh(self._mat)
        total = 0
        for i in range(60000):
            total += i * i
        table = {}
        for i in range(20000):
            table[i % 97] = i
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.samples.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def tick(self) -> None:
        """Take a sample if PERIOD_S has passed since the last one."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.measure()

    def slowdown(self, start: float) -> float:
        """How much slower than nominal the machine ran around a stretch of
        work that began at ``start`` (a ``time.perf_counter()`` value): the
        mean of the last sample begun before it and the first begun after
        it, over NOMINAL_S.  Take a sample after the last stretch."""
        after = bisect.bisect_right(self.starts, start)
        around = self.samples[max(0, after - 1):after + 1]
        return statistics.fmean(around) / NOMINAL_S
