"""Host speed probe.

On the reference host (a 2-vCPU KVM guest on a shared Intel Xeon machine)
the same code runs up to ~30% slower or faster from one minute to the
next, and switches between a fast and a slow state within seconds, as
other tenants load the machine.
``SpeedProbe`` times a fixed kernel that does not touch urnsim (a numpy
sort-and-search block plus a pure-Python loop, the two kinds of work
urnsim's ops mix) in short bursts between ops, and converts each op's time
to seconds at the reference speed ``REF_KERNEL_S``: a time t measured while
the kernel took k seconds reports as t * REF_KERNEL_S / k, with k the mean
of the bursts just before and just after the op.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-vCPU KVM guest, Intel Xeon,
# Python 3.11.7, numpy 2.4.6); reported times are scaled to this speed.
REF_KERNEL_S = 0.0064
_EVERY_S = 1.0
_BURST = 3


class SpeedProbe:
    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._table = np.cumsum(self._rng.random(1 << 16))
        self._table /= self._table[-1]
        self.samples: list[float] = []
        self.bursts: list[tuple[float, float]] = []  # (time, median kernel s)
        self.busy_s = 0.0

    def _kernel(self) -> None:
        cells = np.searchsorted(self._table, self._rng.random(1 << 14))
        np.unique(cells)
        acc = 0
        for i in range(5000):
            acc += i * i

    def sample(self, count: int = _BURST) -> None:
        """Time one burst of ``count`` kernel runs."""
        start = time.perf_counter()
        times = []
        for _ in range(count):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        end = time.perf_counter()
        self.samples += times
        self.bursts.append(((start + end) / 2.0, statistics.median(times)))
        self.busy_s += end - start

    def maybe_sample(self) -> None:
        """Sample when ``_EVERY_S`` seconds have passed since the last burst."""
        if not self.bursts or time.perf_counter() - self.bursts[-1][0] >= _EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Reference-speed seconds per measured second, over all samples."""
        return REF_KERNEL_S / statistics.median(self.samples)

    def scale(self, starts: list[float], durations: list[float]) -> list[float]:
        """Each duration at the reference speed, from the bursts just before
        and just after its start time."""
        times = [t for t, _ in self.bursts]
        out = []
        for start, d in zip(starts, durations):
            i = bisect.bisect_right(times, start)
            near = [k for _, k in self.bursts[max(i - 1, 0):i + 1]]
            out.append(d * REF_KERNEL_S * len(near) / sum(near))
        return out
