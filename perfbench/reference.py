"""A fixed reference kernel that tracks how fast the machine runs right now.

The benchmark was written on a shared 2-vCPU VM whose vCPU runs slower
in bursts lasting from under a second to several minutes.  Process CPU
time slows with it, so neither CPU time nor a longer window removes the
effect: without this correction, the throughput of ten 30 s runs of the
same code spread by 40% (quartile distance over median) when the set
straddled a slow period.

The benchmark therefore times this kernel next to every job (or every
round, for the multi-caller workload) and divides each wall time by the
machine's *slowdown* at that moment, the kernel's median time nearby
over :data:`REFERENCE_S`.  Reported times are thus seconds on a machine
that runs the kernel in :data:`REFERENCE_S`; the raw wall-clock values
are printed next to them.  The kernel mixes what the program spends its
time on — interpreted Python (dict and integer work, as in COBYLA and
the feasibility checks) and NumPy on a 4096-entry complex vector (as in
the simulators) — and calls nothing in ``repro``, so a change to the
program cannot change it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: The kernel's median time on the quiet 2-vCPU VM (Python 3.11, NumPy
#: 2.4) the benchmark was written on.  A constant, so normalised times
#: stay comparable across runs and commits.
REFERENCE_S = 0.0033

_VECTOR = np.exp(1j * np.arange(4096) / 7.0)


def kernel() -> int:
    """A fixed amount of interpreted-Python and NumPy work."""
    total = 0
    table: dict = {}
    for i in range(6000):
        table[i & 511] = table.get(i & 511, 0) + i
        total += i * i % 7
    vector = _VECTOR
    for _ in range(60):
        vector = vector * vector.conj() + vector[::-1]
        vector /= np.abs(vector).max()
        total += int(np.argmax(vector.real))
    return total


class Reference:
    """Kernel timings taken during a run, and the slowdown they imply."""

    def __init__(self) -> None:
        #: (midpoint, duration) per sample, in time order.
        self._samples: List[Tuple[float, float]] = []
        self._midpoints: List[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        midpoint = 0.5 * (start + end)
        self._samples.append((midpoint, end - start))
        self._midpoints.append(midpoint)

    def slowdown(self, start: float, end: float) -> float:
        """Kernel time over :data:`REFERENCE_S` around ``[start, end]``:
        the median of the samples inside it and its nearest neighbour on
        each side."""
        if not self._samples:
            raise RuntimeError("no reference samples taken")
        low = max(bisect.bisect_left(self._midpoints, start) - 1, 0)
        high = bisect.bisect_right(self._midpoints, end) + 1
        durations = [duration for _, duration in self._samples[low:high]]
        return statistics.median(durations) / REFERENCE_S

    def median_slowdown(self) -> float:
        return statistics.median(d for _, d in self._samples) / REFERENCE_S
