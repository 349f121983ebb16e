"""Summary statistics for multi-case experiment protocols.

The paper reports per-benchmark means over 100–400 randomized cases; this
module provides the aggregation used by the Table-2 harness: mean,
standard deviation, standard error, geometric mean (for improvement
ratios), and a normal-approximation confidence interval.

For the small sample counts this repo actually runs (a handful of cases
per family offline, 3–10 timing repeats per bench workload) the normal
approximation is the wrong tool — it assumes symmetric, roughly Gaussian
sampling error, which neither ARG distributions nor wall-clock timings
satisfy.  :func:`bootstrap_ci` and :func:`bootstrap_ratio_ci` provide the
distribution-free alternative used by the Table-2 harness and the
``repro.bench`` comparison engine: seeded percentile bootstrap on any
statistic (median by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.summation import left_to_right_sum


@dataclass(frozen=True)
class Summary:
    """Aggregate of one metric over repeated cases."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count <= 1:
            return 0.0
        return self.std / math.sqrt(self.count)

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI (default 95%)."""
        half = z * self.sem
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:
        if self.count == 1:
            return f"{self.mean:.3f}"
        return f"{self.mean:.3f}±{self.sem:.3f}"


def summarize(values: Sequence[float]) -> Summary:
    """Summarise a non-empty sequence of metric values."""
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sequence")
    arr = np.asarray(values, dtype=float)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def _resample_matrix(
    samples: np.ndarray, resamples: int, rng: np.random.Generator
) -> np.ndarray:
    """``resamples`` bootstrap draws (with replacement), one per row."""
    indices = rng.integers(0, samples.size, size=(resamples, samples.size))
    return samples[indices]


def bootstrap_ci(
    samples: Sequence[float],
    stat: Callable[..., float] = np.median,
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: Optional[int] = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval for ``stat``.

    Args:
        samples: the observed values (non-empty).
        stat: statistic of one sample set; must accept ``axis=`` the way
            numpy reductions do (default: the median, the robust choice
            for skewed distributions like wall-clock timings).
        confidence: two-sided coverage (default 95%).
        resamples: bootstrap resample count.
        seed: RNG seed — a fixed default so repeated analyses of the same
            samples give the same interval.

    Returns:
        ``(low, high)``.  A single sample yields the degenerate interval
        ``(value, value)`` — with n=1 the bootstrap has nothing to say.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if arr.size == 1:
        value = float(stat(arr))
        return (value, value)
    rng = np.random.default_rng(seed)
    estimates = stat(_resample_matrix(arr, resamples, rng), axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return (float(low), float(high))


def bootstrap_ratio_ci(
    baseline: Sequence[float],
    candidate: Sequence[float],
    stat: Callable[..., float] = np.median,
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: Optional[int] = 0,
) -> Tuple[float, float]:
    """Bootstrap CI for the *relative change* ``stat(candidate)/stat(baseline) - 1``.

    Both sets are resampled independently per bootstrap draw, so the
    interval reflects the noise of both measurements.  This is the
    decision statistic of ``repro.bench.compare``: a workload regressed
    only when the whole interval clears the noise threshold — never a
    bare mean-vs-mean comparison.

    Returns ``(low, high)`` of the relative change (e.g. ``0.30`` = 30%
    slower).  Degenerate single-sample sets give the point estimate twice.
    """
    base = np.asarray(list(baseline), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if base.size == 0 or cand.size == 0:
        raise ValueError("cannot bootstrap empty sample sets")

    def ratio(base_stats: np.ndarray, cand_stats: np.ndarray) -> np.ndarray:
        # Guard exact-zero baselines (a timing of 0.0 means the clock
        # under-resolved the region; treat it as one tick).
        floor = np.finfo(float).tiny
        return cand_stats / np.maximum(base_stats, floor) - 1.0

    if base.size == 1 and cand.size == 1:
        value = float(ratio(stat(base, axis=0), stat(cand, axis=0)))
        return (value, value)
    rng = np.random.default_rng(seed)
    base_stats = stat(_resample_matrix(base, resamples, rng), axis=1)
    cand_stats = stat(_resample_matrix(cand, resamples, rng), axis=1)
    estimates = ratio(base_stats, cand_stats)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return (float(low), float(high))


def geometric_mean(ratios: Iterable[float]) -> float:
    """Geometric mean of positive ratios (NaN when none qualify).

    The right average for "A improves over B by Nx" claims, which is how
    the paper aggregates its 4.12x / 1.96x / 49x headline numbers.
    """
    logs: List[float] = [math.log(r) for r in ratios if r > 0]
    if not logs:
        return float("nan")
    return float(math.exp(left_to_right_sum(logs) / len(logs)))
