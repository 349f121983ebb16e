"""Probability-preserving segmented execution (paper, Section 4.2).

The pruned transition chain is cut into segments small enough to fit NISQ
decoherence budgets.  Each segment is executed once *per input basis
state*, with shots allocated proportionally to the input distribution, and
the merged output distribution feeds the next segment (Figure 7).  With
one transition per segment the two-qubit depth drops from ``34 n m^2`` to
``34 n``.

The segment boundary only needs classical information (measured
probabilities), because the transition chain's job is to *spread
probability over feasible basis states* rather than build up global phase
relationships — that is the property the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple  # noqa: F401 (Tuple in hints)

import numpy as np

from repro.linalg.summation import left_to_right_sum


@dataclass(frozen=True)
class SegmentPlan:
    """A partition of the transition schedule into executable segments.

    Attributes:
        segments: tuple of segments, each a tuple of schedule positions
            (indices into the *pruned* schedule, not the basis).
    """

    segments: Tuple[Tuple[int, ...], ...]

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


def plan_segments(
    schedule_length: int,
    transitions_per_segment: int,
) -> SegmentPlan:
    """Cut ``schedule_length`` transitions into fixed-size segments.

    Args:
        schedule_length: number of retained transitions.
        transitions_per_segment: maximum transitions per segment; ``1``
            gives the paper's minimal ``34 n`` two-qubit depth, larger
            values trade depth for fewer segment boundaries.
    """
    if transitions_per_segment < 1:
        raise ValueError("transitions_per_segment must be >= 1")
    positions = list(range(schedule_length))
    segments = tuple(
        tuple(positions[start : start + transitions_per_segment])
        for start in range(0, schedule_length, transitions_per_segment)
    )
    return SegmentPlan(segments=segments)


def plan_segments_by_cost(
    transition_costs: Sequence[int],
    cx_budget: int,
) -> SegmentPlan:
    """Pack consecutive transitions into segments under a CX budget.

    This is how the paper actually deploys segmentation: each segment is
    filled with as many transitions as fit within the device's reliable
    depth (e.g. F1 runs as 3 segments of ~49 depth, Figure 9), rather
    than always one transition per segment.  A transition whose own cost
    exceeds the budget still gets a singleton segment — it cannot be
    split further.

    Args:
        transition_costs: CX cost of each scheduled transition, in order.
        cx_budget: maximum CX cost per segment.
    """
    if cx_budget < 1:
        raise ValueError("cx_budget must be >= 1")
    segments: List[Tuple[int, ...]] = []
    current: List[int] = []
    current_cost = 0
    for position, cost in enumerate(transition_costs):
        if current and current_cost + cost > cx_budget:
            segments.append(tuple(current))
            current = []
            current_cost = 0
        current.append(position)
        current_cost += cost
    if current:
        segments.append(tuple(current))
    return SegmentPlan(segments=tuple(segments))


def allocate_shots(
    distribution: Dict[int, float],
    shots: int,
) -> Dict[int, int]:
    """Allocate segment shots to input states proportionally (Figure 7).

    Uses largest-remainder rounding so the total allocation is exactly
    ``shots`` and every state with positive probability gets its fair
    share.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if not distribution:
        return {}
    total = left_to_right_sum(distribution.values())
    if total <= 0:
        raise ValueError("distribution has no mass")
    keys = sorted(distribution)
    exact = np.array([distribution[k] / total * shots for k in keys])
    floors = np.floor(exact).astype(int)
    remainder = shots - int(floors.sum())
    fractional_order = np.argsort(-(exact - floors))
    # Plain ints: the counts travel into telemetry span attributes and
    # job records, which must stay JSON-serialisable.
    allocation = dict(zip(keys, floors.tolist()))
    for rank in range(remainder):
        allocation[keys[fractional_order[rank]]] += 1
    return {k: v for k, v in allocation.items() if v > 0}


def merge_counts(count_maps: Sequence[Dict[int, int]]) -> Dict[int, int]:
    """Merge per-input-state counts into one segment output distribution."""
    merged: Dict[int, int] = {}
    for counts in count_maps:
        for key, value in counts.items():
            merged[key] = merged.get(key, 0) + value
    return merged
