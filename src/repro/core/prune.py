"""Transition schedule construction, pruning, and early stop.

Theorem 1: repeating the ``m`` transition Hamiltonians for ``m`` rounds
(``m^2`` simulations) covers the whole feasible space for totally
unimodular constraints.  :func:`build_schedule` produces that canonical
chain.  :func:`prune_schedule` removes the transitions that contribute no
new feasible basis state (paper, Figure 6a) and stops the chain early once
``m`` consecutive transitions are unproductive (Figure 6b).

Pruning is classical and offline: it tracks the *reachable set* of feasible
basis states exactly (each transition can only map reached states to
``x ± u``), which mirrors the intermediate-measurement procedure the paper
describes without paying for quantum executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.core.hamiltonian import TransitionHamiltonian
from repro.linalg.bitvec import bits_to_int, int_to_bits


def build_schedule(num_basis_vectors: int, rounds: int | None = None) -> List[int]:
    """Canonical chain: ``[0..m-1]`` repeated ``rounds`` (default ``m``) times."""
    m = num_basis_vectors
    if rounds is None:
        rounds = m
    return list(range(m)) * rounds


@dataclass
class PruneResult:
    """Outcome of schedule pruning.

    Attributes:
        schedule: retained transition indices (into the basis), in order.
        kept_positions: positions in the original chain that were kept.
        original_length: length of the unpruned chain.
        coverage_after: number of reachable feasible states after each
            *kept* transition (starts implicitly at 1 for ``x_p``).
        total_reachable: reachable-set size at the end of pruning.
        early_stop_position: original-chain position where the early-stop
            rule fired, or ``None`` if the full chain was scanned.
    """

    schedule: List[int]
    kept_positions: List[int]
    original_length: int
    coverage_after: List[int]
    total_reachable: int
    early_stop_position: int | None = None

    @property
    def num_pruned(self) -> int:
        return self.original_length - len(self.schedule)


def _expand_once(
    reached: Set[int], hamiltonian: TransitionHamiltonian, num_qubits: int
) -> Set[int]:
    """States newly reachable by one application of ``H(u)``."""
    fresh: Set[int] = set()
    for key in reached:
        partner = hamiltonian.partner_key(key, num_qubits)
        if partner is not None and partner not in reached:
            fresh.add(partner)
    return fresh


def prune_schedule(
    basis: np.ndarray,
    initial_bits: Sequence[int],
    schedule: Sequence[int] | None = None,
    *,
    early_stop: bool = True,
) -> PruneResult:
    """Drop unproductive transitions from a chain.

    Args:
        basis: ``(m, n)`` homogeneous basis.
        initial_bits: the feasible solution the chain starts from.
        schedule: chain to prune; defaults to the canonical ``m x m`` chain.
        early_stop: stop after ``m`` consecutive unproductive transitions.

    Returns:
        :class:`PruneResult` with the retained schedule and coverage
        telemetry (consumed by the Figure 17 benchmark).
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    m, n = rows.shape
    if schedule is None:
        schedule = build_schedule(m)
    hamiltonians = [TransitionHamiltonian.from_vector(rows[k]) for k in range(m)]

    reached: Set[int] = {bits_to_int(initial_bits)}
    kept: List[int] = []
    kept_positions: List[int] = []
    coverage: List[int] = []
    consecutive_unproductive = 0
    early_stop_position: int | None = None

    for position, index in enumerate(schedule):
        fresh = _expand_once(reached, hamiltonians[index], n)
        if fresh:
            reached |= fresh
            kept.append(index)
            kept_positions.append(position)
            coverage.append(len(reached))
            consecutive_unproductive = 0
        else:
            consecutive_unproductive += 1
            if early_stop and consecutive_unproductive >= m:
                early_stop_position = position
                break
    return PruneResult(
        schedule=kept,
        kept_positions=kept_positions,
        original_length=len(schedule),
        coverage_after=coverage,
        total_reachable=len(reached),
        early_stop_position=early_stop_position,
    )


def reachable_states(
    basis: np.ndarray, initial_bits: Sequence[int], schedule: Sequence[int]
) -> Tuple[int, ...]:
    """Reachable feasible basis states after running ``schedule``."""
    rows = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    n = rows.shape[1]
    hamiltonians = {k: TransitionHamiltonian.from_vector(rows[k]) for k in set(schedule)}
    reached: Set[int] = {bits_to_int(initial_bits)}
    for index in schedule:
        reached |= _expand_once(reached, hamiltonians[index], n)
    return tuple(sorted(reached))
