"""Signed-unit move sets over the nullspace lattice.

A *move* is a vector ``u in {-1,0,1}^n`` with ``C u = 0``; applying it to a
binary point ``x`` (as ``x + u`` or ``x - u``) yields another feasible
point when the result stays binary.  These are exactly the vectors that
become transition Hamiltonians.

Theorem 1's "more complex cases" clause assumes each round of the basis
yields at least one effective transition.  That fails when two feasible
solutions differ only by a *combination* of basis vectors whose
intermediate points are non-binary (graph coloring with edge slacks is the
canonical offender).  :func:`augment_moves_for_connectivity` repairs this
inside the paper's own toolbox — Algorithm 1 already takes signed-unit
linear combinations of basis vectors; here the same combinations are
searched for vectors that connect a stalled frontier to new feasible
states.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.linalg.bitvec import bits_to_int, int_to_bits, is_signed_unit_vector

#: Maximum number of original basis vectors combined per candidate move.
DEFAULT_MAX_COMBINATION = 3


def move_masks(u: np.ndarray) -> Tuple[int, int]:
    """Bitmasks of the +1 and -1 positions of a move vector.

    Adding ``u`` to ``x`` keeps the point binary iff every +1 site of
    ``u`` has ``x``-bit 0 and every -1 site has ``x``-bit 1; the result
    then simply sets the +1 bits and clears the -1 bits.  Precomputing the
    two masks turns the partner computation into O(1) integer arithmetic,
    which is what lets the sparse engine scale to the paper's 100-variable
    instances.
    """
    mask_plus = 0
    mask_minus = 0
    for index, value in enumerate(u):
        if value == 1:
            mask_plus |= 1 << index
        elif value == -1:
            mask_minus |= 1 << index
    return mask_plus, mask_minus


def partner_key_from_masks(key: int, mask_plus: int, mask_minus: int) -> Optional[int]:
    """O(1) partner lookup given precomputed masks (see :func:`move_masks`)."""
    if (key & mask_plus) == 0 and (key & mask_minus) == mask_minus:
        return (key | mask_plus) & ~mask_minus
    if (key & mask_minus) == 0 and (key & mask_plus) == mask_plus:
        return (key | mask_minus) & ~mask_plus
    return None


def move_partner_key(key: int, u: np.ndarray, n: int) -> Optional[int]:
    """Integer encoding of ``x ± u`` when binary, else ``None``.

    For ``u != 0`` at most one sign keeps the point binary, so the partner
    is unique — the classical shadow of the transition Hamiltonian's
    pairing action.
    """
    mask_plus, mask_minus = move_masks(np.asarray(u))
    if mask_plus == 0 and mask_minus == 0:
        return None
    return partner_key_from_masks(key, mask_plus, mask_minus)


def expand_closure(moves: Sequence[np.ndarray], reached: Set[int], n: int) -> None:
    """Grow ``reached`` (in place) to closure under single-move steps."""
    masks = [move_masks(np.asarray(u)) for u in moves]
    frontier = list(reached)
    while frontier:
        next_frontier: List[int] = []
        for key in frontier:
            for mask_plus, mask_minus in masks:
                if mask_plus == 0 and mask_minus == 0:
                    continue
                partner = partner_key_from_masks(key, mask_plus, mask_minus)
                if partner is not None and partner not in reached:
                    reached.add(partner)
                    next_frontier.append(partner)
        frontier = next_frontier


def candidate_combinations(
    basis: np.ndarray, max_combination: int = DEFAULT_MAX_COMBINATION
) -> List[np.ndarray]:
    """Signed-unit combinations of 2..``max_combination`` basis vectors.

    Each candidate is ``u_{i0} + sum sign_j * u_{ij}`` with signs in
    {-1, +1}; only vectors with every entry in {-1, 0, 1} survive.
    Candidates are deduplicated up to global sign (both signs act
    identically as moves) and ordered by combination size.
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    m = rows.shape[0]
    candidates: List[np.ndarray] = []
    seen: Set[Tuple[int, ...]] = set()
    for size in range(2, min(max_combination, m) + 1):
        for subset in combinations(range(m), size):
            for signs in product((1, -1), repeat=size - 1):
                vector = rows[subset[0]].copy()
                for sign, index in zip(signs, subset[1:]):
                    vector = vector + sign * rows[index]
                if not vector.any() or not is_signed_unit_vector(vector):
                    continue
                key = tuple(int(v) for v in vector)
                if key in seen or tuple(-v for v in key) in seen:
                    continue
                seen.add(key)
                candidates.append(vector.astype(np.int64))
    return candidates


def augment_moves_for_connectivity(
    basis: np.ndarray,
    initial_bits: Sequence[int],
    *,
    max_combination: int = DEFAULT_MAX_COMBINATION,
) -> np.ndarray:
    """Extend the move set until single-move expansion stops stalling.

    Args:
        basis: ``(m, n)`` signed-unit homogeneous basis.
        initial_bits: feasible solution the expansion starts from.
        max_combination: largest number of original vectors combined.

    Returns:
        ``(m', n)`` move set, ``m' >= m``, whose first ``m`` rows are the
        original basis.  Every added row is a signed-unit nullspace vector
        that connected the reached set to a new feasible state when added.
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    m, n = rows.shape
    if m == 0:
        return rows
    moves: List[np.ndarray] = [rows[k].copy() for k in range(m)]
    reached: Set[int] = {bits_to_int(initial_bits)}
    expand_closure(moves, reached, n)

    candidates = candidate_combinations(rows, max_combination)
    # Masks once per candidate, not once per (candidate, reached key)
    # pair; candidates are nonzero, so move_partner_key's zero-move guard
    # is not needed.
    candidate_masks = [move_masks(vector) for vector in candidates]
    progress = True
    while progress:
        progress = False
        for vector, (mask_plus, mask_minus) in zip(candidates, candidate_masks):
            connects = any(
                (partner := partner_key_from_masks(key, mask_plus, mask_minus))
                is not None
                and partner not in reached
                for key in reached
            )
            if connects:
                moves.append(vector)
                expand_closure(moves, reached, n)
                progress = True
    return np.stack(moves)
