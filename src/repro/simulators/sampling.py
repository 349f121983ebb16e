"""Measurement sampling utilities.

Counts are dictionaries ``{basis index: occurrences}`` using the library's
little-endian integer encoding.  Helpers convert statevector probabilities
into shot counts and model classical readout error.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from repro.exceptions import SimulationError


def counts_from_probabilities(
    probabilities: np.ndarray | Mapping[int, float],
    shots: int,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Sample ``shots`` outcomes from a probability distribution.

    Args:
        probabilities: dense array over all basis states, or a sparse
            mapping over occupied ones.
        shots: number of samples.
        rng: random generator (callers own seeding for reproducibility).

    Returns:
        ``{basis index: count}`` with only observed outcomes present, in
        input order, with builtin ``int`` counts (mapping keys are
        returned as given).

    Raises:
        SimulationError: when the clamped probability mass is zero,
            negative, or non-finite — sampling from such input would
            silently emit NaNs (or crash deep inside ``multinomial``)
            instead of pointing at the upstream numerical problem.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return {}
    # The sparse engine passes a plain dict on every segment: test for it
    # before the slower ``Mapping`` ABC check.
    if type(probabilities) is dict or isinstance(probabilities, Mapping):
        keys = list(probabilities)
        probs = np.fromiter(
            probabilities.values(), dtype=np.float64, count=len(keys)
        )
    else:
        probs = np.asarray(probabilities, dtype=np.float64)
        keys = range(probs.shape[0])
    # Float cancellation (purification, Kraus renormalisation) can leave
    # tiny negative entries and a sum slightly off 1.0: clamp first, then
    # renormalise once over the clamped mass.
    probs = np.maximum(probs, 0.0)
    total = np.add.reduce(probs)
    if not math.isfinite(total) or total <= 0.0:
        raise SimulationError(
            f"cannot sample from a distribution with total probability "
            f"mass {total!r} after clamping negatives to zero"
        )
    probs = probs / total
    draws = rng.multinomial(shots, probs)
    return {key: count for key, count in zip(keys, draws.tolist()) if count}


def apply_readout_error(
    counts: Dict[int, int],
    num_qubits: int,
    p01: float,
    p10: float,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Flip measured bits independently with asymmetric probabilities.

    Args:
        counts: ideal counts.
        num_qubits: register width.
        p01: probability that a 0 is read as 1.
        p10: probability that a 1 is read as 0.
        rng: random generator.
    """
    if p01 == 0 and p10 == 0:
        return dict(counts)
    noisy: Dict[int, int] = {}
    for key, count in counts.items():
        for _ in range(count):
            value = key
            for qubit in range(num_qubits):
                bit = (value >> qubit) & 1
                flip_probability = p10 if bit else p01
                if flip_probability and rng.random() < flip_probability:
                    value ^= 1 << qubit
            noisy[value] = noisy.get(value, 0) + 1
    return noisy


def probabilities_from_counts(counts: Mapping[int, int]) -> Dict[int, float]:
    """Normalise counts into an empirical distribution."""
    total = sum(counts.values())
    if total == 0:
        return {}
    return {key: count / total for key, count in counts.items()}
