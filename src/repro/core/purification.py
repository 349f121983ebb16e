"""Error mitigation by purification (paper, Section 4.3).

Between segments, every measured basis state is checked against the
constraints ``C x = b``; infeasible states (which can only appear through
hardware noise — the noise-free algorithm never leaves the feasible space)
are removed and the remaining distribution is renormalised before it seeds
the next segment (Figure 8).  The paper sizes the check at one integer
matrix-vector product per distinct state (~0.05 ms per iteration).  Here
it reads the problem's key table
(:meth:`~repro.problems.base.ConstrainedBinaryProblem.key_entry`): the
product runs once per distinct state over the whole solve, the first
time that state is seen, and every later segment and optimizer
evaluation pays a dictionary lookup.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.exceptions import NoFeasibleStateError
from repro.problems.base import ConstrainedBinaryProblem


def purify_counts(
    counts: Dict[int, int],
    problem: ConstrainedBinaryProblem,
) -> Tuple[Dict[int, int], float]:
    """Remove infeasible outcomes from measured counts.

    Args:
        counts: ``{basis index: shots}``.
        problem: the instance whose constraints ``C x = b`` decide
            feasibility.

    Returns:
        ``(purified counts, in-constraints rate)`` where the rate is the
        fraction of shots that survived.

    Raises:
        NoFeasibleStateError: when *no* measured state is feasible — the
            failure mode the paper observes past ~2% amplitude damping
            (Section 5.5), which terminates optimization early.
    """
    total = sum(counts.values())
    if total == 0:
        raise NoFeasibleStateError("no shots to purify")
    entry = problem.key_entry
    purified = {key: value for key, value in counts.items() if entry(key)[1] == 0}
    kept = sum(purified.values())
    if kept == 0:
        raise NoFeasibleStateError(
            "every measured state violates the constraints; "
            "segment output cannot seed the next segment"
        )
    return purified, kept / total


def purify_probabilities(
    probabilities: Dict[int, float],
    problem: ConstrainedBinaryProblem,
) -> Tuple[Dict[int, float], float]:
    """Probability-distribution variant of :func:`purify_counts`.

    Returns the renormalised feasible distribution and the feasible mass.
    """
    entry = problem.key_entry
    feasible = {
        key: probability
        for key, probability in probabilities.items()
        if entry(key)[1] == 0
    }
    # fsum keeps the renormalisation stable when the feasible mass is many
    # tiny contributions (deep noisy chains can underflow a naive sum).
    mass = math.fsum(feasible.values())
    if mass <= 0:
        raise NoFeasibleStateError(
            "purification removed all probability mass"
        )
    return {key: p / mass for key, p in feasible.items()}, mass
