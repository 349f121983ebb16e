"""Base class for constrained binary optimization problems.

The canonical form (paper, Equation 1) is::

    min f(x)   s.t.   C x = b,   x in {0,1}^n

Maximization problems store ``sense="max"``; :meth:`value` always returns a
*minimization-oriented* score so that solvers and metrics can treat every
problem uniformly.  The soft (penalty) form of Equation 1 is available as
:meth:`penalty_value`.
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProblemError
from repro.linalg.bitvec import bits_to_int, int_to_bits
from repro.linalg.feasible import (
    BRUTEFORCE_LIMIT,
    enumerate_feasible_bruteforce,
    enumerate_feasible_by_expansion,
    greedy_particular_solution,
)
from repro.linalg.moves import augment_moves_for_connectivity
from repro.linalg.nullspace import integer_nullspace
from repro.linalg.summation import left_to_right_sum


class ConstrainedBinaryProblem(abc.ABC):
    """A problem instance ``min/max f(x)  s.t.  C x = b, x binary``.

    Subclasses implement :meth:`objective` (the natural-valued objective)
    and usually override :meth:`initial_feasible_solution` with the paper's
    linear-time domain construction.

    Attributes:
        name: human-readable instance name.
        constraint_matrix: integer matrix ``C`` of shape ``(m, n)``.
        bound: integer vector ``b`` of length ``m``.
        sense: ``"min"`` or ``"max"``.
    """

    def __init__(
        self,
        name: str,
        constraint_matrix: np.ndarray,
        bound: np.ndarray,
        sense: str = "min",
    ) -> None:
        matrix = np.asarray(constraint_matrix, dtype=np.int64)
        target = np.asarray(bound, dtype=np.int64)
        if matrix.ndim != 2:
            raise ProblemError("constraint matrix must be 2-D")
        if target.shape != (matrix.shape[0],):
            raise ProblemError(
                f"bound length {target.shape} does not match "
                f"{matrix.shape[0]} constraints"
            )
        if sense not in ("min", "max"):
            raise ProblemError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.constraint_matrix = matrix
        self.bound = target
        self.sense = sense

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of binary decision variables (= qubits)."""
        return int(self.constraint_matrix.shape[1])

    @property
    def num_constraints(self) -> int:
        return int(self.constraint_matrix.shape[0])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"n={self.num_variables}, m={self.num_constraints})"
        )

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def objective(self, x: np.ndarray) -> float:
        """Natural objective value of an assignment (feasible or not)."""

    def value(self, x: np.ndarray) -> float:
        """Minimization-oriented score (negated objective for max problems)."""
        raw = self.objective(np.asarray(x))
        return -raw if self.sense == "max" else raw

    def penalty_value(self, x: np.ndarray, penalty: float) -> float:
        """Soft-constrained score ``value(x) + penalty * ||C x - b||_1``."""
        arr = np.asarray(x, dtype=np.int64)
        violation = np.abs(self.constraint_matrix @ arr - self.bound).sum()
        return self.value(arr) + penalty * float(violation)

    def constraint_violation(self, x: np.ndarray) -> int:
        """L1 norm of the constraint residual."""
        arr = np.asarray(x, dtype=np.int64)
        return int(np.abs(self.constraint_matrix @ arr - self.bound).sum())

    def is_feasible(self, x: np.ndarray) -> bool:
        return self.constraint_violation(x) == 0

    # ------------------------------------------------------------------
    # Feasible space
    # ------------------------------------------------------------------
    def initial_feasible_solution(self) -> np.ndarray:
        """One feasible solution, used to initialise Rasengan's circuit.

        The generic fallback runs a pruned DFS; subclasses provide the
        linear-time constructions catalogued in Section 5.1 of the paper.
        """
        return greedy_particular_solution(self.constraint_matrix, self.bound)

    @functools.cached_property
    def homogeneous_basis(self) -> np.ndarray:
        """Signed-unit basis of ``C u = 0`` (rows are the vectors ``u_k``)."""
        return integer_nullspace(self.constraint_matrix, require_signed_unit=True)

    @functools.cached_property
    def feasible_solutions(self) -> List[np.ndarray]:
        """Every feasible solution (exact, cached).

        Brute force up to :data:`~repro.linalg.feasible.BRUTEFORCE_LIMIT`
        variables; beyond that, expansion from the initial solution along
        the homogeneous basis (exact for the TU-structured benchmarks).
        """
        if self.num_variables <= BRUTEFORCE_LIMIT:
            return enumerate_feasible_bruteforce(self.constraint_matrix, self.bound)
        initial = self.initial_feasible_solution()
        moves = augment_moves_for_connectivity(self.homogeneous_basis, initial)
        return enumerate_feasible_by_expansion(initial, moves)

    @property
    def num_feasible_solutions(self) -> int:
        return len(self.feasible_solutions)

    @functools.cached_property
    def _optimum(self) -> Tuple[float, np.ndarray]:
        solutions = self.feasible_solutions
        if not solutions:
            raise ProblemError(f"{self.name} has no feasible solution")
        best = min(solutions, key=self.value)
        return self.value(best), best

    @property
    def optimal_value(self) -> float:
        """Minimization-oriented optimum ``E_opt`` (used by ARG)."""
        return self._optimum[0]

    @property
    def optimal_solution(self) -> np.ndarray:
        return self._optimum[1].copy()

    def mean_feasible_value(self) -> float:
        """Average score over the feasible space.

        The paper uses this as the "mean quality of feasible solutions"
        baseline that hardware runs of prior VQAs fail to beat (Section 5.4).
        """
        solutions = self.feasible_solutions
        return float(np.mean([self.value(x) for x in solutions]))

    # ------------------------------------------------------------------
    # Key table
    # ------------------------------------------------------------------
    @functools.cached_property
    def _key_table(self) -> Dict[int, Tuple[float, int]]:
        """``{basis-state key: (value, L1 violation)}``, filled lazily."""
        return {}

    def key_entry(self, key: int) -> Tuple[float, int]:
        """``(value, L1 violation)`` of the basis state encoded as ``key``.

        The state is feasible exactly when the violation is 0.  Entries
        are computed once per distinct key (through :meth:`value` and
        :meth:`constraint_violation`) and then served from a per-instance
        table, so the evaluation loops — purification, feasible mass,
        scoring, penalty expectations — pay one integer matrix-vector
        product per distinct state, not one per key per evaluation.
        """
        entry = self._key_table.get(key)
        if entry is None:
            bits = int_to_bits(key, self.num_variables)
            entry = (self.value(bits), self.constraint_violation(bits))
            self._key_table[key] = entry
        return entry

    def key_penalty_value(self, key: int, penalty: float) -> float:
        """:meth:`penalty_value` of the basis state ``key`` (table-served)."""
        value, violation = self.key_entry(key)
        return value + penalty * float(violation)

    @functools.cached_property
    def _penalty_vectors(self) -> Dict[float, np.ndarray]:
        """``{penalty: vector over all 2**n keys, NaN where not yet scored}``."""
        return {}

    def penalty_values(self, keys: np.ndarray, penalty: float) -> np.ndarray:
        """:meth:`key_penalty_value` of every key in the int array ``keys``.

        Served from a per-``penalty`` vector over all ``2**n`` keys,
        cached on the instance and filled on demand: a key is scored
        through :meth:`key_penalty_value` the first time any caller asks
        for it, so every baseline trained on this problem with the
        same penalty shares one vector, and no key is scored that the
        per-key path would not have scored.
        """
        vector = self._penalty_vectors.get(penalty)
        if vector is None:
            vector = np.full(1 << self.num_variables, np.nan)
            self._penalty_vectors[penalty] = vector
        values = vector[keys]
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            penalty_of = self.key_penalty_value
            for index in missing.tolist():
                key = int(keys[index])
                values[index] = vector[key] = penalty_of(key, penalty)
        return values

    # ------------------------------------------------------------------
    # Distribution scoring helpers
    # ------------------------------------------------------------------
    def expectation_from_counts(
        self,
        counts: Dict[int, int],
        *,
        penalty: Optional[float] = None,
    ) -> float:
        """Expected score of a measured distribution.

        Args:
            counts: ``{basis index: shots}``.
            penalty: when given, infeasible samples contribute their
                penalty-augmented score (how penalty-based baselines are
                scored); when ``None``, infeasible samples are scored by
                their raw value.
        """
        total = left_to_right_sum(counts.values())
        if total == 0:
            raise ProblemError("empty counts")
        acc = 0.0
        for key, count in counts.items():
            if penalty is not None:
                score = self.key_penalty_value(key, penalty)
            else:
                score = self.key_entry(key)[0]
            acc += score * count
        return acc / total

    def in_constraints_rate(self, counts: Dict[int, int]) -> float:
        """Fraction of measured shots that satisfy ``C x = b``."""
        total = left_to_right_sum(counts.values())
        if total == 0:
            return 0.0
        feasible = left_to_right_sum(
            count for key, count in counts.items() if self.key_entry(key)[1] == 0
        )
        return feasible / total

    def feasible_keys(self) -> Tuple[int, ...]:
        """Integer encodings of all feasible solutions, sorted."""
        return tuple(sorted(bits_to_int(x) for x in self.feasible_solutions))
