"""Shared plumbing for the baseline variational algorithms.

Each baseline implements a fast dense simulation path
(:meth:`VariationalBaseline.simulate`) used for training, and a gate-level
circuit (:meth:`VariationalBaseline.build_circuit`) used for depth
accounting and noisy (backend) execution.  Both run through the shared
:class:`~repro.engine.ExecutionEngine` — the engine builds the gate-level
ansatz when a backend needs it, and owns all sampling randomness.
Training minimises the expected penalty energy of the output
distribution with COBYLA, matching the paper's protocol (Section 5.1).
In exact mode the output is scored as one array product against the
problem's cached penalty vector; a sampled or backend output is scored
per key.  Both reduce with
:func:`~repro.linalg.summation.left_to_right_sum`, so they give the same
bits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.baselines.encoding import DEFAULT_PENALTY, PenaltyEncoding
from repro.baselines.optimizer import minimize_cobyla
from repro.circuits.circuit import QuantumCircuit
from repro.engine import (
    AnsatzSpec,
    ExecutionEngine,
    check_positive_int,
    check_shots,
    parameter_vector,
)
from repro.engine.registry import BackendSpec
from repro.linalg.summation import left_to_right_sum
from repro.metrics.arg import approximation_ratio_gap
from repro.pipeline import compile_ansatz
from repro.problems.base import ConstrainedBinaryProblem
from repro.simulators.seeding import SeedBank, make_rng
from repro import telemetry


@dataclass
class BaselineResult:
    """Outcome of one baseline training run."""

    algorithm: str
    problem_name: str
    best_parameters: np.ndarray
    expectation_value: float
    arg: float
    in_constraints_rate: float
    final_distribution: Dict[int, float]
    iterations: int
    history: List[float]
    num_parameters: int

    def summary(self) -> str:
        return (
            f"{self.algorithm}/{self.problem_name}: ARG={self.arg:.3f} "
            f"in-constraints={self.in_constraints_rate:.1%} "
            f"params={self.num_parameters}"
        )


class VariationalBaseline(abc.ABC):
    """Base class for HEA / P-QAOA / Choco-Q.

    Args:
        problem: problem instance.
        penalty: penalty coefficient for scoring (and for training, where
            the method is penalty-based).
        shots: measurement shots for sampling-based scoring; ``None``
            scores the exact distribution.
        max_iterations: COBYLA iteration budget.
        backend: backend name or instance forwarded to the engine; when
            given, training runs real (possibly noisy) circuits instead of
            the dense fast path.
        seed: RNG seed.
        engine: share an existing :class:`ExecutionEngine` instead of
            building one (``backend`` is ignored then).
        engine_workers: process-pool width for a newly built engine.
    """

    algorithm: str = "baseline"

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        penalty: float = DEFAULT_PENALTY,
        shots: Optional[int] = 1024,
        max_iterations: int = 300,
        backend: BackendSpec = None,
        seed: Optional[int] = None,
        engine: Optional[ExecutionEngine] = None,
        engine_workers: Optional[int] = None,
    ) -> None:
        check_shots(shots, f"{type(self).__name__} shots")
        check_positive_int(max_iterations, f"{type(self).__name__} max_iterations")
        self.problem = problem
        self.encoding = PenaltyEncoding(problem, penalty)
        self.shots = shots
        self.max_iterations = max_iterations
        self._rng = make_rng(seed)
        bank = SeedBank(seed)
        if engine is None:
            engine = ExecutionEngine(
                backend, seed=bank.child(), workers=engine_workers
            )
        self.engine = engine
        self._spec: Optional[AnsatzSpec] = None
        self._spec_structure: Optional[Dict[str, Any]] = None

    @property
    def backend(self):
        """The engine's backend (``None`` in exact mode)."""
        return self.engine.backend

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_parameters(self) -> int:
        """Number of variational parameters."""

    @abc.abstractmethod
    def initial_parameters(self) -> np.ndarray:
        """Starting point for the optimizer."""

    @abc.abstractmethod
    def simulate(self, parameters: np.ndarray) -> np.ndarray:
        """Dense statevector of the ansatz at ``parameters``.

        Implementations validate ``parameters`` with
        :meth:`_parameter_vector` (a wrong count raises ``SolverError``).
        """

    @abc.abstractmethod
    def build_circuit(self, parameters: np.ndarray) -> QuantumCircuit:
        """Gate-level circuit of the ansatz (for depth/noisy execution)."""

    # ------------------------------------------------------------------
    def ansatz_structure(self) -> Dict[str, Any]:
        """JSON-compatible structural knobs of the ansatz circuit.

        Everything that changes the *shape* of the circuit (layer counts,
        frozen qubits, Trotterisation) belongs here: it is fingerprinted —
        together with the problem and the penalty encoding — into the
        ansatz's content address by :func:`repro.pipeline.compile_ansatz`.
        """
        return {}

    def ansatz_spec(self) -> AnsatzSpec:
        """This baseline's engine work description.

        Building it runs the pipeline's encode/ansatz passes, which
        record the ansatz's content address in the pipeline timeline.
        The spec is rebuilt if the structure changes after construction
        (e.g. a later frozen-qubit selection).
        """
        structure = self.ansatz_structure()
        if self._spec is None or self._spec_structure != structure:
            compile_ansatz(
                self.problem,
                self.algorithm,
                self.num_parameters,
                structure,
                penalty=self.encoding.penalty,
            )
            self._spec = AnsatzSpec(
                num_parameters=self.num_parameters,
                build=self.build_circuit,
                statevector=self.simulate,
            )
            self._spec_structure = structure
        return self._spec

    def bound_circuit(self, parameters: np.ndarray) -> QuantumCircuit:
        """Gate-level ansatz at ``parameters`` (a wrong count raises
        ``SolverError``)."""
        return self.engine.ansatz_circuit(self.ansatz_spec(), parameters)

    def _parameter_vector(self, parameters: np.ndarray) -> np.ndarray:
        """``parameters`` as a float vector of exactly ``num_parameters``.

        Raises:
            SolverError: when the count differs (extra entries would be
                ignored silently, missing ones fail deep in numpy).
        """
        return parameter_vector(parameters, self.num_parameters)

    def distribution(self, parameters: np.ndarray) -> Dict[int, float]:
        """Output distribution at ``parameters`` (engine-routed)."""
        return self.engine.sample_ansatz(
            self.ansatz_spec(), self._parameter_vector(parameters), self.shots
        )

    def penalty_expectation(self, distribution: Dict[int, float]) -> float:
        """Expected penalty energy of ``distribution``, in key order."""
        penalty_of = self.problem.key_penalty_value
        penalty = self.encoding.penalty
        return left_to_right_sum(
            probability * penalty_of(key, penalty)
            for key, probability in distribution.items()
        )

    def loss(self, parameters: np.ndarray) -> float:
        """Training loss: the expected penalty energy at ``parameters``.

        In exact mode the engine returns the output's support keys and
        their probabilities, scored as one array product with
        :meth:`~repro.problems.base.ConstrainedBinaryProblem.penalty_values`.
        A sampled or backend output goes through
        :meth:`penalty_expectation`.  Both give the same bits.
        """
        if self.shots is not None or not self.engine.is_exact:
            return self.penalty_expectation(self.distribution(parameters))
        support, probabilities = self.engine.exact_support(
            self.ansatz_spec(), self._parameter_vector(parameters)
        )
        values = self.problem.penalty_values(support, self.encoding.penalty)
        return left_to_right_sum(probabilities * values)

    # ------------------------------------------------------------------
    def solve(self) -> BaselineResult:
        """Train with COBYLA and score the final distribution."""
        history: List[float] = []

        def loss(parameters: np.ndarray) -> float:
            telemetry.add("optimizer.iterations")
            value = self.loss(parameters)
            history.append(value)
            return value

        with telemetry.span(
            "baseline.solve",
            algorithm=self.algorithm,
            problem=self.problem.name,
        ):
            best = minimize_cobyla(
                loss, self.initial_parameters(), max_iterations=self.max_iterations
            )
            final = self.distribution(best)
        expectation = self.penalty_expectation(final)
        entry = self.problem.key_entry
        rate = left_to_right_sum(
            probability for key, probability in final.items() if entry(key)[1] == 0
        )
        return BaselineResult(
            algorithm=self.algorithm,
            problem_name=self.problem.name,
            best_parameters=np.asarray(best, dtype=float),
            expectation_value=expectation,
            arg=approximation_ratio_gap(self.problem.optimal_value, expectation),
            in_constraints_rate=rate,
            final_distribution=final,
            iterations=len(history),
            history=history,
            num_parameters=self.num_parameters,
        )
