"""End-to-end Rasengan solver.

Pipeline (paper, Sections 3-4):

1. compute the signed-unit homogeneous basis of ``C u = 0``;
2. *simplify* it (Algorithm 1) to reduce per-transition CX cost;
3. build the canonical ``m x m`` transition chain and *prune* it;
4. cut the chain into *segments* and execute them sequentially, seeding
   each segment from the previous segment's measured distribution with
   proportional shot allocation;
5. *purify* every segment output against ``C x = b``;
6. drive the per-transition evolution times with COBYLA to minimise the
   expected objective of the final feasible distribution.

Steps 1-4 (plus circuit synthesis and depth accounting) run as the
staged compilation pipeline of :mod:`repro.pipeline`: each pass produces
an immutable, content-addressed artifact, so a second solver over the
same problem — a service job differing only in backend or shot budget, a
figure sweep, a restart worker — reuses every pre-execution artifact
from the :class:`~repro.pipeline.cache.ArtifactCache` instead of
recomputing it.  :class:`RasenganSolver` is a thin orchestration over
that pipeline; its public API and its results are unchanged.

All execution goes through the unified
:class:`~repro.engine.ExecutionEngine`: ``backend=None`` selects the
exact sparse fast path (the offline counterpart of the artifact's DDSim
path, optionally with shot sampling), any other backend spec runs the
synthesised segment circuits gate-level.  The engine also provides the
optional process-pool fan-out used for multi-start restarts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.optimizer import minimize_cobyla
from repro.core.prune import PruneResult
from repro.engine import (
    ExecutionEngine,
    TransitionChainSpec,
    check_positive_int,
    check_shots,
)
from repro.engine.registry import BackendSpec
from repro import telemetry
from repro.exceptions import NoFeasibleStateError, SolverError
from repro.linalg.bitvec import int_to_bits
from repro.metrics.arg import approximation_ratio_gap
from repro.pipeline import CircuitArtifact, ExecutionStage, SolvePipeline
from repro.pipeline.cache import ArtifactCache
from repro.problems.base import ConstrainedBinaryProblem
from repro.simulators.seeding import SeedBank, make_rng

#: Score assigned when an execution produces no feasible state at all.
_FAILURE_SCORE = 1e9


def _finite_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


@dataclass
class RasenganConfig:
    """Solver knobs.

    Attributes:
        shots: measurement shots per segment execution (``None`` with the
            sparse engine means exact probabilities, no sampling).
        max_iterations: COBYLA iteration budget (paper: 300 noise-free,
            100 on hardware).
        transitions_per_segment: chain length per segment (1 = the
            minimal-depth configuration; used when ``max_segment_cx`` is
            ``None``).
        max_segment_cx: when set, segments are packed greedily so each
            stays within this CX budget (the paper's deployment policy —
            e.g. F1 runs as 3 segments of ~49 depth); takes precedence
            over ``transitions_per_segment``.
        enable_simplify: run Algorithm 1 on the basis.
        simplify_iterate: iterate Algorithm 1 to a fixed point.
        enable_prune: prune unproductive transitions / early stop.
        enable_augment: add signed-unit basis combinations when single
            transitions cannot connect the feasible space (see
            :mod:`repro.linalg.moves`).
        enable_purify: constraint-based purification between segments.
        initial_time: starting evolution time for every transition.
        shots_growth: geometric growth factor of per-segment shots; later
            segments carry the accumulated distribution, so giving them
            more shots preserves probability information better (Figure 7
            boosts the final segment 10x).  1.0 = uniform shots.
        warm_start: hill-climb the initial feasible solution along the
            move set before building the schedule (classical, free, never
            worse than the domain construction).
        restarts: independent COBYLA starts (the first from
            ``initial_time``, the rest from perturbed time vectors); the
            best final score wins.  Multi-start is the standard cure for
            the non-convex time landscape's local optima.
        rhobeg: COBYLA initial trust-region radius.
        seed: RNG seed for sampling.
        min_seed_probability: segment-input states below this probability
            are dropped (emulates finite shot resolution when running with
            exact probabilities).
        engine_workers: process-pool width for the execution engine
            (``None`` = the process-wide default; restarts and noise
            trajectories fan out, bit-identically to a serial run).
    """

    shots: Optional[int] = 1024
    max_iterations: int = 100
    transitions_per_segment: int = 1
    max_segment_cx: Optional[int] = None
    enable_simplify: bool = True
    simplify_iterate: bool = True
    enable_prune: bool = True
    enable_augment: bool = True
    enable_purify: bool = True
    initial_time: float = math.pi / 4
    shots_growth: float = 1.0
    warm_start: bool = False
    restarts: int = 1
    rhobeg: float = 0.4
    seed: Optional[int] = None
    min_seed_probability: float = 1e-4
    engine_workers: Optional[int] = None

    def __post_init__(self) -> None:
        check_shots(self.shots, "RasenganConfig.shots")
        # COBYLA would floor a zero or negative budget to its simplex
        # size and the restart loop would clamp restarts to 1, silently.
        check_positive_int(self.max_iterations, "RasenganConfig.max_iterations")
        check_positive_int(self.restarts, "RasenganConfig.restarts")
        if not _finite_real(self.initial_time):
            # NaN or inf would fail deep in SparseState instead.
            raise SolverError(
                "RasenganConfig.initial_time must be a finite number, "
                f"got {self.initial_time!r}"
            )
        rhobeg = self.rhobeg
        if not (_finite_real(rhobeg) and rhobeg > 0):
            # scipy would silently swap a zero radius for its default.
            raise SolverError(
                "RasenganConfig.rhobeg must be a finite positive number, "
                f"got {rhobeg!r}"
            )


@dataclass
class RasenganResult:
    """Outcome of one Rasengan training run."""

    problem_name: str
    best_parameters: np.ndarray
    expectation_value: float
    best_sampled_value: float
    best_sampled_solution: np.ndarray
    optimal_value: float
    arg: float
    in_constraints_rate: float
    final_distribution: Dict[int, float]
    iterations: int
    history: List[float]
    num_parameters: int
    num_segments: int
    schedule: List[int]
    pruned: PruneResult
    basis: np.ndarray
    failed: bool = False

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.problem_name}: ARG={self.arg:.4f} "
            f"E[obj]={self.expectation_value:.3f} (opt={self.optimal_value:.3f}) "
            f"in-constraints={self.in_constraints_rate:.1%} "
            f"segments={self.num_segments} params={self.num_parameters}"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Deterministic JSON-compatible record of this run.

        The single wire format shared by the ``solve`` CLI subcommand and
        the solve service (``docs/SERVICE.md``): two runs are bit-for-bit
        identical exactly when these dicts are equal.
        """
        return {
            "problem": self.problem_name,
            "arg": self.arg,
            "expectation": self.expectation_value,
            "in_constraints_rate": self.in_constraints_rate,
            "parameters": [float(value) for value in self.best_parameters],
            "distribution": {
                str(key): value
                for key, value in sorted(self.final_distribution.items())
            },
        }


def _run_restart(task) -> Tuple[np.ndarray, List[float]]:
    """One COBYLA restart (module-level so the engine pool can run it).

    The task carries a pre-spawned child seed; reseeding the (worker-local
    or in-process) engine from it makes the restart a pure function of the
    root seed, so parallel and serial runs produce identical candidates.
    """
    solver, start, seed, index = task
    solver.engine.reseed(seed)
    history: List[float] = []

    def objective(times: np.ndarray) -> float:
        telemetry.add("optimizer.iterations")
        try:
            distribution, _ = solver.execute(times)
        except NoFeasibleStateError:
            history.append(_FAILURE_SCORE)
            return _FAILURE_SCORE
        score = solver._score(distribution)
        history.append(score)
        return score

    with telemetry.span("restart", index=index):
        best = minimize_cobyla(
            objective,
            start,
            max_iterations=solver.config.max_iterations,
            rhobeg=solver.config.rhobeg,
        )
    return best, history


class RasenganSolver:
    """Variational solver: thin orchestration over the staged pipeline.

    Construction compiles the passes a solve reads (basis → hamiltonian
    → prune → segmentation) of a :class:`~repro.pipeline.SolvePipeline`,
    reusing any artifact the content-addressed cache holds; the
    ``circuit`` pass (depth accounting) runs on the first read of
    :attr:`circuit_artifact`.  :meth:`solve` trains the evolution times
    through the terminal (uncached) execution stage.

    Args:
        problem: the problem instance.
        backend: backend spec forwarded to the engine (``None`` = exact).
        config: solver knobs (default :class:`RasenganConfig`).
        engine: share an existing engine instead of building one.
        artifact_cache: pipeline artifact cache; ``None`` uses the
            process-wide default (see
            :func:`repro.pipeline.configure_cache`).
    """

    def __init__(
        self,
        problem: ConstrainedBinaryProblem,
        backend: BackendSpec = None,
        config: Optional[RasenganConfig] = None,
        engine: Optional[ExecutionEngine] = None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.problem = problem
        self.config = config or RasenganConfig()
        self._rng = make_rng(self.config.seed)
        self._bank = SeedBank(self.config.seed)
        if engine is None:
            engine = ExecutionEngine(
                backend,
                seed=self._bank.child(),
                workers=self.config.engine_workers,
            )
        self.engine = engine

        self.pipeline = SolvePipeline(
            problem, self.config, cache=artifact_cache
        )
        prune = self.pipeline.artifact("prune")
        self.initial_bits = prune.initial_bits
        self.basis = self.pipeline.artifact("hamiltonian").basis
        self.pruned = prune.pruned
        self.schedule: List[int] = list(prune.schedule)
        self.plan = self.pipeline.artifact("segmentation").plan
        self.chain = TransitionChainSpec(
            self.basis, self.schedule, problem.num_variables
        )
        self._executor = ExecutionStage(problem, self.config)

    @property
    def backend(self):
        """The engine's backend (``None`` in exact mode)."""
        return self.engine.backend

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def circuit_artifact(self) -> CircuitArtifact:
        """Depth accounting, compiled (or reused) on first read."""
        return self.pipeline.artifact("circuit")

    @property
    def num_parameters(self) -> int:
        """One evolution time per retained transition."""
        return len(self.schedule)

    @property
    def num_segments(self) -> int:
        return self.plan.num_segments

    def segment_two_qubit_cost(self) -> int:
        """Largest per-segment CX cost under the linear ``34 k`` model."""
        return self.circuit_artifact.max_segment_cx

    def chain_two_qubit_cost(self) -> int:
        """Whole-chain CX cost under the linear model (unsegmented)."""
        return self.circuit_artifact.chain_cx

    def segment_circuit(self, positions: Sequence[int], times: Sequence[float]):
        """Gate-level circuit of one segment at ``times``."""
        return self.engine.segment_circuit(self.chain, positions, times)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, times: Sequence[float]
    ) -> Tuple[Dict[int, float], float]:
        """Run the segmented pipeline with the given evolution times.

        Returns:
            ``(final distribution, in-constraints rate)`` where the
            distribution is purified when purification is enabled, and the
            rate refers to the *final segment's raw output* (what the
            in-constraints metric of Figure 11b reports).

        Raises:
            NoFeasibleStateError: when purification is enabled and a
                segment output contains no feasible state.
        """
        if len(times) != self.num_parameters:
            raise SolverError(
                f"expected {self.num_parameters} times, got {len(times)}"
            )
        if self.engine.is_exact:
            base_shots = self.config.shots
        else:
            base_shots = self.config.shots or 1024
        return self._executor.run(
            self.engine,
            self.chain,
            self.plan,
            self.initial_bits,
            times,
            base_shots,
        )

    def execute_batch(
        self, batch: Sequence[Sequence[float]]
    ) -> List[Tuple[Dict[int, float], float]]:
        """Execute a batch of time vectors (engine-instrumented)."""
        return self.engine.run_batch(self.execute, batch, label="execute")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _score(self, distribution: Dict[int, float]) -> float:
        """Expected minimization-oriented objective over feasible states."""
        entry = self.problem.key_entry
        numerator = 0.0
        mass = 0.0
        for key, probability in distribution.items():
            value, violation = entry(key)
            if violation == 0:
                numerator += probability * value
                mass += probability
        if mass <= 0:
            return _FAILURE_SCORE
        return numerator / mass

    def solve(self) -> RasenganResult:
        """Train the evolution times and return the best result found.

        Restarts are independent work units: each gets a pre-spawned child
        seed and runs through :meth:`ExecutionEngine.map` (in-process by
        default, process-pool when the engine has workers — bit-identical
        either way).  The finishing candidates are then re-scored through
        :meth:`ExecutionEngine.run_batch`.
        """
        history: List[float] = []

        with telemetry.span(
            "solve",
            problem=self.problem.name,
            parameters=self.num_parameters,
            segments=self.num_segments,
        ) as solve_span:
            x0 = np.full(self.num_parameters, self.config.initial_time)
            if self.num_parameters == 0:
                # Degenerate problem: a single feasible solution.
                return self._finalize(x0, history)

            starts = [x0]
            for _ in range(self.config.restarts - 1):
                starts.append(
                    x0
                    + self._rng.uniform(
                        -self.config.initial_time,
                        self.config.initial_time,
                        size=self.num_parameters,
                    )
                )
            for _ in starts:
                telemetry.add("optimizer.restarts")
            restart_seeds = self._bank.spawn(len(starts))
            tasks = [
                (self, start, seed, index)
                for index, (start, seed) in enumerate(zip(starts, restart_seeds))
            ]
            outcomes = self.engine.map(_run_restart, tasks, label="restarts")
            candidates: List[np.ndarray] = []
            for candidate, restart_history in outcomes:
                candidates.append(candidate)
                history.extend(restart_history)

            score_seeds = self._bank.spawn(len(candidates))

            def score_candidate(item) -> float:
                seed, candidate = item
                telemetry.add("optimizer.iterations")
                self.engine.reseed(seed)
                try:
                    distribution, _ = self.execute(candidate)
                except NoFeasibleStateError:
                    history.append(_FAILURE_SCORE)
                    return _FAILURE_SCORE
                score = self._score(distribution)
                history.append(score)
                return score

            scores = self.engine.run_batch(
                score_candidate,
                list(zip(score_seeds, candidates)),
                label="restart-scores",
            )
            best_index = int(np.argmin(scores))
            best = candidates[best_index]
            best_score = scores[best_index]
            solve_span.set(iterations=len(history), best_score=best_score)
            return self._finalize(best, history)

    def _finalize(
        self, best_parameters: np.ndarray, history: List[float]
    ) -> RasenganResult:
        try:
            distribution, rate = self.execute(best_parameters)
            failed = False
        except NoFeasibleStateError:
            distribution, rate, failed = {}, 0.0, True

        if failed:
            expectation = _FAILURE_SCORE
            best_bits = self.initial_bits
        else:
            expectation = self._score(distribution)
            entry = self.problem.key_entry
            best_key = min(
                (key for key in distribution if entry(key)[1] == 0),
                key=lambda key: entry(key)[0],
            )
            best_bits = int_to_bits(best_key, self.problem.num_variables)

        optimal = self.problem.optimal_value
        return RasenganResult(
            problem_name=self.problem.name,
            best_parameters=np.asarray(best_parameters, dtype=float),
            expectation_value=expectation,
            best_sampled_value=self.problem.value(best_bits),
            best_sampled_solution=best_bits,
            optimal_value=optimal,
            arg=approximation_ratio_gap(optimal, expectation),
            in_constraints_rate=1.0 if (self.config.enable_purify and not failed) else rate,
            final_distribution=distribution,
            iterations=len(history),
            history=history,
            num_parameters=self.num_parameters,
            num_segments=self.num_segments,
            schedule=list(self.schedule),
            pruned=self.pruned,
            basis=self.basis,
            failed=failed,
        )
