"""Figure 10: scalability on growing facility-location instances.

Four panels:

(a) maximum (unpruned, ``m^2``) versus pruned segment counts — quadratic
    growth tamed by pruning;
(b) per-segment circuit depth (linear ``34 k`` cost model) — roughly flat
    for FLP because constraint arity is fixed;
(c) noise-free ARG via the sparse engine;
(d) ARG under noise, in one of two modes:

    * ``noisy_mode="effective"`` (default, fast) — each segment's output
      distribution is mixed with random bitstrings at a rate implied by
      its two-qubit gate count and the per-gate error rate, then
      purified.  Preserves the mechanism the panel demonstrates
      (deep-enough segments stop yielding feasible states and the run
      terminates early).
    * ``noisy_mode="trajectory"`` — honest per-gate Kraus trajectories on
      the sparse engine (:class:`~repro.simulators.sparse_noisy.
      SparseTrajectoryBackend`), which reaches the paper's 28+-qubit
      noisy points without a dense statevector; slower, used for
      spot-checks of the effective model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.prune import build_schedule
from repro.core.solver import RasenganConfig, RasenganSolver
from repro.exceptions import NoFeasibleStateError
from repro.linalg.bitvec import int_to_bits
from repro.linalg.summation import left_to_right_sum
from repro.metrics.arg import approximation_ratio_gap
from repro.problems import FacilityLocationProblem

#: (facilities, demands) ladder; variables = f + 2 f d.
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = ((2, 1), (2, 2), (2, 3), (3, 3), (3, 4))


@dataclass
class ScalePoint:
    num_variables: int
    max_segments: int
    pruned_segments: int
    segment_depth_cx: int
    noise_free_arg: float
    noisy_arg: Optional[float]
    noisy_failed: bool


def _effective_noisy_execute(
    solver: RasenganSolver,
    times: np.ndarray,
    two_qubit_error: float,
    rng: np.random.Generator,
    shots: int = 1024,
) -> Dict[int, float]:
    """Segmented execution with the effective per-segment noise channel."""
    from repro.core.purification import purify_probabilities
    from repro.simulators.sparsestate import SparseState
    from repro.linalg.bitvec import bits_to_int

    problem = solver.problem
    n = problem.num_variables
    distribution = {bits_to_int(solver.initial_bits): 1.0}
    for segment in solver.plan:
        state = SparseState.from_distribution(n, distribution)
        segment_cx = 0
        for position in segment:
            u = solver.basis[solver.schedule[position]]
            state.apply_transition(u, times[position])
            segment_cx += 34 * int(np.count_nonzero(u))
        raw = state.probabilities()
        # Effective channel: survival probability per shot.
        survival = (1.0 - two_qubit_error) ** segment_cx
        corrupted: Dict[int, float] = {
            key: probability * survival for key, probability in raw.items()
        }
        scatter = 1.0 - survival
        for _ in range(8):  # a handful of scattered outcomes stand in for noise
            corrupted_key = int(rng.integers(0, 1 << min(n, 62)))
            corrupted[corrupted_key] = corrupted.get(corrupted_key, 0.0) + scatter / 8
        distribution, _ = purify_probabilities(corrupted, problem)
        distribution = {k: p for k, p in distribution.items() if p > 1e-4}
        total = left_to_right_sum(distribution.values())
        distribution = {k: p / total for k, p in distribution.items()}
    return distribution


def _trajectory_noisy_arg(
    problem,
    times: np.ndarray,
    two_qubit_error: float,
    seed: int,
    shots: int = 512,
) -> float:
    """Replay the trained times on a sparse Kraus-trajectory backend."""
    from repro.simulators.noise import NoiseModel
    from repro.simulators.sparse_noisy import SparseTrajectoryBackend

    model = NoiseModel.from_error_rates(
        single_qubit_error=two_qubit_error / 10.0,
        two_qubit_error=two_qubit_error,
    )
    backend = SparseTrajectoryBackend(model, seed=seed, max_trajectories=8)
    solver = RasenganSolver(
        problem,
        backend=backend,
        config=RasenganConfig(shots=shots, max_iterations=1, seed=seed),
    )
    distribution, _ = solver.execute(times)
    n = problem.num_variables
    expectation = left_to_right_sum(
        p * problem.value(int_to_bits(k, n)) for k, p in distribution.items()
    )
    return approximation_ratio_gap(problem.optimal_value, expectation)


def run_fig10(
    *,
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    max_iterations: int = 120,
    two_qubit_error: float = 0.005,
    seed: int = 0,
    noisy_mode: str = "effective",
) -> List[ScalePoint]:
    """Scalability ladder over FLP instances."""
    if noisy_mode not in ("effective", "trajectory"):
        raise ValueError("noisy_mode must be 'effective' or 'trajectory'")
    points: List[ScalePoint] = []
    rng = np.random.default_rng(seed)
    for facilities, demands in sizes:
        problem = FacilityLocationProblem.random(
            facilities, demands, seed=seed, name=f"flp-{facilities}x{demands}"
        )
        config = RasenganConfig(shots=None, max_iterations=max_iterations, seed=seed)
        solver = RasenganSolver(problem, config=config)
        result = solver.solve()

        noisy_arg: Optional[float] = None
        noisy_failed = False
        try:
            if noisy_mode == "trajectory":
                noisy_arg = _trajectory_noisy_arg(
                    problem, result.best_parameters, two_qubit_error, seed
                )
            else:
                distribution = _effective_noisy_execute(
                    solver, result.best_parameters, two_qubit_error, rng
                )
                n = problem.num_variables
                expectation = left_to_right_sum(
                    p * problem.value(int_to_bits(k, n))
                    for k, p in distribution.items()
                )
                noisy_arg = approximation_ratio_gap(
                    problem.optimal_value, expectation
                )
        except NoFeasibleStateError:
            noisy_failed = True

        points.append(
            ScalePoint(
                num_variables=problem.num_variables,
                max_segments=len(build_schedule(solver.basis.shape[0])),
                pruned_segments=solver.num_segments,
                segment_depth_cx=solver.segment_two_qubit_cost(),
                noise_free_arg=result.arg,
                noisy_arg=noisy_arg,
                noisy_failed=noisy_failed,
            )
        )
    return points


def format_fig10(points: List[ScalePoint]) -> str:
    lines = [
        f"{'#vars':>6} {'max seg':>8} {'pruned':>7} {'seg CX':>7} "
        f"{'ARG (ideal)':>12} {'ARG (noisy)':>12}"
    ]
    for p in points:
        noisy = "FAILED" if p.noisy_failed else (
            f"{p.noisy_arg:.3f}" if p.noisy_arg is not None else "—"
        )
        lines.append(
            f"{p.num_variables:>6} {p.max_segments:>8} {p.pruned_segments:>7} "
            f"{p.segment_depth_cx:>7} {p.noise_free_arg:>12.3f} {noisy:>12}"
        )
    return "\n".join(lines)
