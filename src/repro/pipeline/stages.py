"""The compilation passes of the Rasengan solve path.

Each stage is a *pure function* of its input artifacts and a named slice
of the solver configuration — that purity is what makes the stage
fingerprint (input fingerprints + config slice, rooted at the problem
fingerprint) a sound cache key:

========== =============================== ===============================
stage      inputs                          config slice
========== =============================== ===============================
basis      problem                         —
hamiltonian basis                          enable_simplify,
                                           simplify_iterate, enable_augment
prune      basis, hamiltonian              enable_prune, warm_start
segmentation hamiltonian, prune            transitions_per_segment,
                                           max_segment_cx
circuit    hamiltonian, prune, segmentation —
execution  (terminal; never cached)        shots, seeds, backend, times
========== =============================== ===============================

The execution stage is deliberately *not* fingerprinted: its output
depends on evolution times, shot sampling, and backend noise, so it runs
through :class:`~repro.engine.ExecutionEngine` every time.  Everything
above it is content-addressed and reused via the
:class:`~repro.pipeline.cache.ArtifactCache`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.decompose import decompose_circuit
from repro.circuits.depth import CX_PER_NONZERO, circuit_depth, two_qubit_depth
from repro.core.prune import PruneResult, build_schedule, prune_schedule
from repro.core.purification import purify_probabilities
from repro.core.segmentation import plan_segments, plan_segments_by_cost
from repro.core.simplify import simplify_basis
from repro.core.transition import transition_chain_circuit
from repro.linalg.bitvec import bits_to_int
from repro.linalg.moves import augment_moves_for_connectivity
from repro.linalg.summation import left_to_right_sum
from repro.pipeline.artifacts import (
    Artifact,
    BasisArtifact,
    CircuitArtifact,
    HamiltonianArtifact,
    PruneArtifact,
    SegmentationArtifact,
)


class Stage:
    """One compilation pass: named, fingerprintable, cacheable.

    Attributes:
        name: stage identifier (also the telemetry span suffix).
        inputs: upstream stage names whose artifact fingerprints feed
            this stage's fingerprint (the basis stage's sole input is the
            problem itself).
        config_fields: solver-config attributes forming the config slice;
            changing any of them invalidates this stage and everything
            downstream, and nothing else.
    """

    name: str = "stage"
    inputs: Tuple[str, ...] = ()
    config_fields: Tuple[str, ...] = ()

    def config_slice(self, config) -> Dict[str, object]:
        return {field: getattr(config, field) for field in self.config_fields}

    def compute(
        self, context, inputs: Dict[str, Artifact], fingerprint: str
    ) -> Artifact:
        raise NotImplementedError


class BasisStage(Stage):
    """Nullspace basis (Def. 1) + the linear-time feasible construction."""

    name = "basis"
    inputs = ()
    config_fields = ()

    def compute(self, context, inputs, fingerprint):
        problem = context.problem
        return BasisArtifact(
            fingerprint=fingerprint,
            basis=problem.homogeneous_basis,
            initial_bits=problem.initial_feasible_solution(),
            num_variables=problem.num_variables,
        )


def choose_basis(
    raw: np.ndarray, initial_bits: np.ndarray, config
) -> Tuple[np.ndarray, int, Optional[PruneResult]]:
    """Pick the cheapest connected move set (Algorithm 1 + augmentation).

    Simplification lowers per-transition cost but can disconnect the
    feasible space, forcing connectivity augmentation to add back wide
    vectors; occasionally the raw basis ends up cheaper overall.  When
    both knobs are on, every candidate is evaluated by its pruned-chain
    CX cost and the cheapest wins (first wins ties, so the simplified
    candidate is preferred).

    Returns ``(winner, num_candidates, winner_prune)`` where
    ``winner_prune`` is the winner's :class:`PruneResult` from the cost
    evaluation (``None`` when only one candidate existed and no
    evaluation was needed) — the prune stage reuses it instead of
    re-deriving the identical schedule.
    """
    candidates: List[np.ndarray] = []
    if config.enable_simplify:
        candidates.append(simplify_basis(raw, iterate=config.simplify_iterate))
    if not config.enable_simplify or config.enable_augment:
        candidates.append(raw)
    if config.enable_augment:
        candidates = [
            augment_moves_for_connectivity(basis, initial_bits)
            for basis in candidates
        ]
    if len(candidates) == 1:
        return candidates[0], 1, None

    evaluations = []
    for basis in candidates:
        pruned = prune_schedule(basis, initial_bits)
        cost = sum(
            int(np.count_nonzero(basis[index])) for index in pruned.schedule
        )
        evaluations.append((cost, basis, pruned))
    best_cost, winner, winner_prune = min(evaluations, key=lambda item: item[0])
    return winner, len(candidates), winner_prune


class HamiltonianStage(Stage):
    """Transition-Hamiltonian move set: simplify, augment, pick cheapest."""

    name = "hamiltonian"
    inputs = ("basis",)
    config_fields = ("enable_simplify", "simplify_iterate", "enable_augment")

    def compute(self, context, inputs, fingerprint):
        basis_artifact: BasisArtifact = inputs["basis"]
        winner, count, winner_prune = choose_basis(
            basis_artifact.basis, basis_artifact.initial_bits, context.config
        )
        return HamiltonianArtifact(
            fingerprint=fingerprint,
            basis=winner,
            candidates=count,
            candidate_prune=winner_prune,
        )


class PruneStage(Stage):
    """Warm start (optional) + chain pruning / full-schedule fallback."""

    name = "prune"
    inputs = ("basis", "hamiltonian")
    config_fields = ("enable_prune", "warm_start")

    def compute(self, context, inputs, fingerprint):
        config = context.config
        hamiltonian: HamiltonianArtifact = inputs["hamiltonian"]
        initial_bits = inputs["basis"].initial_bits
        if config.warm_start:
            from repro.core.warmstart import hill_climb_initial_solution

            # Hill climbing moves along the move set, so the improved
            # start stays in the same connected component and coverage
            # guarantees are unaffected.
            from repro import telemetry

            with telemetry.span("warm_start"):
                initial_bits = hill_climb_initial_solution(
                    context.problem, hamiltonian.basis, start=initial_bits
                )
        if not config.enable_prune:
            full = build_schedule(hamiltonian.basis.shape[0])
            pruned = PruneResult(
                schedule=list(full),
                kept_positions=list(range(len(full))),
                original_length=len(full),
                coverage_after=[],
                total_reachable=-1,
            )
        elif hamiltonian.candidate_prune is not None and not config.warm_start:
            # The candidate evaluation already pruned the winning basis
            # against these exact initial bits — reuse, don't re-derive.
            pruned = hamiltonian.candidate_prune
        else:
            pruned = prune_schedule(hamiltonian.basis, initial_bits)
        return PruneArtifact(
            fingerprint=fingerprint,
            initial_bits=initial_bits,
            pruned=pruned,
            schedule=tuple(pruned.schedule),
        )


class SegmentationStage(Stage):
    """Cut the pruned chain into executable segments (§4.2)."""

    name = "segmentation"
    inputs = ("hamiltonian", "prune")
    config_fields = ("transitions_per_segment", "max_segment_cx")

    def compute(self, context, inputs, fingerprint):
        config = context.config
        basis = inputs["hamiltonian"].basis
        schedule = inputs["prune"].schedule
        if config.max_segment_cx is not None:
            costs = [
                CX_PER_NONZERO * int(np.count_nonzero(basis[index]))
                for index in schedule
            ]
            plan = plan_segments_by_cost(costs, config.max_segment_cx)
        else:
            plan = plan_segments(len(schedule), config.transitions_per_segment)
        return SegmentationArtifact(fingerprint=fingerprint, plan=plan)


class CircuitStage(Stage):
    """Synthesize each segment once; record decomposed depth accounting.

    Depth is a property of the circuit *structure*, not of the evolution
    times (decomposition never elides a rotation by its angle), so the
    segments are synthesized at a fixed reference time and the recorded
    depths hold for every binding.
    """

    name = "circuit"
    inputs = ("hamiltonian", "prune", "segmentation")
    config_fields = ()

    #: Reference evolution time used for structural synthesis.
    REFERENCE_TIME = 1.0

    def compute(self, context, inputs, fingerprint):
        basis = inputs["hamiltonian"].basis
        schedule = inputs["prune"].schedule
        plan = inputs["segmentation"].plan
        num_qubits = context.problem.num_variables
        depths: List[int] = []
        depths_2q: List[int] = []
        cx_costs: List[int] = []
        for segment in plan:
            rows = [schedule[position] for position in segment]
            circuit = transition_chain_circuit(
                basis, rows, [self.REFERENCE_TIME] * len(rows), num_qubits
            )
            flat = decompose_circuit(circuit)
            depths.append(circuit_depth(flat, decompose=False))
            depths_2q.append(two_qubit_depth(flat, decompose=False))
            cx_costs.append(
                sum(
                    CX_PER_NONZERO * int(np.count_nonzero(basis[row]))
                    for row in rows
                )
            )
        return CircuitArtifact(
            fingerprint=fingerprint,
            num_qubits=num_qubits,
            num_parameters=len(schedule),
            segment_depths=tuple(depths),
            segment_depths_2q=tuple(depths_2q),
            segment_cx_costs=tuple(cx_costs),
        )


#: The solve path's compilation passes, in dependency order.
SOLVE_STAGES: Tuple[Stage, ...] = (
    BasisStage(),
    HamiltonianStage(),
    PruneStage(),
    SegmentationStage(),
    CircuitStage(),
)


class ExecutionStage:
    """Terminal pass: run the segmented chain through the engine.

    Never cached — the output depends on evolution times, shot sampling
    randomness, and backend noise.  The segment loop seeds each segment
    from the previous segment's (purified) output with proportional shot
    allocation, exactly the paper's deployment protocol.
    """

    name = "execution"

    def __init__(self, problem, config) -> None:
        self.problem = problem
        self.config = config

    def run(
        self,
        engine,
        chain,
        plan,
        initial_bits: np.ndarray,
        times: Sequence[float],
        base_shots: Optional[int],
    ) -> Tuple[Dict[int, float], float]:
        """Execute every segment; returns ``(distribution, raw rate)``.

        Raises:
            NoFeasibleStateError: when purification is enabled and a
                segment output contains no feasible state.
        """
        problem = self.problem
        entry = problem.key_entry
        purify = self.config.enable_purify
        threshold = self.config.min_seed_probability
        distribution: Dict[int, float] = {bits_to_int(initial_bits): 1.0}
        rate = 1.0
        for index, segment in enumerate(plan):
            shots = (
                None
                if base_shots is None
                else self.segment_shots(index, base_shots)
            )
            raw = engine.run_segment(
                chain,
                segment,
                [times[position] for position in segment],
                distribution,
                shots,
                segment_index=index,
            )
            # The raw in-constraints rate: feasible mass before purification.
            rate = 0.0
            for key, probability in raw.items():
                if entry(key)[1] == 0:
                    rate += probability
            if purify:
                distribution, _ = purify_probabilities(raw, problem)
            else:
                distribution = raw
            # Drop states below the min_seed_probability floor (unless that
            # would drop every state), then renormalise.
            kept = {k: p for k, p in distribution.items() if p >= threshold}
            if not kept:
                kept = distribution
            mass = left_to_right_sum(kept.values())
            distribution = {k: p / mass for k, p in kept.items()}
        return distribution, rate

    def segment_shots(self, segment_index: int, base: int) -> int:
        """Shots for one segment under the geometric growth schedule."""
        growth = self.config.shots_growth
        if growth == 1.0:
            return base
        return max(1, int(round(base * growth**segment_index)))
