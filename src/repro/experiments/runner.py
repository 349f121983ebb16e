"""Unified per-algorithm runner used by every experiment.

Normalises the four algorithms behind one record type carrying the metrics
the paper tabulates: ARG, in-constraints rate, circuit depth (the depth of
what is actually *executed* — one segment for Rasengan, the full ansatz for
the baselines), parameter count, and the structural quantities the latency
model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.baselines import ChocoQ, HardwareEfficientAnsatz, PenaltyQAOA
from repro.circuits.decompose import decompose_circuit
from repro.circuits.depth import circuit_depth, two_qubit_depth
from repro.core.solver import RasenganConfig, RasenganSolver
from repro.engine.registry import BackendSpec
from repro.problems.base import ConstrainedBinaryProblem
from repro import telemetry

#: Algorithm names in the order the paper's tables list them.
ALGORITHMS = ("hea", "pqaoa", "chocoq", "rasengan")


@dataclass
class AlgorithmRun:
    """One algorithm's metrics on one problem instance."""

    algorithm: str
    problem_name: str
    arg: float
    in_constraints_rate: float
    expectation_value: float
    optimal_value: float
    num_parameters: int
    executed_depth: int
    executed_depth_2q: int
    num_segments: int
    iterations: int
    final_distribution: Dict[int, float]
    #: Counter/histogram totals for this run when telemetry was enabled
    #: (see :func:`runner_telemetry_summary`); empty otherwise.
    telemetry: Dict[str, object] = field(default_factory=dict)


def runner_telemetry_summary(
    baseline_counters: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Counter totals (and histogram aggregates) for an ``AlgorithmRun``.

    Args:
        baseline_counters: a ``snapshot_counters()`` taken before the run;
            when given, the returned counters are deltas over the run
            instead of collector lifetime totals.

    Returns an empty dict when telemetry is disabled, so callers can
    attach the result unconditionally.
    """
    collector = telemetry.active()
    if collector is None:
        return {}
    counters = collector.snapshot_counters()
    if baseline_counters:
        counters = {
            name: value - baseline_counters.get(name, 0.0)
            for name, value in counters.items()
            if value != baseline_counters.get(name, 0.0)
        }
    return {
        "counters": counters,
        "histograms": {
            name: histogram.to_dict()
            for name, histogram in collector.histograms.items()
        },
    }


def _baseline_depths(algo, parameters) -> tuple[int, int]:
    # One gate-level build at the trained parameters; both depth metrics
    # share its {1q, CX} decomposition.
    circuit = algo.bound_circuit(parameters)
    flat = decompose_circuit(circuit)
    return (
        circuit_depth(flat, decompose=False),
        two_qubit_depth(flat, decompose=False),
    )


def run_algorithm(
    name: str,
    problem: ConstrainedBinaryProblem,
    *,
    layers: int = 5,
    shots: Optional[int] = None,
    max_iterations: int = 300,
    seed: Optional[int] = 0,
    backend: BackendSpec = None,
    engine_workers: Optional[int] = None,
    transitions_per_segment: int = 1,
    segment_cx_budget: Optional[int] = 140,
    frozen_qubits: int = 1,
    restarts: int = 3,
) -> AlgorithmRun:
    """Train one algorithm on one instance and collect Table-2 metrics.

    Args:
        name: ``"hea"``, ``"pqaoa"``, ``"chocoq"`` or ``"rasengan"``.
        problem: the instance.
        layers: ansatz depth for the baselines.
        shots: per-execution shots (``None`` = exact distribution).
        max_iterations: COBYLA budget.
        seed: RNG seed.
        backend: gate-level backend name or instance (noisy evaluation);
            resolved through the engine's backend registry.
        engine_workers: process-pool width for the execution engine
            (``None`` = the process-wide default).
        transitions_per_segment: Rasengan segmentation granularity (used
            when an explicit non-default value is given).
        segment_cx_budget: Rasengan per-segment CX budget (the paper's
            deployment policy); ignored when ``transitions_per_segment``
            is overridden away from 1.
        frozen_qubits: FrozenQubits hotspot count for P-QAOA.
        restarts: Rasengan multi-start count (compensates for the smaller
            iteration budgets used offline vs the paper's 300).
    """
    name = name.lower()
    collector = telemetry.active()
    snapshot = collector.snapshot_counters() if collector is not None else None
    if name == "rasengan":
        config = RasenganConfig(
            shots=shots,
            max_iterations=max_iterations,
            transitions_per_segment=transitions_per_segment,
            max_segment_cx=(
                segment_cx_budget if transitions_per_segment == 1 else None
            ),
            restarts=restarts,
            seed=seed,
            engine_workers=engine_workers,
        )
        solver = RasenganSolver(problem, backend=backend, config=config)
        result = solver.solve()
        # Depth of the deepest executed segment, decomposed — read straight
        # off the pipeline's circuit artifact (depth is independent of the
        # trained times, so the compile-time accounting is the executed one).
        depth = solver.circuit_artifact.max_depth
        depth_2q = solver.circuit_artifact.max_depth_2q
        return AlgorithmRun(
            algorithm=name,
            problem_name=problem.name,
            arg=result.arg,
            in_constraints_rate=result.in_constraints_rate,
            expectation_value=result.expectation_value,
            optimal_value=result.optimal_value,
            num_parameters=result.num_parameters,
            executed_depth=depth,
            executed_depth_2q=depth_2q,
            num_segments=result.num_segments,
            iterations=result.iterations,
            final_distribution=result.final_distribution,
            telemetry=runner_telemetry_summary(snapshot),
        )

    classes = {
        "hea": HardwareEfficientAnsatz,
        "pqaoa": PenaltyQAOA,
        "chocoq": ChocoQ,
    }
    if name not in classes:
        raise ValueError(f"unknown algorithm {name!r}")
    kwargs = dict(
        shots=shots,
        max_iterations=max_iterations,
        backend=backend,
        seed=seed,
        engine_workers=engine_workers,
    )
    if name == "pqaoa":
        kwargs["frozen_qubits"] = frozen_qubits
    algo = classes[name](problem, layers=layers, **kwargs)
    result = algo.solve()
    depth, depth_2q = _baseline_depths(algo, result.best_parameters)
    return AlgorithmRun(
        algorithm=name,
        problem_name=problem.name,
        arg=result.arg,
        in_constraints_rate=result.in_constraints_rate,
        expectation_value=result.expectation_value,
        optimal_value=problem.optimal_value,
        num_parameters=result.num_parameters,
        executed_depth=depth,
        executed_depth_2q=depth_2q,
        num_segments=1,
        iterations=result.iterations,
        final_distribution=result.final_distribution,
        telemetry=runner_telemetry_summary(snapshot),
    )
