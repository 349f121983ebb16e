"""Built-in differential checks: the redundant paths the repo promises.

Each check here computes the same answer twice through genuinely
independent machinery and returns both payloads for the harness to
judge (see :mod:`repro.verify.harness` for verdict semantics and the
mutation hook).  The catalog — paths, tolerances, rationale — is
documented in ``docs/VERIFICATION.md``.

All checks are deterministic functions of the verify seed: instance
choices, random circuits and synthetic records derive from
``ctx.rng(...)`` / ``ctx.derived_seed(...)``, never from global RNG
state or wall-clock.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.verify.harness import (
    CheckContext,
    CheckOutput,
    CheckSkipped,
    register_check,
)

#: Benchmark instances small enough for the brute-force oracle.
_ARG_INSTANCES_QUICK = ("F1", "K1")
_ARG_INSTANCES_FULL = ("F1", "K1", "G1")


def _solve_benchmark(
    benchmark_id: str,
    *,
    seed: int,
    shots=None,
    max_iterations: int = 12,
    restarts: int = 1,
    engine_workers: int = 0,
):
    """Run one solver with a private artifact cache; returns the result.

    A private cache keeps checks independent of each other and of the
    process-wide default cache state.
    """
    from repro.core.solver import RasenganConfig, RasenganSolver
    from repro.pipeline.cache import ArtifactCache
    from repro.problems.registry import make_benchmark

    problem = make_benchmark(benchmark_id)
    config = RasenganConfig(
        shots=shots,
        max_iterations=max_iterations,
        restarts=restarts,
        seed=seed,
        engine_workers=engine_workers,
    )
    solver = RasenganSolver(
        problem, config=config, artifact_cache=ArtifactCache()
    )
    try:
        result = solver.solve()
    finally:
        solver.engine.close()
    return problem, result


# ----------------------------------------------------------------------
# 1. Dense statevector vs sparse amplitude map
# ----------------------------------------------------------------------
def _random_chain(
    rng: np.random.Generator, num_qubits: int
) -> Tuple[np.ndarray, List[int], np.ndarray, np.ndarray]:
    """A random signed-unit transition chain over ``num_qubits`` qubits.

    The initial bits are chosen compatible with the first scheduled
    transition (``x + u`` binary: 0 under every ``+1`` of ``u``, 1 under
    every ``-1``), so the chain provably mixes the state instead of
    degenerating into an identity — a vacuous case would compare two
    untouched basis states and verify nothing.
    """
    num_rows = int(rng.integers(2, 4))
    rows = []
    for _ in range(num_rows):
        support = int(rng.integers(1, min(3, num_qubits) + 1))
        positions = rng.choice(num_qubits, size=support, replace=False)
        vector = np.zeros(num_qubits, dtype=np.int64)
        for position in positions:
            vector[position] = int(rng.choice([-1, 1]))
        rows.append(vector)
    basis = np.stack(rows)
    length = int(rng.integers(3, 6))
    schedule = [int(value) for value in rng.integers(0, num_rows, size=length)]
    times = rng.uniform(0.05, 1.5, size=length)
    initial_bits = rng.integers(0, 2, size=num_qubits).astype(np.int8)
    first = basis[schedule[0]]
    initial_bits[first == 1] = 0
    initial_bits[first == -1] = 1
    return basis, schedule, times, initial_bits


def _chain_amplitudes(
    basis: np.ndarray,
    schedule: Sequence[int],
    times: Sequence[float],
    num_qubits: int,
    initial_bits: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """(dense, sparse) final amplitudes of one transition chain."""
    from repro.core.transition import transition_chain_circuit
    from repro.simulators.sparsestate import SparseState
    from repro.simulators.statevector import simulate_statevector

    circuit = transition_chain_circuit(
        basis, schedule, times, num_qubits, initial_bits
    )
    dense = simulate_statevector(circuit)
    state = SparseState.from_bits(initial_bits)
    rows = np.atleast_2d(basis)
    for index, time in zip(schedule, times):
        state.apply_transition(rows[index], time)
    return dense, state.to_dense()


@register_check(
    "sparse-vs-dense",
    "dense statevector vs sparse amplitude-map simulation of the same "
    "Rasengan transition chains",
    tolerance=1e-10,
)
def check_sparse_vs_dense(ctx: CheckContext) -> CheckOutput:
    """Gate-level dense simulation and the Equation-6 sparse fast path.

    Path A synthesises the full transition-chain circuit and runs it
    through the dense statevector simulator; path B applies the sparse
    transition operator directly.  Agreement to 1e-10 (the sparse prune
    threshold sits at 1e-12 of the norm) on the paper's F1 chain plus
    seeded random signed-unit chains.
    """
    from repro.core.solver import RasenganConfig
    from repro.pipeline import SolvePipeline
    from repro.pipeline.cache import ArtifactCache
    from repro.problems.registry import make_benchmark

    cases: Dict[str, Tuple[np.ndarray, List[int], np.ndarray, np.ndarray]] = {}
    problem = make_benchmark("F1")
    pipeline = SolvePipeline(
        problem, RasenganConfig(), cache=ArtifactCache()
    )
    artifacts = pipeline.compile()
    schedule = list(artifacts["prune"].schedule)
    times = ctx.rng("times").uniform(0.1, 1.3, size=len(schedule))
    cases["F1"] = (
        artifacts["hamiltonian"].basis,
        schedule,
        times,
        artifacts["prune"].initial_bits,
    )
    num_random = 6 if ctx.thorough else 3
    for index in range(num_random):
        width = 4 + index % 3
        cases[f"random-{index}"] = _random_chain(
            ctx.rng(f"chain-{index}"), width
        )

    dense_payload: Dict[str, np.ndarray] = {}
    sparse_payload: Dict[str, np.ndarray] = {}
    support_sizes: Dict[str, int] = {}
    for name in sorted(cases):
        basis, case_schedule, case_times, initial_bits = cases[name]
        num_qubits = int(np.atleast_2d(basis).shape[1])
        dense, sparse = _chain_amplitudes(
            basis, case_schedule, case_times, num_qubits, initial_bits
        )
        dense_payload[name] = dense
        sparse_payload[name] = sparse
        # A chain that never mixed would compare two untouched basis
        # states — record the support so vacuous cases are visible.
        support_sizes[name] = int(np.count_nonzero(np.abs(dense) > 1e-12))
    return CheckOutput(
        "statevector",
        dense_payload,
        "sparsestate",
        sparse_payload,
        details={"cases": sorted(cases), "support": support_sizes},
    )


# ----------------------------------------------------------------------
# 2. Cold pipeline compile vs cache/spill-served compile
# ----------------------------------------------------------------------
def _pipeline_payload(pipeline, artifacts) -> Dict[str, Any]:
    """Fingerprints + full artifact payloads of one compile."""
    payload: Dict[str, Any] = {
        "fingerprints": {
            entry["stage"]: entry["fingerprint"] for entry in pipeline.report
        },
        "artifacts": {},
    }
    for name, artifact in artifacts.items():
        meta, arrays = artifact.to_payload()
        payload["artifacts"][name] = {
            "meta": meta,
            "arrays": {key: arrays[key] for key in sorted(arrays)},
        }
    return payload


@register_check(
    "pipeline-cold-vs-cached",
    "cold pipeline compile vs ArtifactCache-served and spill-dir-served "
    "compiles of the same problem",
    tolerance=0.0,
)
def check_pipeline_cold_vs_cached(ctx: CheckContext) -> CheckOutput:
    """Content-addressed caching must be invisible to artifact content.

    Path A compiles F1 cold; path B re-compiles through the same cache
    (every stage must be cache-served) and again through a *fresh*
    cache backed only by the spill directory, so the payloads also
    round-trip the ``.npz`` persistence format.  Bit-identity required.
    """
    from repro.core.solver import RasenganConfig
    from repro.pipeline import SolvePipeline
    from repro.pipeline.cache import ArtifactCache
    from repro.problems.registry import make_benchmark

    problem = make_benchmark("F1")
    config = RasenganConfig(max_segment_cx=150)
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as spill_dir:
        cold_cache = ArtifactCache(spill_dir=spill_dir)
        cold_pipeline = SolvePipeline(problem, config, cache=cold_cache)
        cold_artifacts = cold_pipeline.compile()
        num_stages = len(cold_pipeline.report)

        warm_pipeline = SolvePipeline(problem, config, cache=cold_cache)
        warm_pipeline.compile()
        warm_sources = [entry["source"] for entry in warm_pipeline.report]

        spill_cache = ArtifactCache(spill_dir=spill_dir)
        spill_pipeline = SolvePipeline(problem, config, cache=spill_cache)
        spill_artifacts = spill_pipeline.compile()
        spill_sources = [entry["source"] for entry in spill_pipeline.report]
        spill_hits = spill_cache.stats()["spill_hits"]

        payload_a = _pipeline_payload(cold_pipeline, cold_artifacts)
        payload_a["serving"] = {
            "warm_sources": ["cache"] * num_stages,
            "spill_sources": ["cache"] * num_stages,
            "spill_hits": num_stages,
        }
        payload_b = _pipeline_payload(spill_pipeline, spill_artifacts)
        payload_b["serving"] = {
            "warm_sources": warm_sources,
            "spill_sources": spill_sources,
            "spill_hits": spill_hits,
        }
    return CheckOutput(
        "cold-compile",
        payload_a,
        "cache-served",
        payload_b,
        details={"stages": num_stages, "problem": problem.name},
    )


# ----------------------------------------------------------------------
# 3. Serial engine vs process-pool engine
# ----------------------------------------------------------------------
@register_check(
    "engine-serial-vs-parallel",
    "RasenganSolver with engine_workers=0 vs engine_workers=2 on the "
    "same seed (bit-identical wire records promised)",
    tolerance=0.0,
)
def check_engine_serial_vs_parallel(ctx: CheckContext) -> CheckOutput:
    """The engine promises pool fan-out is bit-identical to serial.

    Both paths solve F1 with sampling enabled (shots exercise the
    seeded RNG fan-out) and two restarts (so ``engine.map`` actually
    distributes work); the ``to_json_dict()`` wire records must be
    byte-for-byte equal.
    """
    seed = ctx.derived_seed("engine")
    _, serial = _solve_benchmark(
        "F1",
        seed=seed,
        shots=96,
        max_iterations=5,
        restarts=2,
        engine_workers=0,
    )
    _, parallel = _solve_benchmark(
        "F1",
        seed=seed,
        shots=96,
        max_iterations=5,
        restarts=2,
        engine_workers=2,
    )
    return CheckOutput(
        "serial",
        serial.to_json_dict(),
        "workers-2",
        parallel.to_json_dict(),
        details={"seed": seed, "restarts": 2, "shots": 96},
    )


# ----------------------------------------------------------------------
# 4. ResultStore in-memory vs reloaded-from-disk
# ----------------------------------------------------------------------
@register_check(
    "result-store-reload",
    "ResultStore in-memory state vs a fresh store reloaded from the "
    "JSONL persistence file",
    tolerance=0.0,
)
def check_result_store_reload(ctx: CheckContext) -> CheckOutput:
    """Persistence replay must reproduce the live store exactly.

    Path A is a store after a deterministic sequence of puts (including
    one overwrite, exercising last-record-wins); path B is a second
    store constructed over the same file.  Every record must round-trip
    bit-identically through the JSONL encoding.
    """
    from repro.service.store import ResultStore

    rng = ctx.rng("records")
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as root:
        path = os.path.join(root, "results.jsonl")
        store = ResultStore(capacity=8, path=path)
        fingerprints = [f"fp-{index:02d}" for index in range(6)]
        for index, fingerprint in enumerate(fingerprints):
            store.put(fingerprint, _synthetic_record(rng, index))
        # Overwrite one record: reload must keep the *last* version.
        store.put(fingerprints[2], _synthetic_record(rng, 99))
        snapshot_a = {fp: store.get(fp) for fp in fingerprints}
        reloaded = ResultStore(capacity=8, path=path)
        snapshot_b = {fp: reloaded.get(fp) for fp in fingerprints}
    return CheckOutput(
        "in-memory",
        snapshot_a,
        "reloaded",
        snapshot_b,
        details={"records": len(fingerprints), "overwrites": 1},
    )


def _synthetic_record(rng: np.random.Generator, index: int) -> Dict[str, Any]:
    """A result-shaped record with awkward float values."""
    return {
        "problem": f"case-{index}",
        "arg": float(rng.uniform()),
        "expectation": float(rng.normal(scale=10.0)),
        "distribution": {
            str(key): float(rng.uniform()) for key in range(3)
        },
    }


# ----------------------------------------------------------------------
# 5. RasenganResult wire-format round trip
# ----------------------------------------------------------------------
@register_check(
    "result-json-roundtrip",
    "RasenganResult.to_json_dict() vs the same record after a "
    "serialize/parse round trip",
    tolerance=0.0,
)
def check_result_json_roundtrip(ctx: CheckContext) -> CheckOutput:
    """The wire format must be lossless.

    ``to_json_dict()`` is the single record format shared by the solve
    CLI and the service; ``json.dumps`` → ``json.loads`` must be the
    identity on it (floats survive via shortest-round-trip repr).
    """
    _, result = _solve_benchmark(
        "K1", seed=ctx.derived_seed("roundtrip"), max_iterations=4
    )
    record = result.to_json_dict()
    wire = json.loads(json.dumps(record, sort_keys=True))
    return CheckOutput(
        "result",
        record,
        "round-trip",
        wire,
        details={"problem": record["problem"]},
    )


# ----------------------------------------------------------------------
# 6. Solver-level ARG vs independent brute force
# ----------------------------------------------------------------------
@register_check(
    "arg-vs-bruteforce",
    "solver-reported optimum/expectation/ARG vs an independent "
    "brute-force enumeration of the feasible space",
    tolerance=1e-9,
)
def check_arg_vs_bruteforce(ctx: CheckContext) -> CheckOutput:
    """The reported metrics must be consistent with exhaustive search.

    For each small instance, path B re-derives the optimum by direct
    enumeration (:func:`enumerate_feasible_bruteforce`), recomputes the
    expectation from the reported final distribution with compensated
    summation, and re-applies the Equation-9 ARG formula inline.
    """
    from repro.linalg.bitvec import bits_to_int, int_to_bits
    from repro.linalg.feasible import (
        BRUTEFORCE_LIMIT,
        enumerate_feasible_bruteforce,
    )

    instances = (
        _ARG_INSTANCES_FULL if ctx.thorough else _ARG_INSTANCES_QUICK
    )
    payload_a: Dict[str, Any] = {}
    payload_b: Dict[str, Any] = {}
    for benchmark_id in instances:
        problem, result = _solve_benchmark(
            benchmark_id,
            seed=ctx.derived_seed(f"arg-{benchmark_id}"),
            max_iterations=12,
        )
        if result.failed:
            raise CheckSkipped(
                f"solver failed on {benchmark_id}; no distribution to audit"
            )
        n = problem.num_variables
        if n > BRUTEFORCE_LIMIT:
            raise CheckSkipped(
                f"{benchmark_id} has {n} variables, beyond the brute-force "
                f"limit {BRUTEFORCE_LIMIT}"
            )
        solutions = enumerate_feasible_bruteforce(
            problem.constraint_matrix, problem.bound
        )
        feasible_keys = {bits_to_int(solution) for solution in solutions}
        optimum = min(problem.value(solution) for solution in solutions)
        terms = [
            (probability, problem.value(int_to_bits(key, n)))
            for key, probability in sorted(result.final_distribution.items())
            if key in feasible_keys
        ]
        mass = math.fsum(probability for probability, _ in terms)
        if mass <= 0.0:
            raise CheckSkipped(
                f"{benchmark_id} distribution carries no feasible mass"
            )
        expectation = (
            math.fsum(probability * value for probability, value in terms)
            / mass
        )
        # Equation 9 inline (floor the denominator for a zero optimum,
        # mirroring repro.metrics.arg._ZERO_OPT_FLOOR).
        denominator = abs(optimum) if optimum != 0 else 1.0
        arg = abs((optimum - expectation) / denominator)
        best_bits = result.best_sampled_solution
        payload_a[benchmark_id] = {
            "optimal": float(result.optimal_value),
            "expectation": float(result.expectation_value),
            "arg": float(result.arg),
            "best_value": float(result.best_sampled_value),
            "best_is_feasible": True,
            "best_at_least_optimal": True,
        }
        payload_b[benchmark_id] = {
            "optimal": float(optimum),
            "expectation": float(expectation),
            "arg": float(arg),
            "best_value": float(problem.value(best_bits)),
            "best_is_feasible": bool(problem.is_feasible(best_bits)),
            "best_at_least_optimal": bool(
                problem.value(best_bits) >= optimum - 1e-12
            ),
        }
    return CheckOutput(
        "solver-reported",
        payload_a,
        "brute-force",
        payload_b,
        details={"instances": list(instances)},
    )


# ----------------------------------------------------------------------
# 7. Problem key table vs direct per-key evaluation
# ----------------------------------------------------------------------
#: One or two instances per family, every one small enough to sweep all
#: ``2**n`` keys (S1, the smallest set-cover instance, has 11 variables).
_KEY_TABLE_INSTANCES = ("F1", "F2", "K1", "K2", "J1", "J2", "G1", "S1")


@register_check(
    "key-table-vs-direct",
    "ConstrainedBinaryProblem.key_entry / key_penalty_value vs direct "
    "is_feasible / value / penalty_value on int_to_bits, over every key",
    tolerance=0.0,
)
def check_key_table_vs_direct(ctx: CheckContext) -> CheckOutput:
    """The evaluation path's key table must equal direct evaluation.

    Every per-key loop of the evaluation path (purification, feasible
    mass, scoring, baseline penalty expectations) reads the memoised
    table instead of evaluating the bit vector.  Path A evaluates every
    key of a seeded instance directly; path B fills the table in a
    shuffled key order, then reads every entry back (memo hits).
    Feasibility, value and penalty value must agree bit for bit.
    """
    from repro.baselines.encoding import DEFAULT_PENALTY
    from repro.linalg.bitvec import int_to_bits
    from repro.problems.registry import make_benchmark

    payload_a: Dict[str, Any] = {}
    payload_b: Dict[str, Any] = {}
    for benchmark_id in _KEY_TABLE_INSTANCES:
        rng = ctx.rng(f"key-table-{benchmark_id}")
        case = int(rng.integers(0, 400))
        problem = make_benchmark(benchmark_id, case)
        n = problem.num_variables
        keys = range(1 << n)
        bits = [int_to_bits(key, n) for key in keys]
        payload_a[benchmark_id] = {
            "case": case,
            "feasible": [bool(problem.is_feasible(x)) for x in bits],
            "value": [problem.value(x) for x in bits],
            "penalty": [problem.penalty_value(x, DEFAULT_PENALTY) for x in bits],
        }
        for key in rng.permutation(1 << n):
            problem.key_entry(int(key))
        table = [problem.key_entry(key) for key in keys]
        payload_b[benchmark_id] = {
            "case": case,
            "feasible": [violation == 0 for _, violation in table],
            "value": [value for value, _ in table],
            "penalty": [
                problem.key_penalty_value(key, DEFAULT_PENALTY) for key in keys
            ],
        }
    return CheckOutput(
        "direct",
        payload_a,
        "key-table",
        payload_b,
        details={
            "instances": {
                benchmark_id: payload_a[benchmark_id]["case"]
                for benchmark_id in _KEY_TABLE_INSTANCES
            },
            "penalty": DEFAULT_PENALTY,
        },
    )


# ----------------------------------------------------------------------
# 8. Baseline dense fast path vs gate-level ansatz circuit
# ----------------------------------------------------------------------
#: Seeded instances for the baseline ansatz comparison (n = 6 to 11).
_DENSE_ANSATZ_INSTANCES = ("F1", "K1", "J1", "G1", "F2", "K2", "J2", "S1")


@register_check(
    "dense-ansatz-vs-circuit",
    "baseline dense fast path (simulate) vs the gate-level ansatz "
    "circuit run through the statevector simulator, in probability",
    tolerance=1e-10,
)
def check_dense_ansatz_vs_circuit(ctx: CheckContext) -> CheckOutput:
    """Every baseline's training path must equal its own circuit.

    Path A is the dense ``simulate`` the baselines train on: whole-layer
    kernels for HEA (default 5 layers), a diagonal phase plus per-qubit
    mixer for P-QAOA (0 and 1 frozen qubits).  Path B runs
    ``build_circuit`` at the same seeded parameters through
    :class:`~repro.simulators.statevector.StatevectorSimulator`.  P-QAOA's
    two paths differ by a global phase, so the payloads are output
    probabilities.  Choco-Q is not covered: its circuit Trotterises the
    mixer, so it matches the exact subspace path only approximately.
    """
    from repro.baselines.hea import HardwareEfficientAnsatz
    from repro.baselines.qaoa_penalty import PenaltyQAOA
    from repro.problems.registry import make_benchmark
    from repro.simulators.statevector import StatevectorSimulator

    simulator = StatevectorSimulator()
    dense: Dict[str, np.ndarray] = {}
    circuit: Dict[str, np.ndarray] = {}
    instances: Dict[str, int] = {}
    for benchmark_id in _DENSE_ANSATZ_INSTANCES:
        rng = ctx.rng(f"dense-ansatz-{benchmark_id}")
        case = int(rng.integers(0, 400))
        instances[benchmark_id] = case
        problem = make_benchmark(benchmark_id, case)
        baselines = {
            "hea": HardwareEfficientAnsatz(problem, shots=None),
            "pqaoa": PenaltyQAOA(problem, shots=None),
            "pqaoa-frozen1": PenaltyQAOA(problem, frozen_qubits=1, shots=None),
        }
        for label, baseline in baselines.items():
            if label == "hea":
                parameters = rng.uniform(-np.pi, np.pi, baseline.num_parameters)
            else:
                parameters = np.empty(baseline.num_parameters)
                parameters[0::2] = rng.uniform(0.0, 0.2, baseline.layers)
                parameters[1::2] = rng.uniform(0.0, np.pi, baseline.layers)
            name = f"{benchmark_id}/{label}"
            dense[name] = np.abs(baseline.simulate(parameters)) ** 2
            circuit[name] = simulator.probabilities(
                baseline.build_circuit(parameters)
            )
            baseline.engine.close()
    return CheckOutput(
        "dense-simulate",
        dense,
        "gate-circuit",
        circuit,
        details={"instances": instances},
    )


# ----------------------------------------------------------------------
# 9. Lean exact-sparse segment step vs the per-key reference loop
# ----------------------------------------------------------------------
#: ``(label, benchmark, config overrides)``; every case runs at seeded
#: random times under the same engine seed on both paths.
_SEGMENT_STEP_CASES = tuple(
    (f"{benchmark_id}/{label}", benchmark_id, overrides)
    for benchmark_id in ("F1", "K2", "J2", "G1", "S1", "K3")
    for label, overrides in (
        ("exact", {"shots": None}),
        ("shots", {"shots": 1024}),
    )
) + (
    ("K2/no-purify", "K2", {"shots": 1024, "enable_purify": False}),
    (
        "K3/multi-transition",
        "K3",
        {"shots": 1024, "transitions_per_segment": 3, "shots_growth": 1.5},
    ),
)


def _reference_segment_loop(solver, times, rng) -> Tuple[Dict[int, float], float]:
    """The exact-sparse segment loop as written before the lean step.

    A literal copy: per-key partner lookup through
    :func:`partner_key_from_masks` with the masks re-derived for every
    transition, ``clip``/``sum``/``isfinite`` shot sampling, then separate
    feasible-mass, purification and drop passes.  Kept here so the
    optimised engine path always has an independent oracle.
    """
    from repro.exceptions import SimulationError
    from repro.linalg.bitvec import bits_to_int
    from repro.linalg.moves import move_masks, partner_key_from_masks
    from repro.simulators.sparsestate import PRUNE_TOLERANCE

    config, entry, chain = solver.config, solver.problem.key_entry, solver.chain
    distribution = {bits_to_int(solver.initial_bits): 1.0}
    rate = 1.0
    for index, segment in enumerate(solver.plan):
        amplitudes = {
            k: complex(math.sqrt(p)) for k, p in distribution.items() if p > 0
        }
        norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
        amplitudes = {k: a / norm for k, a in amplitudes.items()}
        for position in segment:
            u = np.asarray(chain.basis[chain.schedule[position]], dtype=np.int64)
            mask_plus, mask_minus = move_masks(u)
            cos, sin = math.cos(times[position]), math.sin(times[position])
            updated: Dict[int, complex] = {}
            for key, amp in amplitudes.items():
                partner = (
                    partner_key_from_masks(key, mask_plus, mask_minus)
                    if (mask_plus or mask_minus)
                    else None
                )
                if partner is None:
                    updated[key] = updated.get(key, 0.0) + amp
                    continue
                updated[key] = updated.get(key, 0.0) + cos * amp
                updated[partner] = updated.get(partner, 0.0) - 1j * sin * amp
            norm = math.sqrt(sum(abs(a) ** 2 for a in updated.values()))
            amplitudes = {
                k: a for k, a in updated.items() if abs(a) > PRUNE_TOLERANCE * norm
            }
        raw = {k: abs(a) ** 2 for k, a in amplitudes.items()}
        if config.shots is not None:
            shots = config.shots
            if config.shots_growth != 1.0:
                shots = max(1, int(round(shots * config.shots_growth**index)))
            keys = np.fromiter(raw.keys(), dtype=np.int64)
            probs = np.fromiter(raw.values(), dtype=np.float64).clip(min=0.0)
            total = probs.sum()
            if not np.isfinite(total) or total <= 0.0:
                raise SimulationError(f"reference sampling mass {total!r}")
            draws = rng.multinomial(shots, probs / total)
            raw = {int(k): int(c) / shots for k, c in zip(keys, draws) if c}
        rate = 0.0
        for key, probability in raw.items():
            if entry(key)[1] == 0:
                rate += probability
        distribution = raw
        if config.enable_purify:
            feasible = {k: p for k, p in raw.items() if entry(k)[1] == 0}
            mass = math.fsum(feasible.values())
            distribution = {k: p / mass for k, p in feasible.items()}
        kept = {
            k: p
            for k, p in distribution.items()
            if p >= config.min_seed_probability
        }
        if not kept:
            kept = distribution
        mass = sum(kept.values())
        distribution = {k: p / mass for k, p in kept.items()}
    return distribution, rate


@register_check(
    "segment-step-vs-reference",
    "RasenganSolver.execute (cached masks, apply_move, lean sampling) vs "
    "a literal per-key reference of the segment loop, in key order",
    tolerance=0.0,
)
def check_segment_step_vs_reference(ctx: CheckContext) -> CheckOutput:
    """The lean exact-sparse segment step must equal the per-key loop.

    For each case, two solvers are compiled from the same seeded config,
    so their engines draw from identical RNG streams.  Path A runs
    :func:`_reference_segment_loop` on the first solver's chain and
    engine generator; path B runs :meth:`RasenganSolver.execute` on the
    second.  The final distributions are compared as ordered
    ``(key, probability)`` lists, with the in-constraints rate, bit for
    bit.
    """
    from repro.core.solver import RasenganConfig, RasenganSolver
    from repro.pipeline.cache import ArtifactCache
    from repro.problems.registry import make_benchmark

    payload_a: Dict[str, Any] = {}
    payload_b: Dict[str, Any] = {}
    instances: Dict[str, int] = {}
    for label, benchmark_id, overrides in _SEGMENT_STEP_CASES:
        rng = ctx.rng(f"segment-step-{label}")
        case = int(rng.integers(0, 400))
        instances[label] = case
        problem = make_benchmark(benchmark_id, case)
        config = RasenganConfig(
            seed=ctx.derived_seed(f"segment-step-seed-{label}"), **overrides
        )
        cache = ArtifactCache()
        reference = RasenganSolver(problem, config=config, artifact_cache=cache)
        solver = RasenganSolver(problem, config=config, artifact_cache=cache)
        times = rng.uniform(0.0, math.pi, solver.num_parameters)
        distribution, rate = _reference_segment_loop(
            reference, times, reference.engine.rng
        )
        payload_a[label] = {
            "distribution": [[k, p] for k, p in distribution.items()],
            "rate": rate,
        }
        distribution, rate = solver.execute(times)
        payload_b[label] = {
            "distribution": [[k, p] for k, p in distribution.items()],
            "rate": rate,
        }
    return CheckOutput(
        "per-key-reference",
        payload_a,
        "engine-execute",
        payload_b,
        details={"instances": instances},
    )


# ----------------------------------------------------------------------
# 10. In-repo unconstrained COBYLA vs scipy's COBYLA
# ----------------------------------------------------------------------
#: Synthetic objective dimensions; 130 runs at the ``x0.size + 2`` floor.
_COBYLA_DIMENSIONS = (1, 2, 8, 40, 130)


def _recorded(loss):
    """``(wrapped, points)``: ``loss`` that logs a copy of every point."""
    points: List[np.ndarray] = []

    def wrapped(x):
        points.append(np.array(x, dtype=float))
        return loss(x)

    return wrapped, points


def _cobyla_cases(ctx: CheckContext):
    """``(label, start, max_iterations, rhobeg)`` per case.

    ``start()`` builds a fresh ``(loss, x0)`` with fresh RNG state, so
    both paths see the same stream of draws.
    """
    from repro.baselines.choco_q import ChocoQ
    from repro.baselines.hea import HardwareEfficientAnsatz
    from repro.baselines.qaoa_penalty import PenaltyQAOA
    from repro.core.solver import _FAILURE_SCORE, RasenganConfig, RasenganSolver
    from repro.exceptions import NoFeasibleStateError
    from repro.pipeline.cache import ArtifactCache
    from repro.problems.registry import make_benchmark

    scale = 2 if ctx.thorough else 1
    cases = []
    for label, benchmark_id, shots in (
        ("rasengan/F1/exact", "F1", None),
        ("rasengan/K1/1024", "K1", 1024),
    ):
        problem = make_benchmark(benchmark_id, int(ctx.rng(label).integers(0, 400)))
        config = RasenganConfig(shots=shots, seed=ctx.derived_seed(label))

        def start(problem=problem, config=config, cache=ArtifactCache()):
            solver = RasenganSolver(problem, config=config, artifact_cache=cache)

            def loss(times):
                try:
                    distribution, _ = solver.execute(times)
                except NoFeasibleStateError:
                    return _FAILURE_SCORE
                return solver._score(distribution)

            return loss, np.full(solver.num_parameters, config.initial_time)

        cases.append((label, start, 30 * scale, config.rhobeg))
    for label, cls, shots in (
        ("hea/F1/exact", HardwareEfficientAnsatz, None),
        ("pqaoa/J1/256", PenaltyQAOA, 256),
        ("chocoq/K1/exact", ChocoQ, None),
    ):
        benchmark_id = label.split("/")[1]
        problem = make_benchmark(benchmark_id, int(ctx.rng(label).integers(0, 400)))

        def start(problem=problem, cls=cls, shots=shots, seed=ctx.derived_seed(label)):
            baseline = cls(problem, shots=shots, seed=seed)
            loss = lambda p: baseline.penalty_expectation(baseline.distribution(p))
            return loss, baseline.initial_parameters()

        # HEA's 72 parameters put a 60-evaluation budget under the floor.
        cases.append((label, start, 60 * scale, 0.5))
    for n in _COBYLA_DIMENSIONS:
        rng = ctx.rng(f"cobyla-synthetic-{n}")
        target = rng.uniform(-1.0, 1.0, n)
        x0 = rng.uniform(-1.0, 1.0, n)
        budget = 1 if n == _COBYLA_DIMENSIONS[-1] else (40 + 2 * n) * scale

        def quadratic(target=target, x0=x0):
            return (lambda x: float(((x - target) ** 2).sum())), x0

        def noisy(target=target, x0=x0, seed=ctx.derived_seed(f"cobyla-noise-{n}")):
            noise = np.random.default_rng(seed)
            loss = lambda x: float(np.abs(x - target).sum() + 0.05 * noise.normal())
            return loss, x0

        cases.append((f"quadratic/{n}", quadratic, budget, 0.5))
        cases.append((f"noisy/{n}", noisy, budget, 0.3))
    return cases


@register_check(
    "cobyla-vs-scipy",
    "scipy.optimize.minimize(method='COBYLA') vs minimize_cobyla (the "
    "in-repo m = 0 loop): returned x and every evaluated point, in order",
    tolerance=0.0,
)
def check_cobyla_vs_scipy(ctx: CheckContext) -> CheckOutput:
    """The in-repo unconstrained COBYLA must replay scipy exactly.

    Path A runs ``scipy.optimize.minimize`` with the options
    ``minimize_cobyla`` would pass (the budget floored to
    ``x0.size + 2``); path B runs ``minimize_cobyla``.  Each case logs
    every point the objective is handed; the logs and the returned
    ``x`` must agree bit for bit.  Objectives: seeded Rasengan (exact
    and 1024 shots), HEA, P-QAOA (256 shots) and Choco-Q, plus
    quadratic and RNG-consuming noisy objectives of dimension 1 to 130.
    On a scipy without pyprima both paths are scipy.
    """
    import scipy
    from scipy import optimize as sciopt

    from repro.baselines import optimizer

    payload_a: Dict[str, Any] = {}
    payload_b: Dict[str, Any] = {}
    budgets: Dict[str, int] = {}
    for label, start, max_iterations, rhobeg in _cobyla_cases(ctx):
        loss, x0 = start()
        budget = max(max_iterations, x0.size + 2)
        budgets[label] = budget
        loss, points = _recorded(loss)
        outcome = sciopt.minimize(
            loss, x0, method="COBYLA", options={"maxiter": budget, "rhobeg": rhobeg}
        )
        payload_a[label] = {"x": np.asarray(outcome.x, dtype=float), "points": points}
        loss, x0 = start()
        loss, points = _recorded(loss)
        best = optimizer.minimize_cobyla(
            loss, x0, max_iterations=max_iterations, rhobeg=rhobeg
        )
        payload_b[label] = {"x": best, "points": points}
    return CheckOutput(
        "scipy-minimize",
        payload_a,
        "minimize-cobyla",
        payload_b,
        details={
            "budgets": budgets,
            "path-b": (
                "in-repo" if optimizer._unconstrained() is not None else "scipy"
            ),
            "scipy": scipy.__version__,
        },
    )


# ----------------------------------------------------------------------
# 11. m = 0 trust-region step kernel vs pyprima's trstlp
# ----------------------------------------------------------------------
#: Gradient dimensions; each runs at magnitudes 1e-8, 1e-4, 1, 1e4, 1e8.
_TRSTLP_DIMENSIONS = (1, 2, 3, 8, 15, 40, 120, 130)


def _trstlp_cases(ctx: CheckContext) -> List[Tuple[str, np.ndarray, float]]:
    """``(label, g, delta)`` per case: seeded gradients plus edge inputs."""
    eps = np.finfo(float).eps
    cases = []
    for n in _TRSTLP_DIMENSIONS:
        rng = ctx.rng(f"trstlp-{n}")
        for exponent in (-8, -4, 0, 4, 8):
            g = rng.normal(size=n) * 10.0**exponent
            cases.append((f"n{n}/1e{exponent}", g, float(rng.uniform(0.01, 1.0))))
    rng = ctx.rng("trstlp-edges")
    base = rng.normal(size=8)
    partly_zero = base.copy()
    partly_zero[[2, 5]] = 0.0
    # |g_3| <= EPS * ||g_4:||: planerot's c = 0 branch at k = 3.
    tiny_ratio = base.copy()
    tiny_ratio[3] = 0.5 * eps * np.linalg.norm(base[4:])
    above_rescale = base.copy()
    above_rescale[1] = 2e12  # trstlp rescales g above 1e12
    subnormal = base.copy()
    subnormal[6] = 5e-324
    edges = {
        "zero/8": np.zeros(8),
        "partly-zero/8": partly_zero,
        "tiny-ratio/8": tiny_ratio,
        "above-1e12/8": above_rescale,
        "subnormal/8": subnormal,
        # ||sdirn||**2 = 1/||g||**2 <= EPS * delta**2: trstlp returns d = 0.
        "large/8": base * 1e10,
        "negative/1": np.array([-abs(rng.normal())]),
    }
    for label, g in edges.items():
        cases.append((label, g, float(rng.uniform(0.01, 1.0))))
    return cases


@register_check(
    "trstlp-vs-pyprima",
    "pyprima's trstlp with no constraints vs the one-sweep m = 0 "
    "trust-region kernel, on seeded and edge-case gradients",
    suites=("full",),
    tolerance=0.0,
)
def check_trstlp_vs_pyprima(ctx: CheckContext) -> CheckOutput:
    """The m = 0 trust-region kernel must return pyprima's step exactly.

    Path A calls ``trstlp`` with an ``n x 0`` constraint matrix; path B
    calls ``_trstlp_unconstrained``, which falls back to ``trstlp``
    outside its fast path (the details count those cases).  Full suite
    only: on a scipy without pyprima there is nothing to compare, and
    every quick check must run everywhere.
    """
    try:
        from scipy._lib.pyprima.cobyla.trustregion import trstlp

        from repro.baselines.cobyla import _trstlp_unconstrained
    except ImportError as error:
        raise CheckSkipped(f"scipy without pyprima: {error}") from error

    payload_a: Dict[str, Any] = {}
    payload_b: Dict[str, Any] = {}
    fallbacks: List[str] = []
    for label, g, delta in _trstlp_cases(ctx):
        payload_a[label] = trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g)
        payload_b[label], fell_back = _trstlp_unconstrained(g, delta)
        if fell_back:
            fallbacks.append(label)
    return CheckOutput(
        "pyprima-trstlp",
        payload_a,
        "m0-kernel",
        payload_b,
        details={"cases": len(payload_a), "fallbacks": fallbacks},
    )
