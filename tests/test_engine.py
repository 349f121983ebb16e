"""Unified execution engine: registry, gate-level circuits, batching,
seeding, and bit-identical parallel fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.circuits.circuit import QuantumCircuit
from repro.engine import (
    AnsatzSpec,
    EngineError,
    ExecutionEngine,
    TransitionChainSpec,
    available_backends,
    configure_defaults,
    ensure_engine,
    get_defaults,
    register_backend,
    resolve_backend,
)
from repro.exceptions import SolverError
from repro.simulators.backends import IdealBackend, NoisyTrajectoryBackend
from repro.simulators.seeding import SeedBank, as_seed_sequence, make_rng


def _gates(circuit: QuantumCircuit):
    return [
        (gate.name, gate.qubits, gate.ctrl_state, gate.params) for gate in circuit
    ]


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
class TestSeeding:
    def test_make_rng_matches_default_rng_stream(self):
        a = make_rng(1234)
        b = np.random.default_rng(1234)
        assert np.array_equal(a.integers(0, 1 << 30, 16), b.integers(0, 1 << 30, 16))

    def test_seed_bank_spawn_is_deterministic(self):
        first = SeedBank(7).spawn(3)
        second = SeedBank(7).spawn(3)
        for a, b in zip(first, second):
            assert np.array_equal(
                np.random.default_rng(a).integers(0, 100, 8),
                np.random.default_rng(b).integers(0, 100, 8),
            )

    def test_seed_bank_children_are_independent(self):
        a, b = SeedBank(7).spawn(2)
        assert not np.array_equal(
            np.random.default_rng(a).integers(0, 1 << 30, 16),
            np.random.default_rng(b).integers(0, 1 << 30, 16),
        )

    def test_as_seed_sequence_accepts_none(self):
        assert isinstance(as_seed_sequence(None), np.random.SeedSequence)


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_exact_aliases_resolve_to_none(self):
        for alias in ("exact", "sparse", "dense", "statevector", "none", "EXACT"):
            assert resolve_backend(alias) is None
        assert resolve_backend(None) is None

    def test_named_backends_resolve(self):
        assert resolve_backend("ideal", seed=0).name == "ideal"
        assert resolve_backend("fake_kyiv", seed=0).name == "fake_kyiv"
        assert resolve_backend("fake_brisbane", seed=0).name == "fake_brisbane"
        assert resolve_backend("sparse_noisy", seed=0).name == "sparse_noisy"
        assert isinstance(resolve_backend("noisy", seed=0), NoisyTrajectoryBackend)

    def test_instance_passthrough(self):
        backend = IdealBackend(seed=3)
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(EngineError):
            resolve_backend("quantum_hype_9000")

    def test_non_string_spec_raises(self):
        with pytest.raises(EngineError):
            resolve_backend(42)

    def test_register_custom_backend(self):
        register_backend("custom_ideal", lambda seed=None, **k: IdealBackend(seed=seed))
        try:
            assert "custom_ideal" in available_backends()
            assert resolve_backend("custom_ideal", seed=0).name == "ideal"
        finally:
            from repro.engine import registry

            registry._FACTORIES.pop("custom_ideal", None)

    def test_reserved_names_rejected(self):
        with pytest.raises(EngineError):
            register_backend("exact", lambda **k: IdealBackend())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError):
            register_backend("ideal", lambda **k: IdealBackend())


# ----------------------------------------------------------------------
# Work descriptions and gate-level circuits
# ----------------------------------------------------------------------
class TestTransitionChainSpec:
    def test_chain_masks_match_move_masks(self, paper_basis):
        from repro.linalg.moves import move_masks

        chain = TransitionChainSpec(paper_basis, [2, 0, 2, 1], 5)
        assert chain.masks == tuple(
            move_masks(paper_basis[index]) for index in chain.schedule
        )


def _baselines(problem):
    from repro.baselines import ChocoQ, HardwareEfficientAnsatz, PenaltyQAOA

    return [
        HardwareEfficientAnsatz(problem, layers=2, seed=0),
        PenaltyQAOA(problem, layers=2, seed=0, parameter_init="zero"),
        ChocoQ(problem, layers=2, seed=0),
    ]


class TestGateLevelCircuits:
    def test_segment_circuit_is_the_builders_circuit(self, paper_basis):
        from repro.core.transition import transition_chain_circuit

        chain = TransitionChainSpec(paper_basis, [2, 0, 2, 1], 5)
        positions = (1, 2, 3)
        times = np.random.default_rng(5).uniform(-2.0, 2.0, len(positions))
        built = ExecutionEngine().segment_circuit(chain, positions, times)
        expected = transition_chain_circuit(paper_basis, [0, 2, 1], list(times), 5)
        assert _gates(built) == _gates(expected)

    @staticmethod
    def _check_ansatz_circuit(algo):
        params = np.random.default_rng(1).uniform(-1, 1, algo.num_parameters)
        built = ExecutionEngine().ansatz_circuit(algo.ansatz_spec(), params)
        assert _gates(built) == _gates(algo.build_circuit(params))

    def test_hea_ansatz_circuit_is_the_builders_circuit(self, small_flp):
        self._check_ansatz_circuit(_baselines(small_flp)[0])

    def test_pqaoa_ansatz_circuit_is_the_builders_circuit(self, small_flp):
        self._check_ansatz_circuit(_baselines(small_flp)[1])

    def test_chocoq_ansatz_circuit_is_the_builders_circuit(self, small_flp):
        self._check_ansatz_circuit(_baselines(small_flp)[2])

    def test_wrong_parameter_count_raises(self, paper_basis, small_flp):
        engine = ExecutionEngine()
        chain = TransitionChainSpec(paper_basis, [2, 0, 2, 1], 5)
        for times in ([0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(
                SolverError, match=f"expected 2 parameters, got {len(times)}"
            ):
                engine.segment_circuit(chain, (0, 1), times)
        for algo in _baselines(small_flp):
            count = algo.num_parameters
            for wrong in (count - 1, count + 1):
                with pytest.raises(
                    SolverError, match=f"expected {count} parameters, got {wrong}"
                ):
                    engine.ansatz_circuit(algo.ansatz_spec(), np.zeros(wrong))


# ----------------------------------------------------------------------
# Engine basics
# ----------------------------------------------------------------------
class TestEngineBasics:
    def test_exact_engine_has_no_backend(self):
        engine = ExecutionEngine()
        assert engine.is_exact
        assert engine.backend is None

    def test_backend_by_name(self):
        engine = ExecutionEngine("ideal", seed=0)
        assert not engine.is_exact
        assert engine.backend.name == "ideal"

    def test_ensure_engine_passthrough(self):
        engine = ExecutionEngine()
        assert ensure_engine(engine) is engine
        assert ensure_engine(None, backend="ideal", seed=1).backend.name == "ideal"

    def test_run_batch_preserves_order_and_counts(self):
        engine = ExecutionEngine()
        with telemetry.session() as collector:
            results = engine.run_batch(lambda x: x * x, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert collector.counter("engine.batch.calls") == 1
        assert collector.counter("engine.batch.items") == 4
        assert "engine.batch" in set(collector.span_names())

    def test_reseed_reproduces_samples(self):
        state = np.sqrt(np.array([0.3, 0.7]))
        spec = AnsatzSpec(0, build=None, statevector=lambda _: state)
        engine = ExecutionEngine(seed=9)
        first = engine.sample_ansatz(spec, [], 64)
        engine.reseed(9)
        second = engine.sample_ansatz(spec, [], 64)
        assert first == second
        assert sum(first.values()) == pytest.approx(1.0)

    def test_configure_defaults_roundtrip(self):
        previous = configure_defaults(workers=3, backend="ideal")
        try:
            assert get_defaults().workers == 3
            engine = ExecutionEngine(seed=0)
            assert engine.workers == 3
            assert engine.backend.name == "ideal"
        finally:
            configure_defaults(
                workers=previous.workers, backend=previous.backend
            )
        assert get_defaults().workers == previous.workers

    def test_configure_defaults_accepts_only_a_none_cache(self):
        previous = configure_defaults(cache=None)
        assert get_defaults() == previous
        with pytest.raises(TypeError):
            configure_defaults(cache=object())

    def test_exact_distribution_matches_per_entry_comprehension(self):
        rng = np.random.default_rng(3)
        state = rng.normal(size=64) + 1j * rng.normal(size=64)
        state[rng.choice(64, 20, replace=False)] = 0.0
        state[5] = 1e-7  # probability 1e-14, below the support cut
        state /= np.linalg.norm(state)
        spec = AnsatzSpec(0, build=None, statevector=lambda _: state)
        probabilities = np.abs(state) ** 2
        expected = {
            int(key): float(p) for key, p in enumerate(probabilities) if p > 1e-12
        }
        got = ExecutionEngine().sample_ansatz(spec, [], None)
        assert list(got.items()) == list(expected.items())
        assert all(type(key) is int for key in got)
        assert 5 not in got

    def test_pickled_engine_is_serial(self):
        import pickle

        engine = ExecutionEngine("ideal", seed=0, workers=4)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.workers == 0
        assert clone.backend.name == "ideal"


# ----------------------------------------------------------------------
# Bit-identical parallel fan-out
# ----------------------------------------------------------------------
class TestParallelDeterminism:
    def _solve(self, problem, workers):
        from repro.core.solver import RasenganConfig, RasenganSolver

        config = RasenganConfig(
            shots=64,
            max_iterations=6,
            restarts=3,
            seed=11,
            engine_workers=workers,
        )
        solver = RasenganSolver(problem, backend="ideal", config=config)
        try:
            return solver.solve()
        finally:
            solver.engine.close()

    def test_parallel_restarts_match_serial(self, small_flp):
        serial = self._solve(small_flp, 0)
        parallel = self._solve(small_flp, 2)
        assert np.array_equal(serial.best_parameters, parallel.best_parameters)
        assert serial.final_distribution == parallel.final_distribution
        assert serial.history == parallel.history
        assert serial.expectation_value == parallel.expectation_value

    def test_parallel_trajectories_match_serial(self):
        def run(workers):
            engine = ExecutionEngine(
                "fake_kyiv", seed=42, workers=workers
            )
            circuit = QuantumCircuit(3)
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.cx(1, 2)
            circuit.measure_all()
            try:
                return engine.backend.run(circuit, 256)
            finally:
                engine.close()

        assert run(0) == run(2)

    def test_parallel_map_emits_telemetry(self):
        engine = ExecutionEngine(seed=0, workers=2)
        try:
            with telemetry.session() as collector:
                results = engine.map(_square, [1, 2, 3])
            assert results == [1, 4, 9]
            assert collector.counter("engine.parallel.tasks") == 3
            assert "engine.map" in set(collector.span_names())
        finally:
            engine.close()

    def test_exact_sparse_solver_ignores_workers(self, small_flp):
        # Exact mode with restarts also routes through engine.map; results
        # must not depend on the worker count either.
        from repro.core.solver import RasenganConfig, RasenganSolver

        def run(workers):
            config = RasenganConfig(
                shots=None,
                max_iterations=6,
                restarts=2,
                seed=5,
                engine_workers=workers,
            )
            solver = RasenganSolver(small_flp, config=config)
            try:
                return solver.solve()
            finally:
                solver.engine.close()

        serial, parallel = run(0), run(2)
        assert np.array_equal(serial.best_parameters, parallel.best_parameters)
        assert serial.final_distribution == parallel.final_distribution


#: Counters that legitimately depend on the process topology:
#: engine.parallel.* only exists on the fan-out path.  Everything else
#: must match a serial run exactly.
_TOPOLOGY_COUNTERS = ("engine.parallel.",)

#: Histograms of wall-clock seconds: their counts match a serial run,
#: their buckets depend on timing.
_WALL_CLOCK_HISTOGRAMS = ("optimizer.driver_s",)


class TestParallelTelemetryEquivalence:
    def _traced_solve(self, problem, workers):
        from repro.core.solver import RasenganConfig, RasenganSolver

        config = RasenganConfig(
            shots=None,
            max_iterations=6,
            restarts=3,
            seed=11,
            engine_workers=workers,
        )
        solver = RasenganSolver(problem, config=config)
        with telemetry.session() as collector:
            try:
                solver.solve()
            finally:
                solver.engine.close()
        return collector

    @staticmethod
    def _invariant_counters(collector):
        return {
            name: value
            for name, value in collector.counters.items()
            if not name.startswith(_TOPOLOGY_COUNTERS)
        }

    def test_counters_and_histograms_match_serial(self, small_flp):
        serial = self._traced_solve(small_flp, 0)
        parallel = self._traced_solve(small_flp, 2)
        assert self._invariant_counters(parallel) == self._invariant_counters(
            serial
        )
        assert set(parallel.histograms) == set(serial.histograms)
        for name, histogram in serial.histograms.items():
            assert parallel.histograms[name].count == histogram.count, name
            if name not in _WALL_CLOCK_HISTOGRAMS:
                assert parallel.histograms[name].buckets == histogram.buckets, name

    def test_worker_spans_stitched_under_engine_map(self, small_flp):
        collector = self._traced_solve(small_flp, 2)
        map_spans = [
            node
            for node in collector.iter_spans()
            if node.name == "engine.map"
        ]
        assert map_spans, "parallel solve should open an engine.map span"
        restarts = [
            child
            for node in map_spans
            for child in node.children
            if child.name == "restart"
        ]
        assert len(restarts) == 3
        worker_pids = {span.attributes.get("worker_pid") for span in restarts}
        assert None not in worker_pids
        assert {span.attributes.get("task_index") for span in restarts} == {
            0,
            1,
            2,
        }
        # The stitched children keep their own subtrees (restart spans
        # nest the per-iteration work recorded in the worker process).
        assert any(span.children for span in restarts)

    def test_serial_map_has_no_worker_stitching(self, small_flp):
        collector = self._traced_solve(small_flp, 0)
        assert "engine.map" not in set(collector.span_names())
        restarts = [
            node for node in collector.iter_spans() if node.name == "restart"
        ]
        assert len(restarts) == 3
        assert all(
            "worker_pid" not in span.attributes for span in restarts
        )


def _square(x):
    return x * x
