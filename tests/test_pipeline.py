"""Staged compilation pipeline: fingerprints, artifact cache, shims.

Covers the pipeline contract end to end:

* stage fingerprints are stable across pipelines, processes, and
  ``engine.map`` worker pools, and are rooted at the compile fingerprint
  (type, ``C``, ``b``, ``x0``), so instances that differ only in
  objective share them (the prune pass also keys by the problem under
  ``warm_start``);
* a config-slice change re-runs exactly the downstream stages (asserted
  via the ``pipeline.computed.*`` telemetry counters);
* the artifact cache round-trips every artifact through its ``.npz``
  spill format, treats torn files as misses, and is LRU-bounded;
* a warm-cache solve is bit-identical to the cold solve that populated
  the cache, while skipping every pre-execution stage;
* a solve never compiles the ``circuit`` stage; its depth accounting
  compiles on first read;
* the deprecation shims keep pre-pipeline import paths working (with a
  ``DeprecationWarning``) for one release.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.core.solver import RasenganConfig, RasenganSolver
from repro.engine import ExecutionEngine
from repro.pipeline import (
    ArtifactCache,
    CircuitArtifact,
    SolvePipeline,
    capture_report,
    choose_basis,
    compile_ansatz,
    fingerprint_report,
    resolve_compile_fingerprint,
    resolve_problem_fingerprint,
    stage_fingerprint,
)
from repro.problems.io import (
    compile_fingerprint,
    problem_fingerprint,
    problem_to_dict,
)
from repro.problems.registry import make_benchmark

STAGES = ["basis", "hamiltonian", "prune", "segmentation", "circuit"]
#: What a solve compiles: depth accounting (``circuit``) is read on demand.
SOLVE_READS = STAGES[:-1]


def small_problem():
    return make_benchmark("F1")


class TestStageFingerprint:
    def test_pure_function_of_inputs(self):
        fp1 = stage_fingerprint("prune", ["a", "b"], {"x": 1})
        fp2 = stage_fingerprint("prune", ["a", "b"], {"x": 1})
        assert fp1 == fp2 and len(fp1) == 64

    def test_dict_order_independent(self):
        assert stage_fingerprint("s", [], {"a": 1, "b": 2}) == stage_fingerprint(
            "s", [], {"b": 2, "a": 1}
        )

    def test_sensitive_to_every_component(self):
        base = stage_fingerprint("s", ["a"], {"x": 1})
        assert stage_fingerprint("t", ["a"], {"x": 1}) != base
        assert stage_fingerprint("s", ["b"], {"x": 1}) != base
        assert stage_fingerprint("s", ["a"], {"x": 2}) != base

    def test_rooted_at_compile_fingerprint(self):
        problem = small_problem()
        config = RasenganConfig(seed=0)
        pipeline = SolvePipeline(problem, config, cache=ArtifactCache())
        assert pipeline.compile_fingerprint == compile_fingerprint(problem)
        assert pipeline.fingerprint("basis") == stage_fingerprint(
            "basis", [compile_fingerprint(problem)], {}
        )
        # The full problem fingerprint is still there for inspection.
        assert pipeline.problem_fingerprint == problem_fingerprint(problem)
        # Different constraints shift every stage fingerprint.
        other = SolvePipeline(
            make_benchmark("F2"), config, cache=ArtifactCache()
        )
        for name in STAGES:
            assert pipeline.fingerprint(name) != other.fingerprint(name)


class TestCompileRoot:
    """Stages key by (type, C, b, x0); the objective only under warm start."""

    def _fingerprints(self, problem, **config):
        pipeline = SolvePipeline(
            problem, RasenganConfig(seed=0, **config), cache=ArtifactCache()
        )
        return {name: pipeline.fingerprint(name) for name in STAGES}

    def test_other_objective_shares_every_stage(self):
        a, b = make_benchmark("F1", 0), make_benchmark("F1", 1)
        assert problem_fingerprint(a) != problem_fingerprint(b)
        np.testing.assert_array_equal(a.constraint_matrix, b.constraint_matrix)
        assert self._fingerprints(a) == self._fingerprints(b)

    def test_other_initial_state_shifts_every_stage(self):
        a, b = make_benchmark("J1", 0), make_benchmark("J1", 1)
        np.testing.assert_array_equal(a.constraint_matrix, b.constraint_matrix)
        np.testing.assert_array_equal(a.bound, b.bound)
        assert not np.array_equal(
            a.initial_feasible_solution(), b.initial_feasible_solution()
        )
        fps_a, fps_b = self._fingerprints(a), self._fingerprints(b)
        for name in STAGES:
            assert fps_a[name] != fps_b[name]

    def test_warm_start_roots_prune_at_problem_fingerprint(self):
        a, b = make_benchmark("F1", 0), make_benchmark("F1", 1)
        fps_a = self._fingerprints(a, warm_start=True)
        fps_b = self._fingerprints(b, warm_start=True)
        for name in ("basis", "hamiltonian"):
            assert fps_a[name] == fps_b[name]
        for name in ("prune", "segmentation", "circuit"):
            assert fps_a[name] != fps_b[name]
        pipeline = SolvePipeline(
            a, RasenganConfig(seed=0, warm_start=True), cache=ArtifactCache()
        )
        assert pipeline.fingerprint("prune") == stage_fingerprint(
            "prune",
            [
                pipeline.fingerprint("basis"),
                pipeline.fingerprint("hamiltonian"),
                problem_fingerprint(a),
            ],
            {"enable_prune": True, "warm_start": True},
        )

    def test_problem_fingerprint_is_computed_only_when_read(self):
        pipeline = SolvePipeline(
            small_problem(), RasenganConfig(seed=0), cache=ArtifactCache()
        )
        pipeline.compile()
        assert "problem_fingerprint" not in vars(pipeline)
        warm = SolvePipeline(
            small_problem(),
            RasenganConfig(seed=0, warm_start=True),
            cache=ArtifactCache(),
        )
        warm.compile()
        assert "problem_fingerprint" in vars(warm)

    def test_second_instance_solves_from_the_first_ones_compile(self):
        cache = ArtifactCache()
        config = RasenganConfig(shots=None, max_iterations=5, seed=4)
        RasenganSolver(make_benchmark("F1", 0), config=config, artifact_cache=cache)
        second = make_benchmark("F1", 1)
        with telemetry.session() as collector:
            shared = RasenganSolver(second, config=config, artifact_cache=cache)
        assert collector.counter("pipeline.cache.hits") == len(SOLVE_READS)
        own = RasenganSolver(second, config=config, artifact_cache=ArtifactCache())
        assert shared.solve().to_json_dict() == own.solve().to_json_dict()

    def test_custom_problem_keeps_per_instance_root(self):
        first, second = _UnserializableProblem(), _UnserializableProblem()
        assert resolve_compile_fingerprint(first) == resolve_problem_fingerprint(
            first
        )
        assert resolve_compile_fingerprint(first) != resolve_compile_fingerprint(
            second
        )


class TestFingerprintStability:
    def test_identical_across_pipeline_instances(self):
        problem = small_problem()
        config = RasenganConfig(seed=3)
        a = SolvePipeline(problem, config, cache=ArtifactCache())
        b = SolvePipeline(problem, config, cache=ArtifactCache())
        for name in STAGES:
            assert a.fingerprint(name) == b.fingerprint(name)

    def test_execution_only_config_does_not_shift_fingerprints(self):
        problem = small_problem()
        a = SolvePipeline(
            problem, RasenganConfig(seed=1, shots=64), cache=ArtifactCache()
        )
        b = SolvePipeline(
            problem,
            RasenganConfig(seed=99, shots=None, max_iterations=7),
            cache=ArtifactCache(),
        )
        for name in STAGES:
            assert a.fingerprint(name) == b.fingerprint(name)

    def test_identical_across_processes_via_engine_map(self):
        problem = small_problem()
        payload = problem_to_dict(problem)
        local = fingerprint_report(payload)
        engine = ExecutionEngine(None, seed=0, workers=2)
        try:
            remote = engine.map(
                fingerprint_report, [payload, payload], label="fingerprints"
            )
        finally:
            engine.close()
        assert remote[0] == local
        assert remote[1] == local


class TestCacheInvalidation:
    def _computed(self, collector):
        return {
            name: collector.counter(f"pipeline.computed.{name}")
            for name in STAGES
        }

    def test_segmentation_change_reruns_exactly_downstream(self):
        problem = small_problem()
        cache = ArtifactCache()
        SolvePipeline(
            problem, RasenganConfig(seed=0), cache=cache
        ).compile()
        with telemetry.session() as collector:
            SolvePipeline(
                problem,
                RasenganConfig(seed=0, transitions_per_segment=2),
                cache=cache,
            ).compile()
        assert self._computed(collector) == {
            "basis": 0,
            "hamiltonian": 0,
            "prune": 0,
            "segmentation": 1,
            "circuit": 1,
        }

    def test_hamiltonian_change_reruns_hamiltonian_and_downstream(self):
        problem = small_problem()
        cache = ArtifactCache()
        SolvePipeline(problem, RasenganConfig(seed=0), cache=cache).compile()
        with telemetry.session() as collector:
            SolvePipeline(
                problem,
                RasenganConfig(seed=0, enable_simplify=False),
                cache=cache,
            ).compile()
        assert self._computed(collector) == {
            "basis": 0,
            "hamiltonian": 1,
            "prune": 1,
            "segmentation": 1,
            "circuit": 1,
        }

    def test_unchanged_config_computes_nothing(self):
        problem = small_problem()
        cache = ArtifactCache()
        SolvePipeline(problem, RasenganConfig(seed=0), cache=cache).compile()
        with telemetry.session() as collector:
            pipeline = SolvePipeline(
                problem, RasenganConfig(seed=0), cache=cache
            )
            pipeline.compile()
        assert self._computed(collector) == dict.fromkeys(STAGES, 0)
        assert [entry["source"] for entry in pipeline.report] == ["cache"] * 5
        assert collector.counter("pipeline.cache.hits") == 5


class TestArtifactCache:
    def test_spill_round_trip(self, tmp_path):
        problem = small_problem()
        cold = ArtifactCache(spill_dir=str(tmp_path))
        artifacts = SolvePipeline(
            problem, RasenganConfig(seed=0), cache=cold
        ).compile()
        assert cold.spill_writes == 5
        # A fresh cache over the same directory reloads all five from disk.
        warm = ArtifactCache(spill_dir=str(tmp_path))
        pipeline = SolvePipeline(
            problem, RasenganConfig(seed=0), cache=warm
        )
        reloaded = pipeline.compile()
        assert warm.spill_hits == 5
        for name in STAGES:
            assert reloaded[name].fingerprint == artifacts[name].fingerprint
        np.testing.assert_array_equal(
            reloaded["hamiltonian"].basis, artifacts["hamiltonian"].basis
        )
        np.testing.assert_array_equal(
            reloaded["prune"].initial_bits, artifacts["prune"].initial_bits
        )
        assert reloaded["prune"].schedule == artifacts["prune"].schedule
        assert (
            reloaded["segmentation"].plan.segments
            == artifacts["segmentation"].plan.segments
        )
        assert (
            reloaded["circuit"].segment_depths
            == artifacts["circuit"].segment_depths
        )

    def test_torn_spill_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(spill_dir=str(tmp_path))
        fingerprint = "f" * 64
        (tmp_path / f"{fingerprint}.npz").write_bytes(b"torn garbage")
        with telemetry.session() as collector:
            assert cache.get(fingerprint) is None
        assert collector.counter("pipeline.cache.spill_errors") == 1
        assert collector.counter("pipeline.cache.misses") == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        arts = [
            CircuitArtifact(
                fingerprint=f"{i:064d}",
                num_qubits=1,
                num_parameters=0,
                segment_depths=(),
                segment_depths_2q=(),
                segment_cx_costs=(),
            )
            for i in range(3)
        ]
        for artifact in arts:
            cache.put(artifact)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(arts[0].fingerprint) is None  # oldest evicted
        assert cache.get(arts[2].fingerprint) is not None

    def test_cache_is_not_picklable_but_pipeline_is(self):
        cache = ArtifactCache()
        with pytest.raises(TypeError):
            pickle.dumps(cache)
        pipeline = SolvePipeline(
            small_problem(), RasenganConfig(seed=0), cache=cache
        )
        pipeline.compile()
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone._cache is None  # falls back to the process default
        for name in STAGES:
            assert clone.fingerprint(name) == pipeline.fingerprint(name)

    def test_artifact_arrays_are_immutable(self):
        artifacts = SolvePipeline(
            small_problem(), RasenganConfig(seed=0), cache=ArtifactCache()
        ).compile()
        with pytest.raises((ValueError, RuntimeError)):
            artifacts["hamiltonian"].basis[0, 0] = 99

    def test_every_array_field_is_read_only_when_served(self, tmp_path):
        """A shared or spill-loaded artifact refuses in-place writes."""
        config = RasenganConfig(seed=0, warm_start=True)
        SolvePipeline(
            make_benchmark("F1", 0),
            config,
            cache=ArtifactCache(spill_dir=str(tmp_path)),
        ).compile()
        # Instance 1 shares basis and hamiltonian with instance 0, and
        # reads them back from the spill directory.
        reloaded = SolvePipeline(
            make_benchmark("F1", 1),
            config,
            cache=ArtifactCache(spill_dir=str(tmp_path)),
        ).compile()
        arrays = 0
        for artifact in reloaded.values():
            for spec in dataclasses.fields(artifact):
                value = getattr(artifact, spec.name)
                if spec.type == "np.ndarray":
                    assert isinstance(value, np.ndarray)
                if isinstance(value, np.ndarray):
                    arrays += 1
                    assert not value.flags.writeable
                    with pytest.raises(ValueError):
                        value.flat[0] = 1
        assert arrays == 4  # basis x2, initial bits x2

    def test_artifact_copies_its_input_arrays(self):
        from repro.pipeline import BasisArtifact

        basis = np.zeros((1, 3), dtype=np.int64)
        artifact = BasisArtifact(
            fingerprint="0" * 64,
            basis=basis,
            initial_bits=[0, 1, 0],
            num_variables=3,
        )
        basis[0, 0] = 5  # the caller's array stays writable and separate
        assert artifact.basis[0, 0] == 0
        assert isinstance(artifact.initial_bits, np.ndarray)
        assert not artifact.initial_bits.flags.writeable

    def test_empty_circuit_artifact_accounting(self):
        artifact = CircuitArtifact(
            fingerprint="0" * 64,
            num_qubits=3,
            num_parameters=0,
            segment_depths=(),
            segment_depths_2q=(),
            segment_cx_costs=(),
        )
        assert artifact.max_depth == 0
        assert artifact.max_depth_2q == 0
        assert artifact.max_segment_cx == 0
        assert artifact.chain_cx == 0


class TestSolverIntegration:
    def test_warm_solve_is_bit_identical_and_skips_all_stages(self):
        problem = small_problem()
        cache = ArtifactCache()
        config = RasenganConfig(seed=7, max_iterations=6)
        cold = RasenganSolver(problem, config=config, artifact_cache=cache)
        cold_record = cold.solve().to_json_dict()
        warm = RasenganSolver(problem, config=config, artifact_cache=cache)
        warm_record = warm.solve().to_json_dict()
        assert json.dumps(cold_record, sort_keys=True) == json.dumps(
            warm_record, sort_keys=True
        )
        assert [entry["source"] for entry in warm.pipeline.report] == [
            "cache"
        ] * len(SOLVE_READS)

    def test_solver_legacy_surface_matches_artifacts(self):
        solver = RasenganSolver(
            small_problem(),
            config=RasenganConfig(seed=0),
            artifact_cache=ArtifactCache(),
        )
        artifacts = solver.pipeline.compile()
        np.testing.assert_array_equal(
            solver.basis, artifacts["hamiltonian"].basis
        )
        assert solver.schedule == list(artifacts["prune"].schedule)
        assert solver.pruned is artifacts["prune"].pruned
        assert solver.plan is artifacts["segmentation"].plan
        assert (
            solver.segment_two_qubit_cost()
            == artifacts["circuit"].max_segment_cx
        )
        assert solver.chain_two_qubit_cost() == artifacts["circuit"].chain_cx
        assert solver.num_parameters == artifacts["circuit"].num_parameters

    def test_candidate_prune_is_hoisted(self):
        """The hamiltonian pass's cost evaluation feeds the prune pass."""
        problem = small_problem()
        pipeline = SolvePipeline(
            problem, RasenganConfig(seed=0), cache=ArtifactCache()
        )
        artifacts = pipeline.compile()
        hamiltonian = artifacts["hamiltonian"]
        assert hamiltonian.candidates > 1
        assert hamiltonian.candidate_prune is not None
        # Default config (prune on, no warm start) reuses the evaluation.
        assert artifacts["prune"].pruned is hamiltonian.candidate_prune

    def test_choose_basis_matches_solver_basis(self):
        problem = small_problem()
        config = RasenganConfig(seed=0)
        winner, count, winner_prune = choose_basis(
            problem.homogeneous_basis,
            problem.initial_feasible_solution(),
            config,
        )
        solver = RasenganSolver(
            problem, config=config, artifact_cache=ArtifactCache()
        )
        np.testing.assert_array_equal(winner, solver.basis)
        assert count >= 1
        assert winner_prune is not None
        assert list(winner_prune.schedule) == solver.schedule


class TestCaptureReport:
    def test_capture_collects_stage_resolutions(self):
        problem = small_problem()
        with capture_report() as stages:
            SolvePipeline(
                problem, RasenganConfig(seed=0), cache=ArtifactCache()
            ).compile()
        assert [entry["stage"] for entry in stages] == STAGES
        assert all(entry["source"] == "computed" for entry in stages)

    def test_capture_is_scoped(self):
        with capture_report() as outer:
            with capture_report() as inner:
                SolvePipeline(
                    small_problem(),
                    RasenganConfig(seed=0),
                    cache=ArtifactCache(),
                ).compile()
        assert len(inner) == 5
        assert outer == []


class TestAnsatzCompilation:
    def test_identical_structures_share_a_fingerprint(self):
        problem = small_problem()
        cache = ArtifactCache()
        a = compile_ansatz(
            problem, "hea", 10, {"layers": 2}, penalty=10.0, cache=cache
        )
        b = compile_ansatz(
            problem, "hea", 10, {"layers": 2}, penalty=10.0, cache=cache
        )
        assert a.fingerprint == b.fingerprint
        assert cache.hits == 1

    def test_structure_and_penalty_are_part_of_the_identity(self):
        problem = small_problem()
        cache = ArtifactCache()
        base = compile_ansatz(
            problem, "hea", 10, {"layers": 2}, penalty=10.0, cache=cache
        )
        deeper = compile_ansatz(
            problem, "hea", 10, {"layers": 3}, penalty=10.0, cache=cache
        )
        repriced = compile_ansatz(
            problem, "hea", 10, {"layers": 2}, penalty=20.0, cache=cache
        )
        assert (
            len({base.fingerprint, deeper.fingerprint, repriced.fingerprint})
            == 3
        )


class TestLazyCircuitStage:
    """A solve compiles through segmentation; depths compile on demand."""

    def _solver(self, **overrides):
        config = RasenganConfig(
            **{"seed": 3, "shots": None, "max_iterations": 5, **overrides}
        )
        return RasenganSolver(
            small_problem(),
            config=config,
            artifact_cache=ArtifactCache(),
        )

    def test_solve_never_compiles_the_circuit_stage(self):
        with telemetry.session() as collector:
            solver = self._solver()
            solver.solve()
        assert collector.counter("pipeline.computed.circuit") == 0
        assert collector.counter("pipeline.computed.segmentation") == 1
        assert [entry["stage"] for entry in solver.pipeline.report] == (
            SOLVE_READS
        )

    @pytest.mark.parametrize(
        "read",
        [
            lambda solver: solver.circuit_artifact,
            lambda solver: solver.segment_two_qubit_cost(),
        ],
        ids=["circuit_artifact", "segment_two_qubit_cost"],
    )
    def test_first_read_computes_the_stage_once(self, read):
        solver = self._solver()
        with telemetry.session() as collector:
            read(solver)
        assert collector.counter("pipeline.computed.circuit") == 1
        with telemetry.session() as collector:
            read(solver)
            solver.chain_two_qubit_cost()
        assert collector.counter("pipeline.computed.circuit") == 0
        assert collector.counter("pipeline.cache.hits") == 0
        assert [entry["stage"] for entry in solver.pipeline.report] == STAGES

    def test_lazy_artifact_equals_full_compile(self):
        solver = self._solver()
        lazy = solver.circuit_artifact
        eager = SolvePipeline(
            solver.problem, solver.config, cache=ArtifactCache()
        ).compile()["circuit"]
        assert isinstance(lazy, CircuitArtifact)
        for field in dataclasses.fields(CircuitArtifact):
            assert getattr(lazy, field.name) == getattr(eager, field.name)

    # The Table 1/2 depth columns (deepest segment, decomposed): reading
    # depth accounting after the solve must not move them.
    @pytest.mark.parametrize(
        "benchmark_id, depth, depth_2q",
        [
            ("F1", 51, 28),
            ("K1", 51, 28),
            ("J1", 8, 4),
            ("G1", 424, 210),
            ("F2", 146, 75),
        ],
    )
    def test_runner_depth_columns_unchanged(self, benchmark_id, depth, depth_2q):
        from repro.experiments.runner import run_algorithm

        run = run_algorithm(
            "rasengan",
            make_benchmark(benchmark_id, case=0),
            max_iterations=3,
            seed=0,
            restarts=1,
        )
        assert (run.executed_depth, run.executed_depth_2q) == (
            depth,
            depth_2q,
        )

    def test_parallel_restarts_match_serial_without_the_stage(self):
        serial = self._solver(restarts=2).solve().to_json_dict()
        solver = self._solver(restarts=2, engine_workers=2)
        try:
            with telemetry.session() as collector:
                parallel = solver.solve().to_json_dict()
        finally:
            solver.engine.close()
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )
        assert collector.counter("pipeline.computed.circuit") == 0
        shipped = pickle.loads(pickle.dumps(solver))
        assert "circuit" not in shipped.pipeline._artifacts


class TestServiceTimeline:
    def test_jobs_report_stage_hits_in_their_timeline(self):
        from repro.service.workers import SolverService

        service = SolverService(workers=1).start()
        try:
            first = service.submit(
                benchmark="F1", config={"max_iterations": 4, "seed": 1}
            )
            second = service.submit(
                benchmark="F1", config={"max_iterations": 4, "seed": 2}
            )
            assert service.drain(timeout=120)
        finally:
            service.close()
        events = {
            job: [e for e in job.timeline if e.get("event") == "pipeline"]
            for job in (first, second)
        }
        assert all(len(found) == 1 for found in events.values())
        assert [s["stage"] for s in events[first][0]["stages"]] == SOLVE_READS
        # Different seed = different job fingerprint, but every
        # pre-execution artifact coalesces at stage granularity.
        assert all(
            s["source"] == "cache" for s in events[second][0]["stages"]
        )


class TestInspectCli:
    def test_inspect_output_is_deterministic(self, capsys):
        from repro.experiments.cli import main

        assert main(["inspect", "F1"]) == 0
        first = capsys.readouterr().out
        assert main(["inspect", "F1"]) == 0
        second = capsys.readouterr().out
        record = json.loads(first)
        problem = make_benchmark("F1")
        assert record["fingerprint"] == problem_fingerprint(problem)
        assert record["compile_fingerprint"] == compile_fingerprint(problem)
        assert [s["name"] for s in record["stages"]] == STAGES
        assert all(len(s["fingerprint"]) == 64 for s in record["stages"])
        assert all(s["size_bytes"] > 0 for s in record["stages"])
        assert first == second

    def test_inspect_config_shifts_only_downstream_fingerprints(self, capsys):
        from repro.experiments.cli import main

        assert main(["inspect", "F1"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert (
            main(["inspect", "F1", "--config", '{"transitions_per_segment": 2}'])
            == 0
        )
        changed = json.loads(capsys.readouterr().out)
        fps_base = {s["name"]: s["fingerprint"] for s in base["stages"]}
        fps_changed = {s["name"]: s["fingerprint"] for s in changed["stages"]}
        for name in ("basis", "hamiltonian", "prune"):
            assert fps_base[name] == fps_changed[name]
        for name in ("segmentation", "circuit"):
            assert fps_base[name] != fps_changed[name]

    def test_inspect_rejects_bad_config(self, capsys):
        from repro.experiments.cli import main

        assert main(["inspect", "F1", "--config", "not json"]) == 2
        assert main(["inspect", "F1", "--config", '{"nope": 1}']) == 2


class _UnserializableProblem:
    """Minimal custom problem the ``problems/io`` serializer rejects."""

    def __new__(cls):
        from repro.problems.base import ConstrainedBinaryProblem

        class _Custom(ConstrainedBinaryProblem):
            def __init__(self):
                matrix = np.ones((1, 3), dtype=np.int64)
                bound = np.array([1], dtype=np.int64)
                super().__init__("custom-test", matrix, bound)

            def objective(self, x):
                return float(np.sum(np.asarray(x) * np.arange(1, 4)))

        return _Custom()


class TestCustomProblemFallback:
    """Problems without a serializer still compile and solve."""

    def test_fallback_fingerprint_is_instance_stable(self):
        problem = _UnserializableProblem()
        first = resolve_problem_fingerprint(problem)
        assert first == resolve_problem_fingerprint(problem)
        other = _UnserializableProblem()
        assert resolve_problem_fingerprint(other) != first

    def test_registry_problem_uses_canonical_fingerprint(self):
        problem = small_problem()
        assert resolve_problem_fingerprint(problem) == problem_fingerprint(
            problem
        )

    def test_custom_problem_solves_and_reuses_cache(self):
        problem = _UnserializableProblem()
        cache = ArtifactCache()
        config = RasenganConfig(shots=None, max_iterations=5, seed=0)
        RasenganSolver(problem, config=config, artifact_cache=cache)
        with telemetry.session() as collector:
            solver = RasenganSolver(
                problem, config=config, artifact_cache=cache
            )
        assert all(
            entry["source"] == "cache" for entry in solver.pipeline.report
        )
        assert collector.counter("pipeline.cache.hits") == len(SOLVE_READS)
        result = solver.solve()
        assert result.best_sampled_value is not None
