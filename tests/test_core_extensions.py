"""Solver extensions: warm start, adaptive shots, diagnostics."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    basis_table,
    example_transition_drawing,
    report,
    schedule_summary,
    segment_summary,
)
from repro.core.solver import RasenganConfig, RasenganSolver
from repro.core.warmstart import hill_climb_initial_solution
from repro.pipeline import ExecutionStage
from repro.problems import make_benchmark


class TestWarmStart:
    def test_never_worse_than_domain_construction(self):
        for benchmark_id in ("F1", "K2", "J2", "S1"):
            problem = make_benchmark(benchmark_id, 0)
            solver = RasenganSolver(
                problem, config=RasenganConfig(shots=None, max_iterations=1)
            )
            improved = hill_climb_initial_solution(problem, solver.basis)
            assert problem.is_feasible(improved)
            assert problem.value(improved) <= problem.value(
                problem.initial_feasible_solution()
            )

    def test_reaches_local_optimum(self):
        problem = make_benchmark("J1", 0)
        solver = RasenganSolver(
            problem, config=RasenganConfig(shots=None, max_iterations=1)
        )
        improved = hill_climb_initial_solution(problem, solver.basis)
        # No single move improves further.
        from repro.linalg.moves import move_masks, partner_key_from_masks
        from repro.linalg.bitvec import bits_to_int, int_to_bits

        key = bits_to_int(improved)
        value = problem.value(improved)
        for u in solver.basis:
            masks = move_masks(np.asarray(u, dtype=np.int64))
            partner = partner_key_from_masks(key, *masks)
            if partner is not None:
                assert problem.value(
                    int_to_bits(partner, problem.num_variables)
                ) >= value - 1e-12

    def test_warm_start_config_solves(self):
        problem = make_benchmark("F2", 0)
        config = RasenganConfig(
            shots=None, max_iterations=150, warm_start=True, seed=0
        )
        result = RasenganSolver(problem, config=config).solve()
        assert result.arg < 0.1

    def test_warm_start_preserves_coverage(self):
        problem = make_benchmark("S1", 0)
        config = RasenganConfig(shots=None, max_iterations=1, warm_start=True)
        solver = RasenganSolver(problem, config=config)
        assert solver.pruned.total_reachable == problem.num_feasible_solutions


class TestAdaptiveShots:
    def test_growth_schedule(self):
        problem = make_benchmark("F1", 0)
        config = RasenganConfig(shots=100, shots_growth=2.0, max_iterations=1)
        stage = ExecutionStage(problem, config)
        assert stage.segment_shots(0, 100) == 100
        assert stage.segment_shots(1, 100) == 200
        assert stage.segment_shots(3, 100) == 800

    def test_uniform_schedule_is_identity(self):
        problem = make_benchmark("F1", 0)
        stage = ExecutionStage(
            problem, RasenganConfig(shots=100, max_iterations=1)
        )
        assert stage.segment_shots(5, 100) == 100

    def test_growth_still_converges(self):
        problem = make_benchmark("F1", 0)
        config = RasenganConfig(
            shots=512, shots_growth=1.5, max_iterations=120, seed=0
        )
        result = RasenganSolver(problem, config=config).solve()
        assert result.arg < 0.5


class TestDiagnostics:
    @pytest.fixture
    def solver(self):
        problem = make_benchmark("F1", 0)
        return RasenganSolver(
            problem, config=RasenganConfig(shots=None, max_iterations=1)
        )

    def test_basis_table_rows(self, solver):
        table = basis_table(solver)
        assert len(table.splitlines()) == solver.basis.shape[0] + 1

    def test_schedule_summary_mentions_pruning(self, solver):
        text = schedule_summary(solver)
        assert "canonical chain" in text
        assert "retained" in text

    def test_segment_summary_rows(self, solver):
        text = segment_summary(solver)
        assert len(text.splitlines()) == solver.num_segments + 1

    def test_transition_drawing(self, solver):
        drawing = example_transition_drawing(solver)
        assert drawing.startswith("q0:")

    def test_full_report(self, solver):
        text = report(solver)
        assert solver.problem.name in text
        assert "move set" in text
        assert "segments" in text
