"""Schedule construction, pruning and early stop."""

import numpy as np
import pytest

from repro.core.prune import build_schedule, prune_schedule, reachable_states
from repro.linalg.bitvec import bits_to_int
from repro.problems import make_benchmark


class TestBuildSchedule:
    def test_canonical_m_squared(self):
        assert build_schedule(3) == [0, 1, 2] * 3

    def test_custom_rounds(self):
        assert build_schedule(2, rounds=4) == [0, 1] * 4

    def test_empty(self):
        assert build_schedule(0) == []


class TestPruneOnPaperExample:
    def test_figure6_first_transition_redundant(self, paper_basis, paper_constraints):
        # From x_p = (0,0,0,1,0), u1 = (-1,1,0,0,0) yields no new state
        # (Figure 6a), so position 0 of the canonical chain is pruned.
        _, _, particular = paper_constraints
        result = prune_schedule(paper_basis, particular)
        assert 0 not in result.kept_positions

    def test_covers_all_five_solutions(self, paper_basis, paper_constraints):
        matrix, bound, particular = paper_constraints
        result = prune_schedule(paper_basis, particular)
        assert result.total_reachable == 5

    def test_early_stop_fires(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        result = prune_schedule(paper_basis, particular)
        assert result.early_stop_position is not None
        assert result.original_length == 9

    def test_pruned_schedule_shorter(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        result = prune_schedule(paper_basis, particular)
        assert len(result.schedule) < result.original_length
        assert result.num_pruned > 0

    def test_coverage_monotone(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        result = prune_schedule(paper_basis, particular)
        assert result.coverage_after == sorted(result.coverage_after)

    def test_no_early_stop_scans_whole_chain(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        result = prune_schedule(paper_basis, particular, early_stop=False)
        assert result.early_stop_position is None


class TestReachableStates:
    def test_pruned_schedule_reaches_same_set(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        full = build_schedule(3)
        pruned = prune_schedule(paper_basis, particular)
        assert reachable_states(paper_basis, particular, full) == reachable_states(
            paper_basis, particular, pruned.schedule
        )

    def test_empty_schedule(self, paper_basis, paper_constraints):
        _, _, particular = paper_constraints
        states = reachable_states(paper_basis, particular, [])
        assert states == (bits_to_int(particular),)


class TestOnBenchmarks:
    @pytest.mark.parametrize("benchmark_id", ["F1", "K2", "J2", "S1"])
    def test_pruning_preserves_coverage(self, benchmark_id):
        problem = make_benchmark(benchmark_id, 0)
        basis = problem.homogeneous_basis
        initial = problem.initial_feasible_solution()
        result = prune_schedule(basis, initial)
        full = reachable_states(basis, initial, build_schedule(basis.shape[0]))
        pruned = reachable_states(basis, initial, result.schedule)
        assert pruned == full

    def test_pruning_reduces_chain_substantially(self):
        # Paper: opt 2 removes over half of real-problem chains.
        problem = make_benchmark("S2", 0)
        result = prune_schedule(
            problem.homogeneous_basis, problem.initial_feasible_solution()
        )
        assert len(result.schedule) < result.original_length / 2

