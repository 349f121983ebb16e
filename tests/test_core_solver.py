"""End-to-end RasenganSolver behaviour."""

import numpy as np
import pytest

from repro.core.solver import RasenganConfig, RasenganResult, RasenganSolver
from repro.exceptions import SolverError
from repro.linalg.bitvec import int_to_bits
from repro.problems import make_benchmark
from repro.simulators.backends import IdealBackend, NoisyTrajectoryBackend
from repro.simulators.noise import NoiseModel


def exact_config(**overrides):
    defaults = dict(shots=None, max_iterations=200, seed=0)
    defaults.update(overrides)
    return RasenganConfig(**defaults)


class TestExactEngine:
    def test_f1_reaches_optimum(self):
        problem = make_benchmark("F1", 0)
        result = RasenganSolver(problem, config=exact_config()).solve()
        assert result.arg < 0.05
        assert result.best_sampled_value == problem.optimal_value
        assert result.in_constraints_rate == 1.0

    def test_output_is_feasible_distribution(self):
        problem = make_benchmark("J1", 0)
        result = RasenganSolver(problem, config=exact_config()).solve()
        for key in result.final_distribution:
            assert problem.is_feasible(int_to_bits(key, problem.num_variables))

    def test_distribution_normalised(self):
        problem = make_benchmark("K1", 0)
        result = RasenganSolver(problem, config=exact_config()).solve()
        assert sum(result.final_distribution.values()) == pytest.approx(1.0)

    def test_history_recorded(self):
        problem = make_benchmark("F1", 0)
        result = RasenganSolver(problem, config=exact_config(max_iterations=30)).solve()
        assert 0 < result.iterations <= 35
        assert len(result.history) == result.iterations

    def test_parameter_count_equals_schedule(self):
        problem = make_benchmark("F2", 0)
        solver = RasenganSolver(problem, config=exact_config())
        assert solver.num_parameters == len(solver.schedule)

    def test_execute_validates_length(self):
        problem = make_benchmark("F1", 0)
        solver = RasenganSolver(problem, config=exact_config())
        with pytest.raises(SolverError):
            solver.execute([0.1])

    def test_summary_renders(self):
        problem = make_benchmark("F1", 0)
        result = RasenganSolver(problem, config=exact_config(max_iterations=10)).solve()
        assert "ARG" in result.summary()


class TestSampledEngine:
    def test_shot_sampling_still_converges(self):
        problem = make_benchmark("F1", 0)
        config = exact_config(shots=2048, max_iterations=150)
        result = RasenganSolver(problem, config=config).solve()
        assert result.arg < 0.3
        assert result.best_sampled_value == problem.optimal_value


class TestAblationKnobs:
    def test_disable_prune_lengthens_schedule(self):
        problem = make_benchmark("F2", 0)
        pruned = RasenganSolver(problem, config=exact_config())
        unpruned = RasenganSolver(problem, config=exact_config(enable_prune=False))
        assert unpruned.num_parameters > pruned.num_parameters

    def test_disable_simplify_keeps_raw_basis(self):
        problem = make_benchmark("F2", 0)
        solver = RasenganSolver(problem, config=exact_config(enable_simplify=False))
        raw_rows = {tuple(r) for r in problem.homogeneous_basis}
        assert all(tuple(r) in raw_rows for r in solver.basis[: len(raw_rows)])

    def test_segment_grouping_reduces_segments(self):
        problem = make_benchmark("S1", 0)
        fine = RasenganSolver(problem, config=exact_config(transitions_per_segment=1))
        coarse = RasenganSolver(problem, config=exact_config(transitions_per_segment=4))
        assert coarse.num_segments < fine.num_segments

    def test_depth_costs_monotone(self):
        problem = make_benchmark("S1", 0)
        solver = RasenganSolver(problem, config=exact_config())
        assert solver.segment_two_qubit_cost() <= solver.chain_two_qubit_cost()


class TestBackendEngine:
    def test_ideal_backend_agrees_with_exact(self):
        problem = make_benchmark("F1", 0)
        exact = RasenganSolver(problem, config=exact_config()).solve()
        backend = IdealBackend(seed=1)
        sampled = RasenganSolver(
            problem, backend=backend, config=exact_config(shots=4096, max_iterations=80)
        ).solve()
        assert sampled.arg < exact.arg + 0.3
        assert sampled.in_constraints_rate == 1.0

    def test_noisy_backend_with_purification_stays_feasible(self):
        problem = make_benchmark("F1", 0)
        backend = NoisyTrajectoryBackend(
            NoiseModel.from_error_rates(
                single_qubit_error=0.001, two_qubit_error=0.01
            ),
            seed=2,
            max_trajectories=16,
        )
        config = exact_config(shots=512, max_iterations=15)
        result = RasenganSolver(problem, backend=backend, config=config).solve()
        assert not result.failed
        for key in result.final_distribution:
            assert problem.is_feasible(int_to_bits(key, problem.num_variables))

    def test_extreme_noise_fails_gracefully(self):
        problem = make_benchmark("F1", 0)
        backend = NoisyTrajectoryBackend(
            NoiseModel.from_error_rates(
                single_qubit_error=0.4, two_qubit_error=0.5, readout_error=0.4
            ),
            seed=3,
            max_trajectories=4,
        )
        config = exact_config(shots=64, max_iterations=4)
        result = RasenganSolver(problem, backend=backend, config=config).solve()
        # Either it survives purification or reports failure; never crashes.
        assert isinstance(result, RasenganResult)


class TestRestarts:
    def test_restarts_never_hurt_and_cure_s1(self):
        problem = make_benchmark("S1", 0)
        single = RasenganSolver(
            problem, config=exact_config(max_iterations=150, restarts=1)
        ).solve()
        multi = RasenganSolver(
            problem, config=exact_config(max_iterations=150, restarts=3)
        ).solve()
        assert multi.expectation_value <= single.expectation_value + 1e-9

    def test_restart_count_respected_in_history(self):
        problem = make_benchmark("F1", 0)
        single = RasenganSolver(
            problem, config=exact_config(max_iterations=20, restarts=1)
        ).solve()
        triple = RasenganSolver(
            problem, config=exact_config(max_iterations=20, restarts=3)
        ).solve()
        assert triple.iterations > single.iterations


class TestConfigValidation:
    @pytest.mark.parametrize("shots", [0, -1, 2.5, True, "1024"])
    def test_invalid_shots_rejected(self, shots):
        # shots=0 used to produce a "failed" solve with ARG ~ 1e8 and
        # negative shots a raw ValueError from inside sampling.
        with pytest.raises(SolverError, match="RasenganConfig.shots"):
            RasenganConfig(shots=shots)

    @pytest.mark.parametrize(
        "rhobeg", [0, 0.0, -0.4, float("nan"), float("inf"), "0.4"]
    )
    def test_invalid_rhobeg_rejected(self, rhobeg):
        # rhobeg=0 used to be replaced by scipy's default with a warning.
        with pytest.raises(SolverError, match="RasenganConfig.rhobeg"):
            RasenganConfig(rhobeg=rhobeg)

    @pytest.mark.parametrize("budget", [0, -5, 2.5, True, "100"])
    def test_invalid_max_iterations_rejected(self, budget):
        # Budgets below one used to solve quietly at the simplex floor.
        with pytest.raises(SolverError, match="RasenganConfig.max_iterations"):
            RasenganConfig(max_iterations=budget)

    @pytest.mark.parametrize("restarts", [0, -2, 1.5, True])
    def test_invalid_restarts_rejected(self, restarts):
        # 0 and -2 used to become 1 silently, 1.5 a raw TypeError.
        with pytest.raises(SolverError, match="RasenganConfig.restarts"):
            RasenganConfig(restarts=restarts)

    @pytest.mark.parametrize(
        "initial_time", [float("nan"), float("inf"), -float("inf"), "0.7", True]
    )
    def test_invalid_initial_time_rejected(self, initial_time):
        # NaN or inf used to fail deep in SparseState with a raw
        # "math domain error".
        with pytest.raises(SolverError, match="RasenganConfig.initial_time"):
            RasenganConfig(initial_time=initial_time)

    @pytest.mark.parametrize("budget", [1, np.int64(100)])
    def test_valid_max_iterations_accepted(self, budget):
        # fig10 and fig13 train with max_iterations=1 (COBYLA's floor).
        assert RasenganConfig(max_iterations=budget).max_iterations == budget

    @pytest.mark.parametrize("shots", [None, 1, 1024, np.int64(256)])
    def test_valid_shots_accepted(self, shots):
        assert RasenganConfig(shots=shots).shots == shots

    def test_replace_revalidates(self):
        from dataclasses import replace

        with pytest.raises(SolverError, match="shots"):
            replace(RasenganConfig(), shots=0)
