"""Extension baselines: Grover adaptive search and annealing."""

import sys
import warnings

import numpy as np
import pytest
from scipy import optimize as sciopt

from repro.baselines import (
    GroverAdaptiveSearch,
    QuantumAnnealer,
    SimulatedAnnealing,
)
from repro.baselines import optimizer
from repro.baselines.optimizer import minimize_cobyla, minimize_spsa
from repro.exceptions import SolverError
from repro.problems import make_benchmark


@pytest.fixture(scope="module")
def f1():
    return make_benchmark("F1", 0)


class TestGroverAdaptiveSearch:
    def test_finds_optimum_on_small_problem(self, f1):
        result = GroverAdaptiveSearch(f1, seed=0, max_rounds=30).solve()
        assert result.best_value == pytest.approx(f1.optimal_value)
        assert result.arg == pytest.approx(0.0)

    def test_threshold_history_monotone(self, f1):
        result = GroverAdaptiveSearch(f1, seed=1).solve()
        assert result.history == sorted(result.history, reverse=True)

    def test_best_solution_feasible(self, f1):
        result = GroverAdaptiveSearch(f1, seed=2).solve()
        assert f1.is_feasible(result.best_solution)

    def test_oracle_calls_counted(self, f1):
        result = GroverAdaptiveSearch(f1, seed=0).solve()
        assert result.oracle_calls > 0
        assert result.measurements > 0

    def test_wades_through_infeasible_states(self):
        # The paper's criticism: the unstructured search produces many
        # invalid samples on constraint-heavy problems.
        problem = make_benchmark("G1", 0)
        result = GroverAdaptiveSearch(problem, seed=0, max_rounds=10).solve()
        assert result.in_constraints_rate < 1.0


class TestSimulatedAnnealing:
    def test_solves_small_problem(self, f1):
        result = SimulatedAnnealing(f1, seed=0, sweeps=300).solve()
        assert result.best_value == pytest.approx(f1.optimal_value)
        assert result.in_constraints_rate == 1.0

    def test_history_tracks_sweeps(self, f1):
        result = SimulatedAnnealing(f1, seed=0, sweeps=50).solve()
        assert len(result.history) == 51

    def test_deterministic_given_seed(self, f1):
        a = SimulatedAnnealing(f1, seed=5, sweeps=50).solve()
        b = SimulatedAnnealing(f1, seed=5, sweeps=50).solve()
        assert a.best_value == b.best_value

    def test_more_sweeps_no_worse(self, f1):
        short = SimulatedAnnealing(f1, seed=3, sweeps=5).solve()
        long = SimulatedAnnealing(f1, seed=3, sweeps=400).solve()
        assert long.best_value <= short.best_value


class TestQuantumAnnealer:
    def test_final_state_normalised(self, f1):
        state = QuantumAnnealer(f1, steps=40, total_time=8.0).final_state()
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    def test_slow_anneal_beats_fast_anneal(self, f1):
        fast = QuantumAnnealer(f1, steps=30, total_time=1.0, seed=0).solve()
        slow = QuantumAnnealer(f1, steps=120, total_time=30.0, seed=0).solve()
        assert slow.arg < fast.arg

    def test_constraint_handling_gap_vs_rasengan(self, f1):
        # Related-work shape: annealing on the penalty landscape leaves
        # substantial infeasible mass; Rasengan never does.
        from repro.core.solver import RasenganConfig, RasenganSolver

        annealer = QuantumAnnealer(f1, steps=120, total_time=30.0, seed=0).solve()
        rasengan = RasenganSolver(
            f1, config=RasenganConfig(shots=None, max_iterations=150, seed=0)
        ).solve()
        assert rasengan.in_constraints_rate == 1.0
        assert annealer.in_constraints_rate < 1.0
        assert rasengan.arg <= annealer.arg + 1e-9


class TestCobylaOptimizer:
    def test_budget_below_simplex_floor_matches_explicit_floor(self):
        target = np.linspace(-1.0, 1.0, 6)

        def loss(x):
            return float(((x - target) ** 2).sum())

        x0 = np.zeros(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = minimize_cobyla(loss, x0, max_iterations=3)
            floor = minimize_cobyla(loss, x0, max_iterations=x0.size + 2)
        assert np.array_equal(low, floor)

    @staticmethod
    def _objective(kind, n):
        """A fresh loss that records every point it is handed."""
        target = np.linspace(-1.0, 1.0, n)
        rng = np.random.default_rng(11)
        points = []

        def loss(x):
            points.append(x.copy())
            value = float(((x - target) ** 2).sum())
            if kind == "noisy":
                value += 0.05 * rng.normal()
            return value

        return loss, points

    def _assert_same_run(self, kind, n, budget=60, rhobeg=0.5):
        x0 = np.full(n, 0.3)
        loss, scipy_points = self._objective(kind, n)
        reference = sciopt.minimize(
            loss, x0, method="COBYLA", options={"maxiter": budget, "rhobeg": rhobeg}
        )
        loss, points = self._objective(kind, n)
        best = minimize_cobyla(loss, x0, max_iterations=budget, rhobeg=rhobeg)
        assert best.tobytes() == reference.x.tobytes()
        assert [p.tobytes() for p in points] == [p.tobytes() for p in scipy_points]

    @pytest.mark.parametrize("kind", ["quadratic", "noisy"])
    @pytest.mark.parametrize("n", [1, 3, 8, 15])
    def test_matches_scipy_point_for_point(self, n, kind):
        # The noisy loss draws from its RNG on every call, so one extra
        # or missing evaluation would shift every later point.
        self._assert_same_run(kind, n)

    def test_fallback_without_pyprima_is_scipy(self, monkeypatch):
        with monkeypatch.context() as patch:
            for name in list(sys.modules):
                if name.startswith("scipy._lib.pyprima"):
                    patch.setitem(sys.modules, name, None)
            patch.setitem(sys.modules, "scipy._lib.pyprima", None)
            patch.delitem(sys.modules, "repro.baselines.cobyla", raising=False)
            unconstrained = optimizer._unconstrained.__wrapped__()
        assert unconstrained is None
        monkeypatch.setattr(optimizer, "_unconstrained", lambda: None)
        self._assert_same_run("noisy", 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, bad):
        # scipy would silently start from a different point.
        calls = []
        with pytest.raises(SolverError, match="finite"):
            minimize_cobyla(calls.append, np.array([0.1, bad, 0.2]))
        assert calls == []


class TestSpsaOptimizer:
    def test_minimises_quadratic(self):
        target = np.array([0.5, -1.0, 2.0])

        def loss(x):
            return float(((x - target) ** 2).sum())

        best = minimize_spsa(loss, np.zeros(3), max_iterations=500, seed=0)
        assert loss(best) < loss(np.zeros(3))

    def test_empty_parameters(self):
        best = minimize_spsa(lambda x: 0.0, np.array([]), max_iterations=5)
        assert best.size == 0
