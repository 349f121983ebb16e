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


def _trstlp_edge_cases():
    """``(id, g, falls_back)``: the m = 0 kernel's edge inputs."""
    eps = np.finfo(float).eps
    base = np.random.default_rng(5).normal(size=8)

    def with_entry(index, value):
        g = base.copy()
        g[index] = value
        return g

    return [
        ("zero", np.zeros(8), False),
        ("zero-n1", np.zeros(1), False),
        ("partly-zero", with_entry(2, 0.0), True),
        # |g_3| <= EPS * ||g_4:||: planerot's c = 0 branch.
        ("tiny-ratio", with_entry(3, 0.5 * eps * np.linalg.norm(base[4:])), True),
        ("above-1e12", with_entry(1, 2e12), True),
        ("subnormal", with_entry(6, 5e-324), True),
        ("nan", with_entry(0, np.nan), True),
        ("negative-n1", np.array([-0.7]), False),
        # ||sdirn||**2 = 1/||g||**2 <= EPS * delta**2: trstlp returns d = 0.
        ("large", base * 1e10, False),
    ]


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

    @pytest.mark.parametrize("path", ["in-repo", "scipy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected(self, monkeypatch, path, bad):
        # PRIMA would replace NaN and +inf by a large number and run on
        # -inf into NaN arithmetic, returning a meaningless point.
        if path == "scipy":
            monkeypatch.setattr(optimizer, "_unconstrained", lambda: None)
        calls = []

        def loss(x):
            calls.append(1)
            if len(calls) == 3:
                return np.array([bad])
            return float(((x - 0.3) ** 2).sum())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"{bad!r} on evaluation 3"):
                minimize_cobyla(loss, np.zeros(3), max_iterations=30)
        assert len(calls) == 3

    def test_multidimensional_start_rejected(self):
        with pytest.raises(SolverError, match=r"shape \(2, 2\)"):
            minimize_cobyla(lambda x: 0.0, np.zeros((2, 2)))

    def test_zero_dimensional_start_matches_scipy(self):
        # scipy reads a 0-d x0 as a 1-vector; so does minimize_cobyla.
        loss, scipy_points = self._objective("quadratic", 1)
        reference = sciopt.minimize(
            loss, np.array(0.3), method="COBYLA", options={"maxiter": 30, "rhobeg": 0.5}
        )
        loss, points = self._objective("quadratic", 1)
        best = minimize_cobyla(loss, np.array(0.3), max_iterations=30)
        assert best.shape == reference.x.shape == (1,)
        assert best.tobytes() == reference.x.tobytes()
        assert [p.shape for p in points] == [p.shape for p in scipy_points]
        assert [p.tobytes() for p in points] == [p.tobytes() for p in scipy_points]

    @staticmethod
    def _assert_trstlp_matches(g, delta):
        """The m = 0 kernel returns pyprima's ``trstlp`` step, byte for byte."""
        pytest.importorskip("scipy._lib.pyprima")
        from scipy._lib.pyprima.cobyla.trustregion import trstlp

        from repro.baselines.cobyla import _trstlp_unconstrained

        expected = trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g)
        d, fell_back = _trstlp_unconstrained(g, delta)
        assert d.tobytes() == expected.tobytes()
        return fell_back

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 40, 120, 130])
    def test_trstlp_kernel_matches_pyprima(self, n, scale):
        rng = np.random.default_rng([n, int(np.log10(scale)) + 10])
        for delta in (1e-4, 0.1, 0.5):
            self._assert_trstlp_matches(rng.normal(size=n) * scale, delta)

    @pytest.mark.parametrize(
        "g, falls_back",
        [pytest.param(g, fb, id=name) for name, g, fb in _trstlp_edge_cases()],
    )
    def test_trstlp_kernel_edge_input(self, g, falls_back):
        for delta in (1e-4, 0.5):
            assert self._assert_trstlp_matches(g, delta) is falls_back


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
