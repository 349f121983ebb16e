"""HEA's wide initial simplex: the closed-form inverse and the prefix memo."""

import itertools
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.hea import HardwareEfficientAnsatz
from repro.baselines.simplex import initial_simplex_inverse
from repro.experiments.runner import run_algorithm
from repro.problems import make_benchmark


def _initial_simplex(swapped, rhobeg):
    basis = np.eye(len(swapped)) * rhobeg
    for j, swap in enumerate(swapped):
        if swap:
            basis[j, : j + 1] = -rhobeg
    return basis


class TestInitialSimplexInverse:
    @pytest.mark.parametrize("rhobeg", [0.5, 0.4, 0.3])
    def test_matches_inv_bitwise_on_every_small_pattern(self, rhobeg):
        for n in range(1, 9):
            for swapped in itertools.product((False, True), repeat=n):
                basis = _initial_simplex(swapped, rhobeg)
                closed = initial_simplex_inverse(basis, rhobeg)
                # tobytes tells -0.0 from 0.0.
                assert closed.tobytes() == np.linalg.inv(basis).tobytes(), swapped

    def test_failed_guard_returns_inv_bits(self):
        rhobeg = 0.41
        assert rhobeg * (1.0 / rhobeg) != 1.0
        basis = _initial_simplex((False, True), rhobeg)
        expected = np.linalg.inv(basis)
        assert initial_simplex_inverse(basis, rhobeg).tobytes() == expected.tobytes()
        # The closed form would be 1 ulp off here.
        closed = np.array([[1.0, 0.0], [1.0, 1.0]]) / basis.diagonal()[:, None]
        assert closed.tobytes() != expected.tobytes()


@pytest.fixture(scope="module")
def hea_job():
    """A seeded Table-2 HEA job on F2, with its ``inv`` calls counted."""
    calls = []
    inv = np.linalg.inv

    def counting_inv(matrix):
        calls.append(matrix.shape)
        return inv(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "inv", counting_inv)
        with telemetry.session() as collector:
            run = run_algorithm(
                "hea", make_benchmark("F2", 1000), seed=3, max_iterations=60
            )
    return run, calls, collector.snapshot_counters()


class TestHeaJob:
    def test_calls_inv_zero_times(self, hea_job):
        run, calls, _ = hea_job
        assert run.num_parameters == 120
        assert calls == []

    def test_prefix_memo_skips_layers(self, hea_job):
        _, _, counters = hea_job
        evaluations = counters["optimizer.evaluations"]
        assert evaluations == 122
        assert 0 < counters["baselines.layers_applied"] < 6 * evaluations

    def test_counters_pinned(self):
        with telemetry.session() as collector:
            HardwareEfficientAnsatz(
                make_benchmark("F1", 0), shots=None, max_iterations=40, seed=1
            ).solve()
        counters = collector.snapshot_counters()
        assert [
            counters["engine.executions"],
            counters["circuits.executed"],
            counters["optimizer.iterations"],
        ] == [75, 75, 74]


class TestPrefixMemo:
    def _pair(self, layers=5):
        problem = make_benchmark("F1", 0)
        reused = HardwareEfficientAnsatz(problem, layers=layers, shots=None)
        x = np.random.default_rng(0).uniform(-1, 1, reused.num_parameters)
        return problem, reused, x

    @pytest.mark.parametrize("layers", [0, 1, 5])
    def test_mutating_a_returned_state_changes_nothing(self, layers):
        problem, reused, x = self._pair(layers)
        first = reused.simulate(x)
        first[:] = np.nan
        y = x.copy()
        y[-1] += 0.5
        for parameters in (x, y, y):
            state = reused.simulate(parameters)
            fresh = HardwareEfficientAnsatz(problem, layers=layers, shots=None)
            assert state.tobytes() == fresh.simulate(parameters).tobytes()
            state[:] = np.nan

    def test_restarts_at_the_first_changed_row(self):
        _, reused, x = self._pair()
        width = reused.num_parameters // 6
        x[2 * width] = 0.0
        y = x.copy()
        y[2 * width] = -0.0
        applied = []
        with telemetry.session() as collector:
            for parameters in (x, y, y):
                before = collector.counter("baselines.layers_applied")
                reused.simulate(parameters)
                applied.append(collector.counter("baselines.layers_applied") - before)
        # -0.0 differs from 0.0 in row 2; a repeat recomputes the last row.
        assert applied == [6, 4, 1]

    def test_memo_is_not_pickled(self):
        _, reused, x = self._pair()
        expected = reused.simulate(x)
        assert reused._prefix is not None
        clone = pickle.loads(pickle.dumps(reused))
        assert clone._prefix is None
        assert clone.simulate(x).tobytes() == expected.tobytes()
