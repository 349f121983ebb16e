"""Exact-mode baseline scoring: support arrays, the penalty vector, and
the left-to-right reduction both scoring paths share."""

import dataclasses
import math

import numpy as np
import pytest

from repro import telemetry
from repro.baselines import ChocoQ, HardwareEfficientAnsatz, PenaltyQAOA
from repro.baselines import common
from repro.baselines.common import VariationalBaseline
from repro.engine import AnsatzSpec, ExecutionEngine
from repro.exceptions import SolverError
from repro.linalg.summation import left_to_right_sum
from repro.problems import make_benchmark
from repro.simulators.sparsestate import SparseState


def _dict_path_loss(baseline, parameters):
    """The training loss as the per-key path computes it."""
    return baseline.penalty_expectation(baseline.distribution(parameters))


@pytest.mark.parametrize("container", [iter, np.array], ids=["loop", "array"])
class TestLeftToRightSum:
    def test_order_on_tenths(self, container):
        # Python 3.12's compensated builtin sum gives 1.0 here.
        assert left_to_right_sum(container([0.1] * 10)) == 0.9999999999999999

    def test_differs_from_neumaier(self, container):
        terms = [1.0, 1e100, 1.0, -1e100]
        assert math.fsum(terms) == 2.0
        assert left_to_right_sum(container(terms)) == 0.0

    def test_matches_a_plain_loop(self, container):
        terms = np.random.default_rng(4).uniform(-1.0, 1.0, 257) * 0.1
        total = 0.0
        for term in terms.tolist():
            total += term
        assert left_to_right_sum(container(terms.tolist())) == total

    def test_empty_and_negative_zero_give_positive_zero(self, container):
        for terms in ([], [-0.0, -0.0]):
            total = left_to_right_sum(container(terms))
            assert type(total) is float
            assert total == 0.0 and math.copysign(1.0, total) == 1.0


class TestLeftToRightCallSites:
    """The Rasengan path's float reductions add in order on every Python.

    Each case has a left-to-right total that Python 3.12's compensated
    builtin ``sum`` would round differently.
    """

    def test_baselines_share_the_one_helper(self):
        assert common.left_to_right_sum is left_to_right_sum

    def test_sparse_state_norm(self):
        # Ten |0.1+0.2j|**2 terms: 0.5 in order, 0.5000000000000001
        # compensated.
        state = SparseState(4, {key: 0.1 + 0.2j for key in range(10)})
        assert math.fsum([abs(0.1 + 0.2j) ** 2] * 10) != 0.5
        assert state.norm() == math.sqrt(0.5)

    def test_problem_count_reductions(self):
        problem = make_benchmark("F1")
        entry = problem.key_entry
        keys = range(2**problem.num_variables)
        feasible = [key for key in keys if entry(key)[1] == 0][:3]
        infeasible = [key for key in keys if entry(key)[1] != 0][:7]
        # Ten 0.1 weights: 0.9999999999999999 in order, 1.0 compensated.
        counts = {key: 0.1 for key in feasible + infeasible}
        total = feasible_mass = score = 0.0
        for key, weight in counts.items():
            total += weight
            score += entry(key)[0] * weight
            if entry(key)[1] == 0:
                feasible_mass += weight
        assert total != math.fsum(counts.values())
        assert problem.in_constraints_rate(counts) == feasible_mass / total
        assert feasible_mass / total != feasible_mass / 1.0
        assert problem.expectation_from_counts(counts) == score / total
        assert score / total != score / 1.0


def _assert_same_result(result, other):
    for field in dataclasses.fields(result):
        mine, theirs = getattr(result, field.name), getattr(other, field.name)
        if isinstance(mine, np.ndarray):
            np.testing.assert_array_equal(mine, theirs, err_msg=field.name)
        else:
            assert mine == theirs, field.name


def _solve(cls, benchmark_id="F1", case=0, **kwargs):
    problem = make_benchmark(benchmark_id, case)
    baseline = cls(problem, max_iterations=30, seed=5, **kwargs)
    return problem, baseline.solve()


class TestScoringPaths:
    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (HardwareEfficientAnsatz, {}),
            (PenaltyQAOA, {}),
            (PenaltyQAOA, {"frozen_qubits": 1}),
            (ChocoQ, {}),
        ],
        ids=["hea", "pqaoa", "pqaoa-frozen1", "chocoq"],
    )
    def test_result_equals_the_dict_path(self, monkeypatch, cls, kwargs):
        problem, default = _solve(cls, "K1", 2, shots=None, **kwargs)
        assert problem._penalty_vectors
        monkeypatch.setattr(VariationalBaseline, "loss", _dict_path_loss)
        reference, forced = _solve(cls, "K1", 2, shots=None, **kwargs)
        assert not reference._penalty_vectors
        _assert_same_result(default, forced)
        # The vector is filled on demand: only the keys the dict path
        # scores get scored (a frozen qubit halves them).
        assert sorted(problem._key_table) == sorted(reference._key_table)

    @pytest.mark.parametrize(
        "kwargs", [{"shots": 1024}, {"shots": None, "backend": "ideal"}]
    )
    def test_sampled_and_backend_runs_build_no_penalty_vector(self, kwargs):
        problem, result = _solve(HardwareEfficientAnsatz, layers=1, **kwargs)
        assert result.iterations > 0
        assert problem._penalty_vectors == {}

    def test_hea_counters_unchanged(self, monkeypatch):
        counts = []
        for dict_path in (False, True):
            if dict_path:
                monkeypatch.setattr(VariationalBaseline, "loss", _dict_path_loss)
            with telemetry.session() as collector:
                HardwareEfficientAnsatz(
                    make_benchmark("F1", 0), shots=None, max_iterations=40, seed=1
                ).solve()
            counters = collector.snapshot_counters()
            counts.append(
                [
                    counters["engine.executions"],
                    counters["circuits.executed"],
                    counters["optimizer.iterations"],
                ]
            )
        # 72 parameters floor the budget at 74 evaluations, plus the
        # final distribution.
        assert counts == [[75, 75, 74], [75, 75, 74]]


class TestPenaltyValues:
    def test_scores_only_the_keys_asked_for(self):
        problem = make_benchmark("K1", 1)
        expected = lambda keys: [problem.key_penalty_value(k, 10.0) for k in keys]
        keys = np.array([5, 1, 40])
        assert problem.penalty_values(keys, 10.0).tolist() == expected([5, 1, 40])
        vector = problem._penalty_vectors[10.0]
        assert np.flatnonzero(~np.isnan(vector)).tolist() == [1, 5, 40]
        assert sorted(problem._key_table) == [1, 5, 40]
        every = np.arange(1 << problem.num_variables)
        assert problem.penalty_values(every, 10.0).tolist() == expected(every.tolist())
        assert problem._penalty_vectors[10.0] is vector
        assert not np.isnan(vector).any()
        assert list(problem._penalty_vectors) == [10.0]


class TestExactSupport:
    def _spec(self):
        state = np.random.default_rng(2).normal(size=32).astype(np.complex128)
        state[[3, 17]] = 0.0
        state /= np.linalg.norm(state)
        return AnsatzSpec(0, build=None, statevector=lambda _: state)

    def test_arrays_are_the_exact_distribution_items(self):
        spec = self._spec()
        support, probabilities = ExecutionEngine().exact_support(spec, [])
        distribution = ExecutionEngine().sample_ansatz(spec, [], None)
        assert support.tolist() == list(distribution)
        assert probabilities.tolist() == list(distribution.values())
        assert 3 not in distribution and 17 not in distribution

    def test_counts_one_execution(self):
        with telemetry.session() as collector:
            ExecutionEngine().exact_support(self._spec(), [])
        counters = collector.snapshot_counters()
        assert counters["engine.executions"] == 1
        assert counters["circuits.executed"] == 1

    def test_refused_with_a_backend(self):
        with pytest.raises(SolverError):
            ExecutionEngine("ideal", seed=0).exact_support(self._spec(), [])
