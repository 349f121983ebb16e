"""ConstrainedBinaryProblem base behaviour."""

import numpy as np
import pytest

from repro.exceptions import ProblemError
from repro.linalg.bitvec import bits_to_int
from repro.problems.base import ConstrainedBinaryProblem


class _LinearToy(ConstrainedBinaryProblem):
    """min c.x  s.t.  x_0 + x_1 = 1 over 3 variables."""

    def __init__(self, sense="min"):
        matrix = np.array([[1, 1, 0]])
        bound = np.array([1])
        super().__init__("toy", matrix, bound, sense=sense)
        self.costs = np.array([2.0, 5.0, 1.0])

    def objective(self, x):
        return float(self.costs @ np.asarray(x, dtype=float))


class TestValidation:
    def test_bound_shape_checked(self):
        with pytest.raises(ProblemError):
            _Bad = type(
                "Bad",
                (ConstrainedBinaryProblem,),
                {"objective": lambda self, x: 0.0},
            )
            _Bad("bad", np.eye(2, dtype=int), np.array([1, 2, 3]))

    def test_sense_checked(self):
        with pytest.raises(ProblemError):
            _LinearToy(sense="maximize")

    def test_repr(self):
        assert "toy" in repr(_LinearToy())


class TestScoring:
    def test_value_min(self):
        toy = _LinearToy()
        assert toy.value([1, 0, 0]) == 2.0

    def test_value_max_negates(self):
        toy = _LinearToy(sense="max")
        assert toy.value([1, 0, 0]) == -2.0

    def test_penalty_value(self):
        toy = _LinearToy()
        # x = (1,1,0): violation |2-1| = 1.
        assert toy.penalty_value([1, 1, 0], 10.0) == pytest.approx(7.0 + 10.0)

    def test_feasibility(self):
        toy = _LinearToy()
        assert toy.is_feasible([1, 0, 0])
        assert not toy.is_feasible([1, 1, 0])
        assert toy.constraint_violation([0, 0, 1]) == 1


class TestFeasibleSpace:
    def test_enumeration(self):
        toy = _LinearToy()
        assert toy.num_feasible_solutions == 4  # 2 choices x 2 free values

    def test_optimum(self):
        toy = _LinearToy()
        assert toy.optimal_value == 2.0
        assert toy.value(toy.optimal_solution) == 2.0

    def test_mean_feasible_value(self):
        toy = _LinearToy()
        values = [toy.value(x) for x in toy.feasible_solutions]
        assert toy.mean_feasible_value() == pytest.approx(np.mean(values))

    def test_initial_feasible(self):
        toy = _LinearToy()
        assert toy.is_feasible(toy.initial_feasible_solution())

    def test_homogeneous_basis_in_nullspace(self):
        toy = _LinearToy()
        basis = toy.homogeneous_basis
        assert not (toy.constraint_matrix @ basis.T).any()

    def test_feasible_keys_sorted(self):
        toy = _LinearToy()
        keys = toy.feasible_keys()
        assert list(keys) == sorted(keys)
        assert keys == tuple(bits_to_int(x) for x in toy.feasible_solutions)


class TestDistributionHelpers:
    def test_expectation_raw(self):
        toy = _LinearToy()
        counts = {bits_to_int([1, 0, 0]): 1, bits_to_int([0, 1, 0]): 1}
        assert toy.expectation_from_counts(counts) == pytest.approx(3.5)

    def test_expectation_with_penalty(self):
        toy = _LinearToy()
        counts = {bits_to_int([1, 1, 0]): 1}
        assert toy.expectation_from_counts(counts, penalty=100.0) == pytest.approx(107.0)

    def test_expectation_empty_rejected(self):
        with pytest.raises(ProblemError):
            _LinearToy().expectation_from_counts({})

    def test_in_constraints_rate(self):
        toy = _LinearToy()
        counts = {
            bits_to_int([1, 0, 0]): 3,
            bits_to_int([1, 1, 0]): 1,
        }
        assert toy.in_constraints_rate(counts) == pytest.approx(0.75)

    def test_in_constraints_rate_empty(self):
        assert _LinearToy().in_constraints_rate({}) == 0.0


class TestKeyTable:
    def test_repeated_key_is_served_from_the_table(self, monkeypatch):
        toy = _LinearToy()
        calls = {"is_feasible": 0, "value": 0, "constraint_violation": 0}
        for name in calls:
            original = getattr(_LinearToy, name)

            def counted(self, x, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(_LinearToy, name, counted)
        key = bits_to_int([1, 0, 0])
        first = toy.key_entry(key)
        after_first = dict(calls)
        for _ in range(3):
            assert toy.key_entry(key) == first
            toy.key_penalty_value(key, 10.0)
        toy.expectation_from_counts({key: 2})
        toy.in_constraints_rate({key: 2})
        assert calls == after_first
        assert calls["is_feasible"] == 0
        assert calls["value"] == 1

    def test_feasible_and_infeasible_keys(self):
        toy = _LinearToy()
        assert toy.key_entry(bits_to_int([0, 1, 1])) == (6.0, 0)
        # x = (1,1,0) violates x_0 + x_1 = 1 by 1.
        assert toy.key_entry(bits_to_int([1, 1, 0])) == (7.0, 1)
        assert toy.key_penalty_value(bits_to_int([1, 1, 0]), 10.0) == 17.0
        assert toy.key_entry(bits_to_int([0, 0, 1]))[1] == 1

    def test_table_does_not_change_the_fingerprint(self, small_flp):
        from repro.problems.io import problem_fingerprint

        before = problem_fingerprint(small_flp)
        for key in range(16):
            small_flp.key_entry(key)
        assert problem_fingerprint(small_flp) == before
