"""Purification-based error mitigation (Section 4.3)."""

import math

import numpy as np
import pytest

from repro.core.purification import purify_counts, purify_probabilities
from repro.exceptions import NoFeasibleStateError
from repro.linalg.bitvec import bits_to_int, int_to_bits
from repro.problems.base import ConstrainedBinaryProblem


class _PaperSystem(ConstrainedBinaryProblem):
    """The Figure 1(a) constraints with a zero objective."""

    def objective(self, x):
        return 0.0


@pytest.fixture
def system(paper_constraints):
    matrix, bound, _ = paper_constraints
    return _PaperSystem("paper", matrix, bound)


class TestPurifyCounts:
    def test_removes_infeasible(self, system):
        feasible_key = bits_to_int([0, 0, 0, 1, 0])
        infeasible_key = bits_to_int([1, 1, 1, 1, 1])
        counts = {feasible_key: 60, infeasible_key: 40}
        purified, rate = purify_counts(counts, system)
        assert purified == {feasible_key: 60}
        assert rate == pytest.approx(0.6)

    def test_figure8_rate(self, system):
        # Figure 8: 20 of 100 shots removed -> rate 0.8 and the surviving
        # state's share of the next segment is 60/80.
        good = bits_to_int([0, 0, 0, 1, 0])
        good2 = bits_to_int([1, 0, 1, 0, 0])
        bad = bits_to_int([1, 1, 1, 1, 1])
        counts = {good: 60, good2: 20, bad: 20}
        purified, rate = purify_counts(counts, system)
        assert rate == pytest.approx(0.8)
        share = purified[good] / sum(purified.values())
        assert share == pytest.approx(60 / 80)

    def test_all_feasible_untouched(self, system):
        key = bits_to_int([0, 0, 0, 1, 0])
        purified, rate = purify_counts({key: 10}, system)
        assert purified == {key: 10}
        assert rate == 1.0

    def test_all_infeasible_raises(self, system):
        with pytest.raises(NoFeasibleStateError):
            purify_counts({bits_to_int([1, 1, 1, 1, 1]): 5}, system)

    def test_empty_counts_raise(self, system):
        with pytest.raises(NoFeasibleStateError):
            purify_counts({}, system)


class TestPurifyProbabilities:
    def test_renormalises(self, system):
        good = bits_to_int([0, 0, 0, 1, 0])
        bad = bits_to_int([1, 1, 1, 1, 1])
        purified, mass = purify_probabilities({good: 0.5, bad: 0.5}, system)
        assert purified[good] == pytest.approx(1.0)
        assert mass == pytest.approx(0.5)

    def test_zero_mass_raises(self, system):
        with pytest.raises(NoFeasibleStateError):
            purify_probabilities({bits_to_int([1, 1, 0, 0, 0]): 1.0}, system)

    def test_preserves_relative_weights(self, system):
        a = bits_to_int([0, 0, 0, 1, 0])
        b = bits_to_int([1, 0, 1, 0, 0])
        bad = bits_to_int([1, 1, 1, 1, 1])
        purified, _ = purify_probabilities(
            {a: 0.3, b: 0.1, bad: 0.6}, system
        )
        assert purified[a] / purified[b] == pytest.approx(3.0)

    def test_empty_distribution_raises(self, system):
        with pytest.raises(NoFeasibleStateError):
            purify_probabilities({}, system)

    def test_all_infeasible_raises(self, system):
        distribution = {
            bits_to_int([1, 1, 1, 1, 1]): 0.7,
            bits_to_int([1, 1, 0, 0, 0]): 0.3,
        }
        with pytest.raises(NoFeasibleStateError):
            purify_probabilities(distribution, system)

    def test_underflow_mass_renormalises(self, system):
        # Deep noisy chains can shrink every feasible amplitude to the
        # denormal range; the fsum-based renormalisation must still return
        # a unit-mass distribution instead of dividing by 0 or drifting.
        a = bits_to_int([0, 0, 0, 1, 0])
        b = bits_to_int([1, 0, 1, 0, 0])
        bad = bits_to_int([1, 1, 1, 1, 1])
        distribution = {a: 3e-300, b: 1e-300, bad: 1.0}
        purified, mass = purify_probabilities(distribution, system)
        assert mass > 0
        assert sum(purified.values()) == pytest.approx(1.0)
        assert purified[a] / purified[b] == pytest.approx(3.0)

    def test_many_tiny_contributions_sum_stably(self, system):
        a = bits_to_int([0, 0, 0, 1, 0])
        b = bits_to_int([1, 0, 1, 0, 0])
        # One dominant state plus a tiny one: naive accumulation order can
        # lose the tiny term entirely; fsum keeps the ratio exact.
        distribution = {a: 1.0, b: 1e-17}
        purified, mass = purify_probabilities(distribution, system)
        assert mass == pytest.approx(1.0)
        assert b in purified
        assert sum(purified.values()) == pytest.approx(1.0)


def _pre_table_purify(probabilities, matrix, bound):
    """The per-key matmul purification the key table replaced."""
    n = matrix.shape[1]
    feasible = {}
    for key, probability in probabilities.items():
        bits = int_to_bits(key, n).astype(np.int64)
        if np.array_equal(matrix @ bits, bound):
            feasible[key] = probability
    mass = math.fsum(feasible.values())
    return {key: p / mass for key, p in feasible.items()}, mass


class TestTableBackedPurification:
    def test_mixed_distribution_matches_pre_table_routine_bitwise(self, system):
        rng = np.random.default_rng(11)
        weights = rng.uniform(size=1 << 5)
        distribution = {
            key: float(weight / weights.sum())
            for key, weight in zip(rng.permutation(1 << 5).tolist(), weights)
        }
        expected, expected_mass = _pre_table_purify(
            distribution, system.constraint_matrix, system.bound
        )
        assert len(expected) < len(distribution)  # really mixed
        for _ in range(2):  # cold table, then warm table
            purified, mass = purify_probabilities(distribution, system)
            assert mass == expected_mass
            assert list(purified.items()) == list(expected.items())
