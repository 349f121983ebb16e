"""Sparse amplitude-map simulator vs the dense reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.core.hamiltonian import TransitionHamiltonian
from repro.exceptions import SimulationError
from repro.simulators.sparsestate import SparseState
from repro.simulators.statevector import simulate_statevector


class TestConstruction:
    def test_default_is_zero_state(self):
        state = SparseState(3)
        assert state.support() == (0,)

    def test_from_bits(self):
        state = SparseState.from_bits([1, 0, 1])
        assert state.support() == (0b101,)

    def test_from_distribution(self):
        state = SparseState.from_distribution(2, {0: 0.25, 3: 0.75})
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.25)
        assert probs[3] == pytest.approx(0.75)

    def test_normalize_zero_state_fails(self):
        state = SparseState(1, {})
        with pytest.raises(SimulationError):
            state.normalize()


class TestGatesAgainstDense:
    def _compare(self, build):
        qc = QuantumCircuit(3)
        build(qc)
        dense = simulate_statevector(qc, initial_bits=[1, 0, 0])
        sparse = SparseState.from_bits([1, 0, 0])
        sparse.run(qc)
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-10)

    def test_x_cx(self):
        self._compare(lambda qc: (qc.x(1), qc.cx(0, 1), qc.cx(1, 2)))

    def test_phases(self):
        self._compare(lambda qc: (qc.p(0.3, 0), qc.rz(0.7, 1), qc.z(0), qc.s(0), qc.t(2)))

    def test_controlled_phases(self):
        self._compare(lambda qc: (qc.cp(0.5, 0, 1), qc.cz(0, 2), qc.mcp(0.2, [0, 1], 2)))

    def test_mcx_with_pattern(self):
        self._compare(lambda qc: qc.mcx([0, 1], 2, ctrl_state=(1, 0)))

    def test_mcrx(self):
        self._compare(lambda qc: qc.mcrx(1.1, [0], 1, ctrl_state=(1,)))

    def test_hadamard_supported_via_general_rule(self):
        state = SparseState.from_bits([0])
        qc = QuantumCircuit(1)
        qc.h(0)
        state.run(qc)
        assert state.support() == (0, 1)

    def test_unsupported_gate_rejected(self):
        state = SparseState.from_bits([0, 0])
        qc = QuantumCircuit(2)
        qc.swap(0, 1)
        with pytest.raises(SimulationError):
            state.run(qc)


class TestApplyTransition:
    def test_matches_evolution_matrix(self, paper_basis):
        u = paper_basis[1]
        hamiltonian = TransitionHamiltonian.from_vector(u)
        time = 0.37
        dense_op = hamiltonian.evolution_matrix(time)
        start = np.zeros(32, dtype=complex)
        start[0b01000] = 1.0  # x_p = (0,0,0,1,0)
        expected = dense_op @ start

        sparse = SparseState.from_bits([0, 0, 0, 1, 0])
        sparse.apply_transition(u, time)
        np.testing.assert_allclose(sparse.to_dense(), expected, atol=1e-10)

    def test_unmatched_state_untouched(self, paper_basis):
        # u1 = (-1,1,0,0,0) cannot act on x_p = (0,0,0,1,0).
        sparse = SparseState.from_bits([0, 0, 0, 1, 0])
        sparse.apply_transition(paper_basis[0], 0.9)
        assert sparse.support() == (0b01000,)

    @given(time=st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_norm_preserved(self, time):
        u = np.array([-1, 0, -1, 1, 0])
        sparse = SparseState.from_bits([0, 0, 0, 1, 0])
        sparse.apply_transition(u, time)
        assert sparse.norm() == pytest.approx(1.0, abs=1e-10)

    def test_equation_six_amplitudes(self):
        # exp(-iHt)|x_p> = cos t |x_p> - i sin t |x_g>  (paper, Eq. 6).
        u = np.array([-1, 0, -1, 1, 0])
        time = 0.81
        sparse = SparseState.from_bits([0, 0, 0, 1, 0])
        sparse.apply_transition(u, time)
        amplitudes = sparse.amplitudes
        x_p = 0b01000
        x_g = 0b00101  # x_p - u = (1,0,1,0,0)
        assert amplitudes[x_p] == pytest.approx(math.cos(time))
        assert amplitudes[x_g] == pytest.approx(-1j * math.sin(time))

    def test_wrong_length_rejected(self):
        sparse = SparseState.from_bits([0, 1])
        with pytest.raises(SimulationError):
            sparse.apply_transition(np.array([1, -1, 0]), 0.1)

    def test_matches_transition_circuit(self, paper_basis):
        from repro.core.transition import transition_circuit

        u = paper_basis[2]
        time = 1.234
        qc = transition_circuit(u, time, 5)
        dense = simulate_statevector(qc, initial_bits=[0, 0, 0, 1, 0])
        sparse = SparseState.from_bits([0, 0, 0, 1, 0])
        sparse.apply_transition(u, time)
        np.testing.assert_allclose(sparse.to_dense(), dense, atol=1e-10)


def _reference_transition(state, u, time):
    """The per-key formulation ``apply_move`` replaced, kept as an oracle."""
    from repro.linalg.moves import move_masks, partner_key_from_masks

    mask_plus, mask_minus = move_masks(np.asarray(u, dtype=np.int64))
    cos = math.cos(time)
    sin = math.sin(time)
    updated = {}
    for key, amp in state.amplitudes.items():
        partner = (
            partner_key_from_masks(key, mask_plus, mask_minus)
            if (mask_plus or mask_minus)
            else None
        )
        if partner is None:
            updated[key] = updated.get(key, 0.0) + amp
            continue
        updated[key] = updated.get(key, 0.0) + cos * amp
        updated[partner] = updated.get(partner, 0.0) - 1j * sin * amp
    state.amplitudes = updated
    state.prune()


class TestApplyMove:
    def _random_chain(self, rng, n):
        rows = rng.integers(-1, 2, size=(int(rng.integers(2, 5)), n))
        schedule = rng.integers(0, rows.shape[0], size=int(rng.integers(3, 9)))
        times = rng.uniform(-1.5, 1.5, size=schedule.size)
        return rows, schedule, times

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_key_reference_in_order(self, seed):
        from repro.linalg.moves import move_masks

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        rows, schedule, times = self._random_chain(rng, n)
        start = rng.random(4)
        keys = rng.choice(1 << n, size=4, replace=False).tolist()
        distribution = dict(zip(keys, (start / start.sum()).tolist()))
        by_move = SparseState.from_distribution(n, distribution)
        by_vector = SparseState.from_distribution(n, distribution)
        reference = SparseState.from_distribution(n, distribution)
        for index, time in zip(schedule, times):
            mask_plus, mask_minus = move_masks(rows[index])
            by_move.apply_move(mask_plus, mask_minus, time)
            by_vector.apply_transition(rows[index], time)
            _reference_transition(reference, rows[index], time)
        expected = list(reference.amplitudes.items())
        assert list(by_move.amplitudes.items()) == expected
        assert list(by_vector.amplitudes.items()) == expected

    def test_zero_move_is_identity(self):
        state = SparseState.from_distribution(3, {1: 0.25, 6: 0.75})
        before = dict(state.amplitudes)
        state.apply_move(0, 0, 0.9)
        assert state.amplitudes == before

    def test_from_distribution_owns_a_fresh_dict(self):
        distribution = {0: 0.5, 3: 0.5}
        state = SparseState.from_distribution(2, distribution)
        state.apply_move(0b11, 0, 0.3)
        assert distribution == {0: 0.5, 3: 0.5}
        assert set(state.amplitudes) == {0, 3}


class TestHousekeeping:
    def test_prune_drops_tiny_amplitudes(self):
        state = SparseState(2, {0: 1.0, 3: 1e-15})
        state.prune()
        assert state.support() == (0,)

    def test_prune_is_relative_to_norm(self):
        # Regression: prune used to apply the absolute threshold to
        # unnormalised amplitudes, silently deleting the *entire* state
        # once its norm drifted below the tolerance.  The cutoff is now
        # a fraction of the current norm, so a uniformly tiny state
        # keeps its (relatively large) components.
        state = SparseState(2, {0: 1e-8, 1: 1e-14})
        state.prune()
        assert state.support() == (0, 1)

    def test_prune_still_drops_relatively_tiny_amplitudes(self):
        state = SparseState(2, {0: 1e-8, 1: 1e-22})
        state.prune()
        assert state.support() == (0,)

    def test_prune_of_zero_state_empties_cleanly(self):
        state = SparseState(2, {0: 0.0, 3: 0.0})
        state.prune()
        assert state.support() == ()

    def test_transitions_survive_small_global_scale(self):
        # The same chain applied to a scaled-down state must keep the
        # same support: pruning decisions may not depend on the norm.
        u = np.array([1, -1, 0], dtype=np.int64)
        reference = SparseState.from_bits([0, 1, 0])
        scaled = SparseState(3, {0b010: 1e-13})
        for state in (reference, scaled):
            state.apply_transition(u, 0.7)
        assert scaled.support() == reference.support()

    def test_copy_independent(self):
        a = SparseState.from_bits([1, 0])
        b = a.copy()
        b.amplitudes[3] = 0.5
        assert 3 not in a.amplitudes
