"""Dense statevector simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.circuits.gates import single_qubit_matrix
from repro.simulators.statevector import (
    StatevectorSimulator,
    apply_controlled,
    apply_product_layer,
    apply_single_qubit,
    cx_ladder_permutation,
    simulate_statevector,
)


def _random_state(rng, n):
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


def _random_unitaries(rng, n):
    raw = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return np.stack([np.linalg.qr(matrix)[0] for matrix in raw])


class TestBasics:
    def test_initial_state_default(self):
        qc = QuantumCircuit(2)
        state = simulate_statevector(qc)
        np.testing.assert_allclose(state, [1, 0, 0, 0])

    def test_initial_bits(self):
        qc = QuantumCircuit(3)
        state = simulate_statevector(qc, initial_bits=[1, 0, 1])
        assert state[0b101] == 1.0

    def test_both_initials_rejected(self):
        sim = StatevectorSimulator()
        qc = QuantumCircuit(1)
        with pytest.raises(SimulationError):
            sim.run(qc, initial_state=np.array([1, 0]), initial_bits=[0])

    def test_wrong_initial_shape(self):
        sim = StatevectorSimulator()
        with pytest.raises(SimulationError):
            sim.run(QuantumCircuit(2), initial_state=np.ones(3))

    def test_reset_rejected(self):
        qc = QuantumCircuit(1)
        qc.reset(0)
        with pytest.raises(SimulationError):
            simulate_statevector(qc)

    def test_measure_is_noop(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure_all()
        state = simulate_statevector(qc)
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0.5])


class TestCanonicalStates:
    def test_bell_state(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        state = simulate_statevector(qc)
        expected = np.zeros(4, dtype=complex)
        expected[0b00] = expected[0b11] = 1 / math.sqrt(2)
        np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_ghz_state(self):
        qc = QuantumCircuit(4)
        qc.h(0)
        for q in range(3):
            qc.cx(q, q + 1)
        probabilities = StatevectorSimulator().probabilities(qc)
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[15] == pytest.approx(0.5)

    def test_x_flips(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        state = simulate_statevector(qc)
        assert state[0b10] == 1.0


class TestGateAlgebra:
    @given(theta=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_rx_inverse(self, theta):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.rx(theta, 0)
        qc.rx(-theta, 0)
        state = simulate_statevector(qc)
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0.5], atol=1e-10)

    def test_hzh_equals_x(self):
        a = QuantumCircuit(1)
        a.h(0); a.z(0); a.h(0)
        b = QuantumCircuit(1)
        b.x(0)
        np.testing.assert_allclose(
            simulate_statevector(a), simulate_statevector(b), atol=1e-12
        )

    def test_cx_self_inverse(self):
        qc = QuantumCircuit(2)
        qc.h(0); qc.h(1)
        qc.cx(0, 1); qc.cx(0, 1)
        state = simulate_statevector(qc)
        np.testing.assert_allclose(np.abs(state) ** 2, np.full(4, 0.25), atol=1e-12)

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(7)
        qc = QuantumCircuit(4)
        for _ in range(30):
            kind = rng.integers(0, 4)
            if kind == 0:
                qc.rx(rng.uniform(-3, 3), int(rng.integers(0, 4)))
            elif kind == 1:
                qc.h(int(rng.integers(0, 4)))
            elif kind == 2:
                a, b = rng.choice(4, size=2, replace=False)
                qc.cx(int(a), int(b))
            else:
                qc.mcp(rng.uniform(-3, 3), [0, 1], 3)
        state = simulate_statevector(qc)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_swap_matches_three_cx(self):
        a = QuantumCircuit(2)
        a.h(0); a.rx(0.3, 1)
        a.swap(0, 1)
        b = QuantumCircuit(2)
        b.h(0); b.rx(0.3, 1)
        b.cx(0, 1); b.cx(1, 0); b.cx(0, 1)
        np.testing.assert_allclose(
            simulate_statevector(a), simulate_statevector(b), atol=1e-12
        )


class TestControlledPatterns:
    def test_zero_control_fires_on_zero(self):
        qc = QuantumCircuit(2)
        qc.mcx([0], 1, ctrl_state=(0,))
        state = simulate_statevector(qc)  # input |00>
        assert state[0b10] == 1.0

    def test_pattern_multi(self):
        qc = QuantumCircuit(3)
        qc.x(0)  # state |001> (q0=1)
        qc.mcx([0, 1], 2, ctrl_state=(1, 0))
        state = simulate_statevector(qc)
        assert abs(state[0b101]) == pytest.approx(1.0)


class TestWholeLayerKernels:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_product_layer_matches_sequential_gates(self, n):
        rng = np.random.default_rng(n)
        state = _random_state(rng, n)
        matrices = _random_unitaries(rng, n)
        expected = state.copy()
        for qubit in range(n):
            apply_single_qubit(expected, matrices[qubit], qubit, n)
        original = state.copy()
        result = apply_product_layer(state, matrices, n)
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)
        assert np.array_equal(state, original)

    def test_product_layer_rejects_wrong_matrix_count(self):
        with pytest.raises(SimulationError):
            apply_product_layer(np.ones(8, dtype=complex), np.zeros((2, 2, 2)), 3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cx_ladder_permutation_matches_gate_chain(self, n):
        state = _random_state(np.random.default_rng(100 + n), n)
        expected = state.copy()
        cx = single_qubit_matrix("x")
        for qubit in range(n - 1):
            apply_controlled(expected, cx, (qubit,), (1,), qubit + 1, n)
        permuted = state[cx_ladder_permutation(n)]
        assert np.array_equal(np.abs(permuted) ** 2, np.abs(expected) ** 2)
        assert np.array_equal(permuted, expected)

    def test_cx_ladder_permutation_cached_and_read_only(self):
        perm = cx_ladder_permutation(6)
        assert cx_ladder_permutation(6) is perm
        assert not perm.flags.writeable
