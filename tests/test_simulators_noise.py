"""Noise channels: CPTP validity and trajectory-vs-exact agreement."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulators.density import DensityMatrixSimulator
from repro.simulators.noise import (
    PAULIS,
    KrausChannel,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    draw_weighted,
    pauli_channel,
    phase_damping,
)

_I, _X = PAULIS["I"], PAULIS["X"]


class TestChannelValidity:
    @pytest.mark.parametrize(
        "factory,arg",
        [
            (depolarizing, 0.1),
            (amplitude_damping, 0.3),
            (phase_damping, 0.2),
            (bit_flip, 0.25),
        ],
    )
    def test_trace_preserving(self, factory, arg):
        channel = factory(arg)
        total = sum(op.conj().T @ op for op in channel.operators)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_pauli_channel(self):
        channel = pauli_channel(0.1, 0.05, 0.02)
        probabilities, unitaries = channel.unitary_mixture
        assert sum(probabilities) == pytest.approx(1.0)
        # Each draw lands where rng.choice lands on a twin stream, and
        # takes the one uniform it takes; the identity comes back as None.
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2000):
            index = theirs.choice(len(probabilities), p=probabilities)
            expected = None if index == 0 else unitaries[index]
            assert channel.draw_unitary(ours) is expected
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "probabilities",
        [
            (0.5, 0.6),
            (-0.1, 1.1),
            (float("nan"), 1.0),
            (float("inf"), 0.0),
            (1.0,),
            (0.5, 0.25, 0.25),
        ],
    )
    def test_bad_mixture_rejected_at_construction(self, probabilities):
        # These used to be accepted and fail at the first draw with
        # NumPy's ValueError (or draw from the wrong support).
        with pytest.raises(SimulationError, match="mixture probabilities"):
            KrausChannel("bad", (PAULIS["I"],), (probabilities, (_I, _X)))

    def test_mixture_sum_within_sqrt_eps_accepted(self):
        # Generator.choice accepts a sum within sqrt(eps) of 1.
        KrausChannel("near", (PAULIS["I"],), ((0.5, 0.5 + 1e-9), (_I, _X)))

    def test_pauli_channel_overflow_rejected(self):
        with pytest.raises(SimulationError):
            pauli_channel(0.5, 0.4, 0.3)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_probability_range(self, bad):
        with pytest.raises(SimulationError):
            depolarizing(bad)

    def test_unitary_mixture_flags(self):
        assert depolarizing(0.1).is_unitary_mixture
        assert not amplitude_damping(0.1).is_unitary_mixture
        # Drawing the identity applies nothing; an error draws its Pauli.
        rng = np.random.default_rng(0)
        assert bit_flip(0.0).draw_unitary(rng) is None
        np.testing.assert_array_equal(bit_flip(1.0).draw_unitary(rng), _X)


class TestWeightedDraw:
    def test_matches_choice_on_normalized_weights(self):
        weights = [0.3, 0.0, 0.45, 0.25]
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2000):
            expected = theirs.choice(4, p=[w / sum(weights) for w in weights])
            assert draw_weighted(weights, ours) == expected

    @pytest.mark.parametrize(
        "weights,message",
        [
            ([0.0, 0.0], "zero norm"),
            ([float("nan"), 0.5], "non-finite weight"),
            ([float("inf"), 0.5], "non-finite weight"),
        ],
    )
    def test_degenerate_weights_refused(self, weights, message):
        with pytest.raises(SimulationError, match=message):
            draw_weighted(weights, np.random.default_rng(0))


class TestNoiseModel:
    def test_from_error_rates_composition(self):
        model = NoiseModel.from_error_rates(
            single_qubit_error=0.001,
            two_qubit_error=0.01,
            amplitude_damping_prob=0.002,
            readout_error=0.01,
        )
        assert len(model.single_qubit) == 2  # depolarizing + damping
        assert len(model.two_qubit) == 2
        assert model.has_readout_error

    def test_channels_for_width(self):
        model = NoiseModel.from_error_rates(
            single_qubit_error=0.001, two_qubit_error=0.01
        )
        assert model.channels_for(1) is model.single_qubit
        assert model.channels_for(2) is model.two_qubit
        assert model.channels_for(3) is model.two_qubit

    def test_empty_model(self):
        model = NoiseModel.from_error_rates()
        assert not model.single_qubit
        assert not model.has_readout_error


class TestExactChannelSemantics:
    def test_amplitude_damping_decays_excited_population(self):
        gamma = 0.4
        model = NoiseModel(single_qubit=[amplitude_damping(gamma)])
        sim = DensityMatrixSimulator(model)
        qc = QuantumCircuit(1)
        qc.x(0)  # prepare |1>, then the channel fires after the gate
        probabilities = sim.probabilities(qc)
        assert probabilities[1] == pytest.approx(1 - gamma)
        assert probabilities[0] == pytest.approx(gamma)

    def test_depolarizing_mixes_populations(self):
        p = 0.3
        model = NoiseModel(single_qubit=[depolarizing(p)])
        sim = DensityMatrixSimulator(model)
        qc = QuantumCircuit(1)
        qc.x(0)
        probabilities = sim.probabilities(qc)
        # X or Y error (each p/3) flips back to |0>.
        assert probabilities[0] == pytest.approx(2 * p / 3)

    def test_phase_damping_kills_coherence_not_populations(self):
        model = NoiseModel(single_qubit=[phase_damping(0.5)])
        sim = DensityMatrixSimulator(model)
        qc = QuantumCircuit(1)
        qc.h(0)
        rho = sim.run(qc)
        assert rho[0, 0].real == pytest.approx(0.5)
        # Coherence scaled by sqrt(1 - lambda); populations untouched.
        assert abs(rho[0, 1]) == pytest.approx(0.5 * np.sqrt(0.5))

    def test_bit_flip_statistics(self):
        p = 0.2
        model = NoiseModel(single_qubit=[bit_flip(p)])
        sim = DensityMatrixSimulator(model)
        qc = QuantumCircuit(1)
        qc.x(0)
        probabilities = sim.probabilities(qc)
        assert probabilities[0] == pytest.approx(p)
