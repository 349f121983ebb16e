"""Shot-based backends: sampling, trajectories, fake devices."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.backends import (
    IdealBackend,
    NoisyTrajectoryBackend,
    fake_brisbane,
    fake_kyiv,
)
from repro.exceptions import SimulationError
from repro.simulators.density import DensityMatrixSimulator
from repro.simulators.noise import NoiseModel, depolarizing
from repro.simulators.sampling import (
    apply_readout_error,
    counts_from_probabilities,
    probabilities_from_counts,
)


class TestSampling:
    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(0)
        counts = counts_from_probabilities(np.array([0.5, 0.5]), 100, rng)
        assert sum(counts.values()) == 100

    def test_sparse_mapping_input(self):
        rng = np.random.default_rng(0)
        counts = counts_from_probabilities({3: 0.7, 9: 0.3}, 1000, rng)
        assert set(counts) <= {3, 9}
        assert counts[3] > counts[9]

    def test_zero_shots(self):
        rng = np.random.default_rng(0)
        assert counts_from_probabilities(np.array([1.0]), 0, rng) == {}

    def test_zero_mass_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            counts_from_probabilities(np.array([0.0, 0.0]), 10, rng)

    def test_all_negative_mass_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            counts_from_probabilities(np.array([-0.4, -0.6]), 10, rng)

    def test_nan_mass_rejected_instead_of_propagating(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            counts_from_probabilities(np.array([np.nan, 0.5]), 10, rng)

    def test_tiny_negative_entries_are_clamped(self):
        rng = np.random.default_rng(0)
        counts = counts_from_probabilities(
            np.array([0.5, -1e-17, 0.5]), 1000, rng
        )
        assert 1 not in counts
        assert sum(counts.values()) == 1000

    @staticmethod
    def _reference_counts(probabilities, shots, rng):
        """The clip/sum/isfinite formulation the fast path replaced."""
        if isinstance(probabilities, dict):
            keys = np.fromiter(probabilities.keys(), dtype=np.int64)
            probs = np.fromiter(probabilities.values(), dtype=np.float64)
        else:
            probs = np.asarray(probabilities, dtype=np.float64)
            keys = np.arange(probs.shape[0], dtype=np.int64)
        probs = probs.clip(min=0.0)
        total = probs.sum()
        assert np.isfinite(total) and total > 0.0
        draws = rng.multinomial(shots, probs / total)
        return {int(k): int(c) for k, c in zip(keys, draws) if c}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_formulation_in_order(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random(64)
        dense[rng.random(64) < 0.5] = 0.0
        dense[3] = -1e-17
        keys = rng.choice(1 << 12, size=7, replace=False).tolist()
        sparse = dict(zip(keys, rng.random(7).tolist()))
        for probabilities in (dense, sparse):
            got = counts_from_probabilities(
                probabilities, 1024, np.random.default_rng(seed)
            )
            expected = self._reference_counts(
                probabilities, 1024, np.random.default_rng(seed)
            )
            assert list(got.items()) == list(expected.items())
            assert all(type(k) is int and type(c) is int for k, c in got.items())

    def test_mapping_nan_and_zero_mass_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            counts_from_probabilities({1: float("nan"), 2: 0.5}, 10, rng)
        with pytest.raises(SimulationError):
            counts_from_probabilities({1: 0.0, 2: -0.5}, 10, rng)

    def test_readout_error_flips(self):
        rng = np.random.default_rng(1)
        counts = apply_readout_error({0: 10000}, 1, p01=0.1, p10=0.0, rng=rng)
        flipped = counts.get(1, 0)
        assert 800 < flipped < 1200

    def test_readout_error_noop(self):
        counts = {5: 3}
        rng = np.random.default_rng(1)
        assert apply_readout_error(counts, 3, 0.0, 0.0, rng) == counts

    def test_probabilities_from_counts(self):
        assert probabilities_from_counts({0: 1, 1: 3}) == {0: 0.25, 1: 0.75}
        assert probabilities_from_counts({}) == {}


class TestIdealBackend:
    def test_bell_counts(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        backend = IdealBackend(seed=42)
        counts = backend.run(qc, 2000)
        assert set(counts) == {0b00, 0b11}
        assert abs(counts[0] - 1000) < 150

    def test_initial_bits(self):
        qc = QuantumCircuit(2)
        backend = IdealBackend(seed=0)
        counts = backend.run(qc, 10, initial_bits=[0, 1])
        assert counts == {0b10: 10}

    def test_not_noisy(self):
        assert not IdealBackend().is_noisy


class TestNoisyTrajectoryBackend:
    def test_matches_density_matrix_statistics(self):
        # A short circuit with depolarizing noise: trajectory sampling must
        # agree with exact channel evolution within sampling error.
        model = NoiseModel(
            single_qubit=[depolarizing(0.05)], two_qubit=[depolarizing(0.1)]
        )
        qc = QuantumCircuit(2)
        qc.x(0)
        qc.cx(0, 1)
        exact = DensityMatrixSimulator(model).probabilities(qc)
        backend = NoisyTrajectoryBackend(model, seed=7, max_trajectories=4000)
        counts = backend.run(qc, 4000)
        empirical = np.zeros(4)
        for key, count in counts.items():
            empirical[key] = count / 4000
        np.testing.assert_allclose(empirical, exact, atol=0.03)

    def test_amplitude_damping_trajectories(self):
        from repro.simulators.noise import amplitude_damping

        gamma = 0.3
        model = NoiseModel(single_qubit=[amplitude_damping(gamma)])
        qc = QuantumCircuit(1)
        qc.x(0)
        backend = NoisyTrajectoryBackend(model, seed=3, max_trajectories=3000)
        counts = backend.run(qc, 3000)
        decayed = counts.get(0, 0) / 3000
        assert abs(decayed - gamma) < 0.03

    def test_noise_degrades_deep_circuits_more(self):
        # The mechanism behind Figure 11: depth amplifies error.
        model = NoiseModel(two_qubit=[depolarizing(0.05)])
        shallow = QuantumCircuit(2)
        shallow.cx(0, 1)
        deep = QuantumCircuit(2)
        for _ in range(10):
            deep.cx(0, 1)
        backend = NoisyTrajectoryBackend(model, seed=5, max_trajectories=500)
        shallow_err = 1 - backend.run(shallow, 2000).get(0, 0) / 2000
        deep_err = 1 - backend.run(deep, 2000).get(0, 0) / 2000
        assert deep_err > shallow_err

    def test_zero_shots(self):
        model = NoiseModel()
        backend = NoisyTrajectoryBackend(model, seed=0)
        assert backend.run(QuantumCircuit(1), 0) == {}

    def test_is_noisy(self):
        assert NoisyTrajectoryBackend(NoiseModel()).is_noisy


class TestFakeDevices:
    def test_kyiv_noisier_than_brisbane(self):
        qc = QuantumCircuit(2)
        for _ in range(8):
            qc.cx(0, 1)
        kyiv_counts = fake_kyiv(seed=11, max_trajectories=400).run(qc, 3000)
        brisbane_counts = fake_brisbane(seed=11, max_trajectories=400).run(qc, 3000)
        kyiv_fidelity = kyiv_counts.get(0, 0) / 3000
        brisbane_fidelity = brisbane_counts.get(0, 0) / 3000
        assert brisbane_fidelity > kyiv_fidelity

    def test_names(self):
        assert fake_kyiv().name == "fake_kyiv"
        assert fake_brisbane().name == "fake_brisbane"
