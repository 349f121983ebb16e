"""Density-matrix simulator: agreement with pure-state evolution."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.simulators.density import DensityMatrixSimulator
from repro.simulators.statevector import simulate_statevector


def _rho_from_state(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj())


class TestNoiselessAgreement:
    def _compare(self, build, n, initial=None):
        qc = QuantumCircuit(n)
        build(qc)
        state = simulate_statevector(qc, initial_bits=initial)
        rho = DensityMatrixSimulator().run(qc, initial_bits=initial)
        np.testing.assert_allclose(rho, _rho_from_state(state), atol=1e-10)

    def test_bell(self):
        self._compare(lambda qc: (qc.h(0), qc.cx(0, 1)), 2)

    def test_rotations(self):
        self._compare(lambda qc: (qc.rx(0.4, 0), qc.ry(0.6, 1), qc.rz(0.2, 0)), 2)

    def test_multi_controlled(self):
        self._compare(
            lambda qc: (qc.h(0), qc.h(1), qc.mcrx(0.8, [0, 1], 2, ctrl_state=(1, 0))),
            3,
        )

    def test_swap(self):
        self._compare(lambda qc: (qc.rx(0.5, 0), qc.swap(0, 1)), 2, initial=[1, 0])

    def test_initial_bits(self):
        self._compare(lambda qc: qc.cx(0, 1), 2, initial=[1, 0])


class TestProperties:
    def test_trace_preserved_with_noise(self):
        from repro.simulators.noise import NoiseModel, amplitude_damping, depolarizing

        model = NoiseModel(
            single_qubit=[depolarizing(0.05), amplitude_damping(0.02)],
            two_qubit=[depolarizing(0.1)],
        )
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        qc.rx(0.3, 1)
        rho = DensityMatrixSimulator(model).run(qc)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        # Hermitian and PSD.
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() > -1e-10

    def test_qubit_limit(self):
        with pytest.raises(SimulationError):
            DensityMatrixSimulator().run(QuantumCircuit(11))

    def test_probabilities_clip(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        probabilities = DensityMatrixSimulator().probabilities(qc)
        assert probabilities.min() >= 0
        assert probabilities.sum() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The shared sandwich kernel against the loop it replaced
# ----------------------------------------------------------------------
def _reference_run(circuit, noise_model, initial_bits):
    """A literal copy of the per-column/per-row loop that
    ``DensityMatrixSimulator.run`` used before it shared the statevector
    kernels: its own swap permutation and its own Kraus sandwich."""
    from repro.circuits.gates import gate_category, single_qubit_matrix
    from repro.linalg.bitvec import bits_to_int
    from repro.simulators.statevector import apply_controlled, apply_single_qubit

    def _apply_vec(vec, instr, n, conjugate):
        if instr.name == "swap":
            a, b = instr.qubits
            indices = np.arange(vec.shape[0])
            swapped = indices ^ (((indices >> a) & 1) != ((indices >> b) & 1)) * (
                (1 << a) | (1 << b)
            )
            vec[:] = vec[swapped]
            return
        base = single_qubit_matrix(instr.base_name, instr.params)
        if conjugate:
            base = base.conj()
        if instr.num_controls == 0:
            apply_single_qubit(vec, base, instr.qubits[0], n)
        else:
            apply_controlled(
                vec, base, instr.controls, instr.control_pattern, instr.target, n
            )

    def _unitary_on_rho(rho, instr, n):
        dim = rho.shape[0]
        out = np.empty_like(rho)
        for col in range(dim):
            vec = rho[:, col].copy()
            _apply_vec(vec, instr, n, conjugate=False)
            out[:, col] = vec
        result = np.empty_like(out)
        for row in range(dim):
            vec = out[row, :].copy()
            _apply_vec(vec, instr, n, conjugate=True)
            result[row, :] = vec
        return result

    def apply_channel(rho, channel, qubit, n):
        dim = rho.shape[0]
        result = np.zeros_like(rho)
        for op in channel.operators:
            term = np.empty_like(rho)
            for col in range(dim):
                vec = rho[:, col].copy()
                apply_single_qubit(vec, op, qubit, n)
                term[:, col] = vec
            for row in range(dim):
                vec = term[row, :].copy()
                apply_single_qubit(vec, op.conj(), qubit, n)
                term[row, :] = vec
            result += term
        return result

    n = circuit.num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    start = bits_to_int(initial_bits) if initial_bits is not None else 0
    rho[start, start] = 1.0
    for instr in circuit:
        if instr.name in ("barrier", "measure"):
            continue
        rho = _unitary_on_rho(rho, instr, n)
        if noise_model is not None and instr.is_unitary:
            width = 1 if gate_category(instr) == "1q" else 2
            for channel in noise_model.channels_for(width):
                for qubit in instr.qubits:
                    rho = apply_channel(rho, channel, qubit, n)
    return rho


def _random_circuit(rng, n, gates):
    """Seeded circuit mixing rotations, swaps and multi-controlled gates;
    every gate kind appears, and a gate with two or more controls gets a
    mixed control pattern."""
    qc = QuantumCircuit(n)
    for kind in rng.permutation(np.resize(np.arange(7), gates)):
        qubits = [int(q) for q in rng.permutation(n)]
        theta = float(rng.uniform(-np.pi, np.pi))
        if kind == 0:
            qc.u(theta, float(rng.normal()), float(rng.normal()), qubits[0])
        elif kind == 1:
            getattr(qc, ("h", "sx", "t", "y")[rng.integers(4)])(qubits[0])
        elif kind == 2:
            getattr(qc, ("rx", "ry", "rz", "p")[rng.integers(4)])(theta, qubits[0])
        elif kind == 3:
            qc.swap(qubits[0], qubits[1])
        elif kind == 4:
            qc.mcx(qubits[:1], qubits[1], ctrl_state=(int(rng.integers(2)),))
        else:
            width = int(rng.integers(1, n))
            controls, target = qubits[:width], qubits[width]
            pattern = [int(b) for b in rng.integers(2, size=width)]
            if width > 1:
                pattern[1] = 1 - pattern[0]
            gate = qc.mcp if kind == 5 else qc.mcrx
            gate(theta, controls, target, ctrl_state=pattern)
        if rng.random() < 0.1:
            qc.barrier()
    return qc


class TestSharedKernels:
    """``DensityMatrixSimulator.run`` gives the same bits as the loop it
    replaced (tolerance 0), with and without noise."""

    @pytest.mark.parametrize("seed", range(8))
    def test_run_matches_reference_loop_bit_for_bit(self, seed):
        from repro.simulators.noise import NoiseModel, amplitude_damping, depolarizing

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = _random_circuit(rng, n, gates=14)
        initial = [int(b) for b in rng.integers(2, size=n)]
        model = NoiseModel(
            single_qubit=[depolarizing(0.03), amplitude_damping(0.05)],
            two_qubit=[depolarizing(0.08), amplitude_damping(0.02)],
        )
        for noise in (None, model):
            got = DensityMatrixSimulator(noise).run(circuit, initial_bits=initial)
            expected = _reference_run(circuit, noise, initial)
            np.testing.assert_array_equal(got, expected)
