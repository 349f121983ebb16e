"""Exact density-matrix simulation for small systems.

Used as ground truth: tests compare the trajectory backend's sampled
statistics against exact channel evolution.  Cost is ``O(4**n)`` memory, so
this simulator enforces a small qubit limit.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Instruction, gate_category, single_qubit_matrix
from repro.exceptions import SimulationError
from repro.linalg.bitvec import bits_to_int
from repro.simulators.noise import KrausChannel, NoiseModel
from repro.simulators.statevector import (
    apply_controlled,
    apply_instruction,
    apply_single_qubit,
)

#: Hard qubit limit; 4**10 complex entries is ~16 MiB.
MAX_QUBITS = 10


class DensityMatrixSimulator:
    """Evolve a density matrix through a circuit with exact noise channels."""

    def __init__(self, noise_model: Optional[NoiseModel] = None) -> None:
        self.noise_model = noise_model

    def run(
        self,
        circuit: QuantumCircuit,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Return the final density matrix.

        Gates are applied as ``rho -> U rho U^dag`` by acting with ``U`` on
        the row index (a statevector update over the flattened matrix) and
        ``U*`` on the column index.
        """
        n = circuit.num_qubits
        if n > MAX_QUBITS:
            raise SimulationError(
                f"density-matrix simulation limited to {MAX_QUBITS} qubits"
            )
        dim = 1 << n
        rho = np.zeros((dim, dim), dtype=np.complex128)
        start = bits_to_int(initial_bits) if initial_bits is not None else 0
        rho[start, start] = 1.0
        for instr in circuit:
            rho = self._apply(rho, instr, n)
        return rho

    def probabilities(
        self,
        circuit: QuantumCircuit,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Diagonal of the final density matrix (readout error excluded)."""
        rho = self.run(circuit, initial_bits=initial_bits)
        return np.real(np.diag(rho)).clip(min=0.0)

    # ------------------------------------------------------------------
    def _apply(self, rho: np.ndarray, instr: Instruction, n: int) -> np.ndarray:
        if instr.name in ("barrier", "measure"):
            return rho
        if instr.name == "reset":
            raise SimulationError("reset is not supported")
        rho = _unitary_on_rho(rho, instr, n)
        if self.noise_model is not None and instr.is_unitary:
            width = 1 if gate_category(instr) == "1q" else 2
            for channel in self.noise_model.channels_for(width):
                for qubit in instr.qubits:
                    rho = apply_channel(rho, channel, qubit, n)
        return rho


def _sandwich(
    rho: np.ndarray,
    apply: Callable[[np.ndarray], np.ndarray],
    apply_conj: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``rho -> A rho A^dag`` from two in-place vector kernels.

    ``apply`` acts with ``A`` on every column (``A rho``); ``apply_conj``
    then acts with ``A*`` on every row, since row ``r`` of
    ``(A rho) A^dag`` is ``A*`` applied to row ``r`` of ``A rho``.
    """
    dim = rho.shape[0]
    out = np.empty_like(rho)
    for col in range(dim):
        out[:, col] = apply(rho[:, col].copy())
    result = np.empty_like(out)
    for row in range(dim):
        result[row, :] = apply_conj(out[row, :].copy())
    return result


def _unitary_on_rho(rho: np.ndarray, instr: Instruction, n: int) -> np.ndarray:
    """``rho -> U rho U^dag`` with the statevector kernels."""

    def apply(vec):
        return apply_instruction(vec, instr, n)

    if instr.name == "swap":  # a permutation matrix is real: U* = U
        return _sandwich(rho, apply, apply)
    conj = single_qubit_matrix(instr.base_name, instr.params).conj()

    def apply_conj(vec):
        if instr.num_controls == 0:
            return apply_single_qubit(vec, conj, instr.qubits[0], n)
        return apply_controlled(
            vec, conj, instr.controls, instr.control_pattern, instr.target, n
        )

    return _sandwich(rho, apply, apply_conj)


def apply_channel(
    rho: np.ndarray, channel: KrausChannel, qubit: int, n: int
) -> np.ndarray:
    """``rho -> sum_i K_i rho K_i^dag`` on one qubit."""
    result = np.zeros_like(rho)
    for op in channel.operators:
        conj = op.conj()
        result += _sandwich(
            rho,
            lambda vec: apply_single_qubit(vec, op, qubit, n),
            lambda vec: apply_single_qubit(vec, conj, qubit, n),
        )
    return result
