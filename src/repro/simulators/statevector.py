"""Dense statevector simulation.

Amplitudes are stored as a flat complex array indexed by the little-endian
integer encoding of the computational basis (see :mod:`repro.linalg.bitvec`).
Single-qubit and (multi-)controlled gates are applied with index arithmetic
rather than matrix products, so a gate costs ``O(2**n)`` regardless of its
control count.

Two whole-layer kernels serve dense ansatz paths that apply the same
structure to every qubit: :func:`apply_product_layer` applies one 2x2
matrix per qubit as two half-register Kronecker products (one matrix
product on each side of the state reshaped to a matrix), and
:func:`cx_ladder_permutation` turns the CX(0,1)...CX(n-2,n-1) ladder into
one cached index permutation.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Instruction, gate_category, single_qubit_matrix
from repro.exceptions import SimulationError
from repro.linalg.bitvec import bits_to_int
from repro import telemetry


class StatevectorSimulator:
    """Exact, noise-free statevector evolution.

    Example:
        >>> from repro.circuits import QuantumCircuit
        >>> qc = QuantumCircuit(2)
        >>> qc.h(0)
        >>> qc.cx(0, 1)
        >>> sim = StatevectorSimulator()
        >>> state = sim.run(qc)
        >>> abs(state[0]) ** 2 + abs(state[3]) ** 2  # doctest: +ELLIPSIS
        0.999...
    """

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Evolve the circuit and return the final statevector.

        ``measure`` instructions are ignored (sampling happens in the
        backend layer); ``reset`` is rejected because it is non-unitary.

        Args:
            circuit: circuit to simulate.
            initial_state: optional full statevector to start from.
            initial_bits: optional basis state to start from (exclusive with
                ``initial_state``).
        """
        n = circuit.num_qubits
        dim = 1 << n
        if initial_state is not None and initial_bits is not None:
            raise SimulationError("pass initial_state or initial_bits, not both")
        if initial_state is not None:
            state = np.asarray(initial_state, dtype=np.complex128).copy()
            if state.shape != (dim,):
                raise SimulationError(
                    f"initial state has shape {state.shape}, expected ({dim},)"
                )
        else:
            state = np.zeros(dim, dtype=np.complex128)
            start = bits_to_int(initial_bits) if initial_bits is not None else 0
            state[start] = 1.0
        with telemetry.span("statevector.run", qubits=n, gates=len(circuit)):
            for instr in circuit:
                state = apply_instruction(state, instr, n)
            if telemetry.enabled():
                telemetry.add("statevector.runs")
                telemetry.add("gates.total", len(circuit))
                telemetry.add(
                    "gates.cx",
                    sum(1 for instr in circuit if gate_category(instr) == "2q"),
                )
        return state

    def probabilities(
        self,
        circuit: QuantumCircuit,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Measurement probability of every basis state after the circuit."""
        state = self.run(circuit, initial_bits=initial_bits)
        return np.abs(state) ** 2


def apply_instruction(state: np.ndarray, instr: Instruction, n: int) -> np.ndarray:
    """Apply one instruction to a statevector in place (returns it too)."""
    name = instr.name
    if name in ("barrier", "measure"):
        return state
    if name == "reset":
        raise SimulationError("reset is not supported by the pure-state simulator")
    if name == "swap":
        a, b = instr.qubits
        return _apply_swap(state, a, b, n)
    base = single_qubit_matrix(instr.base_name, instr.params)
    if instr.num_controls == 0:
        return apply_single_qubit(state, base, instr.qubits[0], n)
    return apply_controlled(
        state, base, instr.controls, instr.control_pattern, instr.target, n
    )


def apply_single_qubit(
    state: np.ndarray, matrix: np.ndarray, qubit: int, n: int
) -> np.ndarray:
    """Apply a 2x2 unitary to ``qubit``."""
    if qubit < 0 or qubit >= n:
        raise SimulationError(f"qubit {qubit} out of range")
    low = 1 << qubit
    reshaped = state.reshape(-1, 2, low)
    updated = np.einsum("ij,ajb->aib", matrix, reshaped)
    state[:] = updated.reshape(-1)
    return state


def _kron_stack(matrices: np.ndarray) -> np.ndarray:
    """Kronecker product ``matrices[-1] (x) ... (x) matrices[0]``.

    Built by broadcasting one factor at a time, so the last matrix acts on
    the most significant index bit (little-endian, as in the state).
    """
    product = np.ones((1, 1), dtype=np.complex128)
    for matrix in matrices:
        rows, cols = product.shape
        product = (matrix[:, None, :, None] * product[None, :, None, :]).reshape(
            2 * rows, 2 * cols
        )
    return product


def apply_product_layer(
    state: np.ndarray, matrices: np.ndarray, n: int
) -> np.ndarray:
    """Apply ``matrices[q]`` (shape ``(n, 2, 2)``) on every qubit ``q`` at once.

    The state, viewed as a ``2**(n - n//2) x 2**(n//2)`` matrix ``S`` (rows
    indexed by the high qubits), becomes ``K_high @ S @ K_low.T`` where each
    ``K`` is the Kronecker product of its half's 2x2 matrices.  Returns a
    new array; ``state`` is not modified.
    """
    matrices = np.asarray(matrices, dtype=np.complex128)
    if matrices.shape != (n, 2, 2):
        raise SimulationError(
            f"product layer needs matrices of shape ({n}, 2, 2), "
            f"got {matrices.shape}"
        )
    low = n // 2
    grid = state.reshape(1 << (n - low), 1 << low)
    k_low = _kron_stack(matrices[:low])
    k_high = _kron_stack(matrices[low:])
    return (k_high @ grid @ k_low.T).reshape(-1)


@functools.lru_cache(maxsize=None)
def cx_ladder_permutation(n: int) -> np.ndarray:
    """Index map of the CX(0,1), CX(1,2), ..., CX(n-2,n-1) ladder.

    ``state[cx_ladder_permutation(n)]`` equals applying the ladder gate
    by gate.  Each CX is a basis permutation, so the whole ladder is one
    gather: pure data movement, exact to the bit.  Cached per ``n``; the
    returned array is read-only.
    """
    # CX(q, q+1) is the involution g_q(i) = i ^ (bit q of i) << (q+1), and
    # gathering through g_0 then g_1 ... reads index g_0(g_1(...(i))), so
    # the maps compose from the last gate inwards.
    perm = np.arange(1 << n, dtype=np.int64)
    for qubit in reversed(range(n - 1)):
        perm = perm ^ (((perm >> qubit) & 1) << (qubit + 1))
    perm.setflags(write=False)
    return perm


def apply_controlled(
    state: np.ndarray,
    base: np.ndarray,
    controls: Sequence[int],
    pattern: Sequence[int],
    target: int,
    n: int,
) -> np.ndarray:
    """Apply a 2x2 unitary on ``target`` where every control matches."""
    indices = np.arange(state.shape[0], dtype=np.int64)
    mask = np.ones(state.shape[0], dtype=bool)
    for control, wanted in zip(controls, pattern):
        mask &= ((indices >> control) & 1) == wanted
    mask &= ((indices >> target) & 1) == 0
    i0 = indices[mask]
    i1 = i0 | (1 << target)
    a0 = state[i0].copy()
    a1 = state[i1].copy()
    state[i0] = base[0, 0] * a0 + base[0, 1] * a1
    state[i1] = base[1, 0] * a0 + base[1, 1] * a1
    return state


def _apply_swap(state: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    indices = np.arange(state.shape[0], dtype=np.int64)
    bit_a = (indices >> a) & 1
    bit_b = (indices >> b) & 1
    differs = bit_a != bit_b
    swapped = indices ^ ((1 << a) | (1 << b))
    new_state = state.copy()
    new_state[indices[differs]] = state[swapped[differs]]
    state[:] = new_state
    return state


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_bits: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Convenience wrapper: one-shot exact simulation."""
    return StatevectorSimulator().run(circuit, initial_bits=initial_bits)
