"""Sparse amplitude-map simulation for feasible-subspace circuits.

Rasengan's circuits consist of X, CX, phase, and transition operators whose
action never leaves the (small) span of feasible basis states, so a
dictionary ``{basis index: amplitude}`` simulates them in time proportional
to the number of occupied amplitudes — the same asymptotic benefit the
original artifact gets from DDSim.

The fast path is :meth:`SparseState.apply_move` (behind
:meth:`SparseState.apply_transition`), which applies the
transition-operator unitary ``exp(-i H(u) t)`` directly using the pairing
structure proved in the paper (Equation 6): basis states pair up as
``|x> <-> |x+u>`` when both are binary, and unpaired states are fixed
points.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Instruction, gate_category, single_qubit_matrix
from repro.exceptions import SimulationError
from repro.linalg.bitvec import bits_to_int, int_to_bits
from repro.linalg.summation import left_to_right_sum
from repro import telemetry

#: Amplitudes smaller than this fraction of the state norm are dropped
#: after each operation.
PRUNE_TOLERANCE = 1e-12


class SparseState:
    """A sparse statevector over ``num_qubits`` qubits."""

    def __init__(
        self,
        num_qubits: int,
        amplitudes: Optional[Dict[int, complex]] = None,
    ) -> None:
        self.num_qubits = num_qubits
        if amplitudes is None:
            amplitudes = {0: 1.0 + 0.0j}
        self.amplitudes: Dict[int, complex] = dict(amplitudes)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "SparseState":
        """Basis state ``|bits>``."""
        return cls(len(bits), {bits_to_int(bits): 1.0 + 0.0j})

    @classmethod
    def from_distribution(
        cls, num_qubits: int, probabilities: Dict[int, float]
    ) -> "SparseState":
        """Incoherent stand-in: amplitudes ``sqrt(p)`` (phases dropped).

        Used by segmented execution when a segment is re-initialised from
        measured probabilities — exactly the information the paper says is
        preserved across segments (Section 4.2).
        """
        state = cls(num_qubits, {})
        state.amplitudes = {
            key: complex(math.sqrt(p)) for key, p in probabilities.items() if p > 0
        }
        state.normalize()
        return state

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def norm(self) -> float:
        return math.sqrt(
            left_to_right_sum(abs(a) ** 2 for a in self.amplitudes.values())
        )

    def normalize(self) -> None:
        norm = self.norm()
        if norm == 0:
            raise SimulationError("cannot normalize the zero state")
        self.amplitudes = {k: a / norm for k, a in self.amplitudes.items()}

    def prune(self, tolerance: float = PRUNE_TOLERANCE) -> None:
        """Drop amplitudes negligible *relative to the current norm*.

        Non-unitary Kraus application and segmented execution leave the
        state unnormalised (callers own renormalisation), so an absolute
        cutoff would drop near-threshold amplitudes that dense simulation
        keeps once the overall norm has been scaled down.  Scaling the
        cutoff by the norm makes pruning invariant under that scaling;
        for a normalised state it reduces to the absolute tolerance.
        """
        norm = self.norm()
        if norm == 0.0:
            self.amplitudes = {}
            return
        if not math.isfinite(norm):
            # The cutoff comparisons would drop every amplitude and hide it.
            raise SimulationError(f"non-finite weight in sparse state (norm {norm})")
        cutoff = tolerance * norm
        self.amplitudes = {
            k: a for k, a in self.amplitudes.items() if abs(a) > cutoff
        }

    def probabilities(self) -> Dict[int, float]:
        """Measurement distribution over occupied basis states."""
        return {k: abs(a) ** 2 for k, a in self.amplitudes.items()}

    def support(self) -> Tuple[int, ...]:
        """Occupied basis-state indices, sorted."""
        return tuple(sorted(self.amplitudes))

    def to_dense(self) -> np.ndarray:
        state = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        for key, amp in self.amplitudes.items():
            state[key] = amp
        return state

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_instruction(self, instr: Instruction) -> None:
        name = instr.name
        if name in ("barrier", "measure"):
            return
        if name == "x":
            self._apply_x(instr.qubits[0])
            return
        if name in ("p", "rz", "z", "s", "sdg", "t", "tdg"):
            self._apply_diagonal(instr)
            return
        if name in ("cx", "ccx", "mcx"):
            self._apply_controlled_x(instr)
            return
        if name in ("cz", "cp", "mcp"):
            self._apply_controlled_phase(instr)
            return
        if name in ("crx", "mcrx"):
            self._apply_controlled_rx(instr)
            return
        if name in ("h", "sx", "rx", "ry", "u", "y"):
            self._apply_general_single(instr)
            return
        raise SimulationError(
            f"no sparse application rule for gate {name!r}; "
            "use the dense simulator for general circuits"
        )

    def run(self, circuit: QuantumCircuit) -> None:
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit/state qubit count mismatch")
        with telemetry.span(
            "sparse.run", qubits=self.num_qubits, gates=len(circuit)
        ) as run_span:
            peak = len(self.amplitudes)
            for instr in circuit:
                self.apply_instruction(instr)
                if len(self.amplitudes) > peak:
                    peak = len(self.amplitudes)
            self.prune()
            if telemetry.enabled():
                telemetry.add("gates.total", len(circuit))
                telemetry.add(
                    "gates.cx",
                    sum(1 for instr in circuit if gate_category(instr) == "2q"),
                )
                telemetry.observe("sparse.amplitudes", peak)
                run_span.set(peak_amplitudes=peak)

    def _apply_x(self, qubit: int) -> None:
        flip = 1 << qubit
        self.amplitudes = {k ^ flip: a for k, a in self.amplitudes.items()}

    def _apply_diagonal(self, instr: Instruction) -> None:
        matrix = single_qubit_matrix(instr.base_name, instr.params)
        phase0, phase1 = matrix[0, 0], matrix[1, 1]
        qubit = instr.qubits[0]
        self.amplitudes = {
            k: a * (phase1 if (k >> qubit) & 1 else phase0)
            for k, a in self.amplitudes.items()
        }

    def _controls_match(self, key: int, instr: Instruction) -> bool:
        return all(
            ((key >> c) & 1) == wanted
            for c, wanted in zip(instr.controls, instr.control_pattern)
        )

    def _apply_controlled_x(self, instr: Instruction) -> None:
        flip = 1 << instr.target
        updated: Dict[int, complex] = {}
        for key, amp in self.amplitudes.items():
            new_key = key ^ flip if self._controls_match(key, instr) else key
            updated[new_key] = updated.get(new_key, 0.0) + amp
        self.amplitudes = updated

    def _apply_controlled_phase(self, instr: Instruction) -> None:
        if instr.name == "cz":
            phase = -1.0 + 0.0j
        else:
            phase = complex(np.exp(1j * instr.params[0]))
        target_bit = 1 << instr.target
        updated: Dict[int, complex] = {}
        for key, amp in self.amplitudes.items():
            hit = self._controls_match(key, instr) and (key & target_bit)
            updated[key] = amp * phase if hit else amp
        self.amplitudes = updated

    def _apply_general_single(self, instr: Instruction) -> None:
        """Apply any 2x2 unitary; support may double on the target qubit.

        Superposition-creating gates (H, SX, RX, ...) appear inside the
        decomposed transition operator only transiently — the ladders
        uncompute them — so support growth is bounded by the operator's
        footprint, keeping the sparse representation viable.
        """
        matrix = single_qubit_matrix(instr.base_name, instr.params)
        self.apply_single_qubit_matrix(matrix, instr.qubits[0])

    def apply_single_qubit_matrix(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply an arbitrary 2x2 operator (not necessarily unitary).

        Non-unitary operators (Kraus operators) leave the state
        unnormalised; callers own renormalisation.
        """
        flip = 1 << qubit
        updated: Dict[int, complex] = {}
        for key, amp in self.amplitudes.items():
            bit = (key >> qubit) & 1
            partner = key ^ flip
            stay = matrix[bit, bit]
            hop = matrix[1 - bit, bit]
            if stay != 0:
                updated[key] = updated.get(key, 0.0) + stay * amp
            if hop != 0:
                updated[partner] = updated.get(partner, 0.0) + hop * amp
        self.amplitudes = updated
        self.prune()

    def _apply_controlled_rx(self, instr: Instruction) -> None:
        theta = instr.params[0]
        cos = math.cos(theta / 2)
        sin = math.sin(theta / 2)
        flip = 1 << instr.target
        updated: Dict[int, complex] = {}
        for key, amp in self.amplitudes.items():
            if self._controls_match(key, instr):
                partner = key ^ flip
                updated[key] = updated.get(key, 0.0) + cos * amp
                updated[partner] = updated.get(partner, 0.0) - 1j * sin * amp
            else:
                updated[key] = updated.get(key, 0.0) + amp
        self.amplitudes = updated
        self.prune()

    # ------------------------------------------------------------------
    # Transition-operator fast path
    # ------------------------------------------------------------------
    def apply_transition(self, basis_vector: np.ndarray, time: float) -> None:
        """Apply ``exp(-i H(u) t)`` for a homogeneous basis vector ``u``.

        Validates ``u`` against the register width, then applies the move
        through :meth:`apply_move` with the masks of :func:`move_masks`.
        """
        u = np.asarray(basis_vector, dtype=np.int64)
        if u.shape != (self.num_qubits,):
            raise SimulationError("basis vector length mismatch")
        from repro.linalg.moves import move_masks

        mask_plus, mask_minus = move_masks(u)
        self.apply_move(mask_plus, mask_minus, time)

    def apply_move(self, mask_plus: int, mask_minus: int, time: float) -> None:
        """Apply ``exp(-i H(u) t)`` for the move ``u`` given by its masks.

        Implements Equation 6 of the paper directly: for each occupied basis
        state ``x``, if ``x + u`` or ``x - u`` is binary then the pair mixes
        with ``cos(t)`` / ``-i sin(t)``; otherwise the state is left
        untouched.  ``mask_plus`` / ``mask_minus`` are the bitmasks of the
        +1 / -1 entries of ``u`` (:func:`~repro.linalg.moves.move_masks`).
        The partner test is the arithmetic of
        :func:`~repro.linalg.moves.partner_key_from_masks`, inlined because
        this loop runs once per transition of every segment of every
        optimizer evaluation.
        """
        cos = math.cos(time)
        i_sin = 1j * math.sin(time)
        clear_plus = ~mask_plus
        clear_minus = ~mask_minus
        updated: Dict[int, complex] = {}
        get = updated.get
        if mask_plus or mask_minus:
            for key, amp in self.amplitudes.items():
                if (key & mask_plus) == 0 and (key & mask_minus) == mask_minus:
                    partner = (key | mask_plus) & clear_minus
                elif (key & mask_minus) == 0 and (key & mask_plus) == mask_plus:
                    partner = (key | mask_minus) & clear_plus
                else:
                    updated[key] = get(key, 0.0) + amp
                    continue
                updated[key] = get(key, 0.0) + cos * amp
                updated[partner] = get(partner, 0.0) - i_sin * amp
        else:
            # The zero move pairs nothing: every state is a fixed point.
            for key, amp in self.amplitudes.items():
                updated[key] = get(key, 0.0) + amp
        self.amplitudes = updated
        self.prune()
        if telemetry.enabled():
            telemetry.add("sparse.transitions")
            telemetry.observe("sparse.amplitudes", len(self.amplitudes))

    def copy(self) -> "SparseState":
        return SparseState(self.num_qubits, dict(self.amplitudes))
