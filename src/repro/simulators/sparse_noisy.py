"""Sparse Kraus-trajectory backend for feasible-subspace circuits.

The dense trajectory backend caps out around 16 qubits (one full
statevector per trajectory).  Rasengan's circuits, however, keep their
support near the feasible subspace even *during* a decomposed transition
operator (superposition-creating gates are uncomputed by the ladders), so
Monte-Carlo noise trajectories can run on the sparse amplitude map
instead — which is how this reproduction executes honest gate-level noisy
Rasengan at the paper's 28+-variable scales (Figure 10d) without a GPU.

Pauli noise keeps states sparse exactly (X permutes, Z phases); amplitude
and phase damping are diagonal-or-collapse Kraus maps, also
sparsity-preserving.  Every channel supported by
:class:`~repro.simulators.noise.NoiseModel` works here.

Trajectory scheduling, seeding, and fan-out live in the shared
:class:`~repro.simulators.backends.TrajectoryBackend` base; this class
only supplies the sparse per-trajectory evolution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_category
from repro.exceptions import SimulationError
from repro.linalg.summation import left_to_right_sum
from repro.simulators.backends import TrajectoryBackend
from repro.simulators.noise import KrausChannel, NoiseModel
from repro.simulators.seeding import SeedLike
from repro.simulators.sparsestate import SparseState
from repro import telemetry


class SparseTrajectoryBackend(TrajectoryBackend):
    """Monte-Carlo Kraus trajectories on sparse amplitude maps.

    Args:
        noise_model: per-gate-category channels + readout error.
        seed: RNG seed.
        name: backend name.
        max_trajectories: shots are spread over at most this many
            trajectories.
        support_limit: safety cap on the sparse support per trajectory;
            exceeding it raises (pick the dense backend instead).
    """

    _span_name = "sparse_noisy.run"

    def __init__(
        self,
        noise_model: NoiseModel,
        seed: SeedLike = None,
        name: str = "sparse_noisy",
        max_trajectories: int = 64,
        support_limit: int = 200_000,
    ) -> None:
        super().__init__(
            noise_model, seed=seed, name=name, max_trajectories=max_trajectories
        )
        self.support_limit = support_limit

    # ------------------------------------------------------------------
    def _trajectory_probabilities(
        self,
        flat: QuantumCircuit,
        num_qubits: int,
        initial_bits: Optional[Sequence[int]],
        rng: np.random.Generator,
    ):
        return self._run_trajectory(flat, num_qubits, initial_bits, rng).probabilities()

    def _run_trajectory(
        self,
        flat: QuantumCircuit,
        n: int,
        initial_bits: Optional[Sequence[int]],
        rng: np.random.Generator,
    ) -> SparseState:
        if initial_bits is not None:
            state = SparseState.from_bits(list(initial_bits))
        else:
            state = SparseState(n)
        peak = len(state.amplitudes)
        for instr in flat:
            if not instr.is_unitary:
                continue
            state.apply_instruction(instr)
            support = len(state.amplitudes)
            if support > peak:
                peak = support
            if support > self.support_limit:
                raise SimulationError(
                    f"sparse support exceeded {self.support_limit}; "
                    "this circuit needs the dense backend"
                )
            width = 1 if gate_category(instr) == "1q" else 2
            for channel in self.noise_model.channels_for(width):
                for qubit in instr.qubits:
                    self._sample_kraus(state, channel, qubit, rng)
        state.normalize()
        telemetry.observe("sparse.amplitudes", peak)
        return state

    def _sample_kraus(
        self,
        state: SparseState,
        channel: KrausChannel,
        qubit: int,
        rng: np.random.Generator,
    ) -> None:
        if channel.is_unitary_mixture:
            probabilities, unitaries = channel.unitary_mixture
            choice = rng.choice(len(probabilities), p=probabilities)
            unitary = unitaries[choice]
            if not np.allclose(unitary, np.eye(2)):
                state.apply_single_qubit_matrix(unitary, qubit)
            return
        candidates: List[SparseState] = []
        weights: List[float] = []
        for op in channel.operators:
            candidate = state.copy()
            candidate.apply_single_qubit_matrix(op, qubit)
            weight = candidate.norm() ** 2
            candidates.append(candidate)
            weights.append(weight)
        total = left_to_right_sum(weights)
        if total <= 0:
            raise SimulationError("trajectory collapsed to zero norm")
        probabilities = [w / total for w in weights]
        choice = rng.choice(len(candidates), p=probabilities)
        chosen = candidates[choice]
        chosen.normalize()
        state.amplitudes = chosen.amplitudes
