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
:class:`~repro.simulators.backends.TrajectoryBackend` base, and the Kraus
draw in :mod:`repro.simulators.noise`.  This class supplies the sparse
evolution: each Kraus candidate is a copied map, weighed by ``norm() ** 2``
and renormalized by ``normalize()`` once drawn.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_category
from repro.exceptions import SimulationError
from repro.simulators.backends import TrajectoryBackend
from repro.simulators.noise import NoiseModel, draw_weighted
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
        if initial_bits is not None:
            state = SparseState.from_bits(list(initial_bits))
        else:
            state = SparseState(num_qubits)
        peak = len(state.amplitudes)
        for instr in flat:
            if not instr.is_unitary:
                continue
            state.apply_instruction(instr)
            support = len(state.amplitudes)
            peak = max(peak, support)
            if support > self.support_limit:
                raise SimulationError(
                    f"sparse support exceeded {self.support_limit}; "
                    "this circuit needs the dense backend"
                )
            width = 1 if gate_category(instr) == "1q" else 2
            for channel in self.noise_model.channels_for(width):
                for qubit in instr.qubits:
                    if channel.is_unitary_mixture:
                        unitary = channel.draw_unitary(rng)
                        if unitary is not None:
                            state.apply_single_qubit_matrix(unitary, qubit)
                        continue
                    candidates = [state.copy() for _ in channel.operators]
                    for candidate, op in zip(candidates, channel.operators):
                        candidate.apply_single_qubit_matrix(op, qubit)
                    weights = [c.norm() ** 2 for c in candidates]
                    state = candidates[draw_weighted(weights, rng)]
                    state.normalize()
        state.normalize()
        telemetry.observe("sparse.amplitudes", peak)
        return state.probabilities()
