"""Quantum circuit simulators and noise models.

Replaces Qiskit-Aer / DDSim / CUDA-Quantum from the original artifact:

* :mod:`repro.simulators.statevector` — dense statevector simulation for
  the baselines (HEA / P-QAOA / Choco-Q need ``RX`` mixers and therefore
  dense amplitudes).
* :mod:`repro.simulators.sparsestate` — sparse amplitude-map simulation for
  Rasengan circuits, whose states live inside the small feasible subspace
  (the offline stand-in for DDSim).
* :mod:`repro.simulators.noise` — Kraus channels and per-gate noise models.
* :mod:`repro.simulators.density` — exact density-matrix evolution for
  small systems, used to validate the trajectory sampler.
* :mod:`repro.simulators.backends` — ideal and noisy shot-based backends,
  including fake IBM-Kyiv / IBM-Brisbane devices.
"""

from repro.simulators.statevector import StatevectorSimulator, simulate_statevector
from repro.simulators.sparsestate import SparseState
from repro.simulators.noise import (
    KrausChannel,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    pauli_channel,
    phase_damping,
)
from repro.simulators.density import DensityMatrixSimulator
from repro.simulators.sampling import counts_from_probabilities, apply_readout_error
from repro.simulators.seeding import SeedBank, as_seed_sequence, make_rng
from repro.simulators.backends import (
    Backend,
    IdealBackend,
    NoisyTrajectoryBackend,
    TrajectoryBackend,
    fake_brisbane,
    fake_kyiv,
)
from repro.simulators.sparse_noisy import SparseTrajectoryBackend

__all__ = [
    "StatevectorSimulator",
    "simulate_statevector",
    "SparseState",
    "KrausChannel",
    "NoiseModel",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "bit_flip",
    "pauli_channel",
    "DensityMatrixSimulator",
    "counts_from_probabilities",
    "apply_readout_error",
    "SeedBank",
    "as_seed_sequence",
    "make_rng",
    "Backend",
    "IdealBackend",
    "NoisyTrajectoryBackend",
    "TrajectoryBackend",
    "SparseTrajectoryBackend",
    "fake_kyiv",
    "fake_brisbane",
]
