"""Shot-based execution backends.

A backend takes a circuit and returns measurement counts.  Three flavours:

* :class:`IdealBackend` — exact dense simulation, multinomial sampling.
* :class:`NoisyTrajectoryBackend` — Monte-Carlo Kraus trajectories over the
  {1q, CX}-decomposed circuit, plus readout error.  This is the offline
  stand-in for IBM hardware.
* :func:`fake_kyiv` / :func:`fake_brisbane` — trajectory backends calibrated
  with the error rates the paper reports for the two devices it used
  (two-qubit error 1.2% on Kyiv, 0.82% on Brisbane; single-qubit error
  0.035%; ~1% readout error).

Trajectory backends share :class:`TrajectoryBackend`: per-trajectory child
seeds are spawned from the backend's :class:`~repro.simulators.seeding.SeedBank`
before dispatch, and independent trajectories run through an injectable
mapper (set by the execution engine) — so a process-pool fan-out consumes
exactly the same seed tree as a serial run and produces identical counts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompose import decompose_circuit
from repro.circuits.gates import gate_category
from repro.exceptions import SimulationError
from repro.linalg.bitvec import bits_to_int
from repro.simulators.noise import NoiseModel, draw_weighted
from repro.simulators.sampling import apply_readout_error, counts_from_probabilities
from repro.simulators.seeding import SeedBank, SeedLike, make_rng
from repro.simulators.statevector import StatevectorSimulator, apply_instruction
from repro.simulators.statevector import apply_single_qubit
from repro import telemetry


class Backend(abc.ABC):
    """Common interface: run a circuit for a number of shots."""

    name: str = "backend"

    @abc.abstractmethod
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        """Execute and return measurement counts ``{basis index: count}``."""

    @property
    def is_noisy(self) -> bool:
        return False

    def reseed(self, seed: SeedLike) -> None:
        """Reset the backend's random state from ``seed`` (no-op when the
        backend is deterministic)."""

    def set_mapper(self, mapper: Optional[Callable]) -> None:
        """Install a map function for independent work units (engine hook);
        ignored by backends with no fan-out."""


class IdealBackend(Backend):
    """Noise-free sampling from the exact statevector."""

    def __init__(self, seed: SeedLike = None, name: str = "ideal") -> None:
        self.name = name
        self._rng = make_rng(seed)
        self._simulator = StatevectorSimulator()

    def reseed(self, seed: SeedLike) -> None:
        self._rng = make_rng(seed)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        with telemetry.span("backend.run", backend=self.name, shots=shots):
            if telemetry.enabled():
                telemetry.add("backend.executions")
                telemetry.add("backend.shots", shots)
            probabilities = self._simulator.probabilities(
                circuit, initial_bits=initial_bits
            )
            return counts_from_probabilities(probabilities, shots, self._rng)

    def probabilities(
        self,
        circuit: QuantumCircuit,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Exact outcome distribution (shot-noise free)."""
        return self._simulator.probabilities(circuit, initial_bits=initial_bits)


# ----------------------------------------------------------------------
# Monte-Carlo trajectory backends
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TrajectoryTask:
    """One picklable trajectory work unit (seed pre-spawned parent-side)."""

    backend: "TrajectoryBackend"
    flat: QuantumCircuit
    num_qubits: int
    initial_bits: Optional[Tuple[int, ...]]
    shots: int
    seed: np.random.SeedSequence


def _run_trajectory_task(task: _TrajectoryTask) -> Dict[int, int]:
    """Evolve one trajectory and sample its shots (module-level so the
    engine's process pool can dispatch it)."""
    rng = np.random.default_rng(task.seed)
    probabilities = task.backend._trajectory_probabilities(
        task.flat, task.num_qubits, task.initial_bits, rng
    )
    return counts_from_probabilities(probabilities, task.shots, rng)


class TrajectoryBackend(Backend):
    """Shared Monte-Carlo trajectory plumbing (dense and sparse).

    Each trajectory is one pure-state evolution where, after every gate of
    the decomposed circuit, a Kraus operator of each attached channel is
    drawn by the law in :mod:`repro.simulators.noise`.  Shots are spread across
    ``max_trajectories`` trajectories (several measurement samples share a
    trajectory, a standard variance/cost trade-off).  Subclasses provide
    :meth:`_trajectory_probabilities` for their state representation.
    """

    #: Telemetry span name of one :meth:`run` call.
    _span_name = "noisy.run"

    def __init__(
        self,
        noise_model: NoiseModel,
        seed: SeedLike = None,
        name: str = "noisy",
        max_trajectories: int = 64,
    ) -> None:
        if max_trajectories < 1:
            raise SimulationError("max_trajectories must be >= 1")
        self.name = name
        self.noise_model = noise_model
        self.max_trajectories = max_trajectories
        self._bank = SeedBank(seed)
        self._mapper: Optional[Callable] = None

    @property
    def is_noisy(self) -> bool:
        return True

    def reseed(self, seed: SeedLike) -> None:
        self._bank = SeedBank(seed)

    def set_mapper(self, mapper: Optional[Callable]) -> None:
        self._mapper = mapper

    def __getstate__(self):
        # The mapper closes over the engine; trajectory tasks that embed
        # this backend must not drag the whole engine graph into workers
        # (and workers never fan out further).
        state = self.__dict__.copy()
        state["_mapper"] = None
        return state

    @abc.abstractmethod
    def _trajectory_probabilities(
        self,
        flat: QuantumCircuit,
        num_qubits: int,
        initial_bits: Optional[Sequence[int]],
        rng: np.random.Generator,
    ):
        """One trajectory's outcome distribution (dense array or mapping)."""

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        initial_bits: Optional[Sequence[int]] = None,
    ) -> Dict[int, int]:
        if shots <= 0:
            return {}
        flat = decompose_circuit(circuit)
        n = flat.num_qubits
        trajectories = min(shots, self.max_trajectories)
        base, remainder = divmod(shots, trajectories)
        # Spawn the whole seed tree up front (one child per trajectory,
        # one for readout) so serial and parallel runs are bit-identical.
        seeds = self._bank.spawn(trajectories + 1)
        readout_rng = np.random.default_rng(seeds[-1])
        bits = tuple(int(b) for b in initial_bits) if initial_bits is not None else None
        tasks = [
            _TrajectoryTask(
                backend=self,
                flat=flat,
                num_qubits=n,
                initial_bits=bits,
                shots=base + (1 if index < remainder else 0),
                seed=seeds[index],
            )
            for index in range(trajectories)
        ]
        counts: Dict[int, int] = {}
        with telemetry.span(
            self._span_name,
            backend=self.name,
            shots=shots,
            trajectories=trajectories,
            gates=len(flat),
        ):
            if telemetry.enabled():
                telemetry.add("backend.executions")
                telemetry.add("backend.shots", shots)
                telemetry.add("noise.trajectories", trajectories)
                # Every trajectory replays the full decomposed circuit.
                telemetry.add("gates.total", trajectories * len(flat))
                telemetry.add(
                    "gates.cx",
                    trajectories
                    * sum(1 for instr in flat if gate_category(instr) == "2q"),
                )
            mapper = self._mapper
            if mapper is None:
                outputs = [_run_trajectory_task(task) for task in tasks]
            else:
                outputs = mapper(
                    _run_trajectory_task, tasks, label="trajectories"
                )
            for sampled in outputs:
                for key, count in sampled.items():
                    counts[key] = counts.get(key, 0) + count
            if self.noise_model.has_readout_error:
                counts = apply_readout_error(
                    counts,
                    n,
                    self.noise_model.readout_p01,
                    self.noise_model.readout_p10,
                    readout_rng,
                )
        return counts


class NoisyTrajectoryBackend(TrajectoryBackend):
    """Dense-statevector Monte-Carlo Kraus-trajectory simulation.

    The Kraus draw is :mod:`repro.simulators.noise`'s; this class builds each
    candidate ``K_i |psi>`` as a dense copy, weighs it by ``vdot`` and divides
    the drawn one by the square root of its weight.
    """

    def _trajectory_probabilities(
        self,
        flat: QuantumCircuit,
        num_qubits: int,
        initial_bits: Optional[Sequence[int]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        n = num_qubits
        state = np.zeros(1 << n, dtype=np.complex128)
        start = bits_to_int(initial_bits) if initial_bits is not None else 0
        state[start] = 1.0
        for instr in flat:
            if not instr.is_unitary:
                continue
            state = apply_instruction(state, instr, n)
            width = 1 if gate_category(instr) == "1q" else 2
            for channel in self.noise_model.channels_for(width):
                for qubit in instr.qubits:
                    if channel.is_unitary_mixture:
                        unitary = channel.draw_unitary(rng)
                        if unitary is not None:
                            state = apply_single_qubit(state, unitary, qubit, n)
                        continue
                    candidates = [
                        apply_single_qubit(state.copy(), op, qubit, n)
                        for op in channel.operators
                    ]
                    weights = [float(np.vdot(c, c).real) for c in candidates]
                    choice = draw_weighted(weights, rng)
                    state = candidates[choice] / np.sqrt(weights[choice])
        return np.abs(state) ** 2


# ----------------------------------------------------------------------
# Fake devices (paper, Section 5.4)
# ----------------------------------------------------------------------
#: Error rates quoted in the paper for the two IBM devices.
KYIV_TWO_QUBIT_ERROR = 0.012
BRISBANE_TWO_QUBIT_ERROR = 0.0082
SINGLE_QUBIT_ERROR = 0.00035
READOUT_ERROR = 0.01


def fake_kyiv(seed: SeedLike = None, **kwargs) -> NoisyTrajectoryBackend:
    """Noisy backend calibrated to the paper's IBM-Kyiv error rates."""
    model = NoiseModel.from_error_rates(
        single_qubit_error=SINGLE_QUBIT_ERROR,
        two_qubit_error=KYIV_TWO_QUBIT_ERROR,
        readout_error=READOUT_ERROR,
    )
    return NoisyTrajectoryBackend(model, seed=seed, name="fake_kyiv", **kwargs)


def fake_brisbane(seed: SeedLike = None, **kwargs) -> NoisyTrajectoryBackend:
    """Noisy backend calibrated to the paper's IBM-Brisbane error rates."""
    model = NoiseModel.from_error_rates(
        single_qubit_error=SINGLE_QUBIT_ERROR,
        two_qubit_error=BRISBANE_TWO_QUBIT_ERROR,
        readout_error=READOUT_ERROR,
    )
    return NoisyTrajectoryBackend(model, seed=seed, name="fake_brisbane", **kwargs)
