"""The unified execution engine.

:class:`ExecutionEngine` is the single path from "algorithm wants a
distribution for parameters theta" to "backend returns counts /
probabilities".  It owns:

* the **backend** (resolved by name through the registry, or an instance);
  ``backend=None`` selects the exact fast paths (sparse transition
  evolution for Rasengan, dense statevector for the baselines);
* **gate-level circuits** for backend runs: a segment or ansatz circuit
  is built directly from its parameters (:meth:`segment_circuit`,
  :meth:`ansatz_circuit`); the exact fast paths never build one;
* **batched evaluation** (:meth:`run_batch`) for optimizer restarts and
  figure sweeps;
* the opt-in **process-pool fan-out** (:meth:`map`) for independent work
  units — noisy Monte-Carlo trajectories and multi-start restarts — with
  per-worker child seeds spawned parent-side from one root seed so a
  parallel run is bit-identical to a serial one.

Determinism contract: every random draw the engine makes comes from its
:class:`~repro.simulators.seeding.SeedBank`; fan-out work units receive
pre-spawned ``SeedSequence`` children, never shared generator state.
Telemetry recorded *inside* pool workers runs under a per-task child
collector and ships back with the result as a serialized delta; the
parent stitches the child span trees (tagged with the worker pid) under
the originating ``engine.map`` span and accumulates the counters, so a
parallel run's totals match a serial run (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.segmentation import allocate_shots, merge_counts
from repro.core.transition import transition_chain_circuit
from repro.engine.registry import BackendSpec, resolve_backend
from repro.exceptions import SolverError
from repro.circuits.circuit import QuantumCircuit
from repro.linalg.bitvec import int_to_bits
from repro.linalg.moves import move_masks
from repro.simulators.sampling import counts_from_probabilities
from repro.simulators.seeding import SeedBank, SeedLike
from repro.simulators.sparsestate import SparseState
from repro.simulators.statevector import StatevectorSimulator
from repro import faults, telemetry

T = TypeVar("T")
R = TypeVar("R")

_UNSET = object()


@dataclass
class EngineDefaults:
    """Process-wide defaults applied when an engine is built without
    explicit ``workers``/``backend`` — the hook behind the CLI's
    ``--engine-workers`` and ``--backend`` flags.
    """

    workers: int = 0
    backend: BackendSpec = None


_DEFAULTS = EngineDefaults()


def configure_defaults(*, workers=_UNSET, backend=_UNSET, cache=None) -> EngineDefaults:
    """Set process-wide engine defaults; returns the previous defaults.

    Raises:
        TypeError: for a ``cache`` other than ``None``; the engine keeps
            no circuit cache.
    """
    # ``cache=None`` stays accepted for perfbench/workloads.py's reset.
    if cache is not None:
        raise TypeError("the engine has no circuit cache; cache must be None")
    previous = replace(_DEFAULTS)
    if workers is not _UNSET:
        _DEFAULTS.workers = int(workers)
    if backend is not _UNSET:
        _DEFAULTS.backend = backend
    return previous


def get_defaults() -> EngineDefaults:
    """A copy of the current process-wide defaults."""
    return replace(_DEFAULTS)


def _positive_int(value) -> bool:
    """True for a positive integer that is not a bool."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integral and value > 0


def check_shots(shots, field: str) -> None:
    """Refuse shots that are neither ``None`` (exact) nor a positive int.

    Raises:
        SolverError: naming ``field``; zero or negative shots would
            otherwise score an empty sample (or fail deep inside
            sampling) instead of pointing at the configuration.
    """
    if shots is not None and not _positive_int(shots):
        raise SolverError(
            f"{field} must be None (exact) or a positive integer, got {shots!r}"
        )


def parameter_vector(parameters, expected: int) -> np.ndarray:
    """``parameters`` as a float vector of exactly ``expected`` entries.

    Raises:
        SolverError: naming both counts; a builder indexing
            ``params[2 * layer]`` would otherwise ignore extra entries.
    """
    vector = np.asarray(parameters, dtype=float).reshape(-1)
    if vector.size != expected:
        raise SolverError(f"expected {expected} parameters, got {vector.size}")
    return vector


def check_positive_int(value, field: str) -> None:
    """Refuse a count (iterations, restarts) that is not a positive int.

    Raises:
        SolverError: naming ``field``; a zero, negative, fractional or
            bool count would otherwise be floored or clamped silently.
    """
    if not _positive_int(value):
        raise SolverError(f"{field} must be a positive integer, got {value!r}")


# ----------------------------------------------------------------------
# Work descriptions
# ----------------------------------------------------------------------
class TransitionChainSpec:
    """Structural description of a Rasengan transition chain.

    Holds the basis, the pruned schedule, and the register width; a
    segment (a slice of schedule positions) maps to a circuit whose
    parameters are the segment's evolution times.
    ``masks[position]`` is the :func:`~repro.linalg.moves.move_masks`
    pair of the move scheduled at ``position``, computed once here so
    the exact engine never re-derives it per evaluation.
    """

    def __init__(
        self, basis: np.ndarray, schedule: Sequence[int], num_qubits: int
    ) -> None:
        self.basis = np.asarray(basis)
        self.schedule = tuple(int(index) for index in schedule)
        self.num_qubits = int(num_qubits)
        self.masks = tuple(
            move_masks(self.basis[index]) for index in self.schedule
        )


class AnsatzSpec:
    """Structural description of a baseline ansatz.

    Args:
        num_parameters: variational parameter count.
        build: ``parameters -> QuantumCircuit`` (gate-level ansatz).
        statevector: optional ``parameters -> np.ndarray`` exact fast path
            used instead of simulating the built circuit in exact mode.
    """

    def __init__(
        self,
        num_parameters: int,
        build: Callable[[np.ndarray], QuantumCircuit],
        statevector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.num_parameters = int(num_parameters)
        self.build = build
        self.statevector = statevector


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExecutionEngine:
    """Batched, optionally parallel circuit execution.

    Args:
        backend: backend name, instance, or ``None``/exact alias for the
            exact fast paths.  ``None`` falls back to the process-wide
            default set by :func:`configure_defaults`.
        seed: root seed; all engine randomness (shot sampling, backend
            seeding, fan-out child seeds) derives from it.
        workers: process-pool width for :meth:`map`; ``0``/``1`` = serial.
            ``None`` falls back to the process-wide default.
    """

    def __init__(
        self,
        backend: BackendSpec = None,
        *,
        seed: SeedLike = None,
        workers: Optional[int] = None,
    ) -> None:
        if backend is None:
            backend = _DEFAULTS.backend
        if workers is None:
            workers = _DEFAULTS.workers
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._bank = SeedBank(seed)
        self._rng = self._bank.generator()
        self.backend = resolve_backend(backend, seed=self._bank.child())
        if self.backend is not None:
            self.backend.set_mapper(self.map)

    # ------------------------------------------------------------------
    # Introspection / seeding
    # ------------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True when running the exact fast paths (no backend object)."""
        return self.backend is None

    @property
    def rng(self) -> np.random.Generator:
        """The engine's own generator (shot sampling, measurements)."""
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Rebuild the whole seed tree (engine RNG + backend) from ``seed``.

        Fan-out workers call this with their pre-spawned child sequence so
        worker-local randomness is a pure function of the root seed.
        """
        self._bank = SeedBank(seed)
        self._rng = self._bank.generator()
        if self.backend is not None:
            self.backend.reseed(self._bank.child())

    def spawn_seeds(self, count: int) -> List[np.random.SeedSequence]:
        """Deterministic child seeds for ``count`` independent work units."""
        return self._bank.spawn(count)

    # ------------------------------------------------------------------
    # Gate-level circuits
    # ------------------------------------------------------------------
    def segment_circuit(
        self,
        chain: TransitionChainSpec,
        positions: Sequence[int],
        times: Sequence[float],
    ) -> QuantumCircuit:
        """Gate-level circuit of one chain segment at ``times``."""
        times = parameter_vector(times, len(positions))
        rows = [chain.schedule[position] for position in positions]
        return transition_chain_circuit(
            chain.basis, rows, list(times), chain.num_qubits
        )

    def ansatz_circuit(
        self, spec: AnsatzSpec, parameters: Sequence[float]
    ) -> QuantumCircuit:
        """Gate-level ansatz circuit at ``parameters``."""
        return spec.build(parameter_vector(parameters, spec.num_parameters))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_segment(
        self,
        chain: TransitionChainSpec,
        positions: Sequence[int],
        times: Sequence[float],
        distribution: Dict[int, float],
        shots: Optional[int],
        *,
        segment_index: int = 0,
    ) -> Dict[int, float]:
        """Execute one chain segment seeded from ``distribution``.

        Exact mode evolves a sparse state through the transition operators
        (optionally sampling ``shots`` measurements); backend mode builds
        the segment circuit once and runs it per input state with
        proportional shot allocation.  Returns the segment's raw
        (unpurified) output distribution.
        """
        telemetry.add("engine.executions")
        faults.point("engine.execute")
        if self.backend is None:
            return self._run_segment_sparse(
                chain, positions, times, distribution, shots
            )
        return self._run_segment_backend(
            chain, positions, times, distribution, shots, segment_index
        )

    def _run_segment_sparse(self, chain, positions, times, distribution, shots):
        # No span here: this runs once per segment per COBYLA evaluation,
        # so it reports through counters and the ``sparse.amplitudes``
        # histogram only (the enclosing ``optimizer.cobyla`` span times it).
        state = SparseState.from_distribution(chain.num_qubits, distribution)
        masks = chain.masks
        for position, time in zip(positions, times):
            mask_plus, mask_minus = masks[position]
            state.apply_move(mask_plus, mask_minus, time)
        telemetry.add("circuits.executed")
        raw = state.probabilities()
        if shots is not None:
            telemetry.add("shots.total", shots)
            counts = counts_from_probabilities(raw, shots, self._rng)
            raw = {key: count / shots for key, count in counts.items()}
        return raw

    def _run_segment_backend(self, chain, positions, times, distribution, shots, index):
        with telemetry.span(
            "segment",
            index=index,
            engine=self.backend.name,
            transitions=len(positions),
        ):
            circuit = self.segment_circuit(chain, positions, times)
            allocation = allocate_shots(distribution, shots)
            outputs = []
            for key, state_shots in allocation.items():
                telemetry.add("circuits.executed")
                telemetry.add("shots.total", state_shots)
                counts = self.backend.run(
                    circuit,
                    state_shots,
                    initial_bits=int_to_bits(key, chain.num_qubits),
                )
                outputs.append(counts)
            merged = merge_counts(outputs)
            total = sum(merged.values())
            return {key: count / total for key, count in merged.items()}

    @staticmethod
    def _count_execution() -> None:
        """Count one execution and pass the ``engine.execute`` fault point."""
        telemetry.add("engine.executions")
        faults.point("engine.execute")
        telemetry.add("circuits.executed")

    def sample_ansatz(
        self,
        spec: AnsatzSpec,
        parameters: Sequence[float],
        shots: Optional[int],
    ) -> Dict[int, float]:
        """Output distribution of an ansatz at ``parameters``.

        Backend mode runs the gate-level circuit; exact mode uses the
        spec's dense fast path (or simulates the bound circuit) and
        samples only when ``shots`` is given.
        """
        if self.backend is None and shots is None:
            support, probabilities = self.exact_support(spec, parameters)
            return dict(zip(support.tolist(), probabilities.tolist()))
        self._count_execution()
        if self.backend is not None:
            circuit = self.ansatz_circuit(spec, parameters)
            shots = shots or 1024
            telemetry.add("shots.total", shots)
            counts = self.backend.run(circuit, shots)
            total = sum(counts.values())
            return {key: count / total for key, count in counts.items()}
        probabilities = self._dense_probabilities(spec, parameters)
        telemetry.add("shots.total", shots)
        counts = counts_from_probabilities(probabilities, shots, self._rng)
        return {key: count / shots for key, count in counts.items()}

    def exact_support(
        self, spec: AnsatzSpec, parameters: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact output of an ansatz as ``(support, probabilities)``.

        ``support`` holds the keys above ``1e-12`` probability in
        increasing order and ``probabilities`` their probabilities: the
        items of the exact :meth:`sample_ansatz` dict, as two arrays.

        Raises:
            SolverError: when the engine has a backend.
        """
        if self.backend is not None:
            raise SolverError("exact_support needs an exact engine (no backend)")
        self._count_execution()
        probabilities = self._dense_probabilities(spec, parameters)
        support = np.flatnonzero(probabilities > 1e-12)
        return support, probabilities[support]

    def _dense_probabilities(
        self, spec: AnsatzSpec, parameters: Sequence[float]
    ) -> np.ndarray:
        if spec.statevector is not None:
            state = spec.statevector(np.asarray(parameters, dtype=float))
            return np.abs(state) ** 2
        circuit = self.ansatz_circuit(spec, parameters)
        return StatevectorSimulator().probabilities(circuit)

    # ------------------------------------------------------------------
    # Batching and fan-out
    # ------------------------------------------------------------------
    def run_batch(
        self,
        evaluate: Callable[[T], R],
        batch: Iterable[T],
        *,
        label: str = "batch",
    ) -> List[R]:
        """Evaluate a batch of work items (e.g. parameter vectors) in order.

        Sequential and in-process by construction — ``evaluate`` may be a
        closure over live solver state; use :meth:`map` for process-pool
        fan-out of picklable work.
        """
        items = list(batch)
        with telemetry.span("engine.batch", label=label, size=len(items)):
            telemetry.add("engine.batch.calls")
            telemetry.add("engine.batch.items", len(items))
            return [evaluate(item) for item in items]

    def map(
        self,
        fn: Callable[[T], R],
        payloads: Iterable[T],
        *,
        label: str = "map",
    ) -> List[R]:
        """Order-preserving map over independent work units.

        Serial when ``workers <= 1``; otherwise fans out over a lazily
        created process pool.  ``fn`` and the payloads must be picklable
        (module-level function + plain-data payloads).

        When telemetry is active, each pool task runs under a child
        collector and returns ``(result, delta)``; the deltas are merged
        back here — counters accumulate as if the work had run serially,
        and the child span trees are stitched under this call's
        ``engine.map`` span (tagged ``worker_pid``/``task_index``), so a
        parallel run yields one coherent trace instead of losing the
        spans in the worker processes.
        """
        items = list(payloads)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        with telemetry.span(
            "engine.map", label=label, tasks=len(items), workers=self.workers
        ) as map_span:
            telemetry.add("engine.parallel.tasks", len(items))
            collector = telemetry.active()
            if collector is None:
                return list(pool.map(fn, items))
            parent = map_span if isinstance(map_span, telemetry.Span) else None
            tasks = [(fn, item, index) for index, item in enumerate(items)]
            results: List[R] = []
            for result, delta in pool.map(_run_traced, tasks):
                collector.merge(delta, parent=parent)
                results.append(result)
            return results

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the process pool (no-op when serial)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pickling (fan-out payloads may embed the engine via a solver)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # The pool is process-local.  Unpickled engines run serially —
        # pool workers must never spawn nested pools.
        state["_pool"] = None
        state["workers"] = 0
        return state


def _run_traced(task):
    """Pool-worker wrapper: run one work unit under a child collector.

    Returns ``(result, delta)`` where ``delta`` is the child collector's
    serialized telemetry (:meth:`TelemetryCollector.to_delta`).  Root
    spans are stamped with the worker pid and the task's fan-out index
    so the parent-side stitch keeps per-worker attribution.  The child
    session shadows any collector inherited across ``fork``, so worker
    telemetry never leaks into an unobservable forked copy.
    """
    fn, item, index = task
    collector = telemetry.TelemetryCollector()
    with telemetry.session(collector):
        result = fn(item)
    pid = os.getpid()
    for root in collector.roots:
        root.attributes.setdefault("worker_pid", pid)
        root.attributes.setdefault("task_index", index)
    return result, collector.to_delta()


def ensure_engine(
    engine: Optional[ExecutionEngine] = None,
    *,
    backend: BackendSpec = None,
    seed: SeedLike = None,
    workers: Optional[int] = None,
) -> ExecutionEngine:
    """Return ``engine`` if given, else build one from the arguments."""
    if engine is not None:
        return engine
    return ExecutionEngine(backend, seed=seed, workers=workers)
