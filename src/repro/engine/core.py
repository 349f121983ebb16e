"""The unified execution engine.

:class:`ExecutionEngine` is the single path from "algorithm wants a
distribution for parameters theta" to "backend returns counts /
probabilities".  It owns:

* the **backend** (resolved by name through the registry, or an instance);
  ``backend=None`` selects the exact fast paths (sparse transition
  evolution for Rasengan, dense statevector for the baselines);
* the **compiled-circuit cache** (:mod:`repro.engine.cache`): segment and
  ansatz circuits are synthesized once per structure and rebound per
  evaluation;
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.core.segmentation import allocate_shots, merge_counts
from repro.core.transition import transition_chain_circuit
from repro.engine.cache import CircuitCache, CompiledCircuit
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
    explicit ``workers``/``backend``/``cache`` — the hook behind the CLI's
    ``--engine-workers`` and ``--backend`` flags.

    ``cache`` is the shared compiled-circuit cache: when set, every engine
    built without an explicit cache reuses it, so identical circuit
    structures are synthesized once *per process* instead of once per
    engine.  The solve service installs one to amortize compilation across
    jobs (:class:`CircuitCache` is thread-safe); ``None`` keeps the
    historical one-private-cache-per-engine behaviour.
    """

    workers: int = 0
    backend: BackendSpec = None
    cache: Optional[CircuitCache] = None


_DEFAULTS = EngineDefaults()


def configure_defaults(*, workers=_UNSET, backend=_UNSET, cache=_UNSET) -> EngineDefaults:
    """Set process-wide engine defaults; returns the previous defaults."""
    previous = replace(_DEFAULTS)
    if workers is not _UNSET:
        _DEFAULTS.workers = int(workers)
    if backend is not _UNSET:
        _DEFAULTS.backend = backend
    if cache is not _UNSET:
        _DEFAULTS.cache = cache
    return previous


def get_defaults() -> EngineDefaults:
    """A copy of the current process-wide defaults."""
    return replace(_DEFAULTS)


def check_shots(shots, field: str) -> None:
    """Refuse shots that are neither ``None`` (exact) nor a positive int.

    Raises:
        SolverError: naming ``field``; zero or negative shots would
            otherwise score an empty sample (or fail deep inside
            sampling) instead of pointing at the configuration.
    """
    if shots is None:
        return
    integral = isinstance(shots, numbers.Integral) and not isinstance(shots, bool)
    if not integral or shots <= 0:
        raise SolverError(
            f"{field} must be None (exact) or a positive integer, got {shots!r}"
        )


# ----------------------------------------------------------------------
# Work descriptions
# ----------------------------------------------------------------------
class TransitionChainSpec:
    """Structural description of a Rasengan transition chain.

    Holds the basis, the pruned schedule, and the register width; a
    segment (a slice of schedule positions) maps to a cache key and a
    circuit builder whose parameters are the segment's evolution times.
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
        self._basis_token = (self.basis.shape, self.basis.tobytes())

    def segment_key(self, positions: Sequence[int]):
        rows = tuple(self.schedule[position] for position in positions)
        return ("chain", self.num_qubits, rows, self._basis_token)

    def segment_builder(self, positions: Sequence[int]):
        rows = [self.schedule[position] for position in positions]
        basis, num_qubits = self.basis, self.num_qubits

        def build(times: np.ndarray) -> QuantumCircuit:
            return transition_chain_circuit(basis, rows, list(times), num_qubits)

        return build


class AnsatzSpec:
    """Structural description of a baseline ansatz.

    Args:
        key: hashable cache key, unique per circuit structure.
        num_parameters: variational parameter count.
        build: ``parameters -> QuantumCircuit`` (gate-level ansatz).
        statevector: optional ``parameters -> np.ndarray`` exact fast path
            used instead of simulating the built circuit in exact mode.
    """

    def __init__(
        self,
        key,
        num_parameters: int,
        build: Callable[[np.ndarray], QuantumCircuit],
        statevector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self.key = key
        self.num_parameters = int(num_parameters)
        self.build = build
        self.statevector = statevector


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExecutionEngine:
    """Cached, batched, optionally parallel circuit execution.

    Args:
        backend: backend name, instance, or ``None``/exact alias for the
            exact fast paths.  ``None`` falls back to the process-wide
            default set by :func:`configure_defaults`.
        seed: root seed; all engine randomness (shot sampling, backend
            seeding, fan-out child seeds) derives from it.
        workers: process-pool width for :meth:`map`; ``0``/``1`` = serial.
            ``None`` falls back to the process-wide default.
        cache_size: LRU capacity of the compiled-circuit cache (ignored
            when an explicit or default shared ``cache`` is in effect).
        cache: compiled-circuit cache to use; ``None`` falls back to the
            process-wide shared cache from :func:`configure_defaults` if
            one is installed, else a private per-engine cache.  Sharing a
            cache across engines never changes results — compiled
            templates are pure functions of the cache key — it only skips
            repeat synthesis.
    """

    def __init__(
        self,
        backend: BackendSpec = None,
        *,
        seed: SeedLike = None,
        workers: Optional[int] = None,
        cache_size: int = 256,
        cache: Optional[CircuitCache] = None,
    ) -> None:
        if backend is None:
            backend = _DEFAULTS.backend
        if workers is None:
            workers = _DEFAULTS.workers
        if cache is None:
            cache = _DEFAULTS.cache
        self.workers = int(workers)
        self.cache_size = int(cache_size)
        self._cache: Optional[CircuitCache] = (
            cache if cache is not None else CircuitCache(cache_size)
        )
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

    @property
    def cache(self) -> CircuitCache:
        if self._cache is None:
            self._cache = CircuitCache(self.cache_size)
        return self._cache

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
    # Compiled circuits
    # ------------------------------------------------------------------
    def segment_circuit(
        self,
        chain: TransitionChainSpec,
        positions: Sequence[int],
        times: Sequence[float],
    ) -> QuantumCircuit:
        """Bound circuit of one chain segment, via the compiled cache."""
        positions = tuple(positions)
        template = self.cache.get(
            chain.segment_key(positions),
            chain.segment_builder(positions),
            len(positions),
        )
        return template.bind(times)

    def ansatz_circuit(
        self, spec: AnsatzSpec, parameters: Sequence[float]
    ) -> QuantumCircuit:
        """Bound ansatz circuit, via the compiled cache."""
        template = self.cache.get(spec.key, spec.build, spec.num_parameters)
        return template.bind(parameters)

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
        (optionally sampling ``shots`` measurements); backend mode binds
        the cached segment circuit once and runs it per input state with
        proportional shot allocation.  Returns the segment's raw
        (unpurified) output distribution.
        """
        telemetry.add("engine.executions")
        faults.point("engine.execute")
        if self.backend is None:
            return self._run_segment_sparse(
                chain, positions, times, distribution, shots, segment_index
            )
        return self._run_segment_backend(
            chain, positions, times, distribution, shots, segment_index
        )

    def _run_segment_sparse(self, chain, positions, times, distribution, shots, index):
        with telemetry.span(
            "segment", index=index, engine="sparse", transitions=len(positions)
        ):
            state = SparseState.from_distribution(chain.num_qubits, distribution)
            masks = chain.masks
            with telemetry.span("sparse.evolve") as evolve_span:
                for position, time in zip(positions, times):
                    mask_plus, mask_minus = masks[position]
                    state.apply_move(mask_plus, mask_minus, time)
                evolve_span.set(amplitudes=len(state.amplitudes))
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

    def sample_ansatz(
        self,
        spec: AnsatzSpec,
        parameters: Sequence[float],
        shots: Optional[int],
    ) -> Dict[int, float]:
        """Output distribution of an ansatz at ``parameters``.

        Backend mode runs the cached bound circuit; exact mode uses the
        spec's dense fast path (or simulates the bound circuit) and
        samples only when ``shots`` is given.
        """
        telemetry.add("engine.executions")
        faults.point("engine.execute")
        telemetry.add("circuits.executed")
        if self.backend is not None:
            circuit = self.ansatz_circuit(spec, parameters)
            shots = shots or 1024
            telemetry.add("shots.total", shots)
            counts = self.backend.run(circuit, shots)
            total = sum(counts.values())
            return {key: count / total for key, count in counts.items()}
        if spec.statevector is not None:
            state = spec.statevector(np.asarray(parameters, dtype=float))
            probabilities = np.abs(state) ** 2
        else:
            circuit = self.ansatz_circuit(spec, parameters)
            probabilities = StatevectorSimulator().probabilities(circuit)
        if shots is None:
            support = np.flatnonzero(probabilities > 1e-12)
            return dict(zip(support.tolist(), probabilities[support].tolist()))
        telemetry.add("shots.total", shots)
        counts = counts_from_probabilities(probabilities, shots, self._rng)
        return {key: count / shots for key, count in counts.items()}

    def sample_distribution(
        self, probabilities: np.ndarray, shots: int
    ) -> Dict[int, int]:
        """Measure ``shots`` outcomes from an explicit distribution.

        The measurement path for algorithms that evolve state themselves
        (Grover adaptive search, the quantum annealer).
        """
        telemetry.add("engine.executions")
        faults.point("engine.execute")
        telemetry.add("circuits.executed")
        telemetry.add("shots.total", shots)
        return counts_from_probabilities(probabilities, shots, self._rng)

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
        # The pool is process-local and the cache holds unpicklable
        # builder closures; both rebuild lazily.  Unpickled engines run
        # serially — pool workers must never spawn nested pools.
        state["_pool"] = None
        state["_cache"] = None
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
