"""Outside-in tracing for the traced benchmark run.

The tracer wraps the public functions and methods of each layer of
``repro`` from here, the benchmark's own files: no program file is
edited and no span is added inside ``src/``.  A wrapped call opens a
span; spans are kept in memory as ``(name, start, end, parent, job)``
and written out when the run ends.  A span's self time is its duration
minus the time its traced child spans cover.

Hot leaf functions (``int_to_bits``, ``is_feasible``, ...) are called
hundreds of thousands of times per run, so they are aggregated by name
(calls, inclusive and self time) without keeping a span record each.

A function imported into another module by name is looked up there, not
in its home module, so :meth:`Tracer.wrap_function` replaces every
reference to it across the loaded ``repro`` modules.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (name, start, end, span id, parent span id, job id)
SpanRecord = Tuple[str, float, float, int, Optional[int], Any]


class _ThreadState:
    __slots__ = ("stack", "totals", "active", "job")

    def __init__(self) -> None:
        # Frames are [name, child_seconds, span_id].
        self.stack: List[list] = []
        # name -> [calls, inclusive_s, self_s]
        self.totals: Dict[str, list] = {}
        # name -> open frames of that name (recursion guard for inclusive).
        self.active: Dict[str, int] = {}
        self.job: Any = None


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def set_job(self, job: Any) -> None:
        """Tag the spans this thread opens from now on with ``job``."""
        self._state().job = job

    def _wrap(self, name: str, fn: Callable, *, record: bool, job_of=None):
        spans = self.spans
        ids = self._ids
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if job_of is not None:
                previous_job = state.job
                state.job = job_of(args)
            span_id = next(ids) if record else -1
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, span_id]
            stack.append(frame)
            active = state.active
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                active[name] -= 1
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                if not active[name]:
                    total[1] += duration
                total[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans.append((name, start, end, span_id, parent, state.job))
                if job_of is not None:
                    state.job = previous_job

        return wrapper

    def call(self, name: str, body: Callable[[], Any]) -> Any:
        """Run ``body()`` inside a recorded span named ``name`` (the
        benchmark's per-job root span)."""
        return self._wrap(name, body, record=True)()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap_function(
        self, module_name: str, attr: str, name: str, *, record: bool = True
    ) -> None:
        """Wrap a module-level function everywhere ``repro`` looks it up."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, record=record)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def wrap_attribute(
        self, owner: Any, attr: str, name: str, *, record: bool = True, job_of=None
    ) -> None:
        """Wrap ``owner.attr`` in place (a method on a class, or a module
        attribute such as ``scipy.optimize.minimize``)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, record=record, job_of=job_of))

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, inclusive_s, self_s}, summed over threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (calls, inclusive, self_time) in state.totals.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["inclusive_s"] += inclusive
                entry["self_s"] += self_time
        return merged

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the totals and every recorded span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"totals": self.totals(), **(extra or {})}) + "\n")
            for name, start, end, span_id, parent, job in self.spans:
                handle.write(
                    json.dumps([name, round(start, 7), round(end, 7), span_id, parent, job])
                    + "\n"
                )


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------
#: (module, function, span name, keep span records).  Functions are
#: wrapped wherever ``repro`` modules imported them by name.
_FUNCTIONS = (
    ("repro.pipeline.manager", "compile_ansatz", "pipeline.compile", True),
    ("repro.linalg.moves", "augment_moves_for_connectivity", "linalg.augment_moves", True),
    ("repro.linalg.moves", "move_partner_key", "linalg.move_partner_key", False),
    ("repro.linalg.bitvec", "int_to_bits", "linalg.int_to_bits", False),
    ("repro.core.transition", "transition_chain_circuit", "circuits.synthesis", True),
    ("repro.circuits.decompose", "decompose_circuit", "circuits.decompose", True),
    ("repro.core.purification", "purify_probabilities", "core.purify", True),
    ("repro.simulators.sampling", "counts_from_probabilities", "simulators.sampling", True),
)


def _methods():
    """(class, method, span name, keep span records) for every layer."""
    from repro.baselines.choco_q import ChocoQ
    from repro.baselines.common import VariationalBaseline
    from repro.baselines.hea import HardwareEfficientAnsatz
    from repro.baselines.qaoa_penalty import PenaltyQAOA
    from repro.core.solver import RasenganSolver
    from repro.engine.core import ExecutionEngine
    from repro.pipeline import SOLVE_STAGES, SolvePipeline
    from repro.problems.base import ConstrainedBinaryProblem
    from repro.simulators.sparsestate import SparseState
    from repro.simulators.statevector import StatevectorSimulator

    methods = [
        (SolvePipeline, "compile", "pipeline.compile", True),
        (RasenganSolver, "execute", "core.execute", True),
        (ConstrainedBinaryProblem, "is_feasible", "problems.is_feasible", False),
        (ConstrainedBinaryProblem, "value", "problems.value", False),
        (ExecutionEngine, "run_segment", "engine.run_segment", True),
        (ExecutionEngine, "segment_circuit", "engine.bind", True),
        (ExecutionEngine, "ansatz_circuit", "engine.bind", True),
        (SparseState, "apply_transition", "simulators.sparse_evolve", False),
        (StatevectorSimulator, "probabilities", "simulators.statevector", True),
        (VariationalBaseline, "solve", "baselines.solve", True),
    ]
    for cls in (HardwareEfficientAnsatz, PenaltyQAOA, ChocoQ):
        methods.append((cls, "simulate", "simulators.statevector", True))
    for stage in SOLVE_STAGES:
        methods.append(
            (type(stage), "compute", f"pipeline.stage.{stage.name}", True)
        )
    return methods


def install_layers(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import scipy.optimize

    for module_name, attr, name, record in _FUNCTIONS:
        tracer.wrap_function(module_name, attr, name, record=record)
    for owner, attr, name, record in _methods():
        tracer.wrap_attribute(owner, attr, name, record=record)
    # Both the solver and the baselines call ``sciopt.minimize`` through
    # the module attribute, so one patch covers every optimizer call.
    tracer.wrap_attribute(scipy.optimize, "minimize", "optimizer.minimize")
    if service:
        from repro.service.workers import SolverService

        tracer.wrap_attribute(
            SolverService,
            "_execute",
            "service.execute",
            job_of=lambda args: args[1].id,
        )
