"""The pass manager: fingerprint, look up, compute, record.

:class:`SolvePipeline` drives the staged compilation of one
(problem, config) pair.  For every stage it

1. derives the stage fingerprint — SHA-256 over the stage name, the
   fingerprints of its input artifacts (rooted at
   :func:`repro.problems.io.problem_fingerprint`), and the stage's
   config slice;
2. consults the :class:`~repro.pipeline.cache.ArtifactCache` (in-memory
   LRU, then the spill directory);
3. on a miss, runs the pass and stores the artifact.

Each pass — hit or miss — emits one ``pipeline.<stage>`` telemetry span
tagged with the fingerprint and the artifact source, so a Chrome trace
shows the stage waterfall and which passes were skipped; per-stage
``pipeline.computed.<stage>`` counters let tests assert exactly which
stages re-ran after a config change.  The per-run stage report also
feeds the service's job timeline (:func:`capture_report`) and the
``inspect`` CLI.

The same machinery compiles the variational baselines' encode/ansatz
phases (:func:`compile_ansatz`): the ansatz identity becomes a content
address instead of a process-unique counter, so identical baseline
instances share one synthesized circuit template.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro import telemetry
from repro.exceptions import ProblemError
from repro.pipeline.artifacts import AnsatzArtifact, Artifact, PipelineError
from repro.pipeline.cache import ArtifactCache, get_default_cache
from repro.pipeline.stages import SOLVE_STAGES, Stage
from repro.problems.io import problem_fingerprint

#: Bump when a stage's output format changes incompatibly: old spill
#: files then simply miss instead of deserializing into the wrong shape.
PIPELINE_VERSION = 1


def stage_fingerprint(
    stage: str, inputs: Sequence[str], config_slice: Dict[str, Any]
) -> str:
    """Content address of one stage invocation.

    A pure function of the stage name, the input artifact fingerprints
    (transitively rooted at the problem fingerprint), and the stage's
    config slice — stable across processes, dict ordering, and runs.
    """
    payload = {
        "v": PIPELINE_VERSION,
        "stage": stage,
        "inputs": list(inputs),
        "config": config_slice,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_INSTANCE_FP_ATTR = "_pipeline_instance_fingerprint"
_INSTANCE_FP_COUNTER = itertools.count()


def resolve_problem_fingerprint(problem) -> str:
    """Root fingerprint of ``problem``, tolerant of custom types.

    Registry problems hash their canonical JSON payload
    (:func:`~repro.problems.io.problem_fingerprint`).  Custom
    ``ConstrainedBinaryProblem`` subclasses that ``problems/io`` cannot
    serialize get a process-unique fallback fingerprint, cached on the
    instance: repeated compiles of the *same* instance still coalesce in
    the in-memory cache, while distinct instances can never collide.
    Fallback fingerprints are not stable across processes, so spill-dir
    reuse only applies to serializable problems.
    """
    try:
        return problem_fingerprint(problem)
    except ProblemError:
        token = getattr(problem, _INSTANCE_FP_ATTR, None)
        if token is None:
            payload = {
                "fallback": next(_INSTANCE_FP_COUNTER),
                "type": type(problem).__name__,
                "name": str(getattr(problem, "name", "")),
                "num_variables": int(problem.num_variables),
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            token = hashlib.sha256(text.encode("utf-8")).hexdigest()
            try:
                setattr(problem, _INSTANCE_FP_ATTR, token)
            except (AttributeError, TypeError):
                pass
        return token


# ----------------------------------------------------------------------
# Per-thread stage-report capture (service job timelines)
# ----------------------------------------------------------------------
_capture = threading.local()


@contextmanager
def capture_report():
    """Collect every stage resolution on this thread into one list.

    The solve service wraps each job's runner in this so the job's
    flight-recorder timeline reports which artifacts were cache hits.
    """
    buffer: List[Dict[str, Any]] = []
    stack = getattr(_capture, "stack", None)
    if stack is None:
        stack = _capture.stack = []
    stack.append(buffer)
    try:
        yield buffer
    finally:
        stack.pop()


def _record_capture(entry: Dict[str, Any]) -> None:
    stack = getattr(_capture, "stack", None)
    if stack:
        stack[-1].append(entry)


# ----------------------------------------------------------------------
# The pass manager
# ----------------------------------------------------------------------
class SolvePipeline:
    """Staged compilation of one (problem, config) pair.

    Args:
        problem: the problem instance (its
            :func:`~repro.problems.io.problem_fingerprint` roots every
            stage fingerprint).
        config: a :class:`~repro.core.solver.RasenganConfig`-shaped
            object; stages read only their declared config slice.
        cache: artifact cache; ``None`` uses the process-wide default
            (:func:`repro.pipeline.cache.get_default_cache`).
        stages: pass sequence; defaults to the five solve passes.
    """

    def __init__(
        self,
        problem,
        config,
        *,
        cache: Optional[ArtifactCache] = None,
        stages: Optional[Sequence[Stage]] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self._cache = cache
        self._stages: Dict[str, Stage] = {
            stage.name: stage for stage in (stages or SOLVE_STAGES)
        }
        self._order = [stage.name for stage in (stages or SOLVE_STAGES)]
        self.problem_fingerprint = resolve_problem_fingerprint(problem)
        self._artifacts: Dict[str, Artifact] = {}
        #: Stage resolutions of this pipeline, oldest first:
        #: ``{"stage", "fingerprint", "source"}``.
        self.report: List[Dict[str, Any]] = []

    @property
    def cache(self) -> ArtifactCache:
        return self._cache if self._cache is not None else get_default_cache()

    # ------------------------------------------------------------------
    def fingerprint(self, name: str) -> str:
        """The stage fingerprint of ``name`` (computing upstream ones)."""
        stage = self._stage(name)
        inputs = [self.fingerprint(dep) for dep in stage.inputs]
        if not stage.inputs:
            inputs = [self.problem_fingerprint]
        return stage_fingerprint(
            name, inputs, stage.config_slice(self.config)
        )

    def artifact(self, name: str) -> Artifact:
        """The artifact of stage ``name``, computing or reusing as needed."""
        cached = self._artifacts.get(name)
        if cached is not None:
            return cached
        stage = self._stage(name)
        inputs = {dep: self.artifact(dep) for dep in stage.inputs}
        input_fps = [artifact.fingerprint for artifact in inputs.values()]
        if not stage.inputs:
            input_fps = [self.problem_fingerprint]
        fingerprint = stage_fingerprint(
            name, input_fps, stage.config_slice(self.config)
        )
        with telemetry.span(
            f"pipeline.{name}", fingerprint=fingerprint[:12]
        ) as span:
            artifact = self.cache.get(fingerprint)
            source = "cache"
            if artifact is None:
                artifact = stage.compute(self, inputs, fingerprint)
                telemetry.add(f"pipeline.computed.{name}")
                self.cache.put(artifact)
                source = "computed"
            span.set(source=source)
        entry = {"stage": name, "fingerprint": fingerprint, "source": source}
        self.report.append(entry)
        _record_capture(entry)
        self._artifacts[name] = artifact
        return artifact

    def compile(self) -> Dict[str, Artifact]:
        """Run (or reuse) every pass; returns artifacts by stage name."""
        return {name: self.artifact(name) for name in self._order}

    def _stage(self, name: str) -> Stage:
        stage = self._stages.get(name)
        if stage is None:
            raise PipelineError(
                f"unknown stage {name!r} (have: {', '.join(self._order)})"
            )
        return stage

    # ------------------------------------------------------------------
    # Pickling: artifacts travel, the cache stays process-local.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = None
        return state


# ----------------------------------------------------------------------
# Baseline encode/ansatz passes
# ----------------------------------------------------------------------
def compile_ansatz(
    problem,
    algorithm: str,
    num_parameters: int,
    structure: Dict[str, Any],
    *,
    penalty: float,
    cache: Optional[ArtifactCache] = None,
) -> AnsatzArtifact:
    """Compile a baseline's encode + ansatz phases into an identity.

    Two passes through the same fingerprint machinery as the solve
    pipeline: ``encode`` (the penalty encoding of the constraints —
    config slice: the penalty coefficient) feeds ``ansatz`` (the circuit
    structure — config slice: everything structural, e.g. layer count,
    frozen qubits, Trotterisation).  The resulting
    :class:`~repro.pipeline.artifacts.AnsatzArtifact` is the ansatz's
    content-addressed identity.
    """
    cache = cache if cache is not None else get_default_cache()
    problem_fp = resolve_problem_fingerprint(problem)
    encode_fp = stage_fingerprint(
        "encode", [problem_fp], {"penalty": float(penalty)}
    )
    with telemetry.span("pipeline.encode", fingerprint=encode_fp[:12]):
        pass  # the encoding itself is cheap; the fingerprint is the value
    slice_payload = dict(structure)
    slice_payload["algorithm"] = algorithm
    ansatz_fp = stage_fingerprint("ansatz", [encode_fp], slice_payload)
    with telemetry.span(
        f"pipeline.ansatz", fingerprint=ansatz_fp[:12]
    ) as span:
        artifact = cache.get(ansatz_fp)
        source = "cache"
        if artifact is None:
            artifact = AnsatzArtifact(
                fingerprint=ansatz_fp,
                algorithm=algorithm,
                num_parameters=int(num_parameters),
            )
            telemetry.add("pipeline.computed.ansatz")
            cache.put(artifact)
            source = "computed"
        span.set(source=source)
    _record_capture(
        {"stage": "ansatz", "fingerprint": ansatz_fp, "source": source}
    )
    return artifact


# ----------------------------------------------------------------------
# Cross-process helpers
# ----------------------------------------------------------------------
def fingerprint_report(
    problem_payload: Dict[str, Any], config: Optional[Dict[str, Any]] = None
) -> Dict[str, str]:
    """Stage-name -> fingerprint map for a serialized problem + config.

    Module-level and built from plain dicts, so it can be shipped to
    ``engine.map`` pool workers to assert that stage fingerprints are
    identical across processes.
    """
    from repro.core.solver import RasenganConfig
    from repro.problems.io import problem_from_dict

    problem = problem_from_dict(problem_payload)
    pipeline = SolvePipeline(
        problem,
        RasenganConfig(**(config or {})),
        cache=ArtifactCache(),
    )
    return {name: pipeline.fingerprint(name) for name in pipeline._order}
