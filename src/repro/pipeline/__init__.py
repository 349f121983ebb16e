"""repro.pipeline — staged compilation of the solve path.

The Rasengan solve path is structurally a compiler::

    problem ──▶ basis ──▶ hamiltonian ──▶ prune ──▶ segmentation ──▶ circuit ──▶ execution

This package factors it into exactly those passes.  Every pass consumes
and produces immutable artifact dataclasses
(:mod:`repro.pipeline.artifacts`) whose fingerprints are content
addresses rooted at :func:`repro.problems.io.compile_fingerprint` —
problem type, ``C``, ``b`` and the initial feasible state, the only
problem data the passes read; the :class:`ArtifactCache` (in-memory
LRU + optional ``.npz`` spill directory) then lets restarts, candidate
re-scoring, experiment sweeps, and service jobs that differ only in
objective or backend/shots/optimizer settings reuse every
pre-execution artifact instead of recomputing it.

:class:`~repro.core.solver.RasenganSolver` is a thin orchestration over
:class:`SolvePipeline`; the variational baselines route their
encode/ansatz phases through :func:`compile_ansatz`.  See
``docs/ARCHITECTURE.md`` for the stage/fingerprint table and
``docs/OBSERVABILITY.md`` for the ``pipeline.*`` spans and counters.
"""

from repro.pipeline.artifacts import (
    AnsatzArtifact,
    Artifact,
    BasisArtifact,
    CircuitArtifact,
    HamiltonianArtifact,
    PipelineError,
    PruneArtifact,
    SegmentationArtifact,
    artifact_from_payload,
)
from repro.pipeline.cache import (
    ArtifactCache,
    configure_cache,
    get_default_cache,
)
from repro.pipeline.manager import (
    PIPELINE_VERSION,
    SolvePipeline,
    capture_report,
    compile_ansatz,
    fingerprint_report,
    resolve_compile_fingerprint,
    resolve_problem_fingerprint,
    stage_fingerprint,
)
from repro.pipeline.stages import (
    SOLVE_STAGES,
    BasisStage,
    CircuitStage,
    ExecutionStage,
    HamiltonianStage,
    PruneStage,
    SegmentationStage,
    Stage,
    choose_basis,
)

__all__ = [
    "AnsatzArtifact",
    "Artifact",
    "ArtifactCache",
    "BasisArtifact",
    "BasisStage",
    "CircuitArtifact",
    "CircuitStage",
    "ExecutionStage",
    "HamiltonianArtifact",
    "HamiltonianStage",
    "PIPELINE_VERSION",
    "PipelineError",
    "PruneArtifact",
    "PruneStage",
    "SOLVE_STAGES",
    "SegmentationArtifact",
    "SegmentationStage",
    "SolvePipeline",
    "Stage",
    "capture_report",
    "choose_basis",
    "compile_ansatz",
    "configure_cache",
    "fingerprint_report",
    "get_default_cache",
    "resolve_compile_fingerprint",
    "resolve_problem_fingerprint",
    "stage_fingerprint",
]
