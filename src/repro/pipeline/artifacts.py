"""Immutable, fingerprintable intermediate artifacts of the solve path.

Each compilation pass (:mod:`repro.pipeline.stages`) consumes and
produces one of the frozen dataclasses below.  An artifact is a *value*:
its :attr:`fingerprint` is a content address derived from the problem
fingerprint plus every upstream stage's fingerprint and config slice
(:func:`repro.pipeline.manager.stage_fingerprint`), so two artifacts with
equal fingerprints are interchangeable by construction.  Numpy arrays
held by an artifact are marked read-only — a consumer that tries to
mutate a shared artifact fails loudly instead of corrupting the cache.

Every artifact round-trips through ``(meta, arrays)`` payloads
(:meth:`to_payload` / :func:`artifact_from_payload`) so the
:class:`~repro.pipeline.cache.ArtifactCache` can spill it to an ``.npz``
file and a different process can pick it up by fingerprint alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.prune import PruneResult
from repro.core.segmentation import SegmentPlan
from repro.exceptions import ReproError


class PipelineError(ReproError):
    """Raised for malformed pipeline configuration or artifacts."""


def _frozen(array: np.ndarray, dtype=None) -> np.ndarray:
    """A read-only copy of ``array`` (artifact arrays are immutable)."""
    out = np.array(array, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Artifact:
    """Base class: every pipeline artifact carries its content address."""

    fingerprint: str

    #: Registry key; set per subclass, used by the spill codec.
    kind = "artifact"

    def to_payload(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """``(JSON-compatible meta, named arrays)`` for spill/transport."""
        raise NotImplementedError

    @classmethod
    def from_payload(
        cls,
        fingerprint: str,
        meta: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> "Artifact":
        raise NotImplementedError

    def nbytes(self) -> int:
        """Approximate serialized size (meta JSON + array bytes)."""
        meta, arrays = self.to_payload()
        return len(json.dumps(meta, sort_keys=True)) + sum(
            int(a.nbytes) for a in arrays.values()
        )


@dataclass(frozen=True)
class BasisArtifact(Artifact):
    """Output of the basis pass: nullspace basis + feasible start.

    Attributes:
        basis: raw signed-unit homogeneous basis of ``C u = 0`` (Def. 1).
        initial_bits: the problem's linear-time feasible construction.
        num_variables: register width ``n``.
    """

    basis: np.ndarray
    initial_bits: np.ndarray
    num_variables: int

    kind = "basis"

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _frozen(self.basis))
        object.__setattr__(self, "initial_bits", _frozen(self.initial_bits))

    def to_payload(self):
        return (
            {"kind": self.kind, "num_variables": int(self.num_variables)},
            {"basis": self.basis, "initial_bits": self.initial_bits},
        )

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        return cls(
            fingerprint=fingerprint,
            basis=arrays["basis"],
            initial_bits=arrays["initial_bits"],
            num_variables=int(meta["num_variables"]),
        )


@dataclass(frozen=True)
class HamiltonianArtifact(Artifact):
    """Output of the transition-Hamiltonian pass: the chosen move set.

    Holds the simplified (Algorithm 1) and/or connectivity-augmented
    basis that the transition Hamiltonian is built from, after the
    cheapest-candidate selection by pruned-chain CX cost.

    Attributes:
        basis: the winning move set.
        candidates: number of candidate bases that were evaluated.
        candidate_prune: the winner's :class:`PruneResult` from candidate
            evaluation, when one was computed — the prune pass reuses it
            instead of re-deriving the identical schedule (the evaluation
            is hoisted here so every later consumer shares it).
    """

    basis: np.ndarray
    candidates: int
    candidate_prune: Optional[PruneResult] = field(default=None, compare=False)

    kind = "hamiltonian"

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", _frozen(self.basis))

    def to_payload(self):
        meta: Dict[str, Any] = {
            "kind": self.kind,
            "candidates": int(self.candidates),
            "candidate_prune": _prune_to_meta(self.candidate_prune),
        }
        return meta, {"basis": self.basis}

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        return cls(
            fingerprint=fingerprint,
            basis=arrays["basis"],
            candidates=int(meta["candidates"]),
            candidate_prune=_prune_from_meta(meta.get("candidate_prune")),
        )


@dataclass(frozen=True)
class PruneArtifact(Artifact):
    """Output of the prune pass: retained schedule + (warm) start.

    Attributes:
        initial_bits: the feasible start actually used downstream (the
            warm-started solution when ``warm_start`` is enabled).
        pruned: full pruning outcome (coverage counts, early stop, ...).
        schedule: retained transition indices, in execution order.
    """

    initial_bits: np.ndarray
    pruned: PruneResult
    schedule: Tuple[int, ...]

    kind = "prune"

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_bits", _frozen(self.initial_bits))
        object.__setattr__(self, "schedule", tuple(int(i) for i in self.schedule))

    def to_payload(self):
        meta = {
            "kind": self.kind,
            "schedule": [int(i) for i in self.schedule],
            "pruned": _prune_to_meta(self.pruned),
        }
        return meta, {"initial_bits": self.initial_bits}

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        return cls(
            fingerprint=fingerprint,
            initial_bits=arrays["initial_bits"],
            pruned=_prune_from_meta(meta["pruned"]),
            schedule=tuple(meta["schedule"]),
        )


@dataclass(frozen=True)
class SegmentationArtifact(Artifact):
    """Output of the segmentation pass: the executable segment plan."""

    plan: SegmentPlan

    kind = "segmentation"

    def to_payload(self):
        meta = {
            "kind": self.kind,
            "segments": [list(segment) for segment in self.plan.segments],
        }
        return meta, {}

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        plan = SegmentPlan(
            segments=tuple(tuple(int(p) for p in seg) for seg in meta["segments"])
        )
        return cls(fingerprint=fingerprint, plan=plan)


@dataclass(frozen=True)
class CircuitArtifact(Artifact):
    """Output of the circuit pass: synthesis-derived depth accounting.

    The gate-level segment circuits themselves are not kept (the engine
    builds them per backend evaluation); this artifact records what
    downstream consumers actually read off them — per-segment
    decomposed depth, decomposed two-qubit depth, and the linear
    ``34 k`` CX-cost model — all independent of the evolution times.

    Attributes:
        num_qubits: register width.
        num_parameters: one evolution time per retained transition.
        segment_depths: decomposed circuit depth per segment.
        segment_depths_2q: decomposed two-qubit (CX) depth per segment.
        segment_cx_costs: linear-model CX cost per segment.
    """

    num_qubits: int
    num_parameters: int
    segment_depths: Tuple[int, ...]
    segment_depths_2q: Tuple[int, ...]
    segment_cx_costs: Tuple[int, ...]

    kind = "circuit"

    @property
    def max_depth(self) -> int:
        """Depth of the deepest executed segment (0 when degenerate)."""
        return max(self.segment_depths, default=0)

    @property
    def max_depth_2q(self) -> int:
        return max(self.segment_depths_2q, default=0)

    @property
    def max_segment_cx(self) -> int:
        return max(self.segment_cx_costs, default=0)

    @property
    def chain_cx(self) -> int:
        """Whole-chain CX cost under the linear model (unsegmented)."""
        return sum(self.segment_cx_costs)

    def to_payload(self):
        meta = {
            "kind": self.kind,
            "num_qubits": int(self.num_qubits),
            "num_parameters": int(self.num_parameters),
            "segment_depths": [int(d) for d in self.segment_depths],
            "segment_depths_2q": [int(d) for d in self.segment_depths_2q],
            "segment_cx_costs": [int(c) for c in self.segment_cx_costs],
        }
        return meta, {}

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        return cls(
            fingerprint=fingerprint,
            num_qubits=int(meta["num_qubits"]),
            num_parameters=int(meta["num_parameters"]),
            segment_depths=tuple(meta["segment_depths"]),
            segment_depths_2q=tuple(meta["segment_depths_2q"]),
            segment_cx_costs=tuple(meta["segment_cx_costs"]),
        )


@dataclass(frozen=True)
class AnsatzArtifact(Artifact):
    """Output of the baseline ansatz pass: a content-addressed identity.

    Its fingerprint hashes (problem, penalty, algorithm, structural
    config), so identical baseline instances resolve to one artifact and
    a service job's pipeline timeline names the ansatz it trained.

    Attributes:
        algorithm: baseline identifier (``hea`` / ``pqaoa`` / ``chocoq``).
        num_parameters: variational parameter count.
    """

    algorithm: str
    num_parameters: int

    kind = "ansatz"

    def to_payload(self):
        meta = {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "num_parameters": int(self.num_parameters),
        }
        return meta, {}

    @classmethod
    def from_payload(cls, fingerprint, meta, arrays):
        return cls(
            fingerprint=fingerprint,
            algorithm=meta["algorithm"],
            num_parameters=int(meta["num_parameters"]),
        )


# ----------------------------------------------------------------------
# PruneResult <-> JSON meta
# ----------------------------------------------------------------------
def _prune_to_meta(pruned: Optional[PruneResult]) -> Optional[Dict[str, Any]]:
    if pruned is None:
        return None
    return {
        "schedule": [int(i) for i in pruned.schedule],
        "kept_positions": [int(i) for i in pruned.kept_positions],
        "original_length": int(pruned.original_length),
        "coverage_after": [int(i) for i in pruned.coverage_after],
        "total_reachable": int(pruned.total_reachable),
        "early_stop_position": (
            None
            if pruned.early_stop_position is None
            else int(pruned.early_stop_position)
        ),
    }


def _prune_from_meta(meta: Optional[Dict[str, Any]]) -> Optional[PruneResult]:
    if meta is None:
        return None
    return PruneResult(
        schedule=list(meta["schedule"]),
        kept_positions=list(meta["kept_positions"]),
        original_length=int(meta["original_length"]),
        coverage_after=list(meta["coverage_after"]),
        total_reachable=int(meta["total_reachable"]),
        early_stop_position=meta.get("early_stop_position"),
    )


#: Spill-codec registry: meta ``kind`` -> artifact class.
ARTIFACT_KINDS = {
    cls.kind: cls
    for cls in (
        BasisArtifact,
        HamiltonianArtifact,
        PruneArtifact,
        SegmentationArtifact,
        CircuitArtifact,
        AnsatzArtifact,
    )
}


def artifact_from_payload(
    fingerprint: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> Artifact:
    """Reconstruct any registered artifact from its spill payload."""
    kind = meta.get("kind")
    cls = ARTIFACT_KINDS.get(kind)
    if cls is None:
        raise PipelineError(f"unknown artifact kind {kind!r}")
    return cls.from_payload(fingerprint, meta, arrays)
