"""Content-addressed deduplication of solve submissions.

Two submissions are *the same work* when they agree on the canonical
problem serialization, the fully-resolved solver configuration, and the
backend — then the engine's determinism contract guarantees bit-identical
results, so running the solve once and sharing the record is safe.

:func:`job_fingerprint` derives that identity as a SHA-256 hash built on
:func:`repro.problems.io.problem_fingerprint`.  The solver config is
normalised through :class:`~repro.core.solver.RasenganConfig` first, so
``{"seed": 7}`` and ``{"seed": 7, "shots": 1024}`` (the default) hash
identically.  ``engine_workers`` is excluded: PR 2's engine makes
parallel fan-out bit-identical to serial (CI diffs the two), so worker
count is an execution detail, not an identity.

:class:`DedupIndex` tracks the in-flight primary job per fingerprint.
``admit`` either registers a job as primary or attaches it as a follower
of the running primary; when the primary finishes, the service copies
its outcome to every follower.  Counters: ``service.dedup.unique``,
``service.dedup.coalesced``, ``service.dedup.shared_results``.

Jobs that are *not* whole-job identical still coalesce at **stage**
granularity: the service installs a shared
:class:`~repro.pipeline.cache.ArtifactCache`, so two jobs over the same
problem that differ only in shots, seed, or optimizer budget share every
pre-execution pipeline artifact (basis through segmentation; a solve
never compiles the depth-accounting circuit stage).  Each job's
``pipeline`` timeline event records which stages were cache hits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import Dict, List, Optional

from repro import telemetry
from repro.problems.io import problem_fingerprint
from repro.service.jobs import Job, JobSpec, solver_config_from_dict

#: Config fields that never change the solved result (execution details).
_NON_SEMANTIC_CONFIG = ("engine_workers",)


def job_fingerprint(spec: JobSpec) -> str:
    """Canonical content hash of (problem, solver config, backend).

    Stable across dict ordering, numpy dtypes, and omitted-vs-explicit
    default config values; distinct for anything that can change the
    result record (including the problem name, which is embedded in it).
    """
    config = dataclasses.asdict(solver_config_from_dict(spec.config))
    for field in _NON_SEMANTIC_CONFIG:
        config.pop(field, None)
    payload = {
        "problem": problem_fingerprint(spec.problem),
        "config": config,
        "backend": spec.backend,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DedupIndex:
    """In-flight primary job per fingerprint, with follower attachment."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._primaries: Dict[str, Job] = {}
        self._followers: Dict[str, List[Job]] = {}

    def admit(self, job: Job) -> Optional[Job]:
        """Register ``job`` under its fingerprint.

        Returns ``None`` when the job becomes the primary (caller must
        enqueue it), or the primary job it coalesced onto (caller must
        *not* enqueue; the outcome arrives via :meth:`resolve`).
        """
        fingerprint = job.fingerprint
        if fingerprint is None:
            raise ValueError("job has no fingerprint")
        with self._lock:
            primary = self._primaries.get(fingerprint)
            if primary is None:
                self._primaries[fingerprint] = job
                self._followers[fingerprint] = []
                telemetry.add("service.dedup.unique")
                return None
            self._followers[fingerprint].append(job)
            job.coalesced_into = primary.id
            telemetry.add("service.dedup.coalesced")
            return primary

    def resolve(self, fingerprint: str, primary: Optional[Job] = None) -> List[Job]:
        """Retire the fingerprint; returns the followers awaiting the
        primary's outcome (counted as ``service.dedup.shared_results``).

        When ``primary`` is given, the entry is only retired if it is
        still registered to that exact job — a follower's cancellation
        must never tear down the live primary's coalescing state.
        """
        with self._lock:
            registered = self._primaries.get(fingerprint)
            if registered is None or (primary is not None and registered is not primary):
                return []
            self._primaries.pop(fingerprint, None)
            followers = self._followers.pop(fingerprint, [])
        if followers:
            telemetry.add("service.dedup.shared_results", len(followers))
        return followers

    def inflight(self) -> int:
        """Number of distinct fingerprints currently in flight."""
        with self._lock:
            return len(self._primaries)
