"""Job model and thread-safe priority queue for the solve service.

A :class:`Job` is one solve request travelling through the service:
``PENDING`` in the queue, ``RUNNING`` on a worker, then exactly one of
``DONE`` / ``FAILED`` / ``CANCELLED``.  The :class:`JobSpec` carries
everything a worker needs to execute it — the serialized problem, the
solver-config overrides, the backend, and the scheduling envelope
(priority, wall-clock timeout, bounded retries with exponential
backoff).

:class:`JobQueue` is a condition-variable priority queue: higher
``priority`` drains first, FIFO within a priority level, and jobs
cancelled while queued are skipped at pop time rather than eagerly
removed (cancellation is O(1), the heap stays intact).

The deadline machinery (:class:`Deadline`, :func:`run_with_deadline`) is
independent of the queue: the ``solve --timeout`` CLI path and service
jobs with a custom runner enforce wall-clock limits through it.  A job
on the default runner is bounded by its worker's wait for the execution
process's reply instead
(:meth:`~repro.service.execution.ExecutionProcess.run`), which raises
the same :class:`JobTimeoutError` text.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import threading
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.solver import RasenganConfig
from repro.exceptions import ReproError
from repro import telemetry


class ServiceError(ReproError):
    """Raised for malformed submissions or misused service objects."""


class JobTimeoutError(ServiceError):
    """Raised when a job exceeds its wall-clock deadline."""


class JobState(str, enum.Enum):
    """Lifecycle states; ``DONE``/``FAILED``/``CANCELLED`` are terminal."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: RasenganConfig field names accepted as per-job solver overrides.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RasenganConfig)}


def solver_config_from_dict(overrides: Optional[Dict[str, Any]]) -> RasenganConfig:
    """Build a :class:`RasenganConfig` from a JSON override dict.

    Unknown keys raise :class:`ServiceError` instead of being silently
    dropped — a typo in a remote submission must not run the wrong
    configuration and then be cached under its fingerprint.
    """
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise ServiceError(
            f"unknown solver config field(s): {', '.join(unknown)}"
        )
    return RasenganConfig(**overrides)


@dataclass
class JobSpec:
    """Everything needed to execute one solve request.

    Attributes:
        problem: serialized problem payload
            (:func:`repro.problems.io.problem_to_dict` format).
        config: :class:`RasenganConfig` overrides (JSON-compatible dict).
        backend: execution backend name (``None`` = exact fast path).
        priority: higher drains first; FIFO within a level.
        timeout: wall-clock seconds from submission; the deadline covers
            queue wait *and* execution.  ``None`` = unlimited.
        max_retries: additional attempts after a failed execution.
        retry_backoff: base delay in seconds; attempt ``k`` (0-based)
            sleeps ``retry_backoff * 2**k`` before retrying.
    """

    problem: Dict[str, Any]
    config: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    priority: int = 0
    timeout: Optional[float] = None
    max_retries: int = 0
    retry_backoff: float = 0.1

    def solver_config(self) -> RasenganConfig:
        """The validated solver configuration for this job."""
        return solver_config_from_dict(self.config)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem,
            "config": dict(self.config),
            "backend": self.backend,
            "priority": self.priority,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
        }


class Job:
    """One solve request moving through the service.

    State transitions are lock-protected and monotonic: once a job is
    terminal its state, result, and error never change, and the ``done``
    event is set exactly once.

    Every lifecycle transition is also appended to :attr:`timeline` — the
    job's flight recorder: submission, dedup coalescing, queue pickup,
    retries/backoffs, cancellation requests, and settlement, each stamped
    with seconds since submission.  Workers additionally attach the job's
    execution span tree as :attr:`trace` when telemetry is active; both
    ride along on :meth:`to_dict`, so a job record carries its own
    "why was this slow" answer.
    """

    def __init__(
        self,
        spec: JobSpec,
        *,
        fingerprint: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        on_finish: Optional[Callable[["Job"], None]] = None,
    ) -> None:
        self.id = uuid.uuid4().hex[:12]
        self.spec = spec
        self.fingerprint = fingerprint
        self.state = JobState.PENDING
        self.attempts = 0
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: id of the in-flight job this one coalesced onto (dedup).
        self.coalesced_into: Optional[str] = None
        #: True when the result came straight from the result store.
        self.from_cache = False
        self._clock = clock
        self.submitted_at = clock()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: flight-recorder events ({"event", "t", ...}), oldest first.
        self.timeline: List[Dict[str, Any]] = []
        #: execution span tree (Span.to_dict) when telemetry was active.
        self.trace: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._cancel_event = threading.Event()
        #: called once, with the job, when it turns terminal (before
        #: waiters wake); the service's job index orders expiry by it.
        self._on_finish = on_finish
        self.cancel_requested = False
        self.record_event("submitted", priority=spec.priority)

    # ------------------------------------------------------------------
    # Deadline
    # ------------------------------------------------------------------
    @property
    def deadline(self) -> Optional[float]:
        """Absolute monotonic deadline, or ``None`` when unlimited."""
        if self.spec.timeout is None:
            return None
        return self.submitted_at + self.spec.timeout

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (may be negative)."""
        deadline = self.deadline
        if deadline is None:
            return None
        return deadline - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def record_event(self, event: str, **fields: Any) -> None:
        """Append a timeline event stamped with seconds since submission."""
        entry = self._event(event, **fields)
        with self._lock:
            self.timeline.append(entry)

    def _event(self, event: str, **fields: Any) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "event": event,
            "t": round(self._clock() - self.submitted_at, 6),
        }
        entry.update(fields)
        return entry

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_running(self) -> bool:
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.RUNNING
            self.started_at = self._clock()
            self.timeline.append(
                self._event(
                    "started",
                    queued_seconds=round(self.started_at - self.submitted_at, 6),
                )
            )
            return True

    def mark_done(
        self, result: Dict[str, Any], *, from_cache: bool = False
    ) -> bool:
        return self._finish(JobState.DONE, result=result, from_cache=from_cache)

    def mark_failed(self, error: str) -> bool:
        return self._finish(JobState.FAILED, error=error)

    def cancel(self) -> bool:
        """Request cancellation.

        A queued job is cancelled immediately; a running job only gets
        the ``cancel_requested`` flag set (workers honour it between
        retry attempts — an in-flight solve is never interrupted).
        Returns True when the job ended up cancelled.
        """
        with self._lock:
            self.cancel_requested = True
            self._cancel_event.set()
            self.timeline.append(self._event("cancel_requested"))
            if self.state is JobState.PENDING:
                self.state = JobState.CANCELLED
                self.finished_at = self._clock()
                self.timeline.append(self._event("finished", state="cancelled"))
                self._settled()
                return True
            return self.state is JobState.CANCELLED

    def mark_cancelled(self) -> bool:
        """Settle a non-terminal job as CANCELLED (worker-side honor path).

        Used by workers that observe ``cancel_requested`` between retry
        attempts — unlike :meth:`cancel`, this also settles a RUNNING
        job.  Returns True when the job ends up cancelled.
        """
        with self._lock:
            self.cancel_requested = True
            self._cancel_event.set()
            if self.state.terminal:
                return self.state is JobState.CANCELLED
            self.state = JobState.CANCELLED
            self.finished_at = self._clock()
            self.timeline.append(self._event("finished", state="cancelled"))
            self._settled()
            return True

    def wait_cancel(self, timeout: Optional[float]) -> bool:
        """Block up to ``timeout`` seconds, waking early on cancellation.

        The retry-backoff sleep: returns True when cancellation was
        requested (callers should stop retrying immediately).
        """
        return self._cancel_event.wait(timeout)

    def _finish(self, state, *, result=None, error=None, from_cache=False) -> bool:
        with self._lock:
            if self.state.terminal:
                return False
            self.state = state
            self.result = result
            self.error = error
            self.from_cache = from_cache
            self.finished_at = self._clock()
            entry = self._event("finished", state=state.value)
            if from_cache:
                entry["from_cache"] = True
            self.timeline.append(entry)
            self._settled()
            return True

    def _settled(self) -> None:
        """Run the finish hook, then wake waiters (under ``_lock``)."""
        if self._on_finish is not None:
            self._on_finish(self)
        self._done.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True when it finished."""
        return self._done.wait(timeout)

    def to_dict(self, *, include_problem: bool = False) -> Dict[str, Any]:
        """JSON record of the job (the HTTP API's job resource)."""
        with self._lock:
            record: Dict[str, Any] = {
                "id": self.id,
                "state": self.state.value,
                "priority": self.spec.priority,
                "attempts": self.attempts,
                "fingerprint": self.fingerprint,
                "result": self.result,
                "error": self.error,
                "coalesced_into": self.coalesced_into,
                "from_cache": self.from_cache,
                "timeout": self.spec.timeout,
                "queued_seconds": (
                    (self.started_at or self.finished_at or self._clock())
                    - self.submitted_at
                ),
                "run_seconds": (
                    self.finished_at - self.started_at
                    if self.finished_at is not None and self.started_at is not None
                    else None
                ),
                "timeline": [dict(entry) for entry in self.timeline],
                "trace": self.trace,
            }
        if include_problem:
            record["spec"] = self.spec.to_dict()
        return record


class JobQueue:
    """Thread-safe priority queue of jobs.

    Ordering: highest ``spec.priority`` first, FIFO within equal
    priorities (a monotonic sequence number breaks ties, so heap order
    is total and never compares Job objects).
    """

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._condition = threading.Condition()
        self._counter = itertools.count()
        self._closed = False

    def __len__(self) -> int:
        with self._condition:
            return len(self._heap)

    def put(self, job: Job) -> None:
        """Enqueue ``job``; raises :class:`ServiceError` after close."""
        with self._condition:
            if self._closed:
                raise ServiceError("queue is closed")
            heapq.heappush(
                self._heap, (-job.spec.priority, next(self._counter), job)
            )
            self._condition.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next runnable job.

        Blocks up to ``timeout`` seconds (forever when ``None``); returns
        ``None`` on timeout or once the queue is closed and drained.
        Jobs cancelled while queued are discarded here.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.state is JobState.CANCELLED:
                        continue
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._condition.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._condition.wait(remaining):
                        return None

    def close(self) -> None:
        """Refuse new jobs and wake every blocked :meth:`get`."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def drain_pending(self) -> List[Job]:
        """Remove and return all still-queued jobs (for shutdown paths)."""
        with self._condition:
            jobs = [entry[2] for entry in self._heap]
            self._heap.clear()
            return jobs


# ----------------------------------------------------------------------
# Deadline enforcement (custom-runner service jobs and `solve --timeout`)
# ----------------------------------------------------------------------
class Deadline:
    """A wall-clock budget measured from construction."""

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.seconds = seconds
        self._clock = clock
        self._start = clock()

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return self.seconds - (self._clock() - self._start)

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0


def run_with_deadline(
    fn: Callable[[], Any],
    timeout: Optional[float],
    *,
    label: str = "job",
) -> Any:
    """Run ``fn()`` under a wall-clock limit, on a thread.

    ``timeout=None`` calls ``fn`` inline.  Otherwise ``fn`` runs on a
    daemon thread and this call joins it for at most ``timeout`` seconds;
    on expiry :class:`JobTimeoutError` is raised.  A thread cannot be
    stopped, so an expired computation is *abandoned* (the daemon thread
    finishes in the background and its result is dropped) — the caller
    gets a prompt, honest timeout instead of an unbounded wait.  Only
    in-process work uses this (``solve --timeout``, a service's custom
    runner); a service's execution process is waited on with the same
    bound and then stopped instead.  Exceptions raised by ``fn``
    propagate unchanged.  Spans ``fn`` opens nest under the caller's open
    span, as if it ran inline.
    """
    if timeout is None:
        return fn()
    if timeout <= 0:
        raise JobTimeoutError(f"{label}: deadline expired before execution")
    outcome: Dict[str, Any] = {}
    collector = telemetry.active()
    parent = collector.current_span() if collector is not None else None

    def _target() -> None:
        try:
            with collector.adopt(parent) if parent is not None else nullcontext():
                outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            outcome["error"] = exc

    thread = threading.Thread(
        target=_target, name=f"repro-deadline-{label}", daemon=True
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise JobTimeoutError(
            f"{label}: exceeded wall-clock limit of {timeout:.3f}s"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
