"""The solve service: queue + dedup + store + worker pool.

:class:`SolverService` is the in-process orchestrator behind both the
HTTP API (:mod:`repro.service.http`) and direct Python embedding:

* :meth:`submit` resolves the problem payload, fingerprints the request,
  and short-circuits through the result store (instant ``DONE``) or the
  dedup index (coalesce onto the identical in-flight job) before ever
  touching the queue;
* worker threads drain the queue; each hands its jobs to its own
  execution process (:mod:`repro.service.execution`), so concurrent
  solves run on separate interpreters instead of sharing one GIL.  The
  default runner builds a fresh
  :class:`~repro.core.solver.RasenganSolver` per attempt, so a service
  result is bit-for-bit identical to a direct ``solve`` run with the
  same spec;
* a pipeline artifact cache is installed for the service's lifetime, in
  this process and in each execution process, so submissions over the
  same constraints and initial state share compile work even when dedup
  cannot coalesce them (back-to-back rather than concurrent, or a
  different objective);
* :meth:`close` supports both graceful drain (finish everything queued)
  and fast shutdown (cancel queued jobs, finish only what is running) —
  either way every worker thread is joined under one shared ``timeout``
  budget, no threads are orphaned.

Failure semantics: a job attempt that raises is retried up to
``spec.max_retries`` times with exponential backoff — the backoff sleep
is capped at the job's remaining deadline and wakes early when
cancellation is requested; a job whose wall-clock deadline expires fails
immediately with a timeout error (whether it expired waiting in the
queue or mid-execution, in which case its execution process is stopped
and replaced); a failed or timed-out primary propagates its
failure to every coalesced follower.  Nothing is stored under a
fingerprint except a successful result.

Crash safety (exercised by ``tests/test_service_chaos.py`` and the
``worker.run`` fault point): a worker thread that dies — a
:class:`~repro.faults.WorkerCrash` injection, an execution process that
exits mid-job, or any exception escaping job isolation — settles its
in-flight job as FAILED, propagates the
outcome to followers, and **respawns a replacement thread**, so pool
capacity never decays and no job is left stuck in a non-terminal state.
Terminal jobs are kept for a polling grace window (``job_ttl``) and then
swept (``service.jobs.evicted``), bounding memory under sustained
traffic.  Each job reports its settlement to a finish-ordered queue, so
the sweep on every submit pops expired or over-capacity jobs off its
front and never scans the index.  An optional
:class:`~repro.service.journal.JobJournal` records every lifecycle event
so a restarted service can report what a crash interrupted.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import faults, telemetry

_LOG = logging.getLogger("repro.service")
from repro.faults import WorkerCrash
from repro.pipeline import ArtifactCache, capture_report, configure_cache
from repro.problems.io import problem_from_dict, problem_to_dict
from repro.problems.registry import make_benchmark
from repro.service.dedup import DedupIndex, job_fingerprint
from repro.service.execution import (
    ExecutionProcess,
    default_runner,
)
from repro.service.journal import JobJournal
from repro.service.jobs import (
    Job,
    JobQueue,
    JobSpec,
    JobState,
    JobTimeoutError,
    ServiceError,
    run_with_deadline,
)
from repro.service.store import ResultStore

#: Runner signature: JobSpec -> JSON-compatible result record.
JobRunner = Callable[[JobSpec], Dict[str, Any]]


class SolverService:
    """Long-running multi-tenant solve service.

    Args:
        workers: worker slots.  Each slot is a thread draining the job
            queue and, with the default runner, one execution process
            (:class:`~repro.service.execution.ExecutionProcess`) that
            runs its solves.  Each job may additionally fan out over
            engine processes via its own ``engine_workers`` config.
        store: result store (default: a memory-only
            :class:`~repro.service.store.ResultStore`).
        runner: job execution function, run on the worker thread
            (injectable for tests).  The default,
            :func:`default_runner`, runs in the slot's execution
            process instead.
        sleep: retry-backoff sleep function (injectable for tests).
            ``None`` — the default — uses a cancellation-aware wait that
            wakes as soon as the job is cancelled.
        artifact_cache_size: capacity of the process-wide pipeline
            :class:`~repro.pipeline.cache.ArtifactCache` installed while
            the service runs — jobs over the same constraints and
            initial state coalesce at *stage* granularity (a job
            differing only in objective, shots or optimizer budget
            reuses every pre-execution artifact); ``0`` keeps the
            ambient default cache.
        artifact_spill_dir: optional spill directory for the service's
            artifact cache, persisting artifacts across restarts.
        max_jobs: soft capacity of the in-memory job index; when
            exceeded, the oldest *terminal* jobs are evicted first
            (non-terminal jobs are never evicted).
        job_ttl: grace window in seconds that a terminal job stays
            pollable over HTTP after finishing; ``None`` keeps terminal
            jobs until the capacity sweep needs the room.
        journal: optional :class:`~repro.service.journal.JobJournal`
            recording every job lifecycle event for post-crash triage.
        slow_job_seconds: execution-time threshold above which a finished
            job is logged (``repro.service`` logger, WARNING) and counted
            in ``service.jobs.slow``; ``None`` disables the slow-job log.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        runner: Optional[JobRunner] = None,
        sleep: Optional[Callable[[float], None]] = None,
        artifact_cache_size: int = 256,
        artifact_spill_dir: Optional[str] = None,
        max_jobs: int = 4096,
        job_ttl: Optional[float] = 900.0,
        journal: Optional[JobJournal] = None,
        slow_job_seconds: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if max_jobs < 1:
            raise ServiceError("max_jobs must be >= 1")
        self.workers = int(workers)
        self.queue = JobQueue()
        self.dedup = DedupIndex()
        self.store = store if store is not None else ResultStore()
        self.journal = journal
        self.max_jobs = int(max_jobs)
        self.job_ttl = None if job_ttl is None else float(job_ttl)
        self.slow_job_seconds = (
            None if slow_job_seconds is None else float(slow_job_seconds)
        )
        self._runner = runner if runner is not None else default_runner
        self._slots: List[ExecutionProcess] = []
        self._sleep = sleep
        self._artifact_cache_size = int(artifact_cache_size)
        self._artifact_spill_dir = artifact_spill_dir
        self._previous_artifact_cache: Optional[ArtifactCache] = None
        self._jobs: Dict[str, Job] = {}
        #: ``(finished_at, job)`` of every terminal job still indexed,
        #: in finish order: the sweep's eviction order.
        self._finished: Deque[Tuple[float, Job]] = deque()
        self._jobs_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._running_count = 0
        self._idle = threading.Condition()
        self._started = False
        self._closed = False
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolverService":
        """Install the shared artifact cache and spawn the worker pool.

        With the default runner, one execution process per slot starts
        first, before this service starts any thread: in a process that
        runs no other thread, they fork.
        """
        if self._started:
            return self
        if self._closed:
            raise ServiceError("service already closed")
        if self._artifact_cache_size > 0:
            self._previous_artifact_cache = configure_cache(
                ArtifactCache(
                    max_entries=self._artifact_cache_size,
                    spill_dir=self._artifact_spill_dir,
                )
            )
        if self._runner is default_runner:
            for _ in range(self.workers):
                slot = self._new_slot()
                slot.start()
                self._slots.append(slot)
        for index in range(self.workers):
            self._spawn_worker(index if self._slots else None)
        self._started = True
        return self

    def gauges(self) -> Dict[str, float]:
        """The service's own gauges, for ``GET /metrics``.

        ``service.workers.peak_rss_mb`` is the largest peak RSS an
        execution process reported, in MB; it is absent before the first
        reply, and with a custom runner.
        """
        peak = max((slot.peak_rss_mb for slot in self._slots), default=0.0)
        return {"service.workers.peak_rss_mb": peak} if peak else {}

    def _new_slot(self) -> ExecutionProcess:
        return ExecutionProcess(
            cache_size=self._artifact_cache_size,
            spill_dir=self._artifact_spill_dir,
        )

    def _spawn_worker(self, slot_index: Optional[int]) -> None:
        with self._threads_lock:
            index = len(self._threads)
            thread = threading.Thread(
                target=self._worker_loop,
                args=(slot_index,),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the service down and join every worker thread.

        ``drain=True`` (graceful) finishes all queued and running jobs
        first; ``drain=False`` cancels queued jobs (running ones still
        finish — the engine has no preemption points) before stopping
        the workers.  ``timeout`` is one **shared** wall-clock budget
        covering the drain and every thread join, not a per-thread
        allowance.
        """
        if self._closed:
            return
        self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._started and drain:
            self.drain(
                timeout=None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
        if not drain:
            # Cancel queued work *before* waking the workers, so none of
            # it slips through between close() and the cancellations.
            for job in self.queue.drain_pending():
                if job.cancel():
                    self._journal("cancelled", job)
                    self._settle_followers(job)
        self.queue.close()
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        with self._threads_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
        for slot in self._slots:
            slot.close(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        if self._previous_artifact_cache is not None:
            configure_cache(self._previous_artifact_cache)
            self._previous_artifact_cache = None
        if self.journal is not None:
            self.journal.record("service.stop")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and no job is running.

        Returns True when fully drained, False on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while len(self.queue) > 0 or self._running_count > 0:
                if deadline is None:
                    self._idle.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._idle.wait(remaining):
                        return False
        return True

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: Optional[Dict[str, Any]] = None,
        *,
        benchmark: Optional[str] = None,
        case: int = 0,
        config: Optional[Dict[str, Any]] = None,
        backend: Optional[str] = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> Job:
        """Submit one solve request; returns its :class:`Job` immediately.

        Exactly one of ``problem`` (a serialized payload) or
        ``benchmark`` (+ ``case``; resolved through the paper's benchmark
        registry) must be given.  The request is deduplicated before
        queueing: a stored result completes the job instantly, an
        identical in-flight request absorbs it as a follower.
        """
        if self._closed:
            raise ServiceError("service is closed")
        if (problem is None) == (benchmark is None):
            raise ServiceError("provide exactly one of problem= or benchmark=")
        self._sweep_jobs()
        if benchmark is not None:
            instance = make_benchmark(benchmark, case=case)
        else:
            # Build the instance here: validates the payload at submission
            # time (not on a worker), and serialising it back canonicalises
            # it, so the fingerprint is independent of the submitter's
            # formatting.
            instance = problem_from_dict(problem)
        spec = JobSpec(
            problem=problem_to_dict(instance),
            config=dict(config or {}),
            backend=backend,
            priority=int(priority),
            timeout=timeout,
            max_retries=int(max_retries),
            retry_backoff=float(retry_backoff),
        )
        # The fingerprint builds the solver config here, not on a worker:
        # an unknown field or an invalid value (e.g. ``shots=0``) is
        # refused at submission instead of failing later or caching a
        # bogus record.
        fingerprint = job_fingerprint(spec, problem=instance)
        job = Job(spec, fingerprint=fingerprint, on_finish=self._job_finished)
        with self._jobs_lock:
            self._jobs[job.id] = job
        telemetry.add("service.jobs.submitted")
        self._journal("submitted", job)

        cached = self.store.get(job.fingerprint)
        if cached is not None:
            job.mark_done(cached, from_cache=True)
            self._journal("done", job, detail="cache")
            return job
        primary = self.dedup.admit(job)
        if primary is not None:
            job.record_event("coalesced", primary=primary.id)
            # Re-check: the primary may have finished between the store
            # lookup and admit; settle immediately from its outcome.
            if primary.state.terminal:
                self._copy_outcome(primary, job)
            return job
        self.queue.put(job)
        return job

    def _job_finished(self, job: Job) -> None:
        """Finish hook of every job this service indexes.

        Runs under the job's lock; nothing takes a job's lock while
        holding ``_jobs_lock``, so the two cannot deadlock.
        """
        with self._jobs_lock:
            self._finished.append((job.finished_at, job))

    def _sweep_jobs(self) -> int:
        """Evict terminal jobs past their grace window or over capacity.

        Terminal jobs older than ``job_ttl`` are dropped; if the index is
        still over ``max_jobs``, the oldest-finished terminal jobs go
        next.  Non-terminal jobs are never evicted — under a flood of
        live work the index may exceed ``max_jobs`` until jobs settle.
        Jobs leave the front of the finish-ordered queue, so a sweep
        costs O(1) per evicted job and reads no job that stays.
        """
        evicted = 0
        with self._jobs_lock:
            finished = self._finished
            ttl = self.job_ttl
            now = time.monotonic()
            while finished and (
                len(self._jobs) > self.max_jobs
                or (ttl is not None and now - finished[0][0] >= ttl)
            ):
                _, job = finished.popleft()
                del self._jobs[job.id]
                evicted += 1
        if evicted:
            telemetry.add("service.jobs.evicted", evicted)
        return evicted

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Job counts per state (for the health endpoint)."""
        counts: Dict[str, int] = {state.value: 0 for state in JobState}
        for job in self.jobs():
            counts[job.state.value] += 1
        return counts

    def interrupted_jobs(self) -> List[str]:
        """Job ids a previous process left unfinished (from the journal)."""
        if self.journal is None:
            return []
        return list(self.journal.interrupted)

    def cancel(self, job_id: str) -> bool:
        job = self.get(job_id)
        if job is None:
            return False
        cancelled = job.cancel()
        if cancelled:
            telemetry.add("service.jobs.cancelled")
            self._journal("cancelled", job)
            self._settle_followers(job)
        return cancelled

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, slot_index: Optional[int]) -> None:
        """Drain the queue; ``slot_index`` names this worker's entry of
        ``_slots`` (``None`` with a custom runner)."""
        while True:
            job = self.queue.get()
            if job is None:
                return
            # Read per job: a timeout replaces the slot's execution process.
            slot = None if slot_index is None else self._slots[slot_index]
            with self._idle:
                self._running_count += 1
            crashed = False
            try:
                try:
                    self._execute(job, slot)
                except WorkerCrash as exc:
                    # Injected (or real) worker death: settle the job it
                    # held, then let this thread die and be replaced.
                    crashed = True
                    self._settle_crash(job, str(exc) or "worker crashed")
                except Exception as exc:  # noqa: BLE001 — a service bug
                    # must not strand the job or silently kill the worker.
                    self._settle_crash(
                        job, f"worker error: {type(exc).__name__}: {exc}"
                    )
            finally:
                with self._idle:
                    self._running_count -= 1
                    self._idle.notify_all()
            if crashed:
                self._respawn(slot_index)
                return

    def _settle_crash(self, job: Job, message: str) -> None:
        """Settle a job whose worker died outside normal job isolation."""
        telemetry.add("service.workers.crashed")
        if job.mark_failed(message):
            telemetry.add("service.jobs.failed")
            self._journal("crashed", job, detail=message)
        self._settle_followers(job)

    def _respawn(self, slot_index: Optional[int]) -> None:
        """Replace a crashed worker thread so pool capacity never decays.

        The replacement keeps the slot's execution process; one that
        died is replaced on the slot's next job.
        """
        if self._closed:
            return
        telemetry.add("service.workers.respawned")
        self._spawn_worker(slot_index)

    def _execute(self, job: Job, slot: Optional[ExecutionProcess]) -> None:
        if job.expired():
            telemetry.add("service.jobs.timeouts")
            job.mark_failed(
                f"deadline expired after {job.spec.timeout:.3f}s in queue"
            )
            self._journal("failed", job, detail="deadline expired in queue")
            self._settle_followers(job)
            return
        if not job.mark_running():
            # Cancelled between dequeue and here.
            self._settle_followers(job)
            return
        if job.started_at is not None:
            telemetry.observe(
                "service.jobs.queue_seconds", job.started_at - job.submitted_at
            )
        self._journal("running", job)
        spec = job.spec
        problem_name = spec.problem.get("name", spec.problem.get("type"))
        collector = telemetry.active()
        try:
            with telemetry.span(
                "service.job",
                job=job.id,
                problem=problem_name,
                priority=spec.priority,
            ) as job_span:
                state, record, failure = self._attempt(job, spec, slot)
                job_span.set(attempts=job.attempts, state=state)
        finally:
            # Flight recorder: the span has ended, so its duration is
            # final.  Detaching hands the tree to the job record before the
            # job turns terminal (a waiter never reads a trace-less record)
            # and leaves the process collector holding no job trees, also
            # when a worker crash unwinds through here.
            if isinstance(job_span, telemetry.Span):
                job.trace = collector.detach(job_span)
        if state == "done":
            telemetry.add("service.jobs.executed")
            self.store.put(job.fingerprint, record)
            job.mark_done(record)
            self._journal("done", job)
        elif state == "cancelled":
            job.mark_cancelled()
            telemetry.add("service.jobs.cancelled")
            self._journal("cancelled", job, detail=failure)
        else:
            telemetry.add("service.jobs.failed")
            job.mark_failed(failure or "runner returned no record")
            self._journal("failed", job, detail=failure)
        if job.started_at is not None and job.finished_at is not None:
            elapsed = job.finished_at - job.started_at
            telemetry.observe("service.jobs.run_seconds", elapsed)
            if (
                self.slow_job_seconds is not None
                and elapsed >= self.slow_job_seconds
            ):
                telemetry.add("service.jobs.slow")
                _LOG.warning(
                    "slow job %s (%s): %.3fs >= %.3fs threshold, state=%s",
                    job.id,
                    problem_name,
                    elapsed,
                    self.slow_job_seconds,
                    state,
                )
        self._settle_followers(job)

    def _attempt(
        self, job: Job, spec: JobSpec, slot: Optional[ExecutionProcess]
    ) -> Tuple[str, Optional[Dict[str, Any]], Optional[str]]:
        """Run the job's attempts; returns ``(state, record, failure)``.

        ``state`` is the terminal state the job should take (``done``,
        ``cancelled`` or ``failed``); the job itself is not settled here.
        """
        failure: Optional[str] = None
        timed_out = False
        record: Optional[Dict[str, Any]] = None
        for attempt in range(spec.max_retries + 1):
            job.attempts += 1
            try:
                faults.point("worker.run")
                record = run_with_deadline(
                    lambda: self._run_captured(job, spec, slot),
                    job.remaining(),
                    label=job.id,
                )
                failure = None
                break
            except JobTimeoutError as exc:
                if slot is not None:
                    self._replace_slot(slot)
                telemetry.add("service.jobs.timeouts")
                failure = str(exc)
                timed_out = True
                break  # the deadline is gone; retrying cannot help
            except Exception as exc:  # noqa: BLE001 — jobs isolate failures
                failure = f"{type(exc).__name__}: {exc}"
                if attempt >= spec.max_retries or job.cancel_requested:
                    break
                telemetry.add("service.jobs.retries")
                job.record_event("retry", attempt=attempt + 1, error=failure)
                if self._backoff(job, attempt):
                    break  # cancellation interrupted the backoff
        if failure is None and record is not None:
            return "done", record, None
        if job.cancel_requested and not timed_out:
            return "cancelled", None, failure
        return "failed", None, failure

    def _replace_slot(self, slot: ExecutionProcess) -> None:
        """Close ``slot`` and give its worker a fresh execution process.

        The abandoned deadline thread keeps ``slot``: closing it stops
        the expired solve, and no later job shares its pipe.
        """
        fresh = self._new_slot()
        fresh.peak_rss_mb = slot.peak_rss_mb
        self._slots[self._slots.index(slot)] = fresh
        slot.close()

    def _run_captured(
        self, job: Job, spec: JobSpec, slot: Optional[ExecutionProcess]
    ) -> Dict[str, Any]:
        """Run the job, recording its pipeline stage resolutions.

        Runs inside :func:`run_with_deadline`'s callable so the capture
        lives on whichever thread actually executes the runner, and the
        execution process's telemetry merges under that thread's span.
        The resulting ``pipeline`` timeline event shows — per stage —
        the fingerprint prefix and whether the artifact was a cache hit,
        i.e. how much of the job coalesced at stage granularity.

        Only the default runner goes to the execution process, tested
        per job: a runner set on ``_runner`` after :meth:`start` (tests
        do this to hold a started service's workers) runs on the thread.
        """
        if slot is not None and self._runner is default_runner:
            record, stages = slot.run(spec)
        else:
            with capture_report() as stages:
                record = self._runner(spec)
        if stages:
            job.record_event(
                "pipeline",
                stages=[
                    {
                        "stage": entry["stage"],
                        "fingerprint": entry["fingerprint"][:12],
                        "source": entry["source"],
                    }
                    for entry in stages
                ],
            )
        return record

    def _backoff(self, job: Job, attempt: int) -> bool:
        """Sleep before retry ``attempt + 1``; True when cancelled mid-sleep.

        The exponential delay is capped at the job's remaining deadline —
        sleeping past it would burn wall-clock the next attempt no longer
        has — and the default sleep wakes immediately on cancellation.
        """
        delay = job.spec.retry_backoff * (2 ** attempt)
        remaining = job.remaining()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
        if delay > 0.0:
            if self._sleep is not None:
                self._sleep(delay)
            else:
                job.wait_cancel(delay)
        return job.cancel_requested

    # ------------------------------------------------------------------
    # Settlement plumbing
    # ------------------------------------------------------------------
    def _journal(self, event: str, job: Job, detail: Optional[str] = None) -> None:
        if self.journal is not None:
            self.journal.record(
                event, job.id, fingerprint=job.fingerprint, detail=detail
            )

    def _settle_followers(self, primary: Job) -> None:
        """Propagate a terminal primary's outcome to coalesced followers."""
        if primary.fingerprint is None or primary.coalesced_into is not None:
            return
        for follower in self.dedup.resolve(primary.fingerprint, primary):
            self._copy_outcome(primary, follower)

    def _copy_outcome(self, primary: Job, follower: Job) -> None:
        if primary.state is JobState.DONE and primary.result is not None:
            if follower.mark_done(primary.result):
                self._journal("done", follower, detail="coalesced")
        elif primary.state is JobState.CANCELLED:
            if follower.cancel():
                self._journal("cancelled", follower, detail="coalesced")
        else:
            if follower.mark_failed(
                primary.error or f"coalesced job {primary.id} failed"
            ):
                self._journal("failed", follower, detail="coalesced")
