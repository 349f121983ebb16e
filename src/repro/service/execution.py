"""Execution processes: where the service's default runner solves.

A solve is CPU-bound Python, so two solves on two threads of one
interpreter take turns on its GIL and finish later than they would back
to back.  :class:`ExecutionProcess` moves them out: each worker slot of
:class:`~repro.service.workers.SolverService` owns one child process and
one duplex :func:`multiprocessing.Pipe`.  The worker thread keeps every
piece of job logic (queue, dedup, retries, deadline, store) and sends
only the :class:`~repro.service.jobs.JobSpec` down the pipe; the child
runs :func:`default_runner` and replies with

* the record (or the exception the runner raised);
* the pipeline stage entries :func:`~repro.pipeline.capture_report`
  collected;
* a :meth:`~repro.telemetry.TelemetryCollector.to_delta`, recorded only
  when the parent has a collector active, its root spans stamped with
  ``worker_pid``;
* the fault-injector log entries that fired in the child;
* the child's peak resident set size (``ru_maxrss``).

:meth:`ExecutionProcess.run` folds the reply back where an in-thread
run would have left it: the delta merges under the calling thread's
current span, the fault entries join the installed injector's log, and
the stage entries return to the caller for the job's timeline.

A child starts with ``fork`` while the calling process runs a single
Python thread, and with ``spawn`` otherwise (:func:`start_method`): a
forked copy of a threaded process can deadlock on a lock some other
thread held at the fork.  ``repro serve`` starts its service before any
thread, so its children fork and answer a first job within about 0.1 s,
where a spawned one first spends about 1.4 s importing the program.  A
service started in a process that already runs threads (a test, a
benchmark, a second service), and every replacement child, is spawned.
A child is replaced when it died, or when a job's deadline expired while
it ran: the worker then closes its :class:`ExecutionProcess` and takes a
fresh one, since the abandoned deadline thread still holds the old one.
Children are not daemonic, so a job with ``engine_workers >= 1`` can
start its own process pool.  The fault injector a child uses is the
parent's: a forked child inherits it, and the plan is sent again
whenever the parent installs another one, so a rule's call counter and
``max_fires`` apply per execution process.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import pickle
import resource
import signal
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro import faults, telemetry
from repro.engine import configure_defaults, get_defaults
from repro.faults import WorkerCrash
from repro.pipeline import ArtifactCache, capture_report, configure_cache
from repro.problems.io import problem_from_dict
from repro.service.jobs import JobSpec


def start_method() -> str:
    """``fork`` while this process runs one Python thread, else ``spawn``.

    Decided at each start: a child forked from a threaded process could
    inherit a lock (the fault injector's, the artifact cache's) that
    another thread held, and hang on it.  Native threads are not
    counted: OpenBLAS quiesces its pool at fork.
    """
    if threading.active_count() > 1:
        return "spawn"
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def default_runner(spec: JobSpec) -> Dict[str, Any]:
    """Execute one solve through the unified engine.

    Reconstructs the problem and configuration exactly as the ``solve``
    CLI does, so the returned record is bit-for-bit identical to a
    direct run with the same spec.
    """
    from repro.core.solver import RasenganSolver

    problem = problem_from_dict(spec.problem)
    config = spec.solver_config()
    solver = RasenganSolver(problem, backend=spec.backend, config=config)
    try:
        result = solver.solve()
    finally:
        solver.engine.close()
    return result.to_json_dict()


class ExecutionProcess:
    """One worker slot's execution process and its pipe.

    Owned by one thread at a time: the slot's worker thread, or the
    deadline thread it runs a job on.  The child starts on the first
    :meth:`start` or, after a death, on the next :meth:`run`.  Once
    :meth:`close` has been called, no child starts and :meth:`run`
    raises, so an abandoned deadline thread never reaches a child
    another job uses.

    Args:
        cache_size: capacity of the artifact cache the child installs
            (``0`` keeps the child's ambient default cache).
        spill_dir: the cache's spill directory.
    """

    def __init__(self, *, cache_size: int, spill_dir: Optional[str]) -> None:
        self._setup = (int(cache_size), spill_dir, get_defaults())
        self._child: Optional[_Child] = None
        #: The parent's injector whose plan the child runs.
        self._injector: Optional[faults.FaultInjector] = None
        self._lock = threading.Lock()
        #: Notified when a job that found the slot closed has reaped its child.
        self._reaped = threading.Condition(self._lock)
        self._busy = False
        self._closed = False
        #: Largest ``ru_maxrss`` any reply reported, in MB.
        self.peak_rss_mb = 0.0

    @property
    def pid(self) -> Optional[int]:
        child = self._child
        return None if child is None else child.process.pid

    def start(self) -> None:
        """Start the child with :func:`start_method`, unless closed."""
        method = start_method()
        context = multiprocessing.get_context(method)
        parent_end, child_end = context.Pipe(duplex=True)
        # A forked child closes its copy of the parent end, so its pipe
        # reads end-of-input once the parent is gone.
        process = context.Process(
            target=_serve,
            args=(child_end, self._setup, parent_end if method == "fork" else None),
            name="repro-service-execution",
            daemon=False,
        )
        process.start()
        child_end.close()
        child = _Child(self, process, parent_end)
        with self._lock:
            closed = self._closed
            if not closed:
                self._child = child
                # A forked child runs the injector it inherited; a
                # spawned one has none until a request sends a plan.
                self._injector = faults.active() if method == "fork" else None
        if closed:  # closed while this child started
            child.stop(graceful=False)

    def run(self, spec: JobSpec) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Solve ``spec`` in the child; returns ``(record, stage_entries)``.

        Raises:
            WorkerCrash: the child died with the job in flight (the
                message names its exit; the next call starts a
                replacement), or this execution process is closed.
            BaseException: whatever the runner raised in the child.
        """
        child = self._claim()
        collector = telemetry.active()
        request: Dict[str, Any] = {
            "spec": spec,
            "max_spans": None if collector is None else collector.max_spans,
        }
        injector = faults.active()
        if injector is not self._injector:
            request["faults"] = None if injector is None else injector.plan
            self._injector = injector
        try:
            child.conn.send(request)
            reply = child.conn.recv()
        except (EOFError, OSError):
            raise WorkerCrash(self._lost(child)) from None
        finally:
            with self._lock:
                closed = self._closed
                if not closed:
                    self._busy = False
            if closed:  # close() found the job in flight: reap its child
                child.stop(graceful=False)
                with self._reaped:
                    self._busy = False
                    self._reaped.notify_all()
        if collector is not None and "telemetry" in reply:
            parent, delta = collector.current_span(), reply["telemetry"]
            if parent is not None and parent.end is not None:
                # The job's deadline closed its trace: keep only metrics.
                delta = dict(delta, spans=[])
            collector.merge(delta, parent=parent)
        if injector is not None and reply["faults"]:
            injector.extend_log(reply["faults"])
        self.peak_rss_mb = max(self.peak_rss_mb, reply["rss_mb"])
        if "error" in reply:
            raise reply["error"]
        return reply["record"], reply["stages"]

    def _claim(self) -> "_Child":
        """The child, started if need be, marked busy for one job."""
        with self._lock:
            child = None if self._closed else self._child
        if child is None:
            self.start()
        with self._lock:
            if self._closed:
                raise WorkerCrash("execution process closed before the job ran")
            self._busy = True
            return self._child

    def _lost(self, child: "_Child") -> str:
        """Forget a dead child; returns how it exited."""
        process = child.process
        process.join(5.0)
        code = process.exitcode
        with self._lock:
            if self._child is child:
                self._child = None
        child.stop(graceful=False)
        if code is None:
            return f"execution process {process.pid} stopped answering"
        if code < 0:
            return (
                f"execution process {process.pid} was killed by "
                f"{signal.Signals(-code).name}"
            )
        return f"execution process {process.pid} exited with code {code}"

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the child for good.

        An idle child gets a stop request.  A busy one (its job's
        deadline expired, or the service closes with a job in flight) is
        terminated, so the abandoned solve stops using CPU, and reaped by
        the thread that waits on its reply; this call waits for that.
        """
        with self._lock:
            self._closed = True
            child, self._child = self._child, None
            busy = self._busy
        if child is None:
            return
        if not busy:
            child.stop(graceful=True, timeout=timeout)
            return
        child.process.terminate()
        with self._reaped:
            self._reaped.wait_for(lambda: not self._busy, timeout)


class _Child:
    """A started child process and the parent's end of its pipe."""

    def __init__(self, owner: ExecutionProcess, process, conn) -> None:
        self.process, self.conn = process, conn
        # Stops the child at interpreter exit (or when its owner is
        # collected) unless stop() came first.
        self._at_exit = multiprocessing.util.Finalize(
            owner, _stop, args=(process, conn), exitpriority=10
        )

    def stop(self, *, graceful: bool, timeout: Optional[float] = 5.0) -> None:
        self._at_exit.cancel()
        _stop(self.process, self.conn, graceful=graceful, timeout=timeout)


def _stop(process, conn, *, graceful: bool = True, timeout: Optional[float] = 5.0) -> None:
    """End ``process``: ask it to stop (or terminate it), wait, then kill.

    The stop request, not the end of input, ends an idle child: every
    process forked later holds a copy of ``conn``, so closing it here
    does not reach the child.
    """
    if graceful:
        try:
            conn.send(None)
        except OSError:  # the pipe is closed, or the child is gone
            pass
    else:
        process.terminate()
    conn.close()
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(1.0)
    if process.is_alive():
        process.kill()
        process.join()


# ----------------------------------------------------------------------
# The child
# ----------------------------------------------------------------------
def _serve(conn, setup, parent_end) -> None:
    """Child main loop: answer one request per job until told to stop."""
    if parent_end is not None:
        parent_end.close()
    # Ctrl-C reaches the whole process group; the parent drains its
    # in-flight jobs on it, so the children must keep running them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A collector inherited across fork is a stale copy nobody reads.
    while telemetry.active() is not None:
        telemetry.disable()
    cache_size, spill_dir, engine = setup
    configure_defaults(workers=engine.workers, backend=engine.backend)
    if cache_size > 0:
        configure_cache(ArtifactCache(max_entries=cache_size, spill_dir=spill_dir))
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):  # the parent is gone
            return
        if request is None:
            return
        reply = _execute(request)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _execute(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one request's job; the reply dict :meth:`ExecutionProcess.run` reads."""
    if "faults" in request:
        plan = request["faults"]
        if plan is None:
            faults.uninstall()
        else:
            faults.install(plan)
    injector = faults.active()
    fired = len(injector.log) if injector is not None else 0
    max_spans = request["max_spans"]
    collector = None
    if max_spans is not None:
        collector = telemetry.enable(telemetry.TelemetryCollector(max_spans=max_spans))
    reply: Dict[str, Any] = {}
    try:
        with capture_report() as stages:
            reply["record"] = default_runner(request["spec"])
    except BaseException as exc:  # noqa: BLE001 — re-raised in the parent
        reply["error"] = _picklable(exc)
    finally:
        if collector is not None:
            telemetry.disable()
    reply["stages"] = stages
    if collector is not None:
        pid = os.getpid()
        for root in collector.roots:
            root.attributes.setdefault("worker_pid", pid)
        reply["telemetry"] = collector.to_delta()
    reply["faults"] = injector.log[fired:] if injector is not None else []
    reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return reply


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives the pipe, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — any pickling failure
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
