"""Service-layer units: queue, deadlines, dedup, store, worker pool."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import SolverError
from repro.problems import make_benchmark
from repro.problems.io import problem_fingerprint, problem_to_dict
from repro.service import (
    Job,
    JobQueue,
    JobSpec,
    JobState,
    JobTimeoutError,
    ResultStore,
    ServiceError,
    SolverService,
    job_fingerprint,
    run_with_deadline,
    solver_config_from_dict,
)

F1 = problem_to_dict(make_benchmark("F1", 0))
K1 = problem_to_dict(make_benchmark("K1", 0))

#: A solver config small enough for sub-second real executions.
QUICK = {"seed": 7, "shots": None, "max_iterations": 5}


def make_job(problem=F1, **spec_kwargs) -> Job:
    spec = JobSpec(problem=problem, **spec_kwargs)
    return Job(spec, fingerprint=job_fingerprint(spec))


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_highest_first(self):
        queue = JobQueue()
        low = make_job(priority=0)
        high = make_job(priority=5)
        mid = make_job(priority=1)
        for job in (low, high, mid):
            queue.put(job)
        assert [queue.get(0.1) for _ in range(3)] == [high, mid, low]

    def test_fifo_within_priority(self):
        queue = JobQueue()
        jobs = [make_job(priority=2) for _ in range(4)]
        for job in jobs:
            queue.put(job)
        assert [queue.get(0.1) for _ in range(4)] == jobs

    def test_get_timeout_returns_none(self):
        assert JobQueue().get(timeout=0.01) is None

    def test_cancelled_jobs_are_skipped(self):
        queue = JobQueue()
        first, second = make_job(priority=9), make_job(priority=1)
        queue.put(first)
        queue.put(second)
        assert first.cancel()
        assert queue.get(0.1) is second

    def test_close_wakes_blocked_get(self):
        queue = JobQueue()
        got = []
        thread = threading.Thread(target=lambda: got.append(queue.get()))
        thread.start()
        queue.close()
        thread.join(2.0)
        assert not thread.is_alive()
        assert got == [None]
        with pytest.raises(ServiceError):
            queue.put(make_job())


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestRunWithDeadline:
    def test_no_timeout_runs_inline(self):
        assert run_with_deadline(lambda: 42, None) == 42

    def test_fast_function_completes(self):
        assert run_with_deadline(lambda: "ok", 5.0) == "ok"

    def test_slow_function_times_out(self):
        with pytest.raises(JobTimeoutError):
            run_with_deadline(lambda: time.sleep(5.0), 0.05)

    def test_expired_deadline_fails_before_execution(self):
        ran = []
        with pytest.raises(JobTimeoutError):
            run_with_deadline(lambda: ran.append(1), 0.0)
        assert not ran

    def test_exception_propagates(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            run_with_deadline(boom, 5.0)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
class TestJobFingerprint:
    def test_stable_across_config_defaults(self):
        explicit = JobSpec(problem=F1, config={"seed": 7, "shots": 1024})
        implicit = JobSpec(problem=F1, config={"seed": 7})
        assert job_fingerprint(explicit) == job_fingerprint(implicit)

    def test_engine_workers_is_not_identity(self):
        serial = JobSpec(problem=F1, config={"seed": 7})
        parallel = JobSpec(problem=F1, config={"seed": 7, "engine_workers": 4})
        assert job_fingerprint(serial) == job_fingerprint(parallel)

    def test_seed_and_problem_change_identity(self):
        base = JobSpec(problem=F1, config={"seed": 7})
        assert job_fingerprint(base) != job_fingerprint(
            JobSpec(problem=F1, config={"seed": 8})
        )
        assert job_fingerprint(base) != job_fingerprint(
            JobSpec(problem=K1, config={"seed": 7})
        )

    def test_backend_changes_identity(self):
        base = JobSpec(problem=F1)
        assert job_fingerprint(base) != job_fingerprint(
            JobSpec(problem=F1, backend="ideal")
        )

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ServiceError, match="shotz"):
            solver_config_from_dict({"shotz": 12})

    def test_instance_hashes_like_its_payload_over_the_registry(self):
        # submit hashes the instance it built; that must give the hash of
        # its serialised payload, which is what older fingerprints hashed.
        families = ("F1", "F2", "F3", "K1", "K2", "K3", "J1", "J2", "J3",
                    "G1", "G3", "S1", "S2")
        for family in families:
            for case in range(1000, 1030):
                instance = make_benchmark(family, case=case)
                assert problem_fingerprint(instance) == problem_fingerprint(
                    problem_to_dict(instance)
                ), (family, case)

    def test_given_instance_hashes_like_the_spec(self):
        spec = JobSpec(problem=K1, config={"seed": 7, "engine_workers": 2})
        assert job_fingerprint(
            spec, problem=make_benchmark("K1", 0)
        ) == job_fingerprint(spec)

    def test_inline_payload_formatting_keeps_the_fingerprint(self):
        service = SolverService(workers=1)
        try:
            service.store.put(
                job_fingerprint(JobSpec(problem=F1, config=QUICK)),
                {"ok": True},
            )
            # Reversed key order, numpy scalars for every number.
            noisy = {
                key: (
                    [[np.float64(value) for value in row]
                     for row in F1[key]]
                    if key == "assign_costs"
                    else [np.float64(value) for value in F1[key]]
                    if key == "open_costs"
                    else F1[key]
                )
                for key in reversed(list(F1))
            }
            job = service.submit(noisy, config=QUICK)
            assert job.from_cache
            assert job.spec.problem == F1
        finally:
            service.close(drain=False)

    def test_store_hit_submit_builds_the_problem_once(self, monkeypatch):
        import repro.problems.io as problems_io
        import repro.service.workers as workers

        calls = []

        def counting(payload, _build=problems_io.problem_from_dict):
            calls.append(payload)
            return _build(payload)

        service = SolverService(workers=1)
        try:
            service.store.put(
                job_fingerprint(JobSpec(problem=F1, config=QUICK)),
                {"ok": True},
            )
            monkeypatch.setattr(problems_io, "problem_from_dict", counting)
            monkeypatch.setattr(workers, "problem_from_dict", counting)
            assert service.submit(benchmark="F1", config=QUICK).from_cache
            assert len(calls) == 0
            assert service.submit(F1, config=QUICK).from_cache
            assert len(calls) == 1
        finally:
            service.close(drain=False)


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_lru_eviction(self):
        store = ResultStore(capacity=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        assert store.get("a") == {"v": 1}  # refresh 'a'
        store.put("c", {"v": 3})  # evicts 'b'
        assert store.get("b") is None
        assert store.get("a") == {"v": 1}
        assert store.get("c") == {"v": 3}

    def test_jsonl_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=8, path=path)
        store.put("a", {"arg": 0.5})
        store.put("a", {"arg": 0.25})  # last record wins on reload
        store.put("b", {"arg": 1.0})
        reloaded = ResultStore(capacity=8, path=path)
        assert len(reloaded) == 2
        assert reloaded.get("a") == {"arg": 0.25}
        assert reloaded.get("b") == {"arg": 1.0}

    def test_midfile_corruption_raises(self, tmp_path):
        # Structural damage (garbage with intact records after it) must
        # still refuse to load; only a torn *tail* is quarantined.
        path = tmp_path / "bad.jsonl"
        good = '{"fingerprint": "a", "result": {"v": 1}}'
        path.write_text(f"not json\n{good}\n")
        with pytest.raises(ServiceError, match="corrupt"):
            ResultStore(path=str(path))

    def test_torn_tail_is_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = '{"fingerprint": "a", "result": {"v": 1}}'
        path.write_text(f'{good}\n{{"fingerprint": "b", "res')  # torn append
        store = ResultStore(path=str(path))
        assert store.get("a") == {"v": 1}
        assert store.quarantined == 1


# ----------------------------------------------------------------------
# Worker pool behaviour (injected runners; no real solves)
# ----------------------------------------------------------------------
class TestServiceRetries:
    def test_flaky_runner_retries_with_backoff(self):
        calls = []
        sleeps = []

        def flaky(spec):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient backend failure")
            return {"ok": True}

        with telemetry.session() as collector:
            service = SolverService(
                workers=1, runner=flaky, sleep=sleeps.append
            ).start()
            job = service.submit(
                F1, config=QUICK, max_retries=3, retry_backoff=0.05
            )
            assert job.wait(5.0)
            service.close()
        assert job.state is JobState.DONE
        assert job.result == {"ok": True}
        assert job.attempts == 3
        assert sleeps == [0.05, 0.1]  # exponential backoff
        assert collector.counter("service.jobs.retries") == 2
        assert collector.counter("service.jobs.executed") == 1

    def test_exhausted_retries_fail(self):
        def always_broken(spec):
            raise RuntimeError("permanently broken")

        with telemetry.session() as collector:
            service = SolverService(
                workers=1, runner=always_broken, sleep=lambda _: None
            ).start()
            job = service.submit(F1, config=QUICK, max_retries=2)
            assert job.wait(5.0)
            service.close()
        assert job.state is JobState.FAILED
        assert "permanently broken" in job.error
        assert job.attempts == 3
        assert collector.counter("service.jobs.failed") == 1

    def test_job_timeout_fails_without_retry(self):
        def slow(spec):
            time.sleep(5.0)
            return {}

        with telemetry.session() as collector:
            service = SolverService(workers=1, runner=slow).start()
            job = service.submit(F1, config=QUICK, timeout=0.05, max_retries=5)
            assert job.wait(5.0)
            service.close(drain=False)
        assert job.state is JobState.FAILED
        assert "wall-clock" in job.error
        assert job.attempts == 1
        assert collector.counter("service.jobs.timeouts") == 1


class TestServiceDedup:
    def test_identical_submissions_coalesce_to_one_execution(self):
        release = threading.Event()
        executions = []
        lock = threading.Lock()

        def gated(spec):
            with lock:
                executions.append(spec.problem["name"])
            release.wait(5.0)
            return {"answer": spec.problem["name"]}

        with telemetry.session() as collector:
            service = SolverService(workers=2, runner=gated).start()
            same = [service.submit(F1, config=QUICK) for _ in range(4)]
            other = service.submit(K1, config=QUICK)
            release.set()
            for job in same + [other]:
                assert job.wait(5.0)
            service.close()
        assert len(executions) == 2  # one per distinct fingerprint
        results = {job.result["answer"] for job in same}
        assert len(results) == 1
        assert collector.counter("service.dedup.unique") == 2
        assert collector.counter("service.dedup.coalesced") == 3
        assert collector.counter("service.dedup.shared_results") == 3
        assert collector.counter("service.jobs.executed") == 2
        followers = [job for job in same if job.coalesced_into is not None]
        assert len(followers) == 3
        assert all(f.coalesced_into == same[0].id for f in followers)

    def test_store_hit_completes_without_execution(self):
        executions = []

        def runner(spec):
            executions.append(1)
            return {"value": 1}

        service = SolverService(workers=1, runner=runner).start()
        first = service.submit(F1, config=QUICK)
        assert first.wait(5.0)
        second = service.submit(F1, config=QUICK)
        assert second.wait(1.0)
        service.close()
        assert len(executions) == 1
        assert second.from_cache
        assert second.result == first.result

    def test_failed_primary_propagates_to_followers(self):
        release = threading.Event()

        def failing(spec):
            release.wait(5.0)
            raise RuntimeError("engine exploded")

        service = SolverService(workers=1, runner=failing).start()
        primary = service.submit(F1, config=QUICK)
        follower = service.submit(F1, config=QUICK)
        release.set()
        assert primary.wait(5.0) and follower.wait(5.0)
        service.close()
        assert primary.state is JobState.FAILED
        assert follower.state is JobState.FAILED
        assert "engine exploded" in follower.error


class TestServiceLifecycle:
    def test_graceful_drain_finishes_all_jobs_and_joins_threads(self):
        def runner(spec):
            time.sleep(0.02)
            return {"done": True}

        service = SolverService(workers=3, runner=runner).start()
        jobs = [
            service.submit(F1, config={**QUICK, "seed": seed})
            for seed in range(8)
        ]
        threads = list(service._threads)
        service.close(drain=True)
        assert all(job.state is JobState.DONE for job in jobs)
        assert all(not thread.is_alive() for thread in threads)

    def test_fast_close_cancels_queued_jobs(self):
        started = threading.Event()
        release = threading.Event()

        def runner(spec):
            started.set()
            release.wait(5.0)
            return {"done": True}

        service = SolverService(workers=1, runner=runner).start()
        running = service.submit(F1, config=QUICK)
        queued = service.submit(K1, config=QUICK)
        assert started.wait(5.0)
        release.set()
        service.close(drain=False)
        assert running.wait(5.0)
        assert running.state is JobState.DONE
        assert queued.state is JobState.CANCELLED

    def test_cancel_pending_job(self):
        release = threading.Event()

        def runner(spec):
            release.wait(5.0)
            return {}

        service = SolverService(workers=1, runner=runner).start()
        blocker = service.submit(F1, config=QUICK)
        victim = service.submit(K1, config=QUICK)
        assert service.cancel(victim.id)
        release.set()
        blocker.wait(5.0)
        service.close()
        assert victim.state is JobState.CANCELLED
        assert blocker.state is JobState.DONE

    def test_cancelling_follower_keeps_primary_coalescing(self):
        release = threading.Event()

        def runner(spec):
            release.wait(5.0)
            return {"v": 1}

        service = SolverService(workers=1, runner=runner).start()
        primary = service.submit(F1, config=QUICK)
        follower_a = service.submit(F1, config=QUICK)
        follower_b = service.submit(F1, config=QUICK)
        assert service.cancel(follower_a.id)
        release.set()
        assert primary.wait(5.0) and follower_b.wait(5.0)
        service.close()
        assert primary.state is JobState.DONE
        assert follower_a.state is JobState.CANCELLED
        assert follower_b.state is JobState.DONE
        assert follower_b.result == primary.result

    def test_submit_validates_arguments(self):
        service = SolverService(workers=1, runner=lambda spec: {})
        with pytest.raises(ServiceError):
            service.submit(F1, benchmark="F1")
        with pytest.raises(ServiceError):
            service.submit()
        service.close()

    def test_submit_refuses_invalid_config_before_queueing(self):
        executed = []
        service = SolverService(workers=1, runner=executed.append).start()
        try:
            with pytest.raises(SolverError, match="shots"):
                service.submit(F1, config={"shots": 0})
            with pytest.raises(SolverError, match="rhobeg"):
                service.submit(F1, config={"rhobeg": 0.0})
            with pytest.raises(SolverError, match="max_iterations"):
                service.submit(F1, config={"max_iterations": 0})
            with pytest.raises(ServiceError, match="shotz"):
                service.submit(F1, config={"shotz": 12})
            assert service.jobs() == []
            assert len(service.queue) == 0
        finally:
            service.close()
        assert executed == []

    def test_priority_orders_execution(self):
        order = []
        release = threading.Event()

        def runner(spec):
            if not release.is_set():
                release.wait(5.0)
            order.append(spec.priority)
            return {}

        service = SolverService(workers=1, runner=runner).start()
        blocker = service.submit(F1, config=QUICK, priority=100)
        jobs = [
            service.submit(K1, config={**QUICK, "seed": seed}, priority=p)
            for seed, p in enumerate((0, 5, 1))
        ]
        release.set()
        for job in [blocker] + jobs:
            assert job.wait(5.0)
        service.close()
        assert order == [100, 5, 1, 0]


# ----------------------------------------------------------------------
# Real end-to-end execution (one tiny solve)
# ----------------------------------------------------------------------
class TestServiceRealSolve:
    def test_service_result_matches_direct_solver_bit_for_bit(self):
        from repro.core.solver import RasenganConfig, RasenganSolver

        solver = RasenganSolver(
            make_benchmark("F1", 0),
            config=RasenganConfig(**solver_config_overrides()),
        )
        try:
            direct = solver.solve().to_json_dict()
        finally:
            solver.engine.close()

        service = SolverService(workers=2).start()
        job = service.submit(benchmark="F1", config=solver_config_overrides())
        assert job.wait(60.0)
        service.close()
        assert job.state is JobState.DONE
        assert job.result == direct


def solver_config_overrides():
    return dict(QUICK)


# ----------------------------------------------------------------------
# Flight recorder (per-job traces)
# ----------------------------------------------------------------------
def _span_names(trace):
    names = [trace["name"]]
    for child in trace["children"]:
        names.extend(_span_names(child))
    return names


class TestFlightRecorder:
    def test_job_turns_terminal_only_with_its_trace(self, monkeypatch):
        # A waiter wakes on mark_done, so the trace must already be there.
        attached = []
        mark_done = Job.mark_done

        def spy(job, result, **kwargs):
            attached.append(job.trace is not None)
            return mark_done(job, result, **kwargs)

        monkeypatch.setattr(Job, "mark_done", spy)
        with telemetry.session():
            service = SolverService(workers=1).start()
            job = service.submit(benchmark="F1", config=QUICK)
            assert job.wait(60.0)
            service.close()
        assert job.state is JobState.DONE
        assert attached == [True]

    def test_jobs_leave_no_trees_and_never_exhaust_the_budget(self):
        # The budget is below what one job's tree held when every segment
        # of every evaluation opened spans; detaching each tree keeps the
        # process collector empty however many jobs run.
        collector = telemetry.TelemetryCollector(max_spans=20)
        with telemetry.session(collector):
            service = SolverService(workers=2).start()
            jobs = [
                service.submit(benchmark="F1", config=dict(QUICK, seed=seed))
                for seed in range(6)
            ]
            for job in jobs:
                assert job.wait(60.0)
            service.close()
        for job in jobs:
            assert job.state is JobState.DONE
            assert job.trace is not None
            assert job.trace["name"] == "service.job"
            assert "solve" in _span_names(job.trace)
        assert collector.roots == []
        assert collector.dropped_spans == 0
        assert collector.summary()["spans"] == 0

    def test_jobs_with_a_timeout_keep_their_trace(self):
        # The execution process's spans merge under the job's span, as
        # they do for a job without a timeout.
        collector = telemetry.TelemetryCollector()
        with telemetry.session(collector):
            service = SolverService(workers=1).start()
            jobs = [
                service.submit(
                    benchmark="F1", config=dict(QUICK, seed=seed), timeout=30
                )
                for seed in range(3)
            ]
            for job in jobs:
                assert job.wait(60.0)
            service.close()
        for job in jobs:
            assert job.state is JobState.DONE
            assert job.trace["name"] == "service.job"
            assert "solve" in [child["name"] for child in job.trace["children"]]
        assert collector.roots == []
        assert collector.summary()["spans"] == 0

    def test_expired_job_leaves_no_spans_once_its_thread_finishes(self):
        release = threading.Event()

        def slow(spec):
            with telemetry.span("slow.before"):
                release.wait(10.0)
            with telemetry.span("slow.after"):  # opens past the deadline
                pass
            return {}

        collector = telemetry.TelemetryCollector()
        with telemetry.session(collector):
            service = SolverService(workers=1, runner=slow).start()
            job = service.submit(F1, config=QUICK, timeout=0.1)
            assert job.wait(10.0)
            (abandoned,) = [
                thread
                for thread in threading.enumerate()
                if thread.name == f"repro-deadline-{job.id}"
            ]
            release.set()
            abandoned.join(10.0)
            assert not abandoned.is_alive()
            service.close()
        assert job.state is JobState.FAILED
        assert "wall-clock" in job.error
        assert _span_names(job.trace) == ["service.job", "slow.before"]
        assert collector.roots == []
        assert collector.summary()["spans"] == 0
        assert collector.dropped_spans == 0

    def test_trace_size_does_not_grow_with_iterations(self):
        traces = {}
        with telemetry.session():
            service = SolverService(workers=1).start()
            for iterations in (10, 40):
                job = service.submit(
                    benchmark="F1",
                    config=dict(QUICK, max_iterations=iterations),
                )
                assert job.wait(60.0)
                traces[iterations] = _span_names(job.trace)
            service.close()
        assert len(traces[10]) == len(traces[40])
        for names in traces.values():
            assert "segment" not in names
            assert "sparse.evolve" not in names


class TestGateLevelJobRecord:
    def test_traced_ideal_backend_record_is_json_serialisable(self):
        # Gate-level segments allocate shots per input state; the counts
        # land in flight-recorder span attributes, so they must be plain
        # ints for the job record (the HTTP response body) to serialise.
        with telemetry.session():
            service = SolverService(workers=1).start()
            job = service.submit(
                benchmark="F1",
                backend="ideal",
                config={"seed": 7, "shots": 64, "max_iterations": 3},
            )
            assert job.wait(120.0)
            service.close()
        assert job.state is JobState.DONE
        record = job.to_dict()
        assert record["trace"]
        assert json.loads(json.dumps(record))["state"] == "done"


# ----------------------------------------------------------------------
# Execution processes (the default runner's children)
# ----------------------------------------------------------------------
def _child_pids(trace):
    """``worker_pid`` of every span in a job trace that carries one."""
    pids = set()
    if "worker_pid" in trace["attributes"]:
        pids.add(trace["attributes"]["worker_pid"])
    for child in trace["children"]:
        pids |= _child_pids(child)
    return pids


def _stall(delay):
    """A plan that holds each child's first execution for ``delay`` seconds."""
    from repro.faults import FaultPlan, FaultRule

    return FaultPlan(
        [FaultRule("engine.execute", "latency", delay=delay, max_fires=1)]
    )


class TestExecutionProcesses:
    def test_kill_fault_fires_in_the_child_and_is_settled(self):
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(
            [FaultRule("engine.execute", "kill", every=1, max_fires=1)]
        )
        with telemetry.session() as collector:
            with faults.session(plan) as injector:
                service = SolverService(workers=1).start()
                try:
                    crashed = service.submit(benchmark="F1", config=QUICK)
                    assert crashed.wait(60.0)
                    after = service.submit(
                        benchmark="F1", config=dict(QUICK, seed=8)
                    )
                    assert after.wait(60.0)
                finally:
                    service.close()
        assert crashed.state is JobState.FAILED
        assert "injected worker crash at engine.execute" in crashed.error
        assert after.state is JobState.DONE
        # The point fired in the child: this process never reached it,
        # yet its log and counters show the one injection.
        assert injector.calls("engine.execute") == 0
        assert injector.log == [("engine.execute", "kill", 1)]
        assert collector.counter("service.faults.kill") == 1
        assert collector.counter("service.workers.crashed") == 1
        assert collector.counter("service.workers.respawned") == 1

    def test_a_child_that_dies_mid_job_fails_it_and_is_replaced(self):
        import os
        import signal

        from repro import faults

        with telemetry.session():
            service = SolverService(workers=1).start()
            try:
                pid = service._slots[0].pid
                with faults.session(_stall(30.0)):
                    job = service.submit(benchmark="F1", config=QUICK)
                    deadline = time.monotonic() + 10.0
                    while job.state is JobState.PENDING:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    os.kill(pid, signal.SIGKILL)
                    assert job.wait(10.0)
                after = service.submit(benchmark="F1", config=dict(QUICK, seed=8))
                assert after.wait(120.0)
                replacement = service._slots[0].pid
            finally:
                service.close()
        assert job.state is JobState.FAILED
        assert f"execution process {pid} was killed by SIGKILL" in job.error
        assert after.state is JobState.DONE
        assert replacement != pid
        assert _child_pids(after.trace) == {replacement}

    def test_a_job_past_its_timeout_fails_promptly_and_stops_its_child(
        self, monkeypatch
    ):
        import multiprocessing
        import os

        from repro import faults
        from repro.service import default_runner

        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        with telemetry.session():
            service = SolverService(workers=1).start()
            monkeypatch.setattr(threading.Thread, "start", recording_start)
            try:
                pid = service._slots[0].pid
                with faults.session(_stall(30.0)):
                    begun = time.monotonic()
                    job = service.submit(benchmark="F1", config=QUICK, timeout=0.5)
                    assert job.wait(10.0)
                    waited = time.monotonic() - begun
                assert job.state is JobState.FAILED
                assert "wall-clock" in job.error
                assert waited < 5.0
                # The worker thread waited on the child itself.
                assert f"repro-deadline-{job.id}" not in started
                # The child was stopped and reaped, not left solving.
                assert pid not in {c.pid for c in multiprocessing.active_children()}
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
                after = service.submit(benchmark="F1", config=QUICK)
                assert after.wait(120.0)
                replacement = service._slots[0].pid
            finally:
                service.close()
        assert after.state is JobState.DONE
        assert replacement not in (None, pid)
        assert _child_pids(after.trace) == {replacement}
        assert after.result == default_runner(after.spec)
        assert not any(name.startswith("repro-deadline-") for name in started)

    def test_a_timeout_during_a_replacement_start_leaves_the_next_job_its_own_child(
        self, monkeypatch
    ):
        import multiprocessing
        import multiprocessing.util

        from repro import faults
        from repro.service import default_runner, execution
        from repro.service.execution import ExecutionProcess

        def exit_hooks():
            return sum(
                hook._callback is execution._stop
                for hook in list(multiprocessing.util._finalizer_registry.values())
            )

        before = set(multiprocessing.active_children())
        hooks = exit_hooks()
        service = SolverService(workers=1).start()
        slot = service._slots[0]
        real_start = ExecutionProcess.start
        starts = []

        def slow_start(self, *args):
            begun = time.monotonic()
            time.sleep(0.2)
            child = real_start(self, *args)
            starts.append((self.pid, time.monotonic() - begun))
            return child

        # Widens the few milliseconds a replacement takes to start.
        monkeypatch.setattr(ExecutionProcess, "start", slow_start)
        try:
            with faults.session(_stall(30.0)):
                first = service.submit(benchmark="F1", config=QUICK, timeout=0.5)
                assert first.wait(10.0)
            # The slot has no child now; this job's deadline expires while
            # its worker still starts the replacement.
            second = service.submit(
                benchmark="F1", config=dict(QUICK, seed=21), timeout=0.01
            )
            assert second.wait(10.0)
            third = service.submit(benchmark="F1", config=dict(QUICK, seed=22))
            assert third.wait(120.0)
            current = service._slots[0]
            pid = current.pid
        finally:
            service.close()
        assert first.state is JobState.FAILED
        assert second.state is JobState.FAILED
        assert "wall-clock" in second.error
        # The wait was bounded by the deadline after the start, not before.
        (second_child, second_start), (third_child, _) = starts
        took = second.finished_at - second.submitted_at
        assert took < second.spec.timeout + second_start + 0.5
        assert third.state is JobState.DONE
        assert third.result == default_runner(third.spec)
        # The second job's child was stopped, and closing the service
        # stopped the third job's: none is left running.
        assert set(multiprocessing.active_children()) <= before
        # Each stopped child dropped its interpreter-exit hook.
        assert exit_hooks() == hooks
        # One object served the slot throughout; the third job ran in a
        # child of its own.
        assert current is slot
        assert pid == third_child != second_child

    def test_concurrent_jobs_run_in_two_processes(self):
        import os

        from repro import faults

        with telemetry.session():
            with faults.session(_stall(0.5)):
                service = SolverService(workers=2).start()
                try:
                    jobs = [
                        service.submit(benchmark="F1", config=dict(QUICK, seed=seed))
                        for seed in (1, 2)
                    ]
                    for job in jobs:
                        assert job.wait(60.0)
                finally:
                    service.close()
        pids = [_child_pids(job.trace) for job in jobs]
        assert all(len(found) == 1 for found in pids)
        assert pids[0] != pids[1]
        assert os.getpid() not in pids[0] | pids[1]
        for job in jobs:
            solve = [c for c in job.trace["children"] if c["name"] == "solve"]
            assert "worker_pid" in solve[0]["attributes"]

    def test_metrics_counters_equal_an_in_thread_run(self):
        from repro.service import ServiceClient, ServiceServer, default_runner

        def counters(runner):
            with telemetry.session():
                service = SolverService(workers=1, runner=runner).start()
                server = ServiceServer(service, port=0).start()
                client = ServiceClient(server.url, timeout=60.0)
                try:
                    for seed in range(3):
                        client.solve(
                            benchmark="F1", config=dict(QUICK, seed=seed),
                            wait_timeout=60.0,
                        )
                    return client.metrics()
                finally:
                    server.stop()
                    service.close()

        in_process = counters(None)
        in_thread = counters(lambda spec: default_runner(spec))
        assert in_process["counters"] == in_thread["counters"]
        assert in_process["counters"]["service.jobs.executed"] == 3
        assert in_process["gauges"]["service.workers.peak_rss_mb"] > 0
        assert in_thread["gauges"] == {}

    def test_a_service_closes_while_a_later_one_runs(self):
        import os

        # The later service's children hold copies of the earlier one's
        # pipes, so closing a pipe alone would not end its child.
        first = SolverService(workers=1).start()
        second = SolverService(workers=1).start()
        try:
            pid = first._slots[0].pid
            started = time.monotonic()
            first.close(timeout=30.0)
            assert time.monotonic() - started < 5.0
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            second.close()

    def test_a_job_with_engine_workers_finishes(self):
        from repro.service import default_runner

        config = {
            "seed": 5, "shots": 96, "max_iterations": 3,
            "restarts": 2, "engine_workers": 2,
        }
        service = SolverService(workers=1).start()
        try:
            job = service.submit(F1, config=config)
            assert job.wait(120.0)
        finally:
            service.close()
        assert job.state is JobState.DONE
        assert job.result == default_runner(JobSpec(problem=F1, config=config))
