"""Durability and bugfix coverage: torn tails, compaction, lock-free
appends, job eviction, deadline-capped backoff, shared close budget,
worker crash recovery, and the job-event journal."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import faults, telemetry
from repro.faults import FaultPlan, FaultRule
from repro.problems import make_benchmark
from repro.problems.io import problem_to_dict
from repro.service import (
    Job,
    JobJournal,
    JobSpec,
    JobState,
    ResultStore,
    SolverService,
    job_fingerprint,
)

F1 = problem_to_dict(make_benchmark("F1", 0))
K1 = problem_to_dict(make_benchmark("K1", 0))
QUICK = {"seed": 7, "shots": None, "max_iterations": 5}


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# Store: torn tails, compaction, lock-free appends
# ----------------------------------------------------------------------
class TestTornTailRecovery:
    def test_torn_tail_roundtrip_via_injected_fault(self, tmp_path):
        """A torn append (injected) must survive restart: intact records
        load, the torn line is quarantined, and the file is repaired so
        later appends stay parseable."""
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=8, path=path)
        store.put("a", {"arg": 0.5})
        store.put("b", {"arg": 1.0})
        with telemetry.session() as collector:
            # Tear the third append mid-line.
            with faults.session(
                FaultPlan([FaultRule("store.append", "truncate", every=1)])
            ):
                store.put("c", {"arg": 2.0})
            assert collector.counter("service.store.append_errors") == 1

            # Simulated restart over the torn file.
            reloaded = ResultStore(capacity=8, path=path)
            assert collector.counter("service.store.quarantined") == 1
        assert reloaded.get("a") == {"arg": 0.5}
        assert reloaded.get("b") == {"arg": 1.0}
        assert reloaded.get("c") is None  # its append never completed
        assert reloaded.quarantined == 1

        # The repaired file accepts clean appends and reloads again.
        reloaded.put("d", {"arg": 3.0})
        final = ResultStore(capacity=8, path=path)
        assert final.get("d") == {"arg": 3.0}
        assert final.quarantined == 0

    def test_live_store_repairs_tail_before_next_append(self, tmp_path):
        """Damage must not compound: after a torn append, the next append
        truncates the torn bytes first, so reload never sees mid-file
        garbage."""
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=8, path=path)
        with faults.session(
            FaultPlan([FaultRule("store.append", "truncate", every=2)])
        ):
            for index in range(6):  # appends 2, 4, 6 are torn
                store.put(f"k{index}", {"v": index})
        reloaded = ResultStore(capacity=8, path=path)
        assert reloaded.get("k0") == {"v": 0}
        assert reloaded.get("k1") is None  # torn, then repaired away
        assert reloaded.get("k2") == {"v": 2}
        assert reloaded.quarantined == 1  # only the final torn tail

    def test_missing_trailing_newline_is_repaired(self, tmp_path):
        path = tmp_path / "results.jsonl"
        line = json.dumps({"fingerprint": "a", "result": {"v": 1}})
        path.write_text(line)  # complete record, no final newline
        store = ResultStore(capacity=8, path=str(path))
        assert store.get("a") == {"v": 1}
        store.put("b", {"v": 2})
        reloaded = ResultStore(capacity=8, path=str(path))
        assert reloaded.get("a") == {"v": 1}
        assert reloaded.get("b") == {"v": 2}


class TestCompaction:
    def test_explicit_compact_snapshots_live_entries(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=4, path=path)
        for index in range(10):
            store.put(f"k{index}", {"v": index})
        assert store.compact() == 4  # LRU holds the last four
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == 4
        assert {entry["fingerprint"] for entry in lines} == {
            "k6", "k7", "k8", "k9"
        }
        reloaded = ResultStore(capacity=4, path=path)
        assert len(reloaded) == 4
        assert reloaded.get("k9") == {"v": 9}

    def test_auto_compaction_bounds_log_growth(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with telemetry.session() as collector:
            store = ResultStore(capacity=16, path=path, compact_factor=4)
            for index in range(200):
                store.put(f"k{index}", {"v": index})
            assert collector.counter("service.store.compactions") >= 1
        line_count = sum(1 for _ in open(path, encoding="utf-8"))
        assert line_count < 200
        assert store  # silence unused warning; store stays functional

    def test_compaction_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=4, path=path)
        store.put("a", {"v": 1})
        store.compact()
        leftovers = [
            name for name in tmp_path.iterdir() if "tmp" in name.name
        ]
        assert leftovers == []


class TestLockFreeAppend:
    def test_store_readable_while_slow_append_in_flight(self, tmp_path):
        """Persistence I/O happens outside the entry lock: a slow append
        must not block concurrent reads."""
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(capacity=8, path=path)
        store.put("fast", {"v": 1})
        plan = FaultPlan(
            [FaultRule("store.append", "latency", every=1, delay=0.4)]
        )
        with faults.session(plan):
            writer = threading.Thread(
                target=store.put, args=("slow", {"v": 2})
            )
            writer.start()
            time.sleep(0.05)  # let the writer enter its slow append
            start = time.monotonic()
            assert store.get("fast") == {"v": 1}
            assert "slow" in store  # memory already updated
            elapsed = time.monotonic() - start
            writer.join(5.0)
        assert elapsed < 0.2, f"reader blocked {elapsed:.3f}s on append I/O"


# ----------------------------------------------------------------------
# Service: eviction, backoff, close budget, crash recovery
# ----------------------------------------------------------------------
class TestJobEviction:
    def test_capacity_sweep_bounds_job_index(self):
        with telemetry.session() as collector:
            service = SolverService(
                workers=1,
                runner=lambda spec: {"ok": True},
                max_jobs=4,
                job_ttl=None,
            ).start()
            jobs = []
            for seed in range(12):
                job = service.submit(F1, config={**QUICK, "seed": seed})
                assert job.wait(5.0)
                jobs.append(job)
            service.close()
            assert len(service.jobs()) <= 5
            assert collector.counter("service.jobs.evicted") >= 7
        # The freshest job survives the sweep; the oldest are gone.
        assert service.get(jobs[-1].id) is jobs[-1]
        assert service.get(jobs[0].id) is None

    def test_ttl_sweep_drops_terminal_jobs_after_grace(self):
        with telemetry.session() as collector:
            service = SolverService(
                workers=1,
                runner=lambda spec: {"ok": True},
                job_ttl=0.0,
            ).start()
            first = service.submit(F1, config=QUICK)
            assert first.wait(5.0)
            second = service.submit(K1, config=QUICK)
            assert second.wait(5.0)
            service.close()
            assert service.get(first.id) is None  # swept on second submit
            assert collector.counter("service.jobs.evicted") == 1

    def test_non_terminal_jobs_are_never_evicted(self):
        release = threading.Event()

        def runner(spec):
            release.wait(5.0)
            return {}

        service = SolverService(
            workers=1, runner=runner, max_jobs=1, job_ttl=0.0
        ).start()
        running = service.submit(F1, config=QUICK)
        queued = service.submit(K1, config=QUICK)
        third = service.submit(F1, config={**QUICK, "seed": 99})
        # All three are live (running/pending): none may be swept.
        assert {running.id, queued.id, third.id} <= {
            job.id for job in service.jobs()
        }
        release.set()
        for job in (running, queued, third):
            assert job.wait(5.0)
        service.close()

    def test_submit_inspects_no_job_inside_its_ttl(self, monkeypatch):
        """The sweep reads the finish-ordered queue, never the index."""
        service = SolverService(workers=1, store=ResultStore(capacity=8))
        spec = JobSpec(problem=F1, config=QUICK)
        service.store.put(job_fingerprint(spec), {"ok": True})
        for _ in range(service.max_jobs):
            assert service.submit(F1, config=QUICK).from_cache
        indexed = {id(job) for job in service.jobs()}
        assert len(indexed) == 4096
        touched = []
        original = Job.__getattribute__

        def spy(job, name):
            if id(job) in indexed:
                touched.append(name)
            return original(job, name)

        monkeypatch.setattr(Job, "__getattribute__", spy)
        with telemetry.session() as collector:
            job = service.submit(F1, config=QUICK)
        monkeypatch.undo()
        assert job.from_cache
        assert touched == []
        assert collector.counter("service.jobs.evicted") == 0
        assert len(service.jobs()) == 4097
        service.close()

    @staticmethod
    def _settle_every_path(**service_options):
        """A started service plus one job per terminal path, in the order
        they settled: done, store hit, failed, cancelled while pending,
        a coalesced primary and its follower, cancelled while running."""
        release = {seed: threading.Event() for seed in (1, 3, 4, 5)}

        def runner(spec):
            seed = spec.config["seed"]
            if seed == 2:
                raise ValueError("planned failure")
            release[seed].wait(5.0)
            if seed == 4:
                raise ValueError("stopped after cancellation")
            return {"seed": seed}

        service = SolverService(workers=1, runner=runner, **service_options)
        service.start()
        order = []
        done = service.submit(F1, config={**QUICK, "seed": 1})
        release[1].set()
        assert done.wait(5.0) and done.state is JobState.DONE
        order.append(done)
        store_hit = service.submit(F1, config={**QUICK, "seed": 1})
        assert store_hit.from_cache
        order.append(store_hit)
        failed = service.submit(F1, config={**QUICK, "seed": 2})
        assert failed.wait(5.0) and failed.state is JobState.FAILED
        order.append(failed)
        primary = service.submit(F1, config={**QUICK, "seed": 3})
        follower = service.submit(F1, config={**QUICK, "seed": 3})
        assert follower.coalesced_into == primary.id
        pending = service.submit(F1, config={**QUICK, "seed": 5})
        assert service.cancel(pending.id)
        assert pending.state is JobState.CANCELLED
        order.append(pending)
        release[3].set()
        assert primary.wait(5.0) and follower.wait(5.0)
        assert follower.state is JobState.DONE
        order.extend(sorted((primary, follower), key=lambda j: j.finished_at))
        running = service.submit(F1, config={**QUICK, "seed": 4})
        deadline = time.monotonic() + 5.0
        while running.state is not JobState.RUNNING:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.001)
        assert not service.cancel(running.id)  # flagged, still running
        release[4].set()
        assert running.wait(5.0) and running.state is JobState.CANCELLED
        order.append(running)
        assert [job.finished_at for job in order] == sorted(
            job.finished_at for job in order
        )
        return service, order

    def test_capacity_evicts_in_finish_order_over_every_path(self):
        service, order = self._settle_every_path(max_jobs=7, job_ttl=None)
        assert len(service.jobs()) == 7
        evicted = []
        for _ in order:
            before = {job.id for job in service.jobs()}
            assert service.submit(F1, config={**QUICK, "seed": 1}).from_cache
            evicted.extend(before - {job.id for job in service.jobs()})
        # The first extra submit only fills the index to 8; each later
        # one evicts exactly the oldest-finished job.
        assert evicted == [job.id for job in order[:-1]]
        service.close()

    def test_ttl_evicts_in_finish_order_over_every_path(self, monkeypatch):
        import repro.service.workers as workers

        service, order = self._settle_every_path(job_ttl=100.0)
        for index, job in enumerate(order):
            now = job.finished_at + 100.0
            monkeypatch.setattr(
                workers, "time", type("Clock", (), {"monotonic": lambda: now})
            )
            service._sweep_jobs()
            monkeypatch.undo()
            indexed = {j.id for j in service.jobs()}
            expired = [j for j in order if j.finished_at <= job.finished_at]
            assert not indexed & {j.id for j in expired}
            assert {j.id for j in order[index + 1 :] if j not in expired} <= indexed
        service.close()


class TestDeadlineCappedBackoff:
    def test_backoff_never_sleeps_past_remaining_deadline(self):
        """A huge retry_backoff must be clamped to the job's remaining
        wall-clock budget (exercised with a fake clock)."""
        ticks = [0.0]
        spec = JobSpec(problem=F1, timeout=1.0, retry_backoff=10.0)
        job = Job(spec, fingerprint="f", clock=lambda: ticks[0])
        sleeps = []
        service = SolverService(
            workers=1, runner=lambda s: {}, sleep=sleeps.append
        )
        ticks[0] = 0.4  # 0.6 s of budget left
        cancelled = service._backoff(job, attempt=3)  # uncapped: 80 s
        service.close()
        assert not cancelled
        assert sleeps == [pytest.approx(0.6)]

    def test_expired_deadline_skips_the_sleep_entirely(self):
        ticks = [0.0]
        spec = JobSpec(problem=F1, timeout=1.0, retry_backoff=10.0)
        job = Job(spec, fingerprint="f", clock=lambda: ticks[0])
        sleeps = []
        service = SolverService(
            workers=1, runner=lambda s: {}, sleep=sleeps.append
        )
        ticks[0] = 2.0  # deadline already gone
        service._backoff(job, attempt=0)
        service.close()
        assert sleeps == []

    def test_end_to_end_sleeps_are_capped(self):
        """Through the real retry loop: recorded sleeps never exceed the
        job timeout even though the uncapped backoff would."""
        sleeps = []

        def broken(spec):
            raise RuntimeError("transient")

        service = SolverService(
            workers=1, runner=broken, sleep=sleeps.append
        ).start()
        job = service.submit(
            F1, config=QUICK, timeout=0.5, max_retries=4, retry_backoff=30.0
        )
        assert job.wait(5.0)
        service.close()
        assert job.state is JobState.FAILED
        assert sleeps, "expected at least one capped backoff sleep"
        assert all(delay <= 0.5 + 1e-6 for delay in sleeps), sleeps

    def test_cancellation_wakes_backoff_immediately(self):
        """With the default cancel-aware sleep, cancelling mid-backoff
        settles the job at once instead of after the full delay."""
        attempted = threading.Event()

        def broken(spec):
            attempted.set()
            raise RuntimeError("transient")

        service = SolverService(workers=1, runner=broken).start()
        job = service.submit(
            F1, config=QUICK, max_retries=50, retry_backoff=30.0
        )
        assert attempted.wait(5.0)
        time.sleep(0.05)  # let the worker enter its 30 s backoff
        start = time.monotonic()
        service.cancel(job.id)
        assert job.wait(5.0)
        elapsed = time.monotonic() - start
        service.close()
        assert job.state is JobState.CANCELLED
        assert elapsed < 2.0, f"backoff ignored cancellation for {elapsed:.1f}s"


class TestSharedCloseBudget:
    def test_close_timeout_is_shared_across_workers(self):
        release = threading.Event()

        def stuck(spec):
            release.wait(10.0)
            return {}

        service = SolverService(workers=3, runner=stuck).start()
        for seed in range(3):
            service.submit(F1, config={**QUICK, "seed": seed})
        time.sleep(0.1)  # all three workers now blocked in the runner
        start = time.monotonic()
        service.close(drain=False, timeout=0.5)
        elapsed = time.monotonic() - start
        release.set()
        # A per-thread budget would take ~3 x 0.5 s; shared takes ~0.5 s.
        assert elapsed < 1.2, f"close overran the shared budget: {elapsed:.2f}s"


class TestWorkerCrashRecovery:
    def test_killed_worker_settles_job_and_respawns(self):
        plan = FaultPlan(
            [FaultRule("worker.run", "kill", every=1, max_fires=1)], seed=0
        )
        with telemetry.session() as collector:
            with faults.session(plan):
                service = SolverService(
                    workers=1, runner=lambda spec: {"ok": True}
                ).start()
                victim = service.submit(F1, config=QUICK)
                assert victim.wait(5.0)
                # The replacement worker must drain new work.
                survivor = service.submit(K1, config=QUICK)
                assert survivor.wait(5.0)
                service.close()
            assert collector.counter("service.workers.crashed") == 1
            assert collector.counter("service.workers.respawned") == 1
        assert victim.state is JobState.FAILED
        assert "injected worker crash" in victim.error
        assert survivor.state is JobState.DONE

    def test_crash_propagates_to_followers(self):
        plan = FaultPlan(
            [FaultRule("worker.run", "kill", every=1, max_fires=1)], seed=0
        )
        with faults.session(plan):
            # Submit both before starting the workers so the follower is
            # attached before the primary can be picked up and killed.
            service = SolverService(
                workers=1, runner=lambda spec: {"ok": True}
            )
            primary = service.submit(F1, config=QUICK)
            follower = service.submit(F1, config=QUICK)
            assert follower.coalesced_into == primary.id
            service.start()
            assert primary.wait(5.0) and follower.wait(5.0)
            service.close()
        assert primary.state is JobState.FAILED
        assert follower.state is JobState.FAILED
        assert follower.coalesced_into == primary.id


# ----------------------------------------------------------------------
# Job-event journal
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_restart_reports_interrupted_jobs(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.record("submitted", "job-a", fingerprint="fa")
        journal.record("running", "job-a", fingerprint="fa")
        journal.record("submitted", "job-b", fingerprint="fb")
        journal.record("running", "job-b", fingerprint="fb")
        journal.record("done", "job-b", fingerprint="fb")
        # Simulated crash: no terminal event for job-a, then restart.
        with telemetry.session() as collector:
            restarted = JobJournal(path)
            assert collector.counter("service.journal.interrupted") == 1
        assert restarted.interrupted == ["job-a"]

    def test_failed_appends_are_counted_and_logged_once_per_streak(
        self, tmp_path, caplog
    ):
        # Regression: append failures used to be swallowed silently —
        # no counter, no log line.  They must now mirror the store's
        # ``service.store.append_errors`` discipline: every failure is
        # counted, the *first* of a streak is logged, and recovery
        # resets the streak.
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        with telemetry.session() as collector:
            with faults.session(
                FaultPlan([FaultRule("journal.append", "raise", every=1)])
            ):
                with caplog.at_level("WARNING", logger="repro.service"):
                    journal.record("submitted", "job-a")
                    journal.record("running", "job-a")
                    journal.record("done", "job-a")
            assert collector.counter("service.journal.append_errors") == 3
        warnings = [
            record
            for record in caplog.records
            if "journal append" in record.getMessage()
        ]
        assert len(warnings) == 1  # one streak, one warning
        # Recovery: the next successful append resets the streak, so a
        # later failure warns again.
        journal.record("submitted", "job-b")
        with caplog.at_level("WARNING", logger="repro.service"):
            with faults.session(
                FaultPlan([FaultRule("journal.append", "raise", every=1)])
            ):
                journal.record("running", "job-b")
        warnings = [
            record
            for record in caplog.records
            if record.levelname == "WARNING"
            and "journal append" in record.getMessage()
        ]
        assert len(warnings) == 2

    def test_clean_shutdown_leaves_nothing_interrupted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.record("submitted", "job-a")
        journal.record("running", "job-a")
        journal.record("failed", "job-a")
        assert JobJournal(path).interrupted == []

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(str(path))
        journal.record("submitted", "job-a")
        with open(path, "ab") as handle:
            handle.write(b'{"event": "runn')  # torn append
        restarted = JobJournal(str(path))
        assert restarted.quarantined == 1
        assert restarted.interrupted == ["job-a"]

    def test_service_wires_journal_through_lifecycle(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        service = SolverService(
            workers=1,
            runner=lambda spec: {"ok": True},
            journal=JobJournal(path),
        ).start()
        job = service.submit(F1, config=QUICK)
        assert job.wait(5.0)
        service.close()
        events = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        kinds = [entry["event"] for entry in events]
        assert kinds[0] == "service.start"
        assert "submitted" in kinds and "running" in kinds
        assert "done" in kinds and kinds[-1] == "service.stop"
        # A fresh service over the same journal sees no interruptions.
        reopened = SolverService(
            workers=1,
            runner=lambda spec: {"ok": True},
            journal=JobJournal(path),
        )
        assert reopened.interrupted_jobs() == []
        reopened.close()

    def test_service_reports_jobs_killed_by_crash_as_settled(self, tmp_path):
        """A worker crash settles its job, so even a crashy epoch leaves
        no interrupted entries — only a hard process death does."""
        path = str(tmp_path / "journal.jsonl")
        plan = FaultPlan(
            [FaultRule("worker.run", "kill", every=1, max_fires=1)], seed=0
        )
        with faults.session(plan):
            service = SolverService(
                workers=1,
                runner=lambda spec: {"ok": True},
                journal=JobJournal(path),
            ).start()
            job = service.submit(F1, config=QUICK)
            assert job.wait(5.0)
            service.close()
        assert job.state is JobState.FAILED
        assert JobJournal(path).interrupted == []


def test_fingerprint_helper_matches_service_usage():
    spec = JobSpec(problem=F1, config=dict(QUICK))
    assert job_fingerprint(spec) == job_fingerprint(
        JobSpec(problem=F1, config=dict(QUICK))
    )
