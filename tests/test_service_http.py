"""HTTP API round-trips: a real server on an ephemeral port + the client."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro import __version__, telemetry
from repro.problems import make_benchmark
from repro.problems.io import problem_to_dict
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceServer,
    SolverService,
)

QUICK = {"seed": 7, "shots": None, "max_iterations": 5}


@pytest.fixture
def live_service():
    """A started service + HTTP server on an ephemeral port, torn down
    after the test; yields (service, server, client, collector)."""
    with telemetry.session() as collector:
        service = SolverService(workers=2).start()
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            yield service, server, client, collector
        finally:
            server.stop()
            service.close()


class TestHealthAndMetrics:
    def test_healthz_reports_version_and_workers(self, live_service):
        _, _, client, _ = live_service
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["workers"] == 2
        assert health["queue_depth"] == 0
        assert set(health["jobs"]) == {
            "pending", "running", "done", "failed", "cancelled"
        }

    def test_metrics_json_and_text(self, live_service):
        _, server, client, _ = live_service
        # The client sends Accept: application/json and keeps the JSON
        # summary shape.
        payload = client.metrics()
        assert payload["enabled"] is True
        assert "counters" in payload and "histograms" in payload
        # Everyone else (curl, Prometheus scrapers) gets text exposition
        # with sanitized metric names.
        with urllib.request.urlopen(
            server.url + "/metrics?format=text", timeout=5
        ) as response:
            text = response.read().decode()
        assert "telemetry_enabled 1" in text
        assert "service_http_requests" in text
        assert "service.http.requests" not in text

    def test_metrics_prometheus_passes_checker(self, live_service):
        _, server, client, _ = live_service
        client.solve(benchmark="F1", config=QUICK, wait_timeout=60.0)
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=5) as response:
            text = response.read().decode()
        from check_trace_outputs import check_prometheus_text

        assert check_prometheus_text(text) == []
        # Histogram families (job runtimes, per-route HTTP latency) are
        # expanded into _bucket/_sum/_count series.
        assert 'service_jobs_run_seconds_bucket{le="+Inf"}' in text
        assert "service_jobs_run_seconds_count" in text
        assert "service_http_request_seconds_post_jobs_201" in text

    def test_job_record_carries_flight_recorder(self, live_service):
        _, _, client, collector = live_service
        job = client.submit(
            benchmark="F1", config=QUICK, wait=True, wait_timeout=60.0
        )
        assert job["state"] == "done"
        events = [entry["event"] for entry in job["timeline"]]
        assert events[0] == "submitted"
        assert "started" in events and "finished" in events
        started = next(
            entry for entry in job["timeline"] if entry["event"] == "started"
        )
        assert started["queued_seconds"] >= 0
        assert job["trace"] is not None
        assert job["trace"]["name"] == "service.job"
        nested = [child["name"] for child in job["trace"]["children"]]
        assert "solve" in nested
        assert collector.histogram("service.jobs.queue_seconds").count >= 1


class TestJobRoutes:
    def test_submit_wait_roundtrip_matches_direct_solve(self, live_service):
        _, _, client, _ = live_service
        from repro.core.solver import RasenganConfig, RasenganSolver

        solver = RasenganSolver(
            make_benchmark("F1", 0), config=RasenganConfig(**QUICK)
        )
        try:
            direct = solver.solve().to_json_dict()
        finally:
            solver.engine.close()
        record = client.solve(benchmark="F1", config=QUICK, wait_timeout=60.0)
        assert record == direct

    def test_submit_explicit_problem_payload(self, live_service):
        _, _, client, _ = live_service
        payload = problem_to_dict(make_benchmark("F1", 0))
        job = client.submit(problem=payload, config=QUICK, wait=True,
                            wait_timeout=60.0)
        assert job["state"] == "done"
        assert job["result"]["problem"] == payload["name"]

    def test_duplicate_submissions_coalesce(self, live_service):
        _, _, client, collector = live_service
        results = []
        errors = []

        def submit_one():
            try:
                results.append(
                    client.solve(
                        benchmark="K1",
                        config={"seed": 3, "shots": None, "max_iterations": 5},
                        wait_timeout=60.0,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit_one) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(90.0)
        assert not errors
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        coalesced = collector.counter("service.dedup.coalesced")
        cached = collector.counter("service.store.hits")
        # However the 3 submissions interleave, at most one execution ran:
        assert collector.counter("service.jobs.executed") == 1
        assert coalesced + cached == 2

    def test_get_jobs_listing_and_single(self, live_service):
        _, _, client, _ = live_service
        job = client.submit(benchmark="F1", config=QUICK, wait=True,
                            wait_timeout=60.0)
        listing = client.jobs()["jobs"]
        assert any(item["id"] == job["id"] for item in listing)
        fetched = client.job(job["id"])
        assert fetched["state"] == "done"
        assert fetched["result"] == job["result"]

    def test_unknown_job_404(self, live_service):
        _, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("nope")
        assert excinfo.value.status == 404

    def test_unknown_route_404(self, live_service):
        _, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/bogus")
        assert excinfo.value.status == 404

    def test_invalid_json_400(self, live_service):
        _, server, _, _ = live_service
        request = urllib.request.Request(
            server.url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_bad_submission_field_400(self, live_service):
        _, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/jobs", {"benchmark": "F1", "bogus": 1})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_unknown_config_key_400(self, live_service):
        _, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(benchmark="F1", config={"shotz": 1})
        assert excinfo.value.status == 400

    def test_invalid_config_value_400(self, live_service):
        service, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(benchmark="F1", config={"shots": 0})
        assert excinfo.value.status == 400
        assert "shots" in str(excinfo.value)
        assert service.jobs() == []

    def test_cancel_route(self, live_service):
        service, _, client, _ = live_service
        # Block both workers so the target job stays queued.
        release = threading.Event()
        original_runner = service._runner

        def blocking(spec):
            release.wait(10.0)
            return original_runner(spec)

        service._runner = blocking
        blockers = [
            client.submit(benchmark="F1",
                          config={**QUICK, "seed": 100 + index})
            for index in range(2)
        ]
        victim = client.submit(benchmark="K1", config=QUICK)
        record = client.cancel(victim["id"])
        release.set()
        assert record["state"] == "cancelled"
        for job in blockers:
            client.wait(job["id"], timeout=60.0)

    def test_http_error_counter_increments(self, live_service):
        _, _, client, collector = live_service
        before = collector.counter("service.http.errors")
        with pytest.raises(ServiceClientError):
            client.job("missing")
        assert collector.counter("service.http.errors") == before + 1
