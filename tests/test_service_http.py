"""HTTP API round-trips: a real server on an ephemeral port + the client."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import statistics
import struct
import threading
import time
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
    default_runner,
)
from repro.service import http as service_http
from repro.service.http import ServiceRequestHandler
from tests.trace_checkers import check_prometheus_text

QUICK = {"seed": 7, "shots": None, "max_iterations": 5}


@contextlib.contextmanager
def _serving(runner=None):
    """A started service + HTTP server on an ephemeral port, torn down
    on exit; yields (service, server, client, collector)."""
    with telemetry.session() as collector:
        service = SolverService(workers=2, runner=runner).start()
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            yield service, server, client, collector
        finally:
            server.stop()
            service.close()


@pytest.fixture
def live_service():
    with _serving() as served:
        yield served


@pytest.fixture
def held_service():
    """Like ``live_service``, but each solve first waits (at most 10 s) for
    the event yielded last: (service, server, client, collector, release)."""
    release = threading.Event()

    def held(spec):
        release.wait(10.0)
        return default_runner(spec)

    with _serving(held) as served:
        try:
            yield (*served, release)
        finally:
            release.set()


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
        assert check_prometheus_text(text) == []
        assert "\nservice_jobs_executed " in text
        # Histogram families (job runtimes, per-route HTTP latency) are
        # expanded into _bucket/_sum/_count series.
        assert 'service_jobs_run_seconds_bucket{le="+Inf"}' in text
        assert "service_jobs_run_seconds_count" in text
        assert "service_http_request_seconds_post_jobs_201" in text

    def test_metrics_show_the_execution_processes_peak_rss(self, live_service):
        _, server, client, _ = live_service
        client.solve(benchmark="F1", config=QUICK, wait_timeout=60.0)
        assert client.metrics()["gauges"]["service.workers.peak_rss_mb"] > 0
        with urllib.request.urlopen(
            server.url + "/metrics?format=text", timeout=5
        ) as response:
            text = response.read().decode()
        assert check_prometheus_text(text) == []
        assert "# TYPE service_workers_peak_rss_mb gauge" in text

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

    @staticmethod
    def _post_headers_only(server, content_length):
        """Send ``POST /jobs`` headers on a kept-open connection, no body;
        return the raw response (the server must answer without reading)."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                (
                    "POST /jobs HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {content_length}\r\n\r\n"
                ).encode()
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode()

    @pytest.mark.parametrize("content_length", ["-1", "abc", "1.5"])
    def test_invalid_content_length_400(self, live_service, content_length):
        service, server, _, _ = live_service
        response = self._post_headers_only(server, content_length)
        assert response.startswith("HTTP/1.1 400")
        assert "Content-Length" in response.split("\r\n\r\n", 1)[1]
        assert service.jobs() == []

    def test_oversized_body_413(self, live_service):
        service, server, client, _ = live_service
        limit = 1 << 20
        response = self._post_headers_only(server, limit + 1)
        assert response.startswith("HTTP/1.1 413")
        assert f"{limit}-byte limit" in response
        assert service.jobs() == []
        assert client.health()["status"] == "ok"

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

    def test_invalid_budget_400(self, live_service):
        service, _, client, _ = live_service
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(benchmark="F1", config={"max_iterations": 0})
        assert excinfo.value.status == 400
        assert "max_iterations" in str(excinfo.value)
        assert service.jobs() == []

    def test_cancel_route(self, held_service):
        # Both workers hold a job, so the target job stays queued.
        _, _, client, _, release = held_service
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


def _connections(collector) -> float:
    return collector.counter("service.http.connections")


class TestKeepAlive:
    """The transport: kept-open connections, no-delay replies, reconnects."""

    def test_kept_open_connection_answers_without_delay(self, live_service):
        # Without TCP_NODELAY each reply's body waited for the client's
        # delayed ACK of its headers: about 45 ms per request.
        _, server, client, _ = live_service
        client.solve(benchmark="F1", config=QUICK, wait_timeout=60.0)
        body = json.dumps({"benchmark": "F1", "case": 0, "config": QUICK})
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        seconds = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request(
                    "POST", "/jobs", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                record = json.loads(response.read())
                seconds.append(time.perf_counter() - started)
                assert response.status == 201
                assert record["from_cache"] is True
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.010

    def test_one_thread_opens_one_connection(self, live_service):
        _, _, client, collector = live_service
        before = _connections(collector)
        for _ in range(10):
            assert client.health()["status"] == "ok"
        assert _connections(collector) - before == 1

    def test_threads_sharing_a_client_open_one_connection_each(
        self, live_service
    ):
        _, _, client, collector = live_service
        before = _connections(collector)
        errors = []

        def caller():
            try:
                for _ in range(5):
                    client.health()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert _connections(collector) - before == 2

    def test_idle_connection_is_replaced_after_the_idle_timeout(
        self, monkeypatch
    ):
        monkeypatch.setattr(service_http, "IDLE_TIMEOUT", 0.2)
        with telemetry.session() as collector:
            service = SolverService(workers=1).start()
            server = ServiceServer(service, port=0).start()
            client = ServiceClient(server.url, timeout=10.0)
            try:
                client.health()
                time.sleep(0.6)
                assert server._httpd.open_connections() == []
                # The request fails on the closed connection before any
                # reply and is sent once more on a new one.
                assert client.health()["status"] == "ok"
                assert client.health()["status"] == "ok"
                assert _connections(collector) == 2
            finally:
                server.stop()
                service.close()

    def test_interrupted_request_does_not_spoil_the_next(
        self, live_service, monkeypatch
    ):
        class Interrupt(BaseException):
            pass

        _, _, client, collector = live_service
        client.health()
        original = http.client.HTTPConnection.getresponse
        interrupted = []

        def interrupting(connection):
            if not interrupted:
                interrupted.append(True)
                raise Interrupt
            return original(connection)

        monkeypatch.setattr(
            http.client.HTTPConnection, "getresponse", interrupting
        )
        before = _connections(collector)
        # The request was sent but its reply never read.
        with pytest.raises(Interrupt):
            client.health()
        assert client.health()["status"] == "ok"
        assert _connections(collector) - before == 1

    def test_timed_out_request_is_not_retried(self, held_service):
        _, server, _, collector, _ = held_service
        client = ServiceClient(server.url, timeout=0.3)
        with pytest.raises(ServiceClientError, match="timed out"):
            client.submit(benchmark="F1", config=QUICK, wait=True)
        assert collector.counter("service.jobs.submitted") == 1
        # The late reply must not be read as the next request's.
        assert client.health()["status"] == "ok"

    def test_request_after_a_connection_close_reply(
        self, live_service, monkeypatch
    ):
        _, _, client, collector = live_service
        original = ServiceRequestHandler._get_healthz

        def closing(self, path, query):
            self.close_connection = True
            original(self, path, query)

        before = _connections(collector)
        monkeypatch.setattr(ServiceRequestHandler, "_get_healthz", closing)
        assert client.health()["status"] == "ok"
        monkeypatch.setattr(ServiceRequestHandler, "_get_healthz", original)
        assert client.health()["status"] == "ok"
        assert client.health()["status"] == "ok"
        assert _connections(collector) - before == 2

    def test_request_after_an_oversized_body_reply(
        self, live_service, monkeypatch
    ):
        service, _, client, _ = live_service
        monkeypatch.setattr(service_http, "MAX_BODY_BYTES", 64)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(benchmark="F1", config={**QUICK, "pad": "x" * 200})
        assert excinfo.value.status == 413
        assert service.jobs() == []
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("url", ["https://127.0.0.1:1", "127.0.0.1:1"])
    def test_non_http_url_is_refused(self, url):
        with pytest.raises(ServiceClientError, match="http://"):
            ServiceClient(url)

    def test_stop_ends_kept_open_connections(self):
        service = SolverService(workers=1).start()
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            assert client.health()["status"] == "ok"
            assert len(server._httpd.open_connections()) == 1
        finally:
            server.stop()
            service.close()
        # Well inside the idle timeout, the handler has closed its end.
        deadline = time.monotonic() + 5.0
        while server._httpd.open_connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._httpd.open_connections() == []
        with pytest.raises(ServiceClientError) as excinfo:
            client.health()
        assert excinfo.value.status is None


class TestClientGone:
    def test_a_client_that_hangs_up_is_counted_not_traced(self, capfd):
        release = threading.Event()

        def blocking(spec):
            release.wait(10.0)
            return {"arg": 0.0}

        body = json.dumps(
            {"benchmark": "F1", "config": QUICK, "wait": True}
        ).encode()
        with telemetry.session() as collector:
            service = SolverService(workers=1, runner=blocking).start()
            server = ServiceServer(service, port=0).start()
            try:
                sock = socket.create_connection(server.address, timeout=5)
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                deadline = time.monotonic() + 10.0
                while collector.counter("service.jobs.submitted") < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Close with a reset, so the reply's first write fails.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                sock.close()
                release.set()
                while collector.counter("service.http.client_gone") < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # The server still answers.
                assert ServiceClient(server.url).health()["status"] == "ok"
            finally:
                release.set()
                server.stop()
                service.close()
        assert collector.counter("service.http.client_gone") == 1
        assert "Traceback" not in capfd.readouterr().err
