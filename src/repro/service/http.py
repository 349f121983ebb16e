"""Minimal JSON/HTTP API over :class:`~repro.service.workers.SolverService`.

Stdlib-only (``http.server``).  Endpoints (see ``docs/SERVICE.md`` for
the full schema):

* ``POST /jobs`` — submit a solve; body carries ``problem`` *or*
  ``benchmark``/``case`` plus ``config``/``backend``/``priority``/
  ``timeout``/``max_retries``/``retry_backoff``; ``"wait": true`` blocks
  (up to ``wait_timeout`` seconds) until the job is terminal.
  Responds ``201`` with the job record.
* ``GET /jobs`` — all job records (summaries).
* ``GET /jobs/<id>`` — one job record (``404`` when unknown);
  ``?wait=SECONDS`` blocks until terminal or the wait expires.
* ``POST /jobs/<id>/cancel`` — request cancellation.
* ``GET /healthz`` — liveness: status, package version, worker count,
  queue depth, per-state job counts.
* ``GET /metrics`` — the active telemetry collector's counters and
  histogram aggregates.  Content-negotiated: ``Accept:
  application/json`` (what :class:`~repro.service.client.ServiceClient`
  sends) returns the JSON summary; anything else (curl, Prometheus
  scrapers) gets Prometheus text exposition with sanitized metric
  names and ``_bucket``/``_sum``/``_count`` histogram series.
  ``?format=json`` / ``?format=text`` override the header.

The server is a ``ThreadingHTTPServer``: each connection gets its own
handler thread, which only touches the service through its thread-safe
surface.  Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set;
a handler whose connection sits idle for :data:`IDLE_TIMEOUT` seconds
closes it and ends.  Each accepted connection increments
``service.http.connections``; request handling increments
``service.http.requests`` / ``service.http.errors`` and observes
per-route/status latency into
``service.http.request_seconds.<method>.<route>.<status>``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import __version__, faults, telemetry
from repro.exceptions import ReproError
from repro.service.jobs import ServiceError
from repro.service.workers import SolverService

#: Submission body keys forwarded to SolverService.submit.
_SUBMIT_KEYS = (
    "benchmark",
    "case",
    "config",
    "backend",
    "priority",
    "timeout",
    "max_retries",
    "retry_backoff",
)


#: Largest request body the server reads.  A registry submission is under
#: 200 bytes; an inline problem payload is a few KiB.
MAX_BODY_BYTES = 1 << 20

#: Seconds a kept-open connection may sit idle before its handler closes
#: it and the handler thread ends.  Read when a :class:`ServiceServer` is
#: built.
IDLE_TIMEOUT = 30.0


class _ApiError(Exception):
    """Internal: maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _metrics_payload() -> Dict[str, Any]:
    collector = telemetry.active()
    if collector is None:
        return {"enabled": False, "counters": {}, "histograms": {}}
    summary = collector.summary()
    return {
        "enabled": True,
        "counters": summary["counters"],
        "histograms": summary["histograms"],
        "spans": summary["spans"],
        "dropped_spans": summary["dropped_spans"],
    }


def _metrics_text() -> str:
    """Prometheus text exposition of the active collector.

    Dotted metric names are sanitized to the Prometheus grammar
    (``service.http.requests`` → ``service_http_requests``) and
    histograms expand into cumulative ``_bucket``/``_sum``/``_count``
    series — see :func:`repro.telemetry.prometheus_text`.
    """
    return telemetry.prometheus_text(telemetry.active())


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the attached :class:`SolverService`."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    #: A reply is two writes, headers then body.  With Nagle's algorithm
    #: the body would wait for the client's delayed ACK of the headers,
    #: about 40 ms per request on a kept-open connection.
    disable_nagle_algorithm = True

    #: Set by ServiceServer on the handler class, with the idle
    #: ``timeout`` (:data:`IDLE_TIMEOUT`).
    service: SolverService = None  # type: ignore[assignment]
    quiet: bool = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        telemetry.add("service.http.connections")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _read_body(self) -> Dict[str, Any]:
        """The JSON object in the request body (``{}`` when empty).

        A negative or non-integer ``Content-Length`` answers 400 and one
        above :data:`MAX_BODY_BYTES` answers 413, both without reading
        the body; the connection then closes, since the unread bytes
        cannot be told apart from a next request.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise _ApiError(400, f"invalid Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _ApiError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise _ApiError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _ApiError(400, "JSON body must be an object")
        return payload

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    def _dispatch(self, method: str) -> None:
        telemetry.add("service.http.requests")
        started = time.perf_counter()
        self._status = 0
        route = "unknown"
        try:
            # Chaos hook: an injected fault here exercises the 500 path
            # without touching the service (the server must stay alive).
            faults.point("http.handler")
            path, query = self._route()
            route = _route_name(path)
            handler = getattr(self, f"_{method}_{route}", None)
            if handler is None:
                raise _ApiError(404, f"no route for {method.upper()} {path}")
            handler(path, query)
        except _ApiError as exc:
            telemetry.add("service.http.errors")
            self._send_json(exc.status, {"error": str(exc)})
        except (ServiceError, ReproError, ValueError, TypeError) as exc:
            telemetry.add("service.http.errors")
            self._send_json(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:  # noqa: BLE001 — keep the server alive
            telemetry.add("service.http.errors")
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            telemetry.observe(
                f"service.http.request_seconds.{method}.{route}."
                f"{self._status or 0}",
                time.perf_counter() - started,
            )

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._dispatch("get")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("post")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _get_healthz(self, path: str, query: Dict[str, Any]) -> None:
        self._send_json(
            200,
            {
                "status": "ok",
                "version": __version__,
                "workers": self.service.workers,
                "queue_depth": len(self.service.queue),
                "jobs": self.service.counts(),
                "dedup_inflight": self.service.dedup.inflight(),
                "store_entries": len(self.service.store),
                "store_quarantined": self.service.store.quarantined,
                "interrupted_previous_run": len(
                    self.service.interrupted_jobs()
                ),
            },
        )

    def _get_metrics(self, path: str, query: Dict[str, Any]) -> None:
        wants_json = "application/json" in (self.headers.get("Accept") or "")
        fmt = query.get("format")
        if fmt == "json" or (fmt != "text" and wants_json):
            self._send_json(200, _metrics_payload())
        else:
            self._send_text(200, _metrics_text())

    def _get_jobs(self, path: str, query: Dict[str, Any]) -> None:
        parts = path.strip("/").split("/")
        if len(parts) == 1:
            records = [job.to_dict() for job in self.service.jobs()]
            self._send_json(200, {"jobs": records})
            return
        if len(parts) != 2:
            raise _ApiError(404, f"no route for GET {path}")
        job = self.service.get(parts[1])
        if job is None:
            raise _ApiError(404, f"unknown job {parts[1]!r}")
        if "wait" in query:
            try:
                wait_seconds = float(query["wait"])
            except ValueError as exc:
                raise _ApiError(400, "wait must be a number of seconds") from exc
            job.wait(wait_seconds)
        self._send_json(200, job.to_dict())

    def _post_jobs(self, path: str, query: Dict[str, Any]) -> None:
        parts = path.strip("/").split("/")
        if len(parts) == 1:
            self._submit(self._read_body())
            return
        if len(parts) == 3 and parts[2] == "cancel":
            job = self.service.get(parts[1])
            if job is None:
                raise _ApiError(404, f"unknown job {parts[1]!r}")
            self.service.cancel(job.id)
            self._send_json(200, job.to_dict())
            return
        raise _ApiError(404, f"no route for POST {path}")

    def _submit(self, body: Dict[str, Any]) -> None:
        wait = bool(body.pop("wait", False))
        wait_timeout = body.pop("wait_timeout", None)
        problem = body.pop("problem", None)
        kwargs = {}
        for key in _SUBMIT_KEYS:
            if key in body:
                kwargs[key] = body.pop(key)
        if body:
            raise _ApiError(
                400, f"unknown submission field(s): {', '.join(sorted(body))}"
            )
        job = self.service.submit(problem, **kwargs)
        if wait:
            job.wait(None if wait_timeout is None else float(wait_timeout))
        self._send_json(201, job.to_dict())


def _route_name(path: str) -> str:
    """Map a URL path to a handler-method suffix (first segment)."""
    first = path.strip("/").split("/", 1)[0]
    return first or "root"


class _ThreadingServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that knows its open connections."""

    daemon_threads = True

    def __init__(self, *args: Any) -> None:
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def open_connections(self) -> list:
        with self._open_lock:
            return list(self._open)


class ServiceServer:
    """A threaded HTTP server bound to one :class:`SolverService`.

    Args:
        service: the (started) service to expose.
        host: bind address.
        port: TCP port; ``0`` picks an ephemeral port (see
            :attr:`address`).
        quiet: suppress per-request stderr logging.
    """

    def __init__(
        self,
        service: SolverService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quiet: bool = True,
    ) -> None:
        handler = type(
            "BoundServiceRequestHandler",
            (ServiceRequestHandler,),
            {"service": service, "quiet": quiet, "timeout": IDLE_TIMEOUT},
        )
        self.service = service
        self._httpd = _ThreadingServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve requests on a background thread."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` foreground)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests and join the serving thread.

        Kept-open connections are shut for reading: an idle handler then
        reads end-of-stream and ends, and a busy one still writes its
        reply before it does.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        for connection in self._httpd.open_connections():
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
