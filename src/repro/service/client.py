"""Python client for the solve service's JSON/HTTP API.

Stdlib-only (``http.client``).  Typical use::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8042")
    record = client.solve(benchmark="F1", config={"seed": 7, "shots": None})
    print(record["arg"])

``submit`` mirrors :meth:`repro.service.workers.SolverService.submit`;
``solve`` is submit-and-wait, returning the result record and raising
:class:`ServiceClientError` when the job did not finish ``done``.

Each calling thread keeps one persistent HTTP/1.1 connection, so a
request pays for a TCP handshake and a server handler thread only when
that thread's connection is new or was dropped.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Optional

from repro.exceptions import ReproError


class ServiceClientError(ReproError):
    """Raised for transport errors, API errors, and failed jobs."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Thin JSON client for one service endpoint.

    Each calling thread reuses its own persistent connection.  The
    connection is dropped after a transport error, an interrupted
    request or a ``Connection: close`` reply.  A request that fails on a
    reused connection before any response arrived is sent once more on
    a fresh one: the server may have closed the connection while it was
    idle (see :data:`repro.service.http.IDLE_TIMEOUT`) or while the
    request was on its way.  Repeating it is safe because submissions
    are content-addressed, so a repeated one coalesces with the first or
    hits the result store.

    Args:
        base_url: e.g. ``http://127.0.0.1:8042`` (trailing slash ok).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, sep, rest = self.base_url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ServiceClientError(
                f"service URL must start with http://, got {base_url!r}"
            )
        host, slash, prefix = rest.partition("/")
        self._host = host
        self._prefix = slash + prefix
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self, timeout: Optional[float]) -> http.client.HTTPConnection:
        """The calling thread's connection, its timeout set to ``timeout``."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self._host, timeout=timeout)
            self._local.connection = connection
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Any:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if timeout is None:
            timeout = self.timeout
        for attempt in range(2):
            connection = self._connection(timeout)
            reused = connection.sock is not None
            responded = False
            try:
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = connection.getresponse()
                responded = True
                status = response.status
                text = response.read().decode("utf-8", "replace")
            except BaseException as exc:
                # The connection's state is unknown (a late reply could be
                # read as the answer to the next request, an interrupted
                # one refuses the next request), so drop it.
                connection.close()
                if not isinstance(exc, (OSError, http.client.HTTPException)):
                    raise
                if (
                    attempt == 0
                    and reused
                    and not responded
                    and isinstance(exc, ConnectionError)
                ):
                    continue
                raise ServiceClientError(f"{method} {path}: {exc}") from exc
            break
        if status >= 400:
            try:
                message = json.loads(text).get("error", text)
            except (ValueError, AttributeError):
                message = text or response.reason
            raise ServiceClientError(
                f"{method} {path} -> {status}: {message}", status=status
            )
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ServiceClientError(
                f"{method} {path}: non-JSON response: {text[:200]!r}"
            ) from exc

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def counter(self, name: str) -> float:
        """One telemetry counter value (0.0 when absent/disabled)."""
        return float(self.metrics()["counters"].get(name, 0.0))

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
        retry_backoff: Optional[float] = None,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a solve; returns the job record."""
        body: Dict[str, Any] = {}
        if problem is not None:
            body["problem"] = problem
        if benchmark is not None:
            body["benchmark"] = benchmark
            body["case"] = case
        if config is not None:
            body["config"] = config
        if backend is not None:
            body["backend"] = backend
        if priority:
            body["priority"] = priority
        if timeout is not None:
            body["timeout"] = timeout
        if max_retries:
            body["max_retries"] = max_retries
        if retry_backoff is not None:
            body["retry_backoff"] = retry_backoff
        if wait:
            body["wait"] = True
            if wait_timeout is not None:
                body["wait_timeout"] = wait_timeout
        # A waited submission can legitimately exceed the socket timeout.
        request_timeout = self.timeout
        if wait:
            request_timeout = (
                None if wait_timeout is None else wait_timeout + self.timeout
            )
        return self._request("POST", "/jobs", body, timeout=request_timeout)

    def job(self, job_id: str, *, wait: Optional[float] = None) -> Dict[str, Any]:
        """Fetch a job record; ``wait`` blocks server-side that many seconds."""
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
            return self._request("GET", path, timeout=wait + self.timeout)
        return self._request("GET", path)

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/jobs")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final record."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceClientError(
                    f"job {job_id} not terminal after {timeout:.1f}s"
                )
            record = self.job(job_id, wait=min(remaining, 10.0))
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            time.sleep(poll)

    def solve(self, problem=None, *, wait_timeout: float = 300.0, **kwargs) -> Dict[str, Any]:
        """Submit, wait, and return the *result record* of a finished job.

        Raises :class:`ServiceClientError` if the job failed, was
        cancelled, or did not finish within ``wait_timeout`` seconds.
        """
        record = self.submit(
            problem, wait=True, wait_timeout=wait_timeout, **kwargs
        )
        if not record["state"] or record["state"] in ("pending", "running"):
            record = self.wait(record["id"], timeout=wait_timeout)
        if record["state"] != "done":
            raise ServiceClientError(
                f"job {record['id']} finished {record['state']}: "
                f"{record.get('error')}"
            )
        return record["result"]
