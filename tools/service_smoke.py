#!/usr/bin/env python
"""End-to-end smoke test for the solve-as-a-service layer.

Starts ``python -m repro serve`` as a real subprocess on an ephemeral
port, submits three concurrent jobs over HTTP (two of them identical),
and checks that

* every job completes and the duplicate pair returns identical results;
* the service result is **bit-for-bit** identical to a direct
  ``python -m repro solve`` subprocess with the same spec;
* the dedup layer coalesced or cache-served at least one of the
  duplicates (read back from ``/metrics``);
* a gate-level (``"backend": "ideal"``) job is accepted with ``201`` and
  finishes ``done`` — its traced job record must serialise;
* SIGINT drains the server and it exits 0.

Run from the repo root::

    PYTHONPATH=src python tools/service_smoke.py

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

SPEC = {"benchmark": "F1", "config": {"seed": 7, "shots": 256,
                                      "max_iterations": 10}}
OTHER = {"benchmark": "K1", "config": {"seed": 3, "shots": 256,
                                       "max_iterations": 10}}
GATE_LEVEL = {"benchmark": "F1", "backend": "ideal", "wait": True,
              "wait_timeout": 120.0,
              "config": {"seed": 5, "shots": 128, "max_iterations": 5}}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_server() -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env(),
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        print(f"[serve] {line.rstrip()}")
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return process, match.group(1)
    process.kill()
    fail("server did not announce its address within 30s")
    raise AssertionError  # unreachable


def direct_solve() -> dict:
    config = SPEC["config"]
    output = subprocess.check_output(
        [sys.executable, "-m", "repro", "solve", SPEC["benchmark"],
         "--seed", str(config["seed"]), "--shots", str(config["shots"]),
         "--iterations", str(config["max_iterations"])],
        text=True,
        env=child_env(),
    )
    return json.loads(output)


def gate_level_job(url: str) -> None:
    """POST one ``backend: ideal`` job; it must answer 201 and end done."""
    request = urllib.request.Request(
        url + "/jobs",
        data=json.dumps(GATE_LEVEL).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=180.0) as response:
            status = response.status
            record = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        fail(f"gate-level job answered {exc.code}: "
             f"{exc.read().decode('utf-8', 'replace')[:200]}")
    if status != 201:
        fail(f"gate-level job answered {status}, expected 201")
    if record["state"] != "done":
        fail(f"gate-level job ended {record['state']}: {record.get('error')}")
    print(f"gate-level job done (arg={record['result']['arg']:.6f})")


def main() -> int:
    sys.path.insert(0, SRC)
    from repro.service import ServiceClient

    process, url = start_server()
    # The server logs to stdout for its whole life; drain it so the pipe
    # buffer never blocks the subprocess.
    drain = threading.Thread(
        target=lambda: [None for _ in process.stdout], daemon=True
    )
    drain.start()
    try:
        client = ServiceClient(url, timeout=15.0)
        health = client.health()
        if health["status"] != "ok":
            fail(f"healthz reported {health}")
        print(f"server healthy: version {health['version']}, "
              f"{health['workers']} workers")

        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def submit(index: int, spec: dict) -> None:
            try:
                results[index] = client.solve(**spec, wait_timeout=300.0)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(0, SPEC)),
            threading.Thread(target=submit, args=(1, SPEC)),
            threading.Thread(target=submit, args=(2, OTHER)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        if errors:
            fail(f"submission errors: {errors}")
        if len(results) != 3:
            fail(f"expected 3 results, got {len(results)}")
        if results[0] != results[1]:
            fail("duplicate submissions returned different results")
        if results[0] == results[2]:
            fail("distinct submissions returned identical results")
        print(f"3 jobs done; duplicates agree "
              f"(arg={results[0]['arg']:.6f})")

        direct = direct_solve()
        if results[0] != direct:
            fail("service result differs from direct `repro solve`:\n"
                 f"  service: {json.dumps(results[0], sort_keys=True)[:200]}\n"
                 f"  direct:  {json.dumps(direct, sort_keys=True)[:200]}")
        print("service result is bit-for-bit identical to direct solve")

        coalesced = client.counter("service.dedup.coalesced")
        cached = client.counter("service.store.hits")
        if coalesced + cached < 1:
            fail(f"expected dedup activity, got coalesced={coalesced} "
                 f"store.hits={cached}")
        print(f"dedup active: coalesced={coalesced} store.hits={cached}")

        gate_level_job(url)
    finally:
        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=30.0)
    if code != 0:
        fail(f"server exited {code} after SIGINT")
    print("server drained and exited 0")
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
