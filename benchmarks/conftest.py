"""Shared helpers for the per-table/figure benchmark harness.

Every benchmark saves its formatted output under ``benchmarks/results/``
so the regenerated tables/series survive the pytest run (and are the
artifacts EXPERIMENTS.md quotes).

Telemetry opt-in: set ``REPRO_BENCH_TELEMETRY=1`` to run every benchmark
under an active telemetry collector and dump a per-test counter summary
(circuit executions, shots, CX gates, sparse support, ...) plus a span
tree to ``benchmarks/results/telemetry/<test>.txt``, alongside a
machine-readable ``<test>.bench.json`` in the versioned
``repro.bench.schema`` format (one workload per test: the test's
wall-clock as its single sample, the full counter table, and the
per-histogram quantile payloads as an extra field) — the same artifact
format ``python -m repro bench run`` emits, so figure benchmarks and the
bench suites feed one comparison engine (``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import os
import pathlib
import re
import time
import warnings

import pytest

from repro import telemetry
from repro.bench import schema as bench_schema

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TELEMETRY_DIR = RESULTS_DIR / "telemetry"

# COBYLA emits a benign MAXFUN warning when iteration budgets are tiny.
warnings.filterwarnings("ignore", message=".*MAXFUN.*")


def _telemetry_requested() -> bool:
    return os.environ.get("REPRO_BENCH_TELEMETRY", "") not in ("", "0")


@pytest.fixture
def save_result():
    """Persist a formatted experiment table and echo it to the console."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _save


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Optionally trace each benchmark and dump its counter summary.

    No-op unless ``REPRO_BENCH_TELEMETRY`` is set, so default benchmark
    timings are unaffected.
    """
    if not _telemetry_requested():
        yield None
        return
    collector = telemetry.enable()
    start = time.perf_counter()
    try:
        yield collector
    finally:
        elapsed = time.perf_counter() - start
        telemetry.disable()
    TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)
    safe_name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    report = (
        f"=== telemetry: {request.node.nodeid} ===\n\n"
        + telemetry.render_summary(collector)
        + "\n\n"
        + telemetry.render_tree(collector, max_children=4)
        + "\n"
    )
    (TELEMETRY_DIR / f"{safe_name}.txt").write_text(report)
    # Machine-readable dump in the versioned bench schema: the test is a
    # single workload whose one sample is its wall-clock, carrying the
    # full counter table and (as an extra, forward-compatible field) the
    # per-histogram quantile payloads from ``collector.summary()``.
    summary = collector.summary()
    entry = bench_schema.workload_entry(
        seed=0,
        samples_seconds=[elapsed],
        counters={k: float(v) for k, v in summary.get("counters", {}).items()},
        description=f"figure benchmark {request.node.nodeid}",
        histograms=summary.get("histograms", {}),
    )
    bench_report = bench_schema.new_report(
        "figures",
        {request.node.nodeid: entry},
        repeats=1,
        warmup=0,
    )
    canonical = TELEMETRY_DIR / f"{safe_name}.bench.json"
    bench_schema.write_report(bench_report, str(canonical))
