"""Interchange exporters: Prometheus text exposition and Chrome trace JSON.

Two render targets beyond the JSONL/tree sinks:

* :func:`prometheus_text` — the `Prometheus text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_.
  Counter names are sanitized (dots become underscores; metric names must
  match ``[a-zA-Z_:][a-zA-Z0-9_:]*``) and each log-bucketed histogram is
  emitted as the conventional ``_bucket{le="..."}`` / ``_sum`` /
  ``_count`` series with cumulative bucket counts.  This is what the
  service serves on ``GET /metrics``.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``"X"`` complete events), loadable in
  `Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing``.  Spans
  stitched from pool workers carry a ``worker_pid`` attribute; the
  exporter routes each subtree to that pid so parallel fan-out renders
  as separate process tracks.  The CLI's ``--trace-format chrome`` ends
  here.

Both formats are validated by the format checkers of
``tests/trace_checkers.py``, which the tests run on real ``GET /metrics``
and ``repro solve --trace-format chrome`` output.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from repro.telemetry.core import Histogram, Span, TelemetryCollector, bucket_bound

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "sanitize_metric_name",
    "write_chrome_trace",
]

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Make ``name`` a valid Prometheus metric name.

    Dots (the repo's namespace separator) and any other invalid character
    become underscores; a leading digit gets an underscore prefix.
    ``pipeline.cache.hits`` -> ``pipeline_cache_hits``.
    """
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return format(bound, ".6g")


def _histogram_lines(metric: str, histogram: Histogram) -> List[str]:
    lines = [f"# TYPE {metric} histogram"]
    cumulative = histogram.underflow
    if histogram.underflow:
        lines.append(f'{metric}_bucket{{le="0"}} {cumulative}')
    for index in sorted(histogram.buckets):
        cumulative += histogram.buckets[index]
        lines.append(
            f'{metric}_bucket{{le="{_format_bound(bucket_bound(index))}"}} '
            f"{cumulative}"
        )
    lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
    lines.append(f"{metric}_sum {_format_value(histogram.total)}")
    lines.append(f"{metric}_count {histogram.count}")
    return lines


def prometheus_text(
    collector: Optional[TelemetryCollector],
    gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Render a collector, plus ``gauges``, as Prometheus text exposition.

    ``None`` (telemetry disabled) renders just the ``telemetry_enabled``
    gauge and ``gauges``, so scrapers always get a well-formed page.
    """
    lines: List[str] = [
        "# TYPE telemetry_enabled gauge",
        f"telemetry_enabled {0 if collector is None else 1}",
    ]
    for name in sorted(gauges or {}):
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    if collector is None:
        return "\n".join(lines) + "\n"
    summary_counters = collector.snapshot_counters()
    for name in sorted(summary_counters):
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(summary_counters[name])}")
    for name in sorted(collector.histograms):
        metric = sanitize_metric_name(name)
        lines.extend(_histogram_lines(metric, collector.histograms[name]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(collector: TelemetryCollector) -> Dict[str, Any]:
    """The collector's span forest as a Chrome trace-event document.

    Every span becomes one ``"X"`` (complete) event with microsecond
    timestamps relative to the earliest recorded span.  The ``pid`` is
    taken from the nearest ``worker_pid`` span attribute (stamped on
    stitched pool-worker subtrees), so cross-process traces separate into
    per-process tracks in Perfetto; each root gets its own ``tid`` track
    so concurrent roots (service worker threads) never interleave.
    """
    events: List[Dict[str, Any]] = []
    starts = [node.start for node in collector.iter_spans()]
    origin = min(starts) if starts else 0.0

    def visit(node: Span, pid: int, tid: int) -> None:
        pid = int(node.attributes.get("worker_pid", pid) or pid)
        end = node.end if node.end is not None else node.start
        events.append(
            {
                "name": node.name,
                "cat": "repro",
                "ph": "X",
                "ts": (node.start - origin) * 1e6,
                "dur": max(0.0, end - node.start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    key: _json_safe(value)
                    for key, value in node.attributes.items()
                },
            }
        )
        for child in node.children:
            visit(child, pid, tid)

    for index, root in enumerate(collector.roots):
        visit(root, os.getpid(), index + 1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    collector: TelemetryCollector, destination: Union[str, Path, IO[str]]
) -> None:
    """Serialise :func:`chrome_trace` output to a path or text stream."""
    document = chrome_trace(collector)
    if hasattr(destination, "write"):
        json.dump(document, destination)
        return
    with open(destination, "w", encoding="utf-8") as stream:
        json.dump(document, stream)
