"""Telemetry sinks: JSONL export/import and human-readable renderers.

The JSONL format is one JSON object per line:

* ``{"type": "meta", "version": 1, "spans": N, "dropped_spans": D}``
* ``{"type": "span", ...}`` — one per *root* span, children nested
  (``Span.to_dict``), so a trace file stays greppable per top-level
  operation.
* ``{"type": "counter", "name": ..., "value": ...}``
* ``{"type": "histogram", "name": ..., "count": ..., "total": ...,
  "min": ..., "max": ..., "p50": ..., "p90": ..., "p95": ..., "p99":
  ..., "underflow": ..., "buckets": {...}}`` — the log-bucket table
  makes reloaded histograms mergeable and quantile-capable.

:func:`read_jsonl` reconstructs a :class:`TelemetryCollector` from such a
file (round-trip safe), which is what offline analysis notebooks
consume; pass ``into=`` to accumulate several trace files into one
collector.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Optional, Union

from repro.telemetry.core import Histogram, Span, TelemetryCollector

__all__ = ["read_jsonl", "render_summary", "render_tree", "write_jsonl"]

_FORMAT_VERSION = 1


def write_jsonl(
    collector: TelemetryCollector, destination: Union[str, Path, IO[str]]
) -> None:
    """Serialise a collector to JSONL (path or open text stream)."""
    if hasattr(destination, "write"):
        _write_stream(collector, destination)
        return
    with open(destination, "w", encoding="utf-8") as stream:
        _write_stream(collector, stream)


def _write_stream(collector: TelemetryCollector, stream: IO[str]) -> None:
    meta = {
        "type": "meta",
        "version": _FORMAT_VERSION,
        "spans": sum(1 for _ in collector.iter_spans()),
        "dropped_spans": collector.dropped_spans,
    }
    stream.write(json.dumps(meta) + "\n")
    for root in collector.roots:
        record = {"type": "span"}
        record.update(root.to_dict())
        stream.write(json.dumps(record) + "\n")
    for name in sorted(collector.counters):
        record = {"type": "counter", "name": name, "value": collector.counters[name]}
        stream.write(json.dumps(record) + "\n")
    for name in sorted(collector.histograms):
        record = {"type": "histogram", "name": name}
        record.update(collector.histograms[name].to_dict())
        stream.write(json.dumps(record) + "\n")


def read_jsonl(
    source: Union[str, Path, IO[str]],
    into: Optional[TelemetryCollector] = None,
) -> TelemetryCollector:
    """Load a JSONL trace back into an (inactive) collector.

    ``into`` replays the file into an existing collector — replayed
    aggregates *accumulate*: counters add up and histograms merge
    bucket-wise, so loading two trace files into one collector totals
    them instead of silently dropping the first file's aggregates.

    Raises:
        ValueError: on malformed lines or an unsupported format version.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    collector = into if into is not None else TelemetryCollector()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number}: invalid JSON: {error}") from error
        kind = record.get("type")
        if kind == "meta":
            version = record.get("version")
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"line {number}: unsupported trace version {version!r}"
                )
            collector.dropped_spans += int(record.get("dropped_spans", 0))
        elif kind == "span":
            root = Span.from_dict(record)
            collector.roots.append(root)
            collector._span_count += sum(1 for _ in root.walk())
        elif kind == "counter":
            name = record["name"]
            collector.counters[name] = collector.counters.get(
                name, 0.0
            ) + float(record["value"])
        elif kind == "histogram":
            name = record["name"]
            loaded = Histogram.from_dict(record)
            existing = collector.histograms.get(name)
            if existing is None:
                collector.histograms[name] = loaded
            else:
                existing.merge(loaded)
        else:
            raise ValueError(f"line {number}: unknown record type {kind!r}")
    return collector


# ----------------------------------------------------------------------
# Human-readable renderers
# ----------------------------------------------------------------------
def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    parts = [f"{key}={value}" for key, value in span.attributes.items()]
    return "  [" + " ".join(parts) + "]"


def render_tree(
    collector: TelemetryCollector,
    max_children: int = 12,
    max_depth: int = 8,
) -> str:
    """ASCII tree of the span forest with durations and attributes.

    Repetitive fan-out (hundreds of ``solve`` spans under one experiment,
    or backend ``segment`` spans inside a training loop) is elided after
    ``max_children`` per node with a ``(+N more)`` marker so the tree
    stays readable.
    """
    lines: List[str] = []

    def visit(span: Span, prefix: str, child_prefix: str, depth: int) -> None:
        lines.append(
            f"{prefix}{span.name}  "
            f"{_format_duration(span.duration)}{_format_attributes(span)}"
        )
        if not span.children:
            return
        if depth >= max_depth:
            lines.append(f"{child_prefix}└─ … ({len(span.children)} nested)")
            return
        shown = span.children[:max_children]
        hidden = len(span.children) - len(shown)
        for index, child in enumerate(shown):
            last = index == len(shown) - 1 and hidden == 0
            connector = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            visit(
                child,
                child_prefix + connector,
                child_prefix + extension,
                depth + 1,
            )
        if hidden:
            lines.append(f"{child_prefix}└─ … (+{hidden} more)")

    for root in collector.roots:
        visit(root, "", "", 1)
    if collector.dropped_spans:
        lines.append(f"(dropped {collector.dropped_spans} spans over the cap)")
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def render_summary(collector: TelemetryCollector) -> str:
    """Counter and histogram table, one metric per line."""
    lines: List[str] = ["counters:"]
    if collector.counters:
        width = max(len(name) for name in collector.counters)
        for name in sorted(collector.counters):
            value = collector.counters[name]
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name:<{width}}  {rendered}")
    else:
        lines.append("  (none)")
    lines.append("histograms:")
    if collector.histograms:
        width = max(len(name) for name in collector.histograms)
        for name in sorted(collector.histograms):
            h = collector.histograms[name]
            lines.append(
                f"  {name:<{width}}  count={h.count} mean={h.mean:.2f} "
                f"min={h.minimum if h.count else 0:g} "
                f"max={h.maximum if h.count else 0:g} "
                f"p50={h.p50 if h.count else 0:g} "
                f"p90={h.p90 if h.count else 0:g} "
                f"p99={h.p99 if h.count else 0:g}"
            )
    else:
        lines.append("  (none)")
    return "\n".join(lines)
