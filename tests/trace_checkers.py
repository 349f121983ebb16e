"""Format checkers for the exported observability artifacts.

Two checkers, each returning a list of problem strings (empty = valid):

* :func:`check_prometheus_text` — Prometheus text exposition format:
  every line is a comment or ``name value``, names match the Prometheus
  grammar, and histogram families are well-formed (``_bucket`` series
  cumulative and non-decreasing, ``le="+Inf"`` equal to ``_count``,
  ``_sum`` present).
* :func:`check_chrome_trace` — Chrome trace-event JSON: non-empty
  ``traceEvents`` of complete (``"ph": "X"``) events with numeric
  ``ts``/``dur`` and integer ``pid``/``tid``.

The tests run them against the exporters' own output and against real
``repro solve --trace-format chrome`` / ``GET /metrics`` output.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Tuple

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LE_LABEL = re.compile(r'le="(?P<le>[^"]+)"')


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)


def check_prometheus_text(text: str) -> List[str]:
    """Return format problems in a Prometheus text exposition payload."""
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("payload must end with a newline")
    # histogram family -> {"buckets": [(le, value)], "sum": x, "count": n}
    families: Dict[str, Dict[str, Any]] = {}
    typed: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            match = re.match(r"^# TYPE ([^ ]+) ([a-z]+)$", line)
            if match:
                typed[match.group(1)] = match.group(2)
            elif not line.startswith("# HELP"):
                problems.append(f"line {number}: unrecognised comment {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: not a valid sample: {line!r}")
            continue
        name = match.group("name")
        if not _METRIC_NAME.match(name):
            problems.append(f"line {number}: invalid metric name {name!r}")
            continue
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            problems.append(
                f"line {number}: non-numeric value {match.group('value')!r}"
            )
            continue
        labels = match.group("labels") or ""
        if name.endswith("_bucket"):
            family = name[: -len("_bucket")]
            le_match = _LE_LABEL.search(labels)
            if le_match is None:
                problems.append(f"line {number}: _bucket sample without le=")
                continue
            families.setdefault(family, {"buckets": []})["buckets"].append(
                (_parse_value(le_match.group("le")), value)
            )
        elif name.endswith("_sum"):
            families.setdefault(name[: -len("_sum")], {"buckets": []})[
                "sum"
            ] = value
        elif name.endswith("_count"):
            families.setdefault(name[: -len("_count")], {"buckets": []})[
                "count"
            ] = value
    for family, parts in families.items():
        if typed.get(family) != "histogram":
            # _sum/_count/_bucket suffixes on non-histogram metrics are
            # legal Prometheus, just not something our exporter emits.
            continue
        problems.extend(_check_histogram_family(family, parts))
    return problems


def _check_histogram_family(
    family: str, parts: Dict[str, Any]
) -> List[str]:
    problems: List[str] = []
    buckets: List[Tuple[float, float]] = parts.get("buckets", [])
    if not buckets:
        problems.append(f"{family}: histogram with no _bucket series")
        return problems
    if "sum" not in parts:
        problems.append(f"{family}: missing _sum")
    if "count" not in parts:
        problems.append(f"{family}: missing _count")
    bounds = [le for le, _ in buckets]
    if bounds != sorted(bounds):
        problems.append(f"{family}: bucket bounds not sorted")
    if not math.isinf(bounds[-1]):
        problems.append(f"{family}: last bucket must be le=\"+Inf\"")
    cumulative = [value for _, value in buckets]
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        problems.append(f"{family}: cumulative bucket counts decrease")
    if "count" in parts and cumulative and cumulative[-1] != parts["count"]:
        problems.append(
            f"{family}: le=\"+Inf\" bucket ({cumulative[-1]:g}) != "
            f"_count ({parts['count']:g})"
        )
    return problems


def check_chrome_trace(payload: Any) -> List[str]:
    """Return format problems in a Chrome trace-event JSON payload."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if event.get("ph") != "X":
            problems.append(f"{where}: ph must be 'X', got {event.get('ph')!r}")
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where}: {key} must be a number")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
            problems.append(f"{where}: negative ts")
        if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append(f"{where}: negative dur")
    return problems
