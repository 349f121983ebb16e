"""Quantile histograms, cross-process merging, and the export formats.

The Prometheus/Chrome exporters are validated with the format checkers
of ``tests/trace_checkers.py``, which the service and CLI tests also run
against real ``GET /metrics`` and ``repro solve`` output.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import telemetry
from repro.telemetry import (
    BUCKET_BASE,
    Histogram,
    Span,
    TelemetryCollector,
    bucket_bound,
    bucket_index,
    chrome_trace,
    prometheus_text,
    read_jsonl,
    sanitize_metric_name,
    write_chrome_trace,
    write_jsonl,
)
from tests.trace_checkers import check_chrome_trace, check_prometheus_text


def _collector_with_data() -> TelemetryCollector:
    with telemetry.session() as collector:
        with telemetry.span("solve", label="F1"):
            with telemetry.span("restart", index=0):
                telemetry.add("circuits.executed", 4)
        telemetry.add("shots.total", 1024)
        for value in (0.001, 0.01, 0.1, 1.0):
            telemetry.observe("engine.execute_seconds", value)
    return collector


class TestQuantileHistogram:
    def test_bucket_index_bounds_value(self):
        for value in (1e-6, 0.003, 0.5, 1.0, 7.3, 1e4):
            index = bucket_index(value)
            assert bucket_bound(index - 1) < value <= bucket_bound(index)

    def test_quantile_relative_error_bounded(self):
        histogram = Histogram()
        values = [0.0001 * (1.17 ** i) for i in range(200)]
        for value in values:
            histogram.observe(value)
        values.sort()
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            approx = histogram.quantile(q)
            assert approx <= histogram.maximum
            # One log bucket of slack: <= BUCKET_BASE relative error.
            assert exact / BUCKET_BASE <= approx <= exact * BUCKET_BASE

    def test_single_observation_is_exact(self):
        histogram = Histogram()
        histogram.observe(3.7)
        assert histogram.p50 == 3.7
        assert histogram.p99 == 3.7

    def test_underflow_bucket(self):
        histogram = Histogram()
        for value in (-1.0, 0.0, 5.0):
            histogram.observe(value)
        assert histogram.underflow == 2
        assert histogram.quantile(0.5) == 0.0  # clamped above minimum
        assert histogram.minimum == -1.0

    def test_merge_equals_serial_observation(self):
        left, right, serial = Histogram(), Histogram(), Histogram()
        for index, value in enumerate((0.01, 0.5, 2.0, 8.0, 0.0, 30.0)):
            (left if index % 2 else right).observe(value)
            serial.observe(value)
        left.merge(right)
        assert left.count == serial.count
        assert left.total == serial.total
        assert left.minimum == serial.minimum
        assert left.maximum == serial.maximum
        assert left.buckets == serial.buckets
        assert left.underflow == serial.underflow
        assert left.p50 == serial.p50 and left.p99 == serial.p99

    def test_to_dict_round_trip(self):
        histogram = Histogram()
        for value in (0.2, 0.4, 9.0):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.buckets == histogram.buckets
        assert clone.count == histogram.count
        assert clone.p90 == histogram.p90

    def test_legacy_payload_without_buckets(self):
        # A count the bucket table does not hold has unknown quantiles.
        with pytest.raises(ValueError, match="observations"):
            Histogram.from_dict(
                {"count": 10, "total": 55.0, "min": 1.0, "max": 10.0}
            )
        with pytest.raises(ValueError, match="observations"):
            Histogram.from_dict(
                {"count": 3, "total": 3.0, "min": 0.0, "max": 2.0,
                 "underflow": 1, "buckets": {"4": 1}}
            )


class TestCollectorMerge:
    def test_merge_delta_matches_serial_totals(self):
        serial = TelemetryCollector()
        parent = TelemetryCollector()
        child = TelemetryCollector()
        for collector in (serial, parent):
            collector.add("circuits.executed", 3)
            collector.observe("engine.execute_seconds", 0.25)
        serial.add("circuits.executed", 2)
        serial.observe("engine.execute_seconds", 0.75)
        child.add("circuits.executed", 2)
        child.observe("engine.execute_seconds", 0.75)
        parent.merge(child.to_delta())
        assert parent.counters == serial.counters
        assert (
            parent.histograms["engine.execute_seconds"].buckets
            == serial.histograms["engine.execute_seconds"].buckets
        )

    def test_merge_stitches_spans_under_parent(self):
        parent = TelemetryCollector()
        anchor = Span(name="engine.map", start=0.0, end=1.0)
        parent.roots.append(anchor)
        child = TelemetryCollector()
        root = Span(name="restart", start=0.1, end=0.9)
        root.attributes["worker_pid"] = 4242
        child.roots.append(root)
        child._span_count = 1
        parent.merge(child.to_delta(), parent=anchor)
        assert [node.name for node in anchor.children] == ["restart"]
        assert anchor.children[0].attributes["worker_pid"] == 4242

    def test_read_jsonl_accumulates_into_existing_collector(self):
        collector = _collector_with_data()
        buffer = io.StringIO()
        write_jsonl(collector, buffer)
        first = read_jsonl(io.StringIO(buffer.getvalue()))
        merged = read_jsonl(io.StringIO(buffer.getvalue()), into=first)
        assert merged is first
        assert merged.counter("shots.total") == 2 * collector.counter(
            "shots.total"
        )
        assert (
            merged.histograms["engine.execute_seconds"].count
            == 2 * collector.histograms["engine.execute_seconds"].count
        )
        assert len(merged.roots) == 2 * len(collector.roots)


class TestPrometheusExport:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("pipeline.cache.hits") == "pipeline_cache_hits"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a-b c") == "a_b_c"
        assert sanitize_metric_name("ok_name:sub") == "ok_name:sub"

    def test_disabled_telemetry_still_renders(self):
        text = prometheus_text(None)
        assert "telemetry_enabled 0" in text
        assert check_prometheus_text(text) == []

    def test_export_passes_checker(self):
        text = prometheus_text(_collector_with_data())
        assert check_prometheus_text(text) == []
        assert "circuits_executed 4" in text
        assert "shots_total 1024" in text
        assert 'engine_execute_seconds_bucket{le="+Inf"} 4' in text
        assert "engine_execute_seconds_count 4" in text

    def test_histogram_buckets_cumulative(self):
        text = prometheus_text(_collector_with_data())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("engine_execute_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_checker_flags_bad_payloads(self):
        assert check_prometheus_text("bad.name 1\n")
        assert check_prometheus_text("name_without_value\n")
        decreasing = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        problems = check_prometheus_text(decreasing)
        assert any("decrease" in problem for problem in problems)


class TestChromeTraceExport:
    def test_export_passes_checker(self):
        document = chrome_trace(_collector_with_data())
        assert check_chrome_trace(document) == []
        names = [event["name"] for event in document["traceEvents"]]
        assert names == ["solve", "restart"]
        assert document["traceEvents"][0]["args"]["label"] == "F1"

    def test_worker_pid_routes_subtree(self):
        collector = TelemetryCollector()
        root = Span(name="engine.map", start=0.0, end=1.0)
        stitched = Span(name="restart", start=0.2, end=0.8)
        stitched.attributes["worker_pid"] = 777
        inner = Span(name="iteration", start=0.3, end=0.4)
        stitched.children.append(inner)
        root.children.append(stitched)
        collector.roots.append(root)
        document = chrome_trace(collector)
        by_name = {event["name"]: event for event in document["traceEvents"]}
        assert by_name["engine.map"]["pid"] != 777
        assert by_name["restart"]["pid"] == 777
        assert by_name["iteration"]["pid"] == 777  # inherited down the tree
        assert check_chrome_trace(document) == []

    def test_timestamps_relative_and_microseconds(self):
        collector = TelemetryCollector()
        collector.roots.append(Span(name="a", start=100.0, end=100.5))
        collector.roots.append(Span(name="b", start=100.25, end=100.75))
        document = chrome_trace(collector)
        a, b = document["traceEvents"]
        assert a["ts"] == 0.0
        assert b["ts"] == pytest.approx(0.25e6)
        assert a["dur"] == pytest.approx(0.5e6)
        assert a["tid"] != b["tid"]  # one track per root

    def test_write_chrome_trace_to_path(self, tmp_path):
        destination = tmp_path / "trace.json"
        write_chrome_trace(_collector_with_data(), destination)
        document = json.loads(destination.read_text())
        assert check_chrome_trace(document) == []

    def test_checker_flags_bad_payloads(self):
        assert check_chrome_trace([]) == [
            "top level must be an object, got list"
        ]
        assert check_chrome_trace({}) == ["missing traceEvents array"]
        problems = check_chrome_trace(
            {"traceEvents": [{"ph": "B", "name": "x"}]}
        )
        assert any("ph must be 'X'" in problem for problem in problems)
