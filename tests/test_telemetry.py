"""Telemetry layer: spans, counters/histograms, sinks, no-op mode, and
solver/runner integration."""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro import telemetry
from repro.telemetry.core import Histogram, Span, TelemetryCollector


class TestSpans:
    def test_nesting_records_tree(self):
        with telemetry.session() as collector:
            with telemetry.span("outer", kind="test"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
        assert [root.name for root in collector.roots] == ["outer"]
        outer = collector.roots[0]
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert outer.attributes == {"kind": "test"}

    def test_timing_monotonicity(self):
        with telemetry.session() as collector:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        outer = collector.roots[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.duration <= outer.duration
        assert outer.duration >= 0.0

    def test_set_attributes_after_start(self):
        with telemetry.session() as collector:
            with telemetry.span("work") as span:
                span.set(items=3)
        assert collector.roots[0].attributes == {"items": 3}

    def test_exception_still_closes_span(self):
        with telemetry.session() as collector:
            with pytest.raises(RuntimeError):
                with telemetry.span("fails"):
                    raise RuntimeError("boom")
        assert collector.roots[0].end is not None
        assert collector.current_span() is None

    def test_span_cap_drops_but_counts(self):
        collector = TelemetryCollector(max_spans=2)
        with telemetry.session(collector):
            for _ in range(5):
                with telemetry.span("s"):
                    telemetry.add("events")
        assert len(collector.roots) == 2
        assert collector.dropped_spans == 3
        assert collector.counter("events") == 5

    def test_detach_returns_tree_and_gives_back_budget(self):
        collector = TelemetryCollector(max_spans=2)
        with telemetry.session(collector):
            with telemetry.span("job", id=1) as job:
                with telemetry.span("solve"):
                    pass
            with telemetry.span("dropped"):
                pass
            assert collector.dropped_spans == 1
            trace = collector.detach(job)
            with telemetry.span("next"):
                with telemetry.span("child"):
                    pass
        assert trace["name"] == "job"
        assert trace["attributes"] == {"id": 1}
        assert [child["name"] for child in trace["children"]] == ["solve"]
        assert [root.name for root in collector.roots] == ["next"]
        assert collector.dropped_spans == 1
        assert collector.summary()["spans"] == 2

    def test_detach_refuses_unknown_and_open_spans(self):
        collector = TelemetryCollector()
        with telemetry.session(collector):
            with telemetry.span("outer") as outer:
                with telemetry.span("inner") as inner:
                    pass
                with pytest.raises(ValueError, match="still open"):
                    collector.detach(outer)
            with pytest.raises(ValueError, match="not a root"):
                collector.detach(inner)
            with pytest.raises(ValueError, match="not a root"):
                collector.detach(Span(name="stranger", start=0.0, end=1.0))
            collector.detach(outer)
            with pytest.raises(ValueError, match="not a root"):
                collector.detach(outer)
        assert collector.roots == []

    def test_concurrent_detach_loses_no_budget(self):
        # Worker threads open, finish and detach their own trees at once;
        # a lost update to the span count would strand budget or drop spans.
        collector = TelemetryCollector(max_spans=16)
        traces = []

        def work():
            for _ in range(300):
                with telemetry.span("job") as job:
                    with telemetry.span("solve"):
                        pass
                traces.append(collector.detach(job))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session(collector):
                threads = [threading.Thread(target=work) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(traces) == 8 * 300
        assert collector.roots == []
        assert collector.dropped_spans == 0
        assert collector.summary()["spans"] == 0

    def test_adopted_thread_nests_under_parent_until_it_ends(self):
        collector = TelemetryCollector()
        opened, ended = threading.Event(), threading.Event()

        def work(parent):
            with collector.adopt(parent):
                with telemetry.span("inside"):
                    pass
                opened.set()
                ended.wait(10.0)
                with telemetry.span("late"):  # the parent has ended
                    pass

        with telemetry.session(collector):
            with telemetry.span("job") as job:
                thread = threading.Thread(target=work, args=(job,))
                thread.start()
                assert opened.wait(10.0)
            trace = collector.detach(job)
            ended.set()
            thread.join(10.0)
        assert [child["name"] for child in trace["children"]] == ["inside"]
        assert collector.roots == []
        assert collector.summary()["spans"] == 0
        assert collector.dropped_spans == 0

    def test_adopted_spans_racing_a_detach_lose_no_budget(self):
        # Adopting threads keep opening spans while their parent ends and
        # is detached; each span must be either in the detached tree (and
        # given back with it) or never counted.
        collector = TelemetryCollector()

        def work(parent, started):
            with collector.adopt(parent):
                started.wait(10.0)
                for _ in range(200):
                    with telemetry.span("work"):
                        with telemetry.span("step"):
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.session(collector):
                for _ in range(20):
                    started = threading.Barrier(5)
                    with telemetry.span("job") as job:
                        threads = [
                            threading.Thread(target=work, args=(job, started))
                            for _ in range(4)
                        ]
                        for thread in threads:
                            thread.start()
                        started.wait(10.0)
                    collector.detach(job)
                    for thread in threads:
                        thread.join(60.0)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert collector.roots == []
        assert collector.summary()["spans"] == 0
        assert collector.dropped_spans == 0

    def test_adopt_refuses_a_thread_with_open_spans(self):
        collector = TelemetryCollector()
        with telemetry.session(collector):
            with telemetry.span("outer") as outer:
                with pytest.raises(ValueError, match="no open span"):
                    with collector.adopt(outer):
                        pass

    def test_walk_and_span_names(self):
        with telemetry.session() as collector:
            with telemetry.span("a"):
                with telemetry.span("b"):
                    pass
            with telemetry.span("c"):
                pass
        assert collector.span_names() == ["a", "b", "c"]


class TestMetrics:
    def test_counter_aggregation(self):
        with telemetry.session() as collector:
            telemetry.add("hits")
            telemetry.add("hits", 2)
            telemetry.add("shots", 512)
        assert collector.counter("hits") == 3
        assert collector.counter("shots") == 512
        assert collector.counter("missing") == 0.0

    def test_histogram_aggregation(self):
        with telemetry.session() as collector:
            for value in (4, 1, 7):
                telemetry.observe("support", value)
        histogram = collector.histograms["support"]
        assert histogram.count == 3
        assert histogram.total == 12
        assert histogram.minimum == 1
        assert histogram.maximum == 7
        assert histogram.mean == 4

    def test_histogram_empty_dict_roundtrip(self):
        empty = Histogram()
        assert Histogram.from_dict(empty.to_dict()).count == 0

    def test_snapshot_counters_is_a_copy(self):
        with telemetry.session() as collector:
            telemetry.add("x")
            snapshot = collector.snapshot_counters()
            telemetry.add("x")
        assert snapshot == {"x": 1}
        assert collector.counter("x") == 2

    def test_summary_rollup(self):
        with telemetry.session() as collector:
            with telemetry.span("s"):
                telemetry.add("c", 2)
                telemetry.observe("h", 5)
        summary = collector.summary()
        assert summary["counters"] == {"c": 2}
        assert summary["histograms"]["h"]["max"] == 5
        assert summary["spans"] == 1


class TestNoopMode:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.active() is None

    def test_noop_span_is_singleton_and_chainable(self):
        span = telemetry.span("anything", a=1)
        assert span is telemetry.NOOP_SPAN
        with span as inner:
            assert inner.set(x=2) is telemetry.NOOP_SPAN

    def test_disabled_emits_nothing(self):
        # Collect with a session, then verify calls outside it mutate nothing.
        with telemetry.session() as collector:
            telemetry.add("inside")
        telemetry.add("outside")
        telemetry.observe("outside", 1.0)
        with telemetry.span("outside"):
            pass
        assert collector.counters == {"inside": 1}
        assert collector.histograms == {}
        assert collector.span_names() == []

    def test_session_nesting_restores_previous(self):
        with telemetry.session() as outer_collector:
            telemetry.add("which")
            with telemetry.session() as inner_collector:
                telemetry.add("which")
            assert telemetry.active() is outer_collector
            telemetry.add("which")
        assert not telemetry.enabled()
        assert outer_collector.counter("which") == 2
        assert inner_collector.counter("which") == 1


class TestJsonlSink:
    def _populate(self) -> TelemetryCollector:
        with telemetry.session() as collector:
            with telemetry.span("solve", problem="F1") as span:
                with telemetry.span("segment", index=0):
                    telemetry.add("circuits.executed")
                    telemetry.observe("sparse.amplitudes", 4)
                span.set(score=1.5)
            telemetry.add("shots.total", 1024)
        return collector

    def test_roundtrip_stream(self):
        collector = self._populate()
        buffer = io.StringIO()
        telemetry.write_jsonl(collector, buffer)
        buffer.seek(0)
        loaded = telemetry.read_jsonl(buffer)
        assert loaded.span_names() == collector.span_names()
        assert loaded.counters == collector.counters
        assert loaded.roots[0].attributes == {"problem": "F1", "score": 1.5}
        assert loaded.roots[0].children[0].attributes == {"index": 0}
        restored = loaded.histograms["sparse.amplitudes"]
        assert restored.count == 1 and restored.maximum == 4

    def test_roundtrip_path(self, tmp_path):
        collector = self._populate()
        path = tmp_path / "trace.jsonl"
        telemetry.write_jsonl(collector, path)
        # Every line is standalone valid JSON with a known type.
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["type"] in {"meta", "span", "counter", "histogram"}
        loaded = telemetry.read_jsonl(path)
        assert loaded.counters == collector.counters

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            telemetry.read_jsonl(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            telemetry.read_jsonl(path)

    def test_rejects_unknown_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record"):
            telemetry.read_jsonl(path)


class TestRenderers:
    def test_tree_elides_fanout(self):
        with telemetry.session() as collector:
            with telemetry.span("root"):
                for index in range(10):
                    with telemetry.span("child", index=index):
                        pass
        text = telemetry.render_tree(collector, max_children=3)
        assert "root" in text
        assert text.count("child") == 3
        assert "(+7 more)" in text

    def test_tree_empty(self):
        assert "no spans" in telemetry.render_tree(TelemetryCollector())

    def test_summary_lists_metrics(self):
        with telemetry.session() as collector:
            telemetry.add("circuits.executed", 5)
            telemetry.observe("sparse.amplitudes", 3)
        text = telemetry.render_summary(collector)
        assert "circuits.executed" in text and "5" in text
        assert "sparse.amplitudes" in text and "max=3" in text


class TestSolverIntegration:
    def test_rasengan_solve_produces_expected_trace(self, small_flp):
        from repro.core.solver import RasenganConfig, RasenganSolver

        with telemetry.session() as collector:
            config = RasenganConfig(shots=64, max_iterations=10, seed=0)
            RasenganSolver(small_flp, config=config).solve()
        names = set(collector.span_names())
        # Pipeline passes (one span per stage)...
        assert {
            "pipeline.basis",
            "pipeline.hamiltonian",
            "pipeline.prune",
            "pipeline.segmentation",
            "solve",
        } <= names
        # Depth accounting is compiled on demand, never by a solve.
        assert "pipeline.circuit" not in names
        # The per-evaluation segment loop opens no span; counters cover it.
        assert "segment" not in names
        assert "sparse.evolve" not in names
        # Execution accounting.
        assert collector.counter("circuits.executed") > 0
        assert collector.counter("shots.total") > 0
        assert collector.counter("optimizer.iterations") > 0
        assert collector.histograms["sparse.amplitudes"].maximum >= 1

    def test_sparse_segment_counters_pinned(self):
        # Values of the per-segment loop before mask caching; the lean
        # segment step must keep every counter it emitted, and opens no
        # span (it runs once per segment per COBYLA evaluation).
        from repro.core.solver import RasenganConfig, RasenganSolver
        from repro.pipeline.cache import ArtifactCache
        from repro.problems import make_benchmark

        config = RasenganConfig(
            shots=256, max_iterations=20, seed=3, transitions_per_segment=2
        )
        with telemetry.session() as collector:
            RasenganSolver(
                make_benchmark("K2", 0),
                config=config,
                artifact_cache=ArtifactCache(),
            ).solve()
        counters = {
            name: collector.counter(name)
            for name in (
                "engine.executions",
                "circuits.executed",
                "shots.total",
                "sparse.transitions",
            )
        }
        assert counters == {
            "engine.executions": 44,
            "circuits.executed": 44,
            "shots.total": 44 * 256,
            "sparse.transitions": 88,
        }
        amplitudes = collector.histograms["sparse.amplitudes"]
        assert (amplitudes.count, amplitudes.total) == (88, 278.0)
        spans = collector.span_names()
        assert "segment" not in spans and "sparse.evolve" not in spans

    def test_backend_engine_counts_backend_executions(self, small_flp):
        from repro.core.solver import RasenganConfig, RasenganSolver
        from repro.simulators.backends import IdealBackend

        with telemetry.session() as collector:
            config = RasenganConfig(shots=32, max_iterations=4, seed=0)
            RasenganSolver(
                small_flp, backend=IdealBackend(seed=0), config=config
            ).solve()
        assert collector.counter("backend.executions") > 0
        assert collector.counter("gates.cx") > 0
        assert "statevector.run" in set(collector.span_names())

    def test_baseline_counts_iterations_and_executions(self, small_flp):
        from repro.baselines import HardwareEfficientAnsatz

        with telemetry.session() as collector:
            HardwareEfficientAnsatz(
                small_flp, layers=1, shots=32, max_iterations=5, seed=0
            ).solve()
        assert collector.counter("optimizer.iterations") > 0
        assert collector.counter("circuits.executed") > 0
        assert "baseline.solve" in set(collector.span_names())
        assert "optimizer.cobyla" in set(collector.span_names())

    @pytest.mark.parametrize(
        "budget, stop", [(12, "max_evaluations"), (500, "small_radius")]
    )
    @pytest.mark.parametrize("path", ["in-repo", "scipy"])
    def test_cobyla_span_reports_evaluations_and_stop(
        self, monkeypatch, path, budget, stop
    ):
        import numpy as np

        from repro.baselines import optimizer

        if path == "scipy":
            monkeypatch.setattr(optimizer, "_unconstrained", lambda: None)
        calls = []

        def loss(x):
            calls.append(1)
            return float(((x - 0.25) ** 2).sum())

        with telemetry.session() as collector:
            optimizer.minimize_cobyla(loss, np.zeros(3), max_iterations=budget)
        (span,) = [s for s in collector.iter_spans() if s.name == "optimizer.cobyla"]
        assert span.attributes["stop"] == stop
        assert span.attributes["evaluations"] == len(calls)
        assert span.attributes["budget"] == budget

    @pytest.mark.parametrize("path", ["in-repo", "scipy"])
    def test_cobyla_span_reports_loss_seconds(self, monkeypatch, path):
        # Driver self time is the span's duration minus loss_s.
        import time

        import numpy as np

        from repro.baselines import optimizer

        if path == "scipy":
            monkeypatch.setattr(optimizer, "_unconstrained", lambda: None)

        def loss(x):
            time.sleep(1e-4)
            return float(((x - 0.25) ** 2).sum())

        with telemetry.session() as collector:
            optimizer.minimize_cobyla(loss, np.zeros(3), max_iterations=20)
        (span,) = [s for s in collector.iter_spans() if s.name == "optimizer.cobyla"]
        loss_s = span.attributes["loss_s"]
        assert 0 < span.attributes["evaluations"] * 1e-4 <= loss_s <= span.duration

    @pytest.mark.parametrize("path", ["in-repo", "scipy"])
    def test_cobyla_observes_driver_seconds_once_per_call(self, monkeypatch, path):
        # optimizer.driver_s is timed inside the span, less the loss.
        import numpy as np

        from repro.baselines import optimizer

        if path == "scipy":
            monkeypatch.setattr(optimizer, "_unconstrained", lambda: None)

        def loss(x):
            return float(((x - 0.25) ** 2).sum())

        with telemetry.session() as collector:
            for n in (2, 4):
                optimizer.minimize_cobyla(loss, np.zeros(n), max_iterations=30)
        spans = [s for s in collector.iter_spans() if s.name == "optimizer.cobyla"]
        driver = collector.histograms["optimizer.driver_s"]
        assert driver.count == len(spans) == 2
        assert driver.minimum > 0
        assert driver.total <= sum(s.duration - s.attributes["loss_s"] for s in spans)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_cobyla_span_reports_trust_region_fallbacks(self, fallback):
        import numpy as np

        from repro.baselines import optimizer

        pytest.importorskip("scipy._lib.pyprima")
        if fallback:
            # Flat in x[1:], so the simplex gradient has exact zeros, which
            # pyprima's general trstlp serves.
            loss = lambda x: float((x[0] - 0.25) ** 2)
        else:
            target = np.array([0.3, -0.4, 0.7])
            loss = lambda x: float(((x - target) ** 2).sum())
        with telemetry.session() as collector:
            optimizer.minimize_cobyla(loss, np.zeros(3), max_iterations=60)
        (span,) = [s for s in collector.iter_spans() if s.name == "optimizer.cobyla"]
        steps = span.attributes["tr_steps"]
        fallbacks = span.attributes["tr_fallbacks"]
        assert steps > 0
        assert 0 < fallbacks <= steps if fallback else fallbacks == 0
        assert collector.counter("optimizer.evaluations") == span.attributes[
            "evaluations"
        ]

    def test_solver_untraced_when_disabled(self, small_flp):
        from repro.core.solver import RasenganConfig, RasenganSolver

        with telemetry.session() as collector:
            pass  # solve happens after the session closed
        config = RasenganConfig(shots=None, max_iterations=5, seed=0)
        RasenganSolver(small_flp, config=config).solve()
        assert collector.span_names() == []
        assert collector.counters == {}


class TestRunnerIntegration:
    def test_run_attaches_telemetry_summary(self, small_flp):
        from repro.experiments.runner import run_algorithm

        with telemetry.session():
            run = run_algorithm(
                "rasengan", small_flp, max_iterations=5, restarts=1
            )
        assert run.telemetry["counters"]["circuits.executed"] > 0
        assert "sparse.amplitudes" in run.telemetry["histograms"]

    def test_summary_is_per_run_delta(self, small_flp):
        from repro.experiments.runner import run_algorithm

        with telemetry.session() as collector:
            first = run_algorithm(
                "rasengan", small_flp, max_iterations=5, restarts=1
            )
            second = run_algorithm(
                "rasengan", small_flp, max_iterations=5, restarts=1
            )
        first_executed = first.telemetry["counters"]["circuits.executed"]
        second_executed = second.telemetry["counters"]["circuits.executed"]
        total = collector.counter("circuits.executed")
        assert first_executed + second_executed == total

    def test_empty_without_telemetry(self, small_flp):
        from repro.experiments.runner import run_algorithm

        run = run_algorithm("rasengan", small_flp, max_iterations=5, restarts=1)
        assert run.telemetry == {}


class TestSpanDataclass:
    def test_to_from_dict(self):
        span = Span(name="s", attributes={"k": 1}, start=1.0, end=2.0)
        span.children.append(Span(name="c", start=1.1, end=1.5))
        clone = Span.from_dict(span.to_dict())
        assert clone.name == "s"
        assert clone.children[0].name == "c"
        assert clone.duration == pytest.approx(1.0)

    def test_open_span_duration_zero(self):
        assert Span(name="open", start=5.0).duration == 0.0
