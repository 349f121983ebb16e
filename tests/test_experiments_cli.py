"""CLI and experiment-harness plumbing."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.experiments.cli import (
    EXPERIMENTS,
    build_parser,
    build_serve_parser,
    build_solve_parser,
    main,
)
from tests.trace_checkers import check_chrome_trace


class TestParser:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "table1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--quick"])
        assert args.experiments == ["table1"]
        assert args.quick
        assert not args.trace
        assert args.trace_out is None

    def test_parser_trace_flags(self):
        args = build_parser().parse_args(
            ["fig15", "--trace", "--trace-out", "out.jsonl"]
        )
        assert args.trace
        assert args.trace_out == "out.jsonl"

    def test_parser_engine_flags(self):
        args = build_parser().parse_args(
            ["table1", "--engine-workers", "4", "--backend", "ideal"]
        )
        assert args.engine_workers == 4
        assert args.backend == "ideal"
        defaults = build_parser().parse_args(["table1"])
        assert defaults.engine_workers is None
        assert defaults.backend is None

    def test_solve_parser(self):
        args = build_solve_parser().parse_args(
            ["F1", "--seed", "7", "--shots", "128", "--engine-workers", "2"]
        )
        assert args.benchmark == "F1"
        assert args.seed == 7
        assert args.shots == 128
        assert args.engine_workers == 2

    def test_solve_parser_timeout(self):
        args = build_solve_parser().parse_args(["F1", "--timeout", "30"])
        assert args.timeout == 30.0
        assert build_solve_parser().parse_args(["F1"]).timeout is None

    def test_serve_parser(self):
        args = build_serve_parser().parse_args(
            ["--port", "0", "--service-workers", "4", "--store", "r.jsonl"]
        )
        assert args.port == 0
        assert args.service_workers == 4
        assert args.store == "r.jsonl"
        defaults = build_serve_parser().parse_args([])
        assert defaults.host == "127.0.0.1"
        assert defaults.port == 8042
        assert defaults.service_workers == 2
        assert defaults.store is None

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestSolveSubcommand:
    def test_solve_prints_json_record(self, capsys):
        assert main(["solve", "F1", "--seed", "3", "--iterations", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "F1-case0"
        assert payload["in_constraints_rate"] == 1.0
        assert payload["distribution"]

    def test_solve_output_deterministic_across_workers(self, capsys, tmp_path):
        argv = ["solve", "F1", "--seed", "7", "--shots", "128",
                "--iterations", "6", "--restarts", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        trace = tmp_path / "trace.json"
        assert main(argv + ["--engine-workers", "2", "--trace-out", str(trace),
                            "--trace-format", "chrome"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        # Worker-side spans are stitched into the parent's trace.
        document = json.loads(trace.read_text())
        assert check_chrome_trace(document) == []
        events = document["traceEvents"]
        assert len({event["pid"] for event in events}) > 1
        assert {"engine.map", "restart"} <= {event["name"] for event in events}

    def test_solve_reuses_spilled_artifacts(self, capsys, tmp_path):
        from repro.pipeline import get_default_cache

        argv = ["solve", "F1", "--seed", "7", "--shots", "128",
                "--iterations", "6", "--spill-dir", str(tmp_path)]
        default = get_default_cache()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # The spill cache lives for one command only.
        assert get_default_cache() is default
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert get_default_cache() is default
        assert warm == cold
        # One content-addressed file per stage a solve reads; ``inspect``
        # still compiles all five, and depth accounting is not spilled.
        config = '{"seed": 7, "shots": 128, "max_iterations": 6}'
        assert main(["inspect", "F1", "--config", config]) == 0
        stages = json.loads(capsys.readouterr().out)["stages"]
        assert [stage["name"] for stage in stages] == [
            "basis", "hamiltonian", "prune", "segmentation", "circuit"
        ]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{stage['fingerprint']}.npz" for stage in stages[:4]
        )

    def test_solve_timeout_expired_exits_3(self, capsys):
        assert main(["solve", "F1", "--timeout", "0"]) == 3
        captured = capsys.readouterr()
        assert "deadline expired" in captured.err
        assert captured.out == ""

    def test_solve_generous_timeout_succeeds(self, capsys):
        assert main(
            ["solve", "F1", "--seed", "3", "--iterations", "5",
             "--timeout", "300"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "F1-case0"

    def test_engine_defaults_restored_after_run(self, capsys):
        from repro.engine import get_defaults

        before = get_defaults()
        assert main(["fig15", "--quick", "--engine-workers", "2"]) == 0
        after = get_defaults()
        assert after.workers == before.workers
        assert after.backend == before.backend


class TestServeSubcommand:
    def test_serve_answers_health_and_stops_cleanly_on_sigint(self):
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            url = None
            for line in process.stdout:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url is not None, "serve exited before listening"
            with urllib.request.urlopen(url + "/healthz", timeout=10) as reply:
                assert json.loads(reply.read())["status"] == "ok"
            process.send_signal(signal.SIGINT)
            rest, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert "service stopped" in rest
        assert process.returncode == 0


class TestQuickRuns:
    """Each CLI experiment must run end to end in quick mode."""

    def test_fig15_quick(self, capsys):
        assert main(["fig15", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "mean reductions" in out

    def test_fig17_quick(self, capsys):
        assert main(["fig17", "--quick"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_fig12_quick(self, capsys):
        assert main(["fig12", "--quick"]) == 0
        assert "rasengan" in capsys.readouterr().out

    def test_fig13_quick(self, capsys):
        assert main(["fig13", "--quick"]) == 0
        assert "#segments" in capsys.readouterr().out

    def test_multiple_experiments(self, capsys):
        assert main(["fig15", "fig17", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "fig17" in out


class TestTraceFlags:
    def test_trace_prints_tree_and_summary(self, capsys):
        assert main(["fig13", "--quick", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "=== trace ===" in out
        assert "solve" in out
        assert "counters:" in out
        assert "circuits.executed" in out

    def test_trace_out_writes_loadable_jsonl(self, capsys, tmp_path):
        from repro import telemetry

        path = tmp_path / "trace.jsonl"
        assert main(["fig13", "--quick", "--trace-out", str(path)]) == 0
        assert path.exists()
        loaded = telemetry.read_jsonl(path)
        assert loaded.counter("circuits.executed") > 0
        assert "solve" in set(loaded.span_names())

    def test_trace_disabled_after_run(self, capsys):
        from repro import telemetry

        assert main(["fig15", "--quick", "--trace"]) == 0
        assert not telemetry.enabled()


class TestExperimentRunner:
    def test_unknown_algorithm_rejected(self):
        from repro.experiments.runner import run_algorithm
        from repro.problems import make_benchmark

        with pytest.raises(ValueError):
            run_algorithm("annealer", make_benchmark("F1", 0))

    def test_run_record_fields(self):
        from repro.experiments.runner import run_algorithm
        from repro.problems import make_benchmark

        run = run_algorithm(
            "rasengan", make_benchmark("F1", 0), max_iterations=20
        )
        assert run.algorithm == "rasengan"
        assert run.executed_depth > 0
        assert run.num_segments >= 1
        assert 0 <= run.in_constraints_rate <= 1
