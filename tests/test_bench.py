"""repro.bench: schema round-trip, comparison verdicts, gate exit codes.

The statistical contract under test: shifts inside the noise threshold
are neutral, shifts far outside it are regressed, and the verdicts do
not flip when the bootstrap RNG seed changes.
"""

import json

import numpy as np
import pytest

from repro.bench import (
    SCHEMA_ID,
    BenchSchemaError,
    compare_reports,
    format_comparison,
    get_workload,
    load_report,
    new_report,
    run_workload,
    validate_report,
    workload_entry,
    workloads_for,
    write_report,
)
from repro.bench.cli import GATE_EXIT_CODE, _parse_threshold, main as bench_main


def make_samples(center, *, jitter=0.01, n=8, seed=0):
    """Deterministic timing-like samples around ``center`` seconds."""
    rng = np.random.default_rng(seed)
    return [float(center * (1.0 + jitter * rng.standard_normal())) for _ in range(n)]


def make_report(samples_by_name, *, counters=None, environment=None):
    workloads = {
        name: workload_entry(
            seed=17,
            samples_seconds=samples,
            counters=counters or {},
        )
        for name, samples in samples_by_name.items()
    }
    kwargs = {} if environment is None else {"environment": environment}
    return new_report("quick", workloads, repeats=len(samples_by_name), warmup=1, **kwargs)


class TestSchema:
    def test_round_trip(self, tmp_path):
        report = make_report({"w": make_samples(0.002)}, counters={"c": 3.0})
        path = tmp_path / "BENCH_quick.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == report
        assert loaded["schema"] == SCHEMA_ID

    def test_forward_compat_unknown_fields_preserved(self, tmp_path):
        report = make_report({"w": make_samples(0.002)})
        report["future_field"] = {"nested": [1, 2, 3]}
        report["workloads"]["w"]["future_metric"] = 0.5
        path = tmp_path / "report.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded["future_field"] == {"nested": [1, 2, 3]}
        assert loaded["workloads"]["w"]["future_metric"] == 0.5
        validate_report(loaded)

    def test_rejects_non_object(self):
        with pytest.raises(BenchSchemaError, match="JSON object"):
            validate_report([1, 2, 3])

    def test_rejects_missing_samples(self):
        report = make_report({"w": make_samples(0.002)})
        del report["workloads"]["w"]["samples_seconds"]
        with pytest.raises(BenchSchemaError):
            validate_report(report)

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(BenchSchemaError):
            load_report(str(path))


class TestCompareVerdicts:
    @pytest.mark.parametrize(
        "shift,expected",
        [(0.0, "neutral"), (0.03, "neutral"), (0.30, "regressed")],
    )
    def test_known_shifts(self, shift, expected):
        base = make_report({"w": make_samples(1.0, seed=1)})
        cand = make_report({"w": make_samples(1.0 * (1 + shift), seed=2)})
        comparison = compare_reports(base, cand)
        assert comparison.workloads[0].verdict == expected

    @pytest.mark.parametrize("shift", [0.0, 0.03, 0.30])
    def test_verdict_stable_across_bootstrap_seeds(self, shift):
        base = make_report({"w": make_samples(1.0, seed=1)})
        cand = make_report({"w": make_samples(1.0 * (1 + shift), seed=2)})
        verdicts = {
            compare_reports(base, cand, seed=seed).workloads[0].verdict
            for seed in range(5)
        }
        assert len(verdicts) == 1

    def test_improvement_detected(self):
        base = make_report({"w": make_samples(1.0, seed=1)})
        cand = make_report({"w": make_samples(0.7, seed=2)})
        assert compare_reports(base, cand).workloads[0].verdict == "improved"

    def test_added_and_removed_never_gate(self):
        base = make_report({"old": make_samples(1.0)})
        cand = make_report({"new": make_samples(1.0)})
        comparison = compare_reports(base, cand)
        verdicts = {w.name: w.verdict for w in comparison.workloads}
        assert verdicts == {"old": "removed", "new": "added"}
        assert comparison.regressed == []

    def test_counter_drift_surfaced(self):
        base = make_report({"w": make_samples(1.0)}, counters={"runs": 4.0})
        cand = make_report({"w": make_samples(1.0)}, counters={"runs": 8.0})
        comparison = compare_reports(base, cand)
        assert comparison.workloads[0].counter_drift == {"runs": (4.0, 8.0)}
        assert comparison.counter_drifts

    def test_environment_mismatch_listed(self):
        base = make_report({"w": make_samples(1.0)}, environment={"python": "3.11"})
        cand = make_report({"w": make_samples(1.0)}, environment={"python": "3.12"})
        comparison = compare_reports(base, cand)
        assert comparison.environment_mismatch

    def test_format_contains_summary(self):
        base = make_report({"w": make_samples(1.0, seed=1)})
        cand = make_report({"w": make_samples(1.4, seed=2)})
        text = format_comparison(compare_reports(base, cand))
        assert "1 regressed" in text
        assert "bootstrap CI" in text


class TestGateExitCodes:
    def write(self, tmp_path, name, report):
        path = tmp_path / name
        write_report(report, str(path))
        return str(path)

    def test_gate_passes_on_unchanged_tree(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "base.json", make_report({"w": make_samples(1.0, seed=1)})
        )
        cand = self.write(
            tmp_path, "cand.json", make_report({"w": make_samples(1.0, seed=2)})
        )
        assert bench_main(["gate", "--against", base, "--candidate", cand]) == 0

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "base.json", make_report({"w": make_samples(1.0, seed=1)})
        )
        cand = self.write(
            tmp_path, "cand.json", make_report({"w": make_samples(1.5, seed=2)})
        )
        code = bench_main(["gate", "--against", base, "--candidate", cand])
        assert code == GATE_EXIT_CODE
        assert "regressed" in capsys.readouterr().err

    def test_gate_env_mismatch_warns_and_passes(self, tmp_path, capsys):
        base = self.write(
            tmp_path,
            "base.json",
            make_report(
                {"w": make_samples(1.0, seed=1)}, environment={"machine": "a"}
            ),
        )
        cand = self.write(
            tmp_path,
            "cand.json",
            make_report(
                {"w": make_samples(1.5, seed=2)}, environment={"machine": "b"}
            ),
        )
        assert bench_main(["gate", "--against", base, "--candidate", cand]) == 0
        code = bench_main(
            ["gate", "--against", base, "--candidate", cand, "--strict-env"]
        )
        assert code == GATE_EXIT_CODE

    def test_gate_bad_input_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = self.write(
            tmp_path, "good.json", make_report({"w": make_samples(1.0)})
        )
        code = bench_main(["gate", "--against", str(bad), "--candidate", good])
        assert code == 2

    def test_compare_cli_json(self, tmp_path, capsys):
        base = self.write(
            tmp_path, "base.json", make_report({"w": make_samples(1.0, seed=1)})
        )
        cand = self.write(
            tmp_path, "cand.json", make_report({"w": make_samples(1.0, seed=2)})
        )
        assert bench_main(["compare", base, cand, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["regressed"] == 0


class TestThresholdParsing:
    @pytest.mark.parametrize("text,expected", [("25%", 0.25), ("0.25", 0.25), ("0", 0.0)])
    def test_accepted(self, text, expected):
        assert _parse_threshold(text) == pytest.approx(expected)

    def test_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_threshold("fast")


class TestRegistryAndRunner:
    def test_quick_suite_nonempty_and_sorted_membership(self):
        quick = workloads_for("quick")
        assert quick
        full = {w.name for w in workloads_for("full")}
        assert {w.name for w in quick} <= full

    def test_workload_counters_deterministic(self):
        entries = {}
        for workload in workloads_for("quick"):
            first = run_workload(workload, repeats=1, warmup=0)
            second = run_workload(workload, repeats=1, warmup=0)
            assert first["counters"] == second["counters"], workload.name
            assert first["seed"] == second["seed"] == workload.seed
            entries[workload.name] = first
        validate_report(new_report("quick", entries, repeats=1, warmup=0))

    def test_run_workload_entry_schema(self):
        workload = get_workload("micro.decompose.barenco")
        entry = run_workload(workload, repeats=2, warmup=0)
        assert len(entry["samples_seconds"]) == 2
        report = new_report("quick", {workload.name: entry}, repeats=2, warmup=0)
        validate_report(report)

    def test_cli_list(self, capsys):
        assert bench_main(["list", "--suite", "quick"]) == 0
        out = capsys.readouterr().out
        assert "micro.statevector.apply" in out
