"""Differential correctness harness: registry, verdicts, mutation."""

import json
import math

import numpy as np
import pytest

from repro import faults
from repro.verify import (
    Check,
    CheckContext,
    CheckOutput,
    CheckSkipped,
    VerifyError,
    checks_for,
    exit_code,
    fingerprint_payload,
    max_deviation,
    mutation_plan,
    perturb_payload,
    run_check,
    run_checks,
)
from repro.verify.checks import _chain_amplitudes, _random_chain
from repro.verify.cli import main as verify_main


def make_check(func, *, name="unit-check", tolerance=0.0):
    return Check(
        name=name,
        description="test double",
        suites=("quick", "full"),
        tolerance=tolerance,
        func=func,
    )


def run_one(func, *, tolerance=0.0, seed=0):
    check = make_check(func, tolerance=tolerance)
    return run_check(check, CheckContext(check=check, seed=seed))


class TestFingerprints:
    def test_stable_across_equivalent_representations(self):
        a = {"x": np.float64(0.5), "arr": np.array([1.0, 2.0]), "t": (1, 2)}
        b = {"x": 0.5, "arr": [1.0, 2.0], "t": [1, 2]}
        assert fingerprint_payload(a) == fingerprint_payload(b)

    def test_sensitive_to_last_bit(self):
        a = {"x": 1.0}
        b = {"x": 1.0 + 2**-52}
        assert fingerprint_payload(a) != fingerprint_payload(b)

    def test_complex_values_fingerprint(self):
        a = np.array([1.0 + 0.5j])
        b = np.array([1.0 - 0.5j])
        assert fingerprint_payload(a) != fingerprint_payload(b)
        assert fingerprint_payload(a) == fingerprint_payload([1.0 + 0.5j])


class TestMaxDeviation:
    def test_numeric_and_nested(self):
        a = {"v": [1.0, 2.0], "w": {"k": 3.0}}
        b = {"v": [1.0, 2.5], "w": {"k": 3.25}}
        assert max_deviation(a, b) == pytest.approx(0.5)

    def test_complex_arrays(self):
        a = np.array([1.0 + 1.0j, 0.0])
        b = np.array([1.0 + 1.0j, 0.3j])
        assert max_deviation(a, b) == pytest.approx(0.3)

    def test_structure_mismatch_is_infinite(self):
        assert max_deviation({"a": 1.0}, {"b": 1.0}) == math.inf
        assert max_deviation([1.0], [1.0, 2.0]) == math.inf
        assert max_deviation("left", "right") == math.inf

    def test_bools_compare_exactly(self):
        assert max_deviation(True, True) == 0.0
        assert max_deviation(True, False) == math.inf

    def test_equal_payloads_are_zero(self):
        payload = {"a": [1, 2.5], "b": "x", "c": None}
        assert max_deviation(payload, payload) == 0.0


class TestPerturb:
    def test_first_float_leaf_is_nudged(self):
        payload = {"b": [1, 2], "a": {"z": 0.5, "y": "s"}}
        mutated, hit = perturb_payload(payload, 1e-3)
        assert hit
        assert mutated["a"]["z"] == pytest.approx(0.5 + 1e-3)
        assert mutated["b"] == [1, 2]
        assert payload["a"]["z"] == 0.5  # original untouched

    def test_float_array_leaf(self):
        payload = {"arr": np.array([0.25, 0.75])}
        mutated, hit = perturb_payload(payload, 1e-3)
        assert hit
        assert mutated["arr"][0] == pytest.approx(0.251)

    def test_int_fallback_when_no_float(self):
        payload = {"count": 7, "name": "x"}
        mutated, hit = perturb_payload(payload, 1e-3)
        assert hit
        assert mutated["count"] == 8

    def test_string_fallback_when_no_numbers(self):
        payload = {"name": "abc", "flag": True}
        mutated, hit = perturb_payload(payload, 1e-3)
        assert hit
        assert mutated["name"] != "abc"
        assert mutated["flag"] is True

    def test_no_scalar_leaf_reports_miss(self):
        mutated, hit = perturb_payload({"empty": []}, 1e-3)
        assert not hit


class TestRegistry:
    def test_builtin_checks_registered(self):
        names = {check.name for check in checks_for(suite="quick")}
        assert {
            "sparse-vs-dense",
            "pipeline-cold-vs-cached",
            "compile-shared-vs-own",
            "engine-serial-vs-parallel",
            "result-store-reload",
            "result-json-roundtrip",
            "arg-vs-bruteforce",
            "key-table-vs-direct",
            "dense-ansatz-vs-circuit",
            "segment-step-vs-reference",
            "baseline-score-vs-dict",
            "simplex-inverse-vs-inv",
            "hea-prefix-vs-fresh",
            "trajectory-vs-reference",
            "service-process-vs-inline",
        } <= names

    def test_unknown_name_rejected(self):
        with pytest.raises(VerifyError):
            checks_for(names=["no-such-check"])

    def test_unknown_suite_rejected(self):
        with pytest.raises(VerifyError):
            checks_for(suite="nightly")


class TestVerdicts:
    def test_matching_payloads(self):
        result = run_one(
            lambda ctx: CheckOutput("a", {"v": 1.0}, "b", {"v": 1.0})
        )
        assert result.verdict == "match"
        assert result.max_abs_deviation == 0.0
        assert len(set(result.fingerprints.values())) == 1

    def test_bit_exact_check_rejects_tiny_drift(self):
        result = run_one(
            lambda ctx: CheckOutput(
                "a", {"v": 1.0}, "b", {"v": 1.0 + 2**-52}
            )
        )
        assert result.verdict == "mismatch"
        assert "fingerprints differ" in result.reason

    def test_tolerance_absorbs_small_deviation(self):
        result = run_one(
            lambda ctx: CheckOutput("a", {"v": 1.0}, "b", {"v": 1.0 + 1e-12}),
            tolerance=1e-10,
        )
        assert result.verdict == "match"

    def test_tolerance_rejects_large_deviation(self):
        result = run_one(
            lambda ctx: CheckOutput("a", {"v": 1.0}, "b", {"v": 1.01}),
            tolerance=1e-10,
        )
        assert result.verdict == "mismatch"

    def test_skip_verdict(self):
        def func(ctx):
            raise CheckSkipped("not applicable here")

        result = run_one(func)
        assert result.verdict == "skipped"
        assert result.reason == "not applicable here"

    def test_crashing_check_is_a_mismatch(self):
        def func(ctx):
            raise RuntimeError("boom")

        result = run_one(func)
        assert result.verdict == "mismatch"
        assert "RuntimeError" in result.reason
        assert result.to_json_dict()["max_abs_deviation"] is None

    def test_report_shape_and_exit_code(self):
        checks = [
            make_check(
                lambda ctx: CheckOutput("a", 1.0, "b", 1.0), name="ok-check"
            ),
            make_check(
                lambda ctx: CheckOutput("a", 1.0, "b", 2.0), name="bad-check"
            ),
        ]
        report = run_checks(checks, seed=3)
        assert report["version"] == "repro.verify/v1"
        assert report["summary"] == {"match": 1, "mismatch": 1, "skipped": 0}
        assert [c["name"] for c in report["checks"]] == [
            "ok-check",
            "bad-check",
        ]
        assert exit_code(report) == 1
        assert exit_code({"summary": {"mismatch": 0}}) == 0


class TestContextSeeding:
    def test_derived_seeds_differ_by_check_and_salt(self):
        check_a = make_check(lambda ctx: None, name="a")
        check_b = make_check(lambda ctx: None, name="b")
        ctx_a = CheckContext(check=check_a, seed=7)
        ctx_b = CheckContext(check=check_b, seed=7)
        assert ctx_a.derived_seed() != ctx_b.derived_seed()
        assert ctx_a.derived_seed("x") != ctx_a.derived_seed("y")

    def test_same_seed_same_stream(self):
        check = make_check(lambda ctx: None)
        one = CheckContext(check=check, seed=11).rng("s").uniform(size=4)
        two = CheckContext(check=check, seed=11).rng("s").uniform(size=4)
        np.testing.assert_array_equal(one, two)


class TestSparseVsDenseProperty:
    """Seeded property-style sweep of the core simulator equivalence."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_feasible_chains_agree(self, seed):
        rng = np.random.default_rng(1000 + seed)
        width = 4 + seed % 4
        basis, schedule, times, bits = _random_chain(rng, width)
        dense, sparse = _chain_amplitudes(
            basis, schedule, times, width, bits
        )
        np.testing.assert_allclose(dense, sparse, atol=1e-10)
        # The construction guarantees the first transition applies, so
        # the comparison is never between two untouched basis states.
        assert np.count_nonzero(np.abs(dense) > 1e-12) > 1

    @pytest.mark.parametrize("seed", range(10))
    def test_chains_preserve_norm(self, seed):
        rng = np.random.default_rng(2000 + seed)
        basis, schedule, times, bits = _random_chain(rng, 5)
        dense, sparse = _chain_amplitudes(basis, schedule, times, 5, bits)
        assert np.linalg.norm(dense) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sparse) == pytest.approx(1.0, abs=1e-10)


class TestMutationDetection:
    def test_mutation_flips_every_quick_check_to_mismatch(self):
        checks = checks_for(suite="quick")
        plan = mutation_plan(seed=7)
        with faults.session(plan):
            report = run_checks(
                checks, seed=7, suite="quick", mutated=True
            )
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert set(verdicts.values()) == {"mismatch"}, verdicts
        assert exit_code(report) == 1

    def test_mutation_flips_full_only_trstlp_check(self):
        # Not in the quick suite, so the test above does not cover it.
        pytest.importorskip("scipy._lib.pyprima")
        name = "trstlp-vs-pyprima"
        with faults.session(mutation_plan(seed=7, names=[name])):
            report = run_checks(checks_for(names=[name]), seed=7, mutated=True)
        assert [c["verdict"] for c in report["checks"]] == ["mismatch"]

    def test_mutation_flips_full_only_simplex_update_check(self):
        pytest.importorskip("scipy._lib.pyprima")
        name = "simplex-update-vs-pyprima"
        with faults.session(mutation_plan(seed=7, names=[name])):
            report = run_checks(checks_for(names=[name]), seed=7, mutated=True)
        assert [c["verdict"] for c in report["checks"]] == ["mismatch"]

    def test_mutation_plan_targets_only_verify_points(self):
        plan = mutation_plan(seed=0, names=["sparse-vs-dense"])
        assert all(rule.point.startswith("verify.") for rule in plan.rules)
        assert all(rule.action == "perturb" for rule in plan.rules)

    def test_unmutated_fast_checks_match(self):
        # The cheap subset of the real checks on a clean tree.
        checks = checks_for(
            names=[
                "result-store-reload",
                "pipeline-cold-vs-cached",
                "compile-shared-vs-own",
                "key-table-vs-direct",
                "dense-ansatz-vs-circuit",
                "segment-step-vs-reference",
                "cobyla-vs-scipy",
                "trstlp-vs-pyprima",
                "simplex-update-vs-pyprima",
            ]
        )
        report = run_checks(checks, seed=5)
        assert report["summary"]["mismatch"] == 0
        assert exit_code(report) == 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        checks = checks_for(
            names=["result-store-reload", "pipeline-cold-vs-cached"]
        )
        first = run_checks(checks, seed=9)
        second = run_checks(checks, seed=9)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestCli:
    def test_list(self, capsys):
        assert verify_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sparse-vs-dense" in out
        assert "arg-vs-bruteforce" in out

    def test_run_single_check_json(self, capsys):
        code = verify_main(
            ["run", "--check", "result-store-reload", "--json", "--seed", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "repro.verify/v1"
        assert report["mutated"] is False
        assert report["summary"]["mismatch"] == 0

    def test_run_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        code = verify_main(
            ["run", "--check", "result-store-reload", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["name"] == "result-store-reload"
        capsys.readouterr()

    def test_unknown_check_exits_2(self, capsys):
        assert verify_main(["run", "--check", "nope"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_mutate_detects_on_clean_tree(self, capsys):
        code = verify_main(
            ["mutate", "--check", "result-store-reload", "--seed", "3"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "mutation mode" in out

    def test_dispatched_from_main_cli(self, capsys):
        from repro.experiments.cli import main as repro_main

        assert repro_main(["verify", "list"]) == 0
        assert "sparse-vs-dense" in capsys.readouterr().out
