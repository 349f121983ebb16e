"""``python -m repro bench`` — list, run, compare, gate.

Subcommands::

    bench list [--suite SUITE] [--json]
    bench run [--suite SUITE] [--repeats N] [--warmup N] [--out PATH]
              [--workload NAME ...] [--no-counters] [--update-baseline]
              [--json]
    bench compare BASELINE CANDIDATE [--threshold PCT] [--json]
    bench gate [--against PATH] [--candidate PATH] [--suite SUITE]
               [--repeats N] [--threshold PCT] [--strict-env] [--json]

``run`` writes a schema-valid ``BENCH_<suite>.json`` (see
``docs/BENCHMARKS.md``); everything except the timing samples is
deterministic.  ``compare`` judges two reports with bootstrap confidence
intervals on the median.  ``gate`` is the CI guard: exit 0 when no
workload regressed, exit **4** on a statistically significant
regression, exit 2 on bad input.  When the two reports' environment
fingerprints differ the gate only warns (cross-machine timings are not
comparable) unless ``--strict-env`` is given.

Thresholds accept either a fraction (``0.25``) or a percentage
(``25%``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench import compare as compare_mod
from repro.bench import schema
from repro.bench.runner import run_suite, stderr_progress
from repro.bench.workloads import SUITES, workloads_for

__all__ = ["main"]

#: Default location of the committed per-suite baselines.
BASELINE_DIR = "benchmarks/baselines"

#: Exit code of a failed gate — distinct from argparse's 2 and the
#: solve timeout's 3, so CI can tell "regression" from "broken input".
GATE_EXIT_CODE = 4


def _parse_threshold(text: str) -> float:
    """``"25%"`` or ``"0.25"`` -> 0.25."""
    raw = text.strip()
    try:
        if raw.endswith("%"):
            value = float(raw[:-1]) / 100.0
        else:
            value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold {text!r} is neither a fraction nor a percentage"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("threshold must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Deterministic performance benchmarks with statistical "
        "regression gating (see docs/BENCHMARKS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered workloads")
    list_parser.add_argument(
        "--suite", choices=SUITES, default=None, help="filter by suite"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    run_parser = sub.add_parser("run", help="run a suite, write BENCH_<suite>.json")
    run_parser.add_argument(
        "--suite", choices=SUITES, default="quick", help="suite to run"
    )
    run_parser.add_argument(
        "--repeats", type=int, default=5, help="timed repeats per workload"
    )
    run_parser.add_argument(
        "--warmup", type=int, default=1, help="untimed warmup repeats"
    )
    run_parser.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help="run only NAME (repeatable; overrides the suite selection)",
    )
    run_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: BENCH_<suite>.json in the CWD)",
    )
    run_parser.add_argument(
        "--no-counters",
        action="store_true",
        help="skip the telemetry counter pass",
    )
    run_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"also write the report to {BASELINE_DIR}/BENCH_<suite>.json",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report to stdout (progress goes to stderr)",
    )

    compare_parser = sub.add_parser(
        "compare", help="judge CANDIDATE against BASELINE"
    )
    compare_parser.add_argument("baseline", help="baseline BENCH json")
    compare_parser.add_argument("candidate", help="candidate BENCH json")
    _add_judgement_arguments(compare_parser)

    gate_parser = sub.add_parser(
        "gate",
        help="exit non-zero when the candidate has significant regressions",
    )
    gate_parser.add_argument(
        "--against",
        default=None,
        metavar="PATH",
        help="baseline report "
        f"(default: {BASELINE_DIR}/BENCH_<suite>.json)",
    )
    gate_parser.add_argument(
        "--candidate",
        default=None,
        metavar="PATH",
        help="candidate report; omitted = run the suite now",
    )
    gate_parser.add_argument(
        "--suite", choices=SUITES, default="quick", help="suite to gate"
    )
    gate_parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repeats when running the candidate suite",
    )
    gate_parser.add_argument(
        "--warmup", type=int, default=1,
        help="warmup repeats when running the candidate suite",
    )
    gate_parser.add_argument(
        "--strict-env",
        action="store_true",
        help="enforce regressions even when the environment fingerprints "
        "differ (default: warn and pass, since cross-machine timings "
        "are not comparable)",
    )
    _add_judgement_arguments(gate_parser)
    return parser


def _add_judgement_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold",
        type=_parse_threshold,
        default=compare_mod.DEFAULT_THRESHOLD,
        metavar="PCT",
        # argparse %-formats help strings: the rendered percent sign
        # must reach it doubled.
        help="noise allowance, e.g. 10%% or 0.1 "
        f"(default {compare_mod.DEFAULT_THRESHOLD * 100:.0f}%%)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=compare_mod.DEFAULT_CONFIDENCE,
        help="bootstrap CI coverage (default %(default)s)",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=compare_mod.DEFAULT_RESAMPLES,
        help="bootstrap resample count (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="bootstrap RNG seed"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )


def _list_main(args) -> int:
    suites = [args.suite] if args.suite else list(SUITES)
    seen = {}
    for suite in suites:
        for workload in workloads_for(suite):
            seen.setdefault(workload.name, workload)
    if args.json:
        print(
            json.dumps(
                {
                    name: {
                        "description": w.description,
                        "suites": list(w.suites),
                        "seed": w.seed,
                        "counters": list(w.counters),
                    }
                    for name, w in seen.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for name, workload in seen.items():
        tags = ",".join(s for s in workload.suites if s != "full")
        print(f"{name:<30} [{tags:<20}] {workload.description}")
    print(f"{len(seen)} workload(s)")
    return 0


def _run_report(suite, repeats, warmup, workload, no_counters):
    return run_suite(
        suite,
        repeats=repeats,
        warmup=warmup,
        workload_names=workload,
        capture_counters=not no_counters,
        progress=stderr_progress,
    )


def _run_main(args) -> int:
    report = _run_report(
        args.suite, args.repeats, args.warmup, args.workload, args.no_counters
    )
    out = args.out or f"BENCH_{args.suite}.json"
    schema.write_report(report, out)
    print(f"bench: wrote {out}", file=sys.stderr)
    if args.update_baseline:
        baseline_path = f"{BASELINE_DIR}/BENCH_{args.suite}.json"
        schema.write_report(report, baseline_path)
        print(f"bench: updated baseline {baseline_path}", file=sys.stderr)
    if args.json:
        sys.stdout.write(schema.dumps_report(report))
    return 0


def _judge(args, baseline_path: str, candidate_report) -> compare_mod.Comparison:
    baseline = schema.load_report(baseline_path)
    return compare_mod.compare_reports(
        baseline,
        candidate_report,
        threshold=args.threshold,
        confidence=args.confidence,
        resamples=args.resamples,
        seed=args.seed,
    )


def _compare_main(args) -> int:
    try:
        comparison = _judge(
            args, args.baseline, schema.load_report(args.candidate)
        )
    except schema.BenchSchemaError as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(compare_mod.format_comparison(comparison))
    return 0


def _gate_main(args) -> int:
    baseline_path = args.against or f"{BASELINE_DIR}/BENCH_{args.suite}.json"
    try:
        if args.candidate is not None:
            candidate = schema.load_report(args.candidate)
        else:
            candidate = _run_report(
                args.suite, args.repeats, args.warmup, None, False
            )
        comparison = _judge(args, baseline_path, candidate)
    except schema.BenchSchemaError as exc:
        print(f"bench gate: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(compare_mod.format_comparison(comparison))
    regressed = comparison.regressed
    if comparison.environment_mismatch and not args.strict_env:
        if regressed:
            print(
                "bench gate: environment fingerprints differ — regressions "
                "reported above are NOT trustworthy across machines; "
                "passing anyway (use --strict-env to enforce, or refresh "
                "the baseline on this machine with "
                "`bench run --update-baseline`)",
                file=sys.stderr,
            )
        return 0
    if regressed:
        names = ", ".join(entry.name for entry in regressed)
        print(
            f"bench gate: {len(regressed)} regressed workload(s): {names}",
            file=sys.stderr,
        )
        return GATE_EXIT_CODE
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _list_main(args)
    if args.command == "run":
        return _run_main(args)
    if args.command == "compare":
        return _compare_main(args)
    return _gate_main(args)
