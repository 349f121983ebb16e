"""``python -m repro verify`` — run the differential correctness checks.

Usage::

    python -m repro verify list
    python -m repro verify run --suite quick --seed 7
    python -m repro verify run --check sparse-vs-dense --json
    python -m repro verify run --suite full --out verdicts.json
    python -m repro verify mutate --seed 7 --scale 1e-3

``run`` executes the selected checks and prints one verdict line per
check; exit code 0 when every check matched (or skipped), 1 on any
mismatch, 2 on argument errors.  ``--json`` prints the full structured
report instead, ``--out PATH`` writes it to a file either way, and the
report is deterministic for a given seed (no timestamps), so CI can
diff two runs byte-for-byte.

``mutate`` runs the same checks under a seeded perturbation plan: the
fault point ``verify.<check>`` nudges one leaf of every path-B payload,
so on a healthy tree *every* check must flip to mismatch and the
command must exit 1.  A ``mutate`` invocation that exits 0 means the
harness has gone vacuous — ``tests/test_verify.py`` fails on exactly
that property.

``--trace`` renders the telemetry span tree / counters to stderr after
the run (the checks reuse ``repro.telemetry`` spans), keeping stdout
clean for report JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import faults, telemetry
from repro.verify.harness import (
    VerifyError,
    checks_for,
    exit_code,
    mutation_plan,
    run_checks,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Differential correctness checks: each verifies two "
        "redundant paths agree within a stated tolerance.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list registered checks")
    for name, help_text in (
        ("run", "run checks and report verdicts (exit 1 on mismatch)"),
        (
            "mutate",
            "run checks under a seeded perturbation; a healthy harness "
            "flips every check to mismatch and exits 1",
        ),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--suite",
            choices=("quick", "full"),
            default="quick",
            help="check suite (full raises per-check case counts)",
        )
        sub.add_argument(
            "--check",
            action="append",
            default=None,
            metavar="NAME",
            help="run only the named check (repeatable; overrides --suite "
            "selection)",
        )
        sub.add_argument(
            "--seed", type=int, default=0, help="root seed for every check"
        )
        sub.add_argument(
            "--json",
            action="store_true",
            help="print the full JSON report instead of verdict lines",
        )
        sub.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="additionally write the JSON report to PATH",
        )
        sub.add_argument(
            "--trace",
            action="store_true",
            help="render the telemetry span tree + counters to stderr",
        )
        if name == "mutate":
            sub.add_argument(
                "--scale",
                type=float,
                default=1e-3,
                help="perturbation magnitude (must exceed every tolerance)",
            )
    return parser


def _list_checks() -> int:
    for check in checks_for():
        suites = ",".join(check.suites)
        tolerance = (
            "bit-exact" if check.tolerance == 0.0 else f"{check.tolerance:.0e}"
        )
        print(f"{check.name:<28} [{suites}] tol={tolerance:<10} "
              f"{check.description}")
    return 0


def _run(args: argparse.Namespace, *, mutated: bool) -> int:
    try:
        checks = checks_for(suite=args.suite, names=args.check)
    except VerifyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    collector = telemetry.enable() if args.trace else None
    injector = None
    if mutated:
        plan = mutation_plan(
            scale=args.scale,
            seed=args.seed,
            names=[check.name for check in checks],
        )
        injector = faults.install(plan)
    try:
        report = run_checks(
            checks,
            seed=args.seed,
            suite=args.suite,
            thorough=args.suite == "full",
            mutated=mutated,
        )
    finally:
        if injector is not None:
            faults.uninstall()
        if collector is not None:
            telemetry.disable()
            print(telemetry.render_tree(collector, max_children=8),
                  file=sys.stderr)
            print(telemetry.render_summary(collector), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for entry in report["checks"]:
            marker = {"match": "ok", "mismatch": "FAIL", "skipped": "skip"}[
                entry["verdict"]
            ]
            line = f"{marker:<5} {entry['name']:<28} tol={entry['tolerance']:g}"
            if entry["max_abs_deviation"] is not None:
                line += f" max|delta|={entry['max_abs_deviation']:.3e}"
            if entry["reason"]:
                line += f"  ({entry['reason']})"
            print(line)
        summary = report["summary"]
        print(
            f"{summary['match']} match, {summary['mismatch']} mismatch, "
            f"{summary['skipped']} skipped"
            + (" [mutation mode]" if mutated else "")
        )
        if mutated:
            print(
                "mutation mode: a nonzero exit proves the harness detects "
                "injected divergence"
            )
    return exit_code(report)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _list_checks()
    return _run(args, mutated=args.command == "mutate")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
