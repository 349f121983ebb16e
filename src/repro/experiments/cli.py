"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro table1
    python -m repro fig15 fig17
    python -m repro --list
    python -m repro all --quick
    python -m repro fig13 --quick --trace
    python -m repro fig13 --quick --trace-out trace.jsonl
    python -m repro table2 --engine-workers 4
    python -m repro solve F1 --seed 7 --shots 256 --restarts 2
    python -m repro solve F1 --timeout 30
    python -m repro solve F1 --spill-dir .artifacts
    python -m repro inspect F1
    python -m repro inspect F1 --config '{"max_segment_cx": 150}'
    python -m repro serve --port 8042 --service-workers 4
    python -m repro serve --store results.jsonl --journal journal.jsonl
    python -m repro serve --chaos-seed 7
    python -m repro bench list
    python -m repro bench run --suite quick --repeats 3 --json
    python -m repro bench compare BENCH_a.json BENCH_b.json
    python -m repro bench gate --against benchmarks/baselines/BENCH_quick.json
    python -m repro verify list
    python -m repro verify run --suite quick --seed 7
    python -m repro verify mutate --seed 7
    python -m repro --version

Each experiment prints the same rows/series the paper reports.  The
``--quick`` flag shrinks iteration budgets for smoke runs; benchmark-grade
budgets are the defaults (and ``pytest benchmarks/ --benchmark-only``
additionally asserts the paper's qualitative shapes).

``--trace`` enables the telemetry layer for the whole invocation and
prints the span tree plus counter summary afterwards; ``--trace-out PATH``
additionally writes the trace (implies ``--trace``) in the format chosen
by ``--trace-format``: ``jsonl`` (default, round-trips through
``telemetry.read_jsonl``) or ``chrome`` (Chrome trace-event JSON,
loadable in Perfetto / ``chrome://tracing``).  The ``solve`` subcommand
takes the same three flags and keeps stdout pure JSON by routing trace
chatter to stderr.  See ``docs/OBSERVABILITY.md``.

``--engine-workers`` and ``--backend`` set the process-wide execution
engine defaults (see ``docs/ARCHITECTURE.md``): every solver built during
the invocation fans restarts/trajectories out over N worker processes
(bit-identical to a serial run) and/or routes execution through the named
backend.

``solve`` is a single-solver subcommand that runs Rasengan on one
benchmark and prints a deterministic JSON record; CI diffs its output
across ``--engine-workers`` settings.  ``--timeout`` enforces a
wall-clock limit through the service's job-deadline machinery (exit
code 3 on expiry).

``inspect`` compiles one benchmark through the staged pipeline without
executing anything and prints deterministic JSON: per-stage fingerprints,
artifact sizes, sources, and the ``pipeline.cache.*`` statistics (see
``docs/ARCHITECTURE.md``).  ``--spill-dir`` (on ``solve``, ``serve`` and
``inspect``) persists pipeline artifacts as content-addressed ``.npz``
files so later invocations skip the pre-execution stages.

``bench`` hosts the deterministic performance-benchmark suites and the
statistical regression gate (``list`` / ``run`` / ``compare`` / ``gate``
— see ``docs/BENCHMARKS.md``); ``gate`` exits 4 on statistically
significant regressions against a committed baseline.

``verify`` hosts the differential correctness harness: seeded checks
asserting that redundant paths agree (dense vs sparse simulation, cold
vs cached compile, serial vs parallel execution, persistence reload,
wire-format round trip, solver metrics vs brute force — see
``docs/VERIFICATION.md``).  ``verify run`` exits 1 on any mismatch;
``verify mutate`` injects a seeded perturbation through
:mod:`repro.faults` and must *fail* on a healthy tree, proving the
checks are live.

``serve`` starts the long-running solve service (job queue, dedup,
worker pool, JSON/HTTP API — see ``docs/SERVICE.md``) and blocks until
interrupted; shutdown drains in-flight jobs.  ``--store`` persists
results across restarts, ``--journal`` records job lifecycle events so a
restart reports what a crash interrupted, and ``--chaos-seed`` /
``--chaos-plan`` run the service under deterministic fault injection
(see the "Failure semantics & chaos testing" section of
``docs/SERVICE.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Tuple

from repro import __version__, telemetry
from repro.engine import configure_defaults

_VERSION_TEXT = f"repro {__version__}"


def _table1(quick: bool) -> str:
    from repro.experiments.table1 import format_table1, run_table1

    return format_table1(run_table1(max_iterations=40 if quick else 120))


def _table2(quick: bool) -> str:
    from repro.experiments.table2 import format_table2, run_table2

    ids = ("F1", "K1", "J1", "S1", "G1") if quick else None
    return format_table2(
        run_table2(benchmark_ids=ids, cases=1, max_iterations=60 if quick else 150)
    )


def _fig9(quick: bool) -> str:
    from repro.experiments.fig09_layers import format_fig9, run_fig9

    layers = (1, 4, 8) if quick else (1, 2, 4, 6, 8, 10, 12, 14)
    return format_fig9(run_fig9(layer_counts=layers,
                                max_iterations=60 if quick else 150))


def _fig10(quick: bool) -> str:
    from repro.experiments.fig10_scalability import format_fig10, run_fig10

    sizes = ((2, 1), (2, 2), (2, 3)) if quick else (
        (2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)
    )
    return format_fig10(run_fig10(sizes=sizes, max_iterations=60 if quick else 120))


def _fig11(quick: bool) -> str:
    from repro.experiments.fig11_hardware import format_fig11, run_fig11

    return format_fig11(
        run_fig11(
            max_iterations=10 if quick else 25,
            shots=256 if quick else 512,
            max_trajectories=8 if quick else 24,
        )
    )


def _fig12(quick: bool) -> str:
    from repro.experiments.fig12_latency import format_fig12, run_fig12

    return format_fig12(run_fig12(max_iterations=40 if quick else 100))


def _fig13(quick: bool) -> str:
    from repro.experiments.fig13_segments import format_fig13, run_fig13

    return format_fig13(run_fig13(max_iterations=40 if quick else 100))


def _fig14(quick: bool) -> str:
    from repro.experiments.fig14_noise import format_fig14, run_fig14a, run_fig14b

    panel_a = run_fig14a(
        benchmark_ids=("F1",) if quick else ("F1", "K1"),
        max_iterations=8 if quick else 20,
        shots=256,
        max_trajectories=8,
    )
    panel_b = run_fig14b(
        max_iterations=8 if quick else 15,
        shots=256,
        max_trajectories=8,
    )
    return (
        format_fig14(panel_a, "error rate")
        + "\n\n"
        + format_fig14(panel_b, "damping")
    )


def _fig15(quick: bool) -> str:
    from repro.experiments.fig15_ablation_depth import format_fig15, run_fig15

    return format_fig15(run_fig15())


def _fig16(quick: bool) -> str:
    from repro.experiments.fig16_ablation_quality import format_fig16, run_fig16

    return format_fig16(
        run_fig16(
            max_iterations_exact=40 if quick else 120,
            max_iterations_noisy=8 if quick else 20,
            shots=256 if quick else 512,
            max_trajectories=8 if quick else 16,
        )
    )


def _fig17(quick: bool) -> str:
    from repro.experiments.fig17_pruning import format_fig17, run_fig17

    domains = ("flp", "kpp") if quick else ("flp", "kpp", "scp", "gcp")
    return format_fig17(run_fig17(domains=domains))


EXPERIMENTS: Dict[str, Tuple[str, Callable[[bool], str]]] = {
    "table1": ("Table 1: ARG + latency summary", _table1),
    "table2": ("Table 2: 20 benchmarks x 4 algorithms", _table2),
    "fig9": ("Figure 9: ARG vs QAOA layers", _fig9),
    "fig10": ("Figure 10: FLP scalability", _fig10),
    "fig11": ("Figure 11: fake-hardware ARG + in-constraints", _fig11),
    "fig12": ("Figure 12: latency breakdown", _fig12),
    "fig13": ("Figure 13: shots/latency vs segments", _fig13),
    "fig14": ("Figure 14: noise sensitivity", _fig14),
    "fig15": ("Figure 15: depth ablation", _fig15),
    "fig16": ("Figure 16: quality ablation", _fig16),
    "fig17": ("Figure 17: pruning expansion speed", _fig17),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (e.g. table1 fig15), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--quick", action="store_true", help="shrink budgets for a smoke run"
    )
    _add_trace_arguments(parser)
    _add_engine_arguments(parser)
    return parser


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable telemetry; print the span tree + counter summary",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the telemetry trace to PATH (implies --trace)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="--trace-out format: jsonl (round-trip) or chrome "
        "(trace-event JSON for Perfetto / chrome://tracing)",
    )


def _write_trace(collector, args, stream) -> None:
    """Write ``collector`` to ``args.trace_out`` in the chosen format."""
    if args.trace_format == "chrome":
        telemetry.write_chrome_trace(collector, args.trace_out)
    else:
        telemetry.write_jsonl(collector, args.trace_out)
    print(
        f"\ntrace ({args.trace_format}) written to {args.trace_out}",
        file=stream,
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine-workers",
        type=int,
        default=None,
        metavar="N",
        help="fan independent work (restarts, noise trajectories) out over "
        "N worker processes; results are bit-identical to a serial run",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend name (e.g. ideal, fake_kyiv, sparse_noisy); "
        "default is the exact simulation fast path",
    )


def build_solve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro solve",
        description="Run the Rasengan solver on one benchmark and print a "
        "deterministic JSON record.",
    )
    parser.add_argument("benchmark", help="benchmark id (e.g. F1, K2, S1)")
    parser.add_argument("--case", type=int, default=0, help="benchmark case")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--shots", type=int, default=None, help="shots per segment (default: exact)"
    )
    parser.add_argument(
        "--iterations", type=int, default=50, help="COBYLA iteration budget"
    )
    parser.add_argument(
        "--restarts", type=int, default=1, help="independent optimizer starts"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit enforced through the service job-deadline "
        "machinery; exit code 3 on expiry",
    )
    _add_spill_argument(parser)
    _add_trace_arguments(parser)
    _add_engine_arguments(parser)
    return parser


def _add_spill_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="persist pipeline artifacts as content-addressed .npz files "
        "in DIR; later invocations reuse them and skip the "
        "pre-execution stages",
    )


def _solve_main(argv: List[str]) -> int:
    args = build_solve_parser().parse_args(argv)
    if args.spill_dir is None:
        return _solve_with(args)
    from repro.pipeline import configure_cache

    previous_cache = configure_cache(spill_dir=args.spill_dir)
    try:
        return _solve_with(args)
    finally:
        configure_cache(previous_cache)


def _solve_with(args: argparse.Namespace) -> int:
    from repro.core.solver import RasenganConfig, RasenganSolver
    from repro.problems.registry import make_benchmark
    from repro.service.jobs import JobTimeoutError, run_with_deadline

    config = RasenganConfig(
        shots=args.shots,
        max_iterations=args.iterations,
        restarts=args.restarts,
        seed=args.seed,
        engine_workers=args.engine_workers,
    )
    problem = make_benchmark(args.benchmark, case=args.case)
    solver = RasenganSolver(problem, backend=args.backend, config=config)
    trace = args.trace or args.trace_out is not None
    collector = telemetry.enable() if trace else None
    try:
        result = run_with_deadline(
            solver.solve, args.timeout, label=f"solve {args.benchmark}"
        )
    except JobTimeoutError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    finally:
        solver.engine.close()
        if collector is not None:
            telemetry.disable()
            # stderr keeps stdout pure JSON for CI diffing.
            print(telemetry.render_summary(collector), file=sys.stderr)
            if args.trace_out is not None:
                _write_trace(collector, args, sys.stderr)
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return 0


def build_inspect_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro inspect",
        description="Compile one benchmark through the staged pipeline "
        "(without executing) and print per-stage fingerprints, artifact "
        "sizes, and cache statistics as deterministic JSON.",
    )
    parser.add_argument("benchmark", help="benchmark id (e.g. F1, K2, S1)")
    parser.add_argument("--case", type=int, default=0, help="benchmark case")
    parser.add_argument(
        "--config",
        default=None,
        metavar="JSON",
        help="solver config overrides as a JSON object "
        '(e.g. \'{"max_segment_cx": 150}\')',
    )
    _add_spill_argument(parser)
    return parser


def _inspect_main(argv: List[str]) -> int:
    from repro.pipeline import ArtifactCache, SolvePipeline
    from repro.problems.registry import make_benchmark
    from repro.service.jobs import ServiceError, solver_config_from_dict

    args = build_inspect_parser().parse_args(argv)
    try:
        overrides = json.loads(args.config) if args.config else {}
        if not isinstance(overrides, dict):
            raise ServiceError("--config must be a JSON object")
        config = solver_config_from_dict(overrides)
    except (json.JSONDecodeError, ServiceError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    problem = make_benchmark(args.benchmark, case=args.case)
    cache = ArtifactCache(spill_dir=args.spill_dir)
    pipeline = SolvePipeline(problem, config, cache=cache)
    artifacts = pipeline.compile()
    record = {
        "problem": problem.name,
        "fingerprint": pipeline.problem_fingerprint,
        "compile_fingerprint": pipeline.compile_fingerprint,
        "stages": [
            {
                "name": entry["stage"],
                "fingerprint": entry["fingerprint"],
                "source": entry["source"],
                "size_bytes": artifacts[entry["stage"]].nbytes(),
            }
            for entry in pipeline.report
        ],
        "cache": cache.stats(),
    }
    print(json.dumps(record, sort_keys=True, indent=2))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the long-running solve service with a JSON/HTTP "
        "API (see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8042, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker slots: each is a thread draining the job queue and "
        "one execution process running its solves",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result-store persistence file (replayed on startup)",
    )
    parser.add_argument(
        "--store-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="in-memory result store LRU capacity",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="JSONL job-event journal; on restart the service reports "
        "jobs a previous process left unfinished",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="enable deterministic fault injection seeded with N "
        "(default rules: repro.faults.FaultPlan.smoke)",
    )
    parser.add_argument(
        "--chaos-plan",
        action="append",
        default=None,
        metavar="RULE",
        help="replace the smoke rules with point:action[:k=v,...] specs "
        "(repeatable; e.g. engine.execute:raise:p=0.2 or "
        "store.append:truncate:every=5); implies --chaos-seed 0 when "
        "no seed is given",
    )
    parser.add_argument(
        "--slow-job-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a warning and count service.jobs.slow for jobs whose "
        "execution takes at least SECONDS",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    _add_spill_argument(parser)
    _add_engine_arguments(parser)
    return parser


def _serve_main(argv: List[str]) -> int:
    from repro import faults
    from repro.service.http import ServiceServer
    from repro.service.journal import JobJournal
    from repro.service.store import ResultStore
    from repro.service.workers import SolverService

    args = build_serve_parser().parse_args(argv)
    engine_overrides = {}
    if args.engine_workers is not None:
        engine_overrides["workers"] = args.engine_workers
    if args.backend is not None:
        engine_overrides["backend"] = args.backend
    if engine_overrides:
        configure_defaults(**engine_overrides)
    # The service's /metrics endpoint renders the active collector, so
    # serving always runs under telemetry.
    telemetry.enable()
    injector = None
    if args.chaos_seed is not None or args.chaos_plan:
        seed = args.chaos_seed if args.chaos_seed is not None else 0
        if args.chaos_plan:
            plan = faults.FaultPlan.parse(args.chaos_plan, seed=seed)
        else:
            plan = faults.FaultPlan.smoke(seed=seed)
        injector = faults.install(plan)
        rules = ", ".join(
            f"{rule.point}:{rule.action}" for rule in plan.rules
        )
        print(f"chaos mode: seed={seed} rules=[{rules}]", flush=True)
    store = ResultStore(capacity=args.store_capacity, path=args.store)
    journal = JobJournal(args.journal) if args.journal else None
    service = SolverService(
        workers=args.service_workers,
        store=store,
        journal=journal,
        slow_job_seconds=args.slow_job_seconds,
        artifact_spill_dir=args.spill_dir,
    ).start()
    interrupted = service.interrupted_jobs()
    if interrupted:
        print(
            f"previous run left {len(interrupted)} job(s) unfinished: "
            + ", ".join(interrupted),
            flush=True,
        )
    server = ServiceServer(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = server.address
    print(f"repro service {__version__} listening on http://{host}:{port}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining in-flight jobs ...", flush=True)
    finally:
        server.stop()
        service.close(drain=True)
        if injector is not None:
            faults.uninstall()
            print(f"chaos mode injected {len(injector.log)} fault(s)",
                  flush=True)
        telemetry.disable()
    print("service stopped", flush=True)
    return 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "solve":
        return _solve_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "inspect":
        return _inspect_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.bench.cli import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "verify":
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:<8} {description}")
        return 0
    requested = args.experiments
    if requested == ["all"]:
        requested = list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    trace = args.trace or args.trace_out is not None
    collector = telemetry.enable() if trace else None
    engine_overrides = {}
    if args.engine_workers is not None:
        engine_overrides["workers"] = args.engine_workers
    if args.backend is not None:
        engine_overrides["backend"] = args.backend
    previous_defaults = (
        configure_defaults(**engine_overrides) if engine_overrides else None
    )
    try:
        for name in requested:
            description, runner = EXPERIMENTS[name]
            print(f"=== {name}: {description} ===")
            print(runner(args.quick))
            print()
    finally:
        if previous_defaults is not None:
            configure_defaults(
                workers=previous_defaults.workers,
                backend=previous_defaults.backend,
            )
        if collector is not None:
            telemetry.disable()
    if collector is not None:
        print("=== trace ===")
        print(telemetry.render_tree(collector, max_children=6))
        print()
        print(telemetry.render_summary(collector))
        if args.trace_out is not None:
            _write_trace(collector, args, sys.stdout)
    return 0
