"""End-to-end benchmark of the Rasengan reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload (several times; the median counts),
runs its seeded job list as a closed loop for ``--seconds`` seconds (and
at least ``MIN_JOBS`` jobs, ending on a whole round), checks every
output, and prints the end-to-end metrics.  Times are divided by the
machine's slowdown, measured with the reference kernel of
:mod:`reference` next to every job.  ``--trace 1`` runs the workload's
fixed traced job count untraced, then runs the same jobs again from the
same starting state with the layer wrappers of :mod:`tracer` installed,
and prints the per-layer metrics with a self-time table.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.

See ``README.md`` in this directory for the workloads, the metrics and
the noise they were designed around.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import statistics
import sys
import threading
import warnings
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every run completes at least this many jobs, so ``latency_p90_s`` has
#: at least ten samples beyond it and the quality prefix is complete.
MIN_JOBS = 100
#: ``one_plus_arg_mean``, the record digest and ``peak_rss_mb`` cover the
#: first this-many jobs of the list, so they do not depend on speed.
PREFIX_JOBS = 100
#: Service records re-solved directly for the bit-identity check.
IDENTITY_SAMPLES = 3

END_TO_END = (
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("one_plus_arg_mean", "ratio"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("pipeline.compile_s", "s"),
    ("pipeline.stage.basis_s", "s"),
    ("pipeline.stage.hamiltonian_s", "s"),
    ("pipeline.stage.prune_s", "s"),
    ("pipeline.stage.segmentation_s", "s"),
    ("pipeline.stage.circuit_s", "s"),
    ("pipeline.cache_hit_ratio", "ratio"),
    ("linalg.augment_moves_s", "s"),
    ("linalg.move_partner_key_calls", "count"),
    ("linalg.int_to_bits_s", "s"),
    ("circuits.synthesis_s", "s"),
    ("circuits.decompose_s", "s"),
    ("core.purify_s", "s"),
    ("core.purify_calls", "count"),
    ("core.execute_s", "s"),
    ("problems.is_feasible_s", "s"),
    ("problems.is_feasible_calls", "count"),
    ("problems.value_s", "s"),
    ("problems.value_calls", "count"),
    ("engine.run_segment_s", "s"),
    ("engine.run_segment_calls", "count"),
    ("engine.bind_s", "s"),
    ("simulators.sparse_evolve_s", "s"),
    ("simulators.sampling_s", "s"),
    ("simulators.statevector_s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.evaluations", "count"),
    ("baselines.self_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.http_overhead_p50_s", "s"),
    ("service.store_hit_ratio", "ratio"),
    ("service.coalesced_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("trace.jobs", "count"),
    ("py_warnings", "count"),
)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class LoopResult:
    """Per-caller ``(job, outcome, error, latency_s, sent_at)`` records
    (``sent_at`` on the ``perf_counter`` clock), the window, and the
    peak RSS read once each caller had sent ``rss_at`` jobs."""

    def __init__(self, callers: int) -> None:
        self.records: List[List[tuple]] = [[] for _ in range(callers)]
        self.start = 0.0
        self.elapsed = 0.0
        self.rss_mb: Optional[float] = None

    def all(self) -> List[tuple]:
        return [record for caller in self.records for record in caller]

    def counts(self) -> List[int]:
        return [len(caller) for caller in self.records]


def closed_loop(
    workload,
    reference,
    *,
    seconds: float = 0.0,
    min_jobs: int = 0,
    limit: Optional[int] = None,
    rss_at: Optional[int] = None,
    tracer=None,
) -> LoopResult:
    """Run every caller's job list back to back.

    Every ``workload.sync_every`` jobs the callers meet at a barrier,
    where the reference kernel is timed while no job is in flight.  At a
    round boundary there they stop together once the window has passed
    and each has done its share of ``min_jobs`` — or, with ``limit``,
    after exactly that many jobs each.
    """
    callers = workload.callers
    result = LoopResult(callers)
    share = -(-min_jobs // callers)
    control = {"index": 0, "stop": False}
    crashed: List[BaseException] = []

    def at_sync() -> None:
        index = control["index"]
        reference.sample()
        if rss_at is not None and result.rss_mb is None and index >= rss_at:
            result.rss_mb = workload.peak_rss_mb()
        if limit is not None:
            control["stop"] = index >= limit
        else:
            control["stop"] = (
                perf_counter() >= deadline
                and index >= share
                and index % workload.round_jobs == 0
            )

    barrier = threading.Barrier(callers, action=at_sync)

    def caller_loop(caller: int) -> None:
        records = result.records[caller]
        try:
            for index, job in enumerate(workload.jobs(caller)):
                if index % workload.sync_every == 0:
                    control["index"] = index  # every caller writes the same
                    barrier.wait()
                    if control["stop"]:
                        break
                if tracer is not None:
                    tracer.set_job(f"{caller}:{index}")
                sent = perf_counter()
                try:
                    if tracer is None:
                        outcome = workload.run(caller, index, job)
                    else:
                        outcome = tracer.call(
                            "job", lambda: workload.run(caller, index, job)
                        )
                    error = None
                except Exception as exc:  # noqa: BLE001 — a failed job
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                records.append((job, outcome, error, perf_counter() - sent, sent))
        except threading.BrokenBarrierError:
            pass  # another caller crashed; its error is raised below
        except BaseException as exc:
            crashed.append(exc)
        finally:
            barrier.abort()

    result.start = perf_counter()
    deadline = result.start + seconds
    if callers == 1:
        caller_loop(0)
    else:
        threads = [
            threading.Thread(target=caller_loop, args=(caller,), name=f"caller-{caller}")
            for caller in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.elapsed = perf_counter() - result.start
    reference.sample()
    if crashed:
        raise crashed[0]
    return result


def busy_seconds(block: Sequence[tuple]) -> float:
    """Time at least one job of ``block`` was in flight."""
    busy, reach = 0.0, float("-inf")
    for sent, end in sorted((sent, sent + latency) for *_, latency, sent in block):
        if end > reach:
            busy += end - max(sent, reach)
            reach = end
    return busy


def rounds(loop: LoopResult, round_jobs: int) -> List[List[tuple]]:
    """Each complete round: one pass of the job pattern by every caller."""
    count = min(loop.counts()) // round_jobs
    return [
        [rec for caller in loop.records for rec in caller[r * round_jobs:(r + 1) * round_jobs]]
        for r in range(count)
    ]


def round_busy(block: Sequence[tuple], reference=None) -> float:
    """A round's busy time; with ``reference``, divided by the slowdown
    around the round."""
    busy = busy_seconds(block)
    if reference is None:
        return busy
    first = min(sent for *_, sent in block)
    last = max(sent + latency for *_, latency, sent in block)
    return busy / reference.slowdown(first, last)


def round_rates(loop: LoopResult, round_jobs: int, reference=None) -> List[float]:
    """Completed jobs per busy second of each round."""
    return [
        sum(1 for _, _, error, *_ in block if error is None) / round_busy(block, reference)
        for block in rounds(loop, round_jobs)
    ]


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check_outputs(workload, loop: LoopResult) -> Dict[str, Any]:
    """Run every output check; returns failures, the ARGs of the first
    ``PREFIX_JOBS`` jobs and the digest of their canonical records."""
    share = -(-PREFIX_JOBS // workload.callers)
    failed = 0
    problems: List[str] = []
    args: List[float] = []
    digest = hashlib.sha256()
    for records in loop.records:
        for position, (job, outcome, error, *_) in enumerate(records):
            if error is not None:
                failed += 1
                problems.append(error)
                continue
            issues, arg, canonical = workload.check(job, outcome)
            if issues:
                failed += 1
                problems.append(f"{job}: {'; '.join(issues)}")
            if position < share:
                if arg is not None:
                    args.append(arg)
                digest.update(json.dumps(canonical, sort_keys=True).encode("utf-8"))
    return {
        "failed": failed,
        "problems": problems,
        "args": args,
        "digest": digest.hexdigest() if min(loop.counts()) >= share else None,
    }


def check_identity(workload, loop: LoopResult, seed: int) -> List[str]:
    """Re-solve a seeded sample of the service records directly."""
    import numpy as np

    done = [(job, outcome) for job, outcome, error, *_ in loop.all() if error is None]
    rng = np.random.default_rng([seed, 40])
    problems = []
    for index in rng.choice(len(done), size=min(IDENTITY_SAMPLES, len(done)), replace=False):
        job, outcome = done[int(index)]
        if workload.direct_solve(job) != outcome["result"]:
            problems.append(f"service record differs from a direct solve: {job}")
    return problems


def write_job_log(path: str, loop: LoopResult, reference) -> None:
    """One JSON line per job: caller, job, send offset, latency,
    slowdown around it, error."""
    with open(path, "w", encoding="utf-8") as handle:
        for caller, records in enumerate(loop.records):
            for job, _, error, latency, sent in records:
                slowdown = reference.slowdown(sent, sent + latency)
                handle.write(json.dumps(
                    [caller, job, sent - loop.start, latency, slowdown, error]
                ) + "\n")


def latency_metrics(latencies: List[float]) -> Dict[str, float]:
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def end_to_end_metrics(workload, loop, checks, setup_s, reference) -> Dict[str, float]:
    done = [(latency, sent) for _, _, error, latency, sent in loop.all() if error is None]
    if not done:
        raise RuntimeError("no job completed")
    args = checks["args"]
    return {
        "throughput_jobs_per_s": statistics.median(
            round_rates(loop, workload.round_jobs, reference)
        ),
        **latency_metrics([
            latency / reference.slowdown(sent, sent + latency) for latency, sent in done
        ]),
        "peak_rss_mb": loop.rss_mb,
        "one_plus_arg_mean": 1.0 + (statistics.fmean(args) if args else 0.0),
        "setup_s": setup_s,
    }


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    loop: LoopResult,
    overhead: float,
    py_warnings: int,
) -> Dict[str, float]:
    def inclusive(name: str) -> float:
        return float(totals.get(name, {}).get("inclusive_s", 0.0))

    def self_time(name: str) -> float:
        return float(totals.get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> float:
        return float(totals.get(name, {}).get("calls", 0))

    hits = counters.get("pipeline.cache.hits", 0.0)
    lookups = hits + counters.get("pipeline.cache.misses", 0.0)

    metrics = {
        "pipeline.compile_s": inclusive("pipeline.compile"),
        "pipeline.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "linalg.augment_moves_s": inclusive("linalg.augment_moves"),
        "linalg.move_partner_key_calls": calls("linalg.move_partner_key"),
        "linalg.int_to_bits_s": inclusive("linalg.int_to_bits"),
        "circuits.synthesis_s": inclusive("circuits.synthesis"),
        "circuits.decompose_s": inclusive("circuits.decompose"),
        "core.purify_s": inclusive("core.purify"),
        "core.purify_calls": calls("core.purify"),
        "core.execute_s": self_time("core.execute"),
        "problems.is_feasible_s": inclusive("problems.is_feasible"),
        "problems.is_feasible_calls": calls("problems.is_feasible"),
        "problems.value_s": inclusive("problems.value"),
        "problems.value_calls": calls("problems.value"),
        "engine.run_segment_s": inclusive("engine.run_segment"),
        "engine.run_segment_calls": calls("engine.run_segment"),
        "engine.bind_s": inclusive("engine.bind"),
        "simulators.sparse_evolve_s": inclusive("simulators.sparse_evolve"),
        "simulators.sampling_s": inclusive("simulators.sampling"),
        "simulators.statevector_s": inclusive("simulators.statevector"),
        "optimizer.self_s": self_time("optimizer.minimize"),
        "optimizer.evaluations": counters.get("optimizer.iterations", 0.0),
        "baselines.self_s": self_time("baselines.solve"),
        "trace.overhead_frac": overhead,
        "trace.jobs": float(sum(loop.counts())),
        "py_warnings": float(py_warnings),
    }
    for stage in ("basis", "hamiltonian", "prune", "segmentation", "circuit"):
        metrics[f"pipeline.stage.{stage}_s"] = inclusive(f"pipeline.stage.{stage}")

    records = [
        (outcome, latency)
        for _, outcome, error, latency, _ in loop.all()
        if error is None and isinstance(outcome, dict)
    ]
    if records:
        queued = [outcome["queued_seconds"] for outcome, _ in records]
        ran = [outcome["run_seconds"] or 0.0 for outcome, _ in records]
        executed = [r for r in ran if r > 0.0]
        metrics.update({
            "service.queue_wait_p50_s": statistics.median(queued),
            "service.run_p50_s": statistics.median(executed) if executed else 0.0,
            "service.http_overhead_p50_s": statistics.median(
                latency - q - r for (_, latency), q, r in zip(records, queued, ran)
            ),
            "service.store_hit_ratio": sum(
                1 for outcome, _ in records if outcome["from_cache"]
            ) / len(records),
            "service.coalesced_ratio": sum(
                1 for outcome, _ in records if outcome["coalesced_into"]
            ) / len(records),
        })
    else:
        for name in ("queue_wait_p50_s", "run_p50_s", "http_overhead_p50_s",
                     "store_hit_ratio", "coalesced_ratio"):
            metrics[f"service.{name}"] = 0.0
    return metrics


def print_self_time_table(totals: Dict[str, Dict[str, float]], root: str) -> None:
    """Self time per traced name, as a share of the root spans' time."""
    base = totals.get(root, {}).get("inclusive_s", 0.0) or 1.0
    print(f"{'span':34s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"{name:34s} {entry['calls']:9d} {entry['inclusive_s']:9.3f} "
            f"{entry['self_s']:9.3f} {100.0 * entry['self_s'] / base:6.1f}%"
        )


def emit(correct: bool, attempted: int, failed: int, values, units) -> None:
    for name, unit in units:
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units
        },
    }))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure_setup(workload, reference, import_end: float) -> Dict[str, float]:
    """Set the workload up ``SETUP_REPEATS`` times, keeping the last.

    Returns ``setup_s`` (imports plus the median set-up, each divided by
    the slowdown around it) and the same sum in raw wall time."""
    raw, normalized = [], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        reference.sample()
        started = perf_counter()
        workload.setup()
        ended = perf_counter()
        reference.sample()
        raw.append(ended - started)
        normalized.append(raw[-1] / reference.slowdown(started, ended))
    import_s = import_end - _PROCESS_START
    return {
        "setup_s": import_s / reference.slowdown(_PROCESS_START, import_end)
        + statistics.median(normalized),
        "raw_setup_s": import_s + statistics.median(raw),
    }


def run(args: argparse.Namespace, caught: list) -> int:
    import workloads
    from reference import Reference

    import_end = perf_counter()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    reference = Reference()
    for _ in range(3):
        reference.sample()
    try:
        if args.trace:
            return run_traced(args, workload, reference, caught)
        setup = measure_setup(workload, reference, import_end)
        loop = closed_loop(
            workload, reference, seconds=args.seconds, min_jobs=MIN_JOBS,
            rss_at=-(-PREFIX_JOBS // workload.callers),
        )
        checks = check_outputs(workload, loop)
        if hasattr(workload, "direct_solve"):
            checks["problems"] += check_identity(workload, loop, args.seed)
        values = end_to_end_metrics(workload, loop, checks, setup["setup_s"], reference)
    finally:
        workload.close()
    write_job_log(
        os.path.join(workloads.OUT_DIR, f"jobs-{args.workload}-{args.seed}.jsonl"),
        loop, reference,
    )
    attempted = sum(loop.counts())
    raw = latency_metrics([latency for _, _, error, latency, _ in loop.all() if error is None])
    correct = not checks["problems"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in "
          f"{loop.elapsed:.2f} s; latency_p90_s from {attempted - checks['failed']} "
          f"samples; failed_frac {checks['failed'] / attempted:.4f}; "
          f"arg_mean {values['one_plus_arg_mean'] - 1.0:.6g} over "
          f"{len(checks['args'])} Rasengan jobs")
    print(f"raw wall time: median slowdown {reference.median_slowdown():.3f}; "
          f"throughput {statistics.median(round_rates(loop, workload.round_jobs)):.4g} jobs/s, "
          f"p50 {raw['latency_p50_s']:.4g} s, p90 {raw['latency_p90_s']:.4g} s, "
          f"setup {setup['raw_setup_s']:.4g} s")
    print(f"record digest (first {PREFIX_JOBS} jobs): {checks['digest']}")
    for problem in checks["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    emit(correct, attempted, checks["failed"], values, END_TO_END)
    return 0 if correct else 1


def run_traced(args, workload, reference, caught: list) -> int:
    import workloads
    from tracer import Tracer

    workload.setup()
    plain = closed_loop(workload, reference, limit=workload.trace_jobs)
    tracer = Tracer()
    workload.restart_for_trace(tracer)
    warnings_before = len(caught)
    traced = closed_loop(workload, reference, limit=workload.trace_jobs, tracer=tracer)
    py_warnings = len(caught) - warnings_before
    workload.stop_trace(tracer)
    counters = workload.counters()
    if getattr(workload, "trace_path", None):
        with open(workload.trace_path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        totals, root = header["totals"], "service.execute"
        py_warnings = header["py_warnings"]
    else:
        totals, root = tracer.totals(), "job"
        tracer.write(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}.jsonl"))
    plain_s, traced_s = (
        sum(round_busy(block, reference) for block in rounds(loop, workload.round_jobs))
        for loop in (plain, traced)
    )
    overhead = 1.0 - plain_s / traced_s
    checks = check_outputs(workload, traced)
    values = layer_metrics(totals, counters, traced, overhead, py_warnings)
    attempted = sum(traced.counts())
    print(f"workload {args.workload} seed {args.seed} traced: {attempted} jobs, "
          f"untraced {plain.elapsed:.2f} s, traced {traced.elapsed:.2f} s")
    print_self_time_table(totals, root)
    for problem in checks["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    premise = premise_problems(args.workload, values)
    for problem in premise:
        print(f"PREMISE FAILED: {problem}")
    correct = not checks["problems"] and not premise
    emit(correct, attempted, checks["failed"], values, PER_LAYER)
    return 0 if correct else 1


def premise_problems(workload: str, values: Dict[str, float]) -> List[str]:
    """Cache-isolation guards: each workload's cache premise holds."""
    ratio = values["pipeline.cache_hit_ratio"]
    if workload == "table2-cold" and ratio != 0.0:
        return [f"table2-cold timed jobs hit the artifact cache (ratio {ratio})"]
    if workload == "sweep-warm" and ratio != 1.0:
        return [f"sweep-warm jobs missed the artifact cache (ratio {ratio})"]
    return []


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    with warnings.catch_warnings(record=True) as caught:
        # Warnings are counted (py_warnings), never printed.
        warnings.simplefilter("always")
        return run(args, caught)


if __name__ == "__main__":
    sys.exit(main())
