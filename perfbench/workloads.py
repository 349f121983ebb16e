"""The benchmark's workloads: seeded job lists, job runners and checks.

Every workload is a closed loop: a caller sends its next job only after
the previous reply.  A workload object provides

* ``callers`` — how many callers run concurrently (one thread each);
* ``round_jobs`` — the length of each caller's repeating job pattern
  (runs end on a whole round);
* ``sync_every`` — the callers meet (and the reference kernel is timed)
  before every job whose index is a multiple of this;
* ``trace_jobs`` — jobs per caller in each pass of the traced run;
* ``setup()`` — one full set-up from empty process-wide caches (the
  benchmark repeats it, calling ``close()`` in between, and keeps the
  state of the last repetition);
* ``jobs(caller)`` — the caller's seeded job list (the same seed always
  yields the same list);
* ``run(caller, index, job)`` — one job through the public API;
* ``check(job, outcome)`` — output checks, returning
  ``(problems, arg_or_None, canonical_record)``;
* ``restart_for_trace(tracer)`` — reset to the state the timed window
  started from, with the layer wrappers installed;
* ``stop_trace(tracer)`` and ``counters()`` — end the traced window and
  read the program's telemetry counters over it;
* ``peak_rss_mb()`` and ``close()``.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import resource
import select
import signal
import subprocess
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.solver import RasenganConfig, RasenganSolver
from repro.engine import configure_defaults
from repro.experiments.runner import run_algorithm
from repro.linalg.bitvec import int_to_bits
from repro.pipeline import ArtifactCache, configure_cache
from repro.problems.io import problem_from_dict, problem_to_dict
from repro.problems.registry import make_benchmark
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import solver_config_from_dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch output (server logs, span dumps) inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Instances drawn for warm-up jobs come from cases below this; timed
#: jobs draw from above it, so no warm-up instance reappears.
_WARMUP_CASES = 1000


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _finite_arg(arg: Any) -> bool:
    return isinstance(arg, (int, float)) and math.isfinite(arg) and arg >= 0


def _all_feasible(problem, keys) -> bool:
    """A purified output holds only feasible states, so its best
    solution is feasible too."""
    n = problem.num_variables
    keys = list(keys)
    return bool(keys) and all(problem.is_feasible(int_to_bits(key, n)) for key in keys)


def _reset_process_caches() -> None:
    """Empty the process-wide artifact cache and engine defaults."""
    configure_cache(ArtifactCache())
    configure_defaults(workers=0, backend=None, cache=None)


class _InProcess:
    """Shared plumbing of the single-caller, in-process workloads."""

    callers = 1
    sync_every = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.collector: Optional[telemetry.TelemetryCollector] = None

    def restart_for_trace(self, tracer) -> None:
        from tracer import install_layers

        self.reset_state()
        install_layers(tracer)
        self.collector = telemetry.TelemetryCollector()
        telemetry.enable(self.collector)

    def stop_trace(self, tracer) -> None:
        telemetry.disable()
        tracer.uninstall()

    def counters(self) -> Dict[str, float]:
        if self.collector is None:
            return {}
        return self.collector.snapshot_counters()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ======================================================================
# table2-cold
# ======================================================================
#: All four algorithms on the n <= 10 families, Rasengan alone at paper
#: scale — the Table-2 protocol at the ``table2 --quick`` budget.
_TABLE2_SMALL = ("F1", "K1", "J1", "G1", "F2", "K2", "J2")
_TABLE2_LARGE = ("F3", "K3", "J3", "G3", "S1")
_TABLE2_ALGORITHMS = ("hea", "pqaoa", "chocoq", "rasengan")
_TABLE2_ROUND = tuple(
    (algorithm, family)
    for family in _TABLE2_SMALL
    for algorithm in _TABLE2_ALGORITHMS
) + tuple(("rasengan", family) for family in _TABLE2_LARGE)
_TABLE2_ITERATIONS = 60
#: Rounds in the job list: more than a run finishes (about four at the
#: 30 s window on the 2-vCPU VM the benchmark was written on).
_TABLE2_ROUNDS = 8


class Table2Cold(_InProcess):
    """Distinct instances, cold caches: compile and dense baselines."""

    name = "table2-cold"
    round_jobs = len(_TABLE2_ROUND)
    trace_jobs = round_jobs

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Each job takes the family's next case from 1000 on, so no
        # instance repeats and the list is the same for every seed; the
        # seed draws the solver seeds.
        rng = _rng(seed, 1)
        next_case = dict.fromkeys(_TABLE2_SMALL + _TABLE2_LARGE, _WARMUP_CASES)
        self.job_list = []
        for algorithm, family in _TABLE2_ROUND * _TABLE2_ROUNDS:
            self.job_list.append(
                (algorithm, family, next_case[family], int(rng.integers(0, 2**31)))
            )
            next_case[family] += 1

    def jobs(self, caller: int) -> Iterator[Tuple[str, str, int, int]]:
        return iter(self.job_list)

    def setup(self) -> None:
        _reset_process_caches()
        rng = _rng(self.seed, 2)
        for algorithm, family in (("hea", "F1"), ("pqaoa", "F1"),
                                  ("chocoq", "F1"), ("rasengan", "K3")):
            case = int(rng.integers(0, _WARMUP_CASES))
            run_algorithm(algorithm, make_benchmark(family, case),
                          max_iterations=10, seed=case)
        self.reset_state()

    def reset_state(self) -> None:
        """Empty caches and build every instance afresh."""
        _reset_process_caches()
        self.problems = {
            (family, case): make_benchmark(family, case)
            for _, family, case, _ in self.job_list
        }

    def run(self, caller: int, index: int, job) -> Any:
        algorithm, family, case, seed = job
        return run_algorithm(
            algorithm,
            self.problems[family, case],
            max_iterations=_TABLE2_ITERATIONS,
            seed=seed,
        )

    def check(self, job, outcome) -> Tuple[List[str], Optional[float], Any]:
        algorithm, family, case, seed = job
        problems = []
        if not _finite_arg(outcome.arg):
            problems.append(f"ARG {outcome.arg!r}")
        if not 0.0 <= outcome.in_constraints_rate <= 1.0 + 1e-9:
            problems.append(f"in-constraints rate {outcome.in_constraints_rate!r}")
        arg = None
        if algorithm == "rasengan":
            arg = outcome.arg
            if outcome.in_constraints_rate != 1.0:
                problems.append(f"in-constraints rate {outcome.in_constraints_rate!r}")
            if not _all_feasible(
                self.problems[family, case], outcome.final_distribution
            ):
                problems.append("output holds an infeasible state")
        canonical = {
            "job": [algorithm, family, case, seed],
            "arg": outcome.arg,
            "expectation": outcome.expectation_value,
            "in_constraints_rate": outcome.in_constraints_rate,
            "depth": outcome.executed_depth,
            "parameters": outcome.num_parameters,
            "iterations": outcome.iterations,
            "distribution": sorted(outcome.final_distribution.items()),
        }
        return problems, arg, canonical


# ======================================================================
# sweep-warm
# ======================================================================
_SWEEP_FAMILIES = ("F3", "K3", "J3", "G3", "F2", "K2", "J2", "G1")
#: One round of the sweep.  The job latency percentiles should fall
#: inside the block of one instance whose solve time hardly depends on
#: the solver seed, not on the edge between two instances.  J3, the
#: slowest, spreads from 0.14 s to 0.43 s with the seed, so it runs once
#: (1/16 of the jobs); K3 (4/16) then holds the 90th percentile and F3
#: (6/16) the median.
_SWEEP_ROUND = ("F3", "K3", "F3", "J3", "K3", "F3", "G3", "K3",
                "F3", "K2", "F3", "K3", "J2", "F3", "F2", "G1")


class SweepWarm(_InProcess):
    """Seed sweep over fixed instances with a filled artifact cache."""

    name = "sweep-warm"
    round_jobs = len(_SWEEP_ROUND)
    trace_jobs = 4 * round_jobs

    def jobs(self, caller: int) -> Iterator[Tuple[str, int]]:
        rng = _rng(self.seed, 3)
        for index in itertools.count():
            family = _SWEEP_ROUND[index % len(_SWEEP_ROUND)]
            yield family, int(rng.integers(0, 2**31))

    def setup(self) -> None:
        _reset_process_caches()
        self.reset_state()

    def reset_state(self) -> None:
        """Fresh instances and a freshly filled artifact cache."""
        self.problems = {family: make_benchmark(family, 0) for family in _SWEEP_FAMILIES}
        self.cache = ArtifactCache()
        for family, problem in self.problems.items():
            # A short solve fills the cache and the instance's lazy
            # state; the stage fingerprints ignore seed and budget.
            RasenganSolver(
                problem,
                config=RasenganConfig(seed=self.seed, max_iterations=5),
                artifact_cache=self.cache,
            ).solve()

    def run(self, caller: int, index: int, job) -> Any:
        family, seed = job
        return RasenganSolver(
            self.problems[family],
            config=RasenganConfig(seed=seed),
            artifact_cache=self.cache,
        ).solve()

    def check(self, job, outcome) -> Tuple[List[str], Optional[float], Any]:
        family, seed = job
        problems = []
        if outcome.failed:
            problems.append("solver reported failure")
        if not _finite_arg(outcome.arg):
            problems.append(f"ARG {outcome.arg!r}")
        if outcome.in_constraints_rate != 1.0:
            problems.append(f"in-constraints rate {outcome.in_constraints_rate!r}")
        if not self.problems[family].is_feasible(outcome.best_sampled_solution):
            problems.append("best solution infeasible")
        return problems, outcome.arg, {"job": [family, seed], **outcome.to_json_dict()}


# ======================================================================
# service-mix
# ======================================================================
_SERVICE_FRESH = ("F1", "K1", "J1", "G1", "F2")
_FRESH_CONFIG = {"max_iterations": 40, "shots": None}
#: One caller's request pattern, repeated.  No traffic data exists for
#: this service, so the mix is the plainest one that exercises each path
#: the service has, in equal shares: ``D`` a new spec that both callers
#: send at the same moment (dedup coalescing; the round starts with the
#: callers lined up), ``F`` a new spec of the caller's own (an executed
#: solve and a result-store write) and ``R`` the exact repeat of that
#: ``F`` (a result-store read).
_SERVICE_PATTERN = "DFR"
_SERVICE_WAIT = 60.0


class _Server:
    """``perfbench/serve.py`` in a child process."""

    def __init__(self, log_name: str, trace_out: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--", "--port", "0", "--service-workers", "2",
                    "--engine-workers", "0"]
        self._log = open(os.path.join(OUT_DIR, log_name), "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        try:
            self.url = self._await_listening(timeout=120.0)
        except BaseException:
            self.stop()
            raise
        self.client = ServiceClient(self.url, timeout=30.0)

    def _await_listening(self, timeout: float) -> str:
        stdout = self.process.stdout
        while True:
            ready, _, _ = select.select([stdout], [], [], timeout)
            if not ready:
                raise RuntimeError("service did not start listening in time")
            line = stdout.readline()
            if not line:
                raise RuntimeError("service exited before listening; see its log")
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                return match.group(1)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class ServiceMix:
    """Two callers against ``python -m repro serve`` in its own process."""

    name = "service-mix"
    callers = 2
    round_jobs = len(_SERVICE_PATTERN)
    sync_every = round_jobs
    trace_jobs = 30 * round_jobs

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: Optional[_Server] = None
        self.trace_path: Optional[str] = None
        self._problems: Dict[Tuple[str, int], Any] = {}
        self._counters: Dict[str, float] = {}

    def jobs(self, caller: int) -> Iterator[Dict[str, Any]]:
        own = _rng(self.seed, 10 + caller)
        # Both callers draw their dedup specs from one shared stream, so
        # they send the same ones.
        shared = _rng(self.seed, 20)
        for family in itertools.cycle(_SERVICE_FRESH):
            for kind, stream in (("D", shared), ("F", own)):
                job = {
                    "kind": kind,
                    "benchmark": family,
                    "case": int(stream.integers(_WARMUP_CASES, 10**7)),
                    "config": dict(_FRESH_CONFIG, seed=int(stream.integers(0, 2**31))),
                }
                yield job
            yield dict(job, kind="R")

    def _start(self, trace_out: Optional[str] = None) -> None:
        self.server = _Server(f"serve-{self.seed}.log", trace_out)
        rng = _rng(self.seed, 30)
        for family in _SERVICE_FRESH:
            record = self.server.client.submit(
                benchmark=family, case=int(rng.integers(0, _WARMUP_CASES)),
                config=dict(_FRESH_CONFIG, seed=self.seed),
                wait=True, wait_timeout=_SERVICE_WAIT,
            )
            if record["state"] != "done":
                raise RuntimeError(f"warm-up job ended {record['state']}")

    def setup(self) -> None:
        self._start()

    def restart_for_trace(self, tracer) -> None:
        self.server.stop()
        self.trace_path = os.path.join(OUT_DIR, f"trace-{self.name}.jsonl")
        self._start(trace_out=self.trace_path)
        self._counters = self.server.client.metrics()["counters"]

    def stop_trace(self, tracer) -> None:
        """Counters over the traced window (the server's minus warm-up)."""
        before = self._counters
        after = self.server.client.metrics()["counters"]
        self._counters = {
            name: float(value) - float(before.get(name, 0.0))
            for name, value in after.items()
        }
        self.close()

    def counters(self) -> Dict[str, float]:
        return self._counters

    def run(self, caller: int, index: int, job) -> Any:
        try:
            record = self.server.client.submit(
                benchmark=job["benchmark"], case=job["case"],
                config=job["config"], wait=True, wait_timeout=_SERVICE_WAIT,
            )
        except ServiceClientError as exc:
            raise RuntimeError(f"HTTP request failed: {exc}") from exc
        if record.get("state") != "done":
            raise RuntimeError(f"job {record.get('id')} ended {record.get('state')}")
        return record

    def _problem(self, job):
        key = (job["benchmark"], job["case"])
        if key not in self._problems:
            self._problems[key] = make_benchmark(*key)
        return self._problems[key]

    def check(self, job, outcome) -> Tuple[List[str], Optional[float], Any]:
        result = outcome.get("result") or {}
        problems = []
        arg = result.get("arg")
        if not _finite_arg(arg):
            problems.append(f"ARG {arg!r}")
        if result.get("in_constraints_rate") != 1.0:
            problems.append(f"in-constraints rate {result.get('in_constraints_rate')!r}")
        keys = [int(key) for key in result.get("distribution", {})]
        if not _all_feasible(self._problem(job), keys):
            problems.append("output holds an infeasible state")
        spec = {key: job[key] for key in ("benchmark", "case", "config")}
        return problems, arg, {"job": spec, "result": result}

    def direct_solve(self, job) -> Dict[str, Any]:
        """The same spec solved directly, as the service's runner does."""
        problem = problem_from_dict(problem_to_dict(self._problem(job)))
        solver = RasenganSolver(
            problem, config=solver_config_from_dict(job["config"])
        )
        try:
            result = solver.solve().to_json_dict()
        finally:
            solver.engine.close()
        return json.loads(json.dumps(result))

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    workload.name: workload for workload in (Table2Cold, SweepWarm, ServiceMix)
}
