"""The deterministic workload registry.

A workload is one *measurable unit of work* with a fixed seed: ``setup``
builds whatever state the measurement needs (problems, engines, a running
service), ``run`` performs exactly one measured iteration, ``teardown``
releases resources.  The runner times ``run`` only, so setup cost never
pollutes a sample.

Three layers are covered, mirroring the execution architecture
(``docs/ARCHITECTURE.md``):

* ``micro.*`` — single hot paths: dense vs sparse statevector apply,
  Barenco decomposition, cold/warm pipeline passes,
  ``engine.run_batch``, the COBYLA optimizer, and the CLI's import in a
  fresh interpreter.
* ``macro.*`` — end-to-end :class:`~repro.core.solver.RasenganSolver`
  solves on the five benchmark families (F1/K1/J1/S1/G1) plus one
  baseline per family through the shared experiment runner.
* ``service.*`` — an HTTP job round-trip, a dedup-coalesced burst and
  a result-store-hit submit against a full job index, all on an
  in-process :class:`~repro.service.workers.SolverService`, and one
  job's runner under an enabled collector (the only timed sample that
  pays for tracing).

Determinism contract: the workload list for a suite, every workload's
seed, and every recorded counter value are pure functions of the tree —
two ``bench run`` invocations on an unchanged tree differ **only** in
``samples_seconds``.  Each workload therefore declares exactly which
telemetry counters to record (``counters=``): only counters whose values
cannot race (e.g. ``service.jobs.executed``, never
``service.dedup.coalesced``, whose split against store hits depends on
worker timing) are eligible.

``run`` receives a monotonically increasing ``iteration`` index spanning
the counter pass, warmup, and the timed repeats; workloads whose repeat
must not be short-circuited by a cache (the service workloads would
otherwise hit the dedup/result store) fold it into their per-iteration
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SUITES",
    "Workload",
    "get_workload",
    "register_workload",
    "workload_names",
    "workloads_for",
]

#: Known suite tags.  ``quick`` is the CI-sized subset (seconds); ``full``
#: is everything; the layer suites slice by subsystem.
SUITES = ("quick", "micro", "macro", "service", "full")


@dataclass(frozen=True)
class Workload:
    """One registered benchmark workload."""

    name: str
    description: str
    suites: Tuple[str, ...]
    seed: int
    #: Telemetry counter names recorded during the (untimed) counter
    #: pass; every listed counter must be deterministic for this
    #: workload.  Missing counters record as 0.0.
    counters: Tuple[str, ...]
    setup: Optional[Callable[[int], Any]]
    run: Callable[[Any, int], Any]
    teardown: Optional[Callable[[Any], None]] = None
    #: Inner-loop count: one timed sample is the mean over this many
    #: back-to-back ``run`` calls.  A fixed registry constant (never
    #: runtime-calibrated) so the sample count stays deterministic; >1
    #: only for sub-millisecond bodies where timer jitter would
    #: otherwise dominate.
    inner: int = 1


_REGISTRY: Dict[str, Workload] = {}


def register_workload(
    name: str,
    *,
    description: str,
    suites: Sequence[str],
    seed: int,
    counters: Sequence[str] = (),
    setup: Optional[Callable[[int], Any]] = None,
    teardown: Optional[Callable[[Any], None]] = None,
    inner: int = 1,
) -> Callable[[Callable[[Any, int], Any]], Callable[[Any, int], Any]]:
    """Decorator registering ``run`` under ``name``.

    ``suites`` is validated against :data:`SUITES`; every workload is
    implicitly part of ``full``.
    """
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite(s) {sorted(unknown)} for {name!r}")
    if name in _REGISTRY:
        raise ValueError(f"workload {name!r} already registered")

    def decorate(run: Callable[[Any, int], Any]) -> Callable[[Any, int], Any]:
        tags = tuple(dict.fromkeys(list(suites) + ["full"]))
        _REGISTRY[name] = Workload(
            name=name,
            description=description,
            suites=tags,
            seed=int(seed),
            counters=tuple(counters),
            setup=setup,
            run=run,
            teardown=teardown,
            inner=int(inner),
        )
        return run

    return decorate


def get_workload(name: str) -> Workload:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r} (have: {known})")
    return _REGISTRY[name]


def workloads_for(suite: str) -> List[Workload]:
    """All workloads tagged with ``suite``, in registration order."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r} (have: {', '.join(SUITES)})")
    return [w for w in _REGISTRY.values() for s in [w.suites] if suite in s]


def workload_names(suite: Optional[str] = None) -> List[str]:
    if suite is None:
        return list(_REGISTRY)
    return [w.name for w in workloads_for(suite)]


# ======================================================================
# Micro workloads
# ======================================================================
def _dense_apply_setup(seed: int):
    from repro.circuits.circuit import QuantumCircuit
    from repro.simulators.seeding import make_rng

    rng = make_rng(seed)
    n = 10
    circuit = QuantumCircuit(n, name="bench-dense")
    for _ in range(4):
        for q in range(n):
            circuit.rx(float(rng.uniform(0, 3.14)), q)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
    return circuit


@register_workload(
    "micro.statevector.apply",
    description="dense statevector apply: 4 RX+CX layers on 10 qubits",
    suites=("micro", "quick"),
    seed=101,
    counters=("statevector.runs",),
    setup=_dense_apply_setup,
    inner=4,
)
def _dense_apply_run(circuit, iteration: int):
    from repro.simulators.statevector import simulate_statevector

    return simulate_statevector(circuit)


def _sparse_apply_setup(seed: int):
    import numpy as np

    from repro.simulators.seeding import make_rng

    rng = make_rng(seed)
    n = 16
    basis = []
    for _ in range(24):
        vector = np.zeros(n, dtype=int)
        support = rng.choice(n, size=3, replace=False)
        vector[support] = rng.choice([-1, 1], size=3)
        basis.append(vector)
    times = rng.uniform(0.1, 1.2, size=len(basis))
    bits = [int(b) for b in rng.integers(0, 2, size=n)]
    return {"n": n, "basis": basis, "times": times, "bits": bits}


@register_workload(
    "micro.sparse.apply",
    description="sparse-state transition chain: 24 transitions on 16 qubits",
    suites=("micro", "quick"),
    seed=102,
    counters=("sparse.transitions",),
    setup=_sparse_apply_setup,
    inner=16,
)
def _sparse_apply_run(ctx, iteration: int):
    from repro.simulators.sparsestate import SparseState

    state = SparseState.from_bits(ctx["bits"])
    for vector, time in zip(ctx["basis"], ctx["times"]):
        state.apply_transition(vector, float(time))
    state.prune()
    return state


def _barenco_setup(seed: int):
    from repro.circuits.circuit import QuantumCircuit

    n = 9
    circuit = QuantumCircuit(n, name="bench-barenco")
    for width in range(3, n):
        circuit.mcx(list(range(width)), width)
        circuit.mcp(0.35 * width, list(range(width)), width)
    return circuit


@register_workload(
    "micro.decompose.barenco",
    description="Barenco decomposition of MCX/MCP gates up to 8 controls",
    suites=("micro", "quick"),
    seed=103,
    setup=_barenco_setup,
)
def _barenco_run(circuit, iteration: int):
    from repro.circuits.decompose import decompose_circuit

    return decompose_circuit(circuit)


def _pipeline_problem(seed: int):
    from repro.core.solver import RasenganConfig
    from repro.problems.registry import make_benchmark

    problem = make_benchmark("F1", case=0)
    config = RasenganConfig(seed=seed, max_iterations=10, restarts=1)
    return problem, config


def _pipeline_cold_setup(seed: int):
    problem, config = _pipeline_problem(seed)
    return {"problem": problem, "config": config}


@register_workload(
    "micro.pipeline.cold",
    description="staged pipeline compile of F1 into an empty artifact cache",
    suites=("micro", "quick"),
    seed=104,
    counters=(
        "pipeline.cache.misses",
        "pipeline.computed.basis",
        "pipeline.computed.hamiltonian",
        "pipeline.computed.prune",
        "pipeline.computed.segmentation",
        "pipeline.computed.circuit",
    ),
    setup=_pipeline_cold_setup,
    inner=4,
)
def _pipeline_cold_run(ctx, iteration: int):
    from repro.pipeline import ArtifactCache, SolvePipeline

    pipeline = SolvePipeline(
        ctx["problem"], ctx["config"], cache=ArtifactCache()
    )
    return pipeline.compile()


def _pipeline_warm_setup(seed: int):
    from repro.pipeline import ArtifactCache, SolvePipeline

    problem, config = _pipeline_problem(seed)
    cache = ArtifactCache()
    SolvePipeline(problem, config, cache=cache).compile()
    return {"problem": problem, "config": config, "cache": cache}


@register_workload(
    "micro.pipeline.warm",
    description="staged pipeline compile of F1 served entirely from cache",
    suites=("micro", "quick"),
    seed=105,
    counters=("pipeline.cache.hits", "pipeline.cache.misses"),
    setup=_pipeline_warm_setup,
    inner=24,
)
def _pipeline_warm_run(ctx, iteration: int):
    from repro.pipeline import SolvePipeline

    pipeline = SolvePipeline(ctx["problem"], ctx["config"], cache=ctx["cache"])
    return pipeline.compile()


def _solver_context(seed: int):
    """A compiled solver on F1 for the run_batch micro."""
    from repro.core.solver import RasenganConfig, RasenganSolver
    from repro.pipeline import ArtifactCache
    from repro.problems.registry import make_benchmark

    problem = make_benchmark("F1", case=0)
    config = RasenganConfig(seed=seed, max_iterations=10, restarts=1)
    solver = RasenganSolver(
        problem, config=config, artifact_cache=ArtifactCache()
    )
    return solver


def _close_solver(ctx) -> None:
    ctx["solver"].engine.close()


def _run_batch_setup(seed: int):
    from repro.simulators.seeding import make_rng

    solver = _solver_context(seed)
    rng = make_rng(seed)
    batch = [
        rng.uniform(0.05, 1.5, size=solver.num_parameters) for _ in range(4)
    ]
    return {"solver": solver, "batch": batch}


@register_workload(
    "micro.engine.run_batch",
    description="engine.run_batch of 4 full segmented executions on F1",
    suites=("micro", "quick"),
    seed=107,
    counters=(
        "engine.batch.calls",
        "engine.batch.items",
        "engine.executions",
    ),
    setup=_run_batch_setup,
    teardown=_close_solver,
    inner=4,
)
def _run_batch_run(ctx, iteration: int):
    return ctx["solver"].execute_batch(ctx["batch"])


def _cobyla_setup(num_parameters: int, budget: int):
    def setup(seed: int):
        from repro.simulators.seeding import make_rng

        return {
            "target": make_rng(seed).uniform(-1.0, 1.0, size=num_parameters),
            "budget": budget,
        }

    return setup


def _cobyla_run(ctx, iteration: int):
    import numpy as np

    from repro.baselines.optimizer import minimize_cobyla

    # The loss costs microseconds, so the sample is the optimizer's own time.
    target = ctx["target"]
    return minimize_cobyla(
        lambda x: float(((x - target) ** 2).sum()),
        np.zeros(target.size),
        max_iterations=ctx["budget"],
    )


register_workload(
    "micro.optimizer.cobyla",
    description="minimize_cobyla on an 8-parameter quadratic (budget 200)",
    suites=("micro", "quick"),
    seed=108,
    counters=("optimizer.evaluations",),
    setup=_cobyla_setup(8, 200),
)(_cobyla_run)

register_workload(
    "micro.optimizer.cobyla_small",
    description="minimize_cobyla on a 3-parameter quadratic (budget 40): "
    "the service job's shape",
    suites=("micro", "quick"),
    seed=110,
    counters=("optimizer.evaluations",),
    setup=_cobyla_setup(3, 40),
)(_cobyla_run)


#: What the import workload's child runs: the CLI's import, then a count
#: of the SciPy modules it loaded (0: no process on the solve path
#: imports SciPy).
_IMPORT_CLI_SCRIPT = (
    "import sys, repro.experiments.cli; "
    "print(sum(name.split('.')[0] == 'scipy' for name in sys.modules))"
)


def _import_cli_setup(seed: int):
    import os
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {"command": [sys.executable, "-c", _IMPORT_CLI_SCRIPT], "env": env}


@register_workload(
    "micro.import.cli",
    description="python -c 'import repro.experiments.cli' in a fresh "
    "interpreter: the start-up every CLI, serve and execution process pays",
    suites=("micro", "quick"),
    seed=111,
    counters=("import.scipy_modules",),
    setup=_import_cli_setup,
)
def _import_cli_run(ctx, iteration: int):
    import subprocess

    from repro import telemetry

    done = subprocess.run(
        ctx["command"],
        env=ctx["env"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    telemetry.add("import.scipy_modules", int(done.stdout))


def _hea_simplex_setup(seed: int):
    from repro.problems.registry import make_benchmark

    return {"problem": make_benchmark("F2", case=0), "seed": seed}


@register_workload(
    "micro.baseline.hea_simplex",
    description="minimize_cobyla of exact 5-layer HEA on F2 at budget "
    "n_params + 2: the initial simplex and its inverse",
    suites=("micro",),
    seed=109,
    counters=("optimizer.evaluations", "baselines.layers_applied"),
    setup=_hea_simplex_setup,
)
def _hea_simplex_run(ctx, iteration: int):
    from repro.baselines.hea import HardwareEfficientAnsatz
    from repro.baselines.optimizer import minimize_cobyla

    # A fresh ansatz per run, so every sample starts with an empty prefix memo.
    hea = HardwareEfficientAnsatz(ctx["problem"], shots=None, seed=ctx["seed"])
    return minimize_cobyla(
        hea.loss, hea.initial_parameters(), max_iterations=hea.num_parameters + 2
    )


# ======================================================================
# Macro workloads
# ======================================================================
#: (family, paired baseline) — one end-to-end Rasengan solve and one
#: baseline solve per benchmark family; the quick suite keeps only F1.
_MACRO_FAMILIES = (
    ("F1", "chocoq"),
    ("K1", "hea"),
    ("J1", "pqaoa"),
    ("S1", "chocoq"),
    ("G1", "hea"),
)


def _macro_setup(benchmark_id: str):
    def setup(seed: int):
        from repro.problems.registry import make_benchmark

        return {"problem": make_benchmark(benchmark_id, case=0), "seed": seed}

    return setup


def _macro_rasengan_run(ctx, iteration: int, backend=None, **overrides):
    from repro.core.solver import RasenganConfig, RasenganSolver
    from repro.pipeline import ArtifactCache

    config = RasenganConfig(
        seed=ctx["seed"], max_iterations=10, restarts=1, **overrides
    )
    solver = RasenganSolver(
        ctx["problem"],
        backend=backend,
        config=config,
        artifact_cache=ArtifactCache(),
    )
    try:
        return solver.solve()
    finally:
        solver.engine.close()


def _macro_baseline_run(algorithm: str):
    def run(ctx, iteration: int):
        from repro.experiments.runner import run_algorithm

        return run_algorithm(
            algorithm,
            ctx["problem"],
            layers=2,
            max_iterations=8,
            seed=ctx["seed"],
            restarts=1,
        )

    return run


_MACRO_COUNTERS = (
    "circuits.executed",
    "engine.executions",
    "optimizer.iterations",
    "shots.total",
)
#: Reads 0: a solve never compiles depth accounting, so any drift here
#: means the circuit stage crept back onto the solve path.
_MACRO_RASENGAN_COUNTERS = _MACRO_COUNTERS + ("pipeline.computed.circuit",)

for _index, (_family, _baseline) in enumerate(_MACRO_FAMILIES):
    _quick = ("macro", "quick") if _family == "F1" else ("macro",)
    register_workload(
        f"macro.rasengan.{_family}",
        description=f"end-to-end RasenganSolver solve on {_family} "
        "(exact engine, 10 iterations)",
        suites=_quick,
        seed=200 + _index,
        counters=_MACRO_RASENGAN_COUNTERS,
        setup=_macro_setup(_family),
    )(_macro_rasengan_run)
    register_workload(
        f"macro.baseline.{_baseline}.{_family}",
        description=f"end-to-end {_baseline} baseline on {_family} "
        "(2 layers, 8 iterations)",
        suites=_quick,
        seed=220 + _index,
        counters=_MACRO_COUNTERS,
        setup=_macro_setup(_family),
    )(_macro_baseline_run(_baseline))


# The noisy-hardware path of Figs. 11, 14 and 16: Kraus trajectories on the
# decomposed circuits.  Macro suite only, so the quick gate is unchanged.
@register_workload(
    "macro.rasengan.F1.fake_kyiv",
    description="end-to-end RasenganSolver solve on F1 on fake_kyiv "
    "(256 shots over 16 trajectories, 10 iterations)",
    suites=("macro",),
    seed=230,
    counters=("noise.trajectories", "gates.total", "backend.shots"),
    setup=_macro_setup("F1"),
)
def _macro_fake_kyiv_run(ctx, iteration: int):
    from repro.simulators.backends import fake_kyiv

    backend = fake_kyiv(seed=ctx["seed"], max_trajectories=16)
    return _macro_rasengan_run(ctx, iteration, backend=backend, shots=256)


# ======================================================================
# Service workloads
# ======================================================================
_SERVICE_CONFIG = {"max_iterations": 8, "shots": 64, "restarts": 1}


def _service_http_setup(seed: int):
    from repro.service.client import ServiceClient
    from repro.service.http import ServiceServer
    from repro.service.store import ResultStore
    from repro.service.workers import SolverService

    service = SolverService(workers=2, store=ResultStore(capacity=64)).start()
    server = ServiceServer(service, port=0).start()
    client = ServiceClient(server.url)
    return {
        "service": service,
        "server": server,
        "client": client,
        "seed": seed,
    }


def _service_http_teardown(ctx) -> None:
    ctx["server"].stop()
    ctx["service"].close(drain=False)


@register_workload(
    "service.http.roundtrip",
    description="HTTP POST /jobs (wait=true) round-trip through the "
    "worker pool",
    suites=("service", "quick"),
    seed=301,
    counters=("service.jobs.submitted", "service.jobs.executed"),
    setup=_service_http_setup,
    teardown=_service_http_teardown,
)
def _service_http_run(ctx, iteration: int):
    # A fresh seed per iteration keeps the fingerprint unique, so every
    # repeat measures a real execution, never a result-store hit.
    config = dict(_SERVICE_CONFIG, seed=ctx["seed"] + iteration)
    record = ctx["client"].submit(
        benchmark="F1", config=config, wait=True, wait_timeout=60.0
    )
    if record.get("state") != "done":
        raise RuntimeError(f"service round-trip failed: {record}")
    return record


def _service_burst_setup(seed: int):
    from repro.service.store import ResultStore
    from repro.service.workers import SolverService

    service = SolverService(workers=2, store=ResultStore(capacity=64)).start()
    return {"service": service, "seed": seed}


def _service_burst_teardown(ctx) -> None:
    ctx["service"].close(drain=False)


@register_workload(
    "service.dedup.burst",
    description="8 identical jobs submitted back-to-back; dedup collapses "
    "them to one execution",
    suites=("service", "quick"),
    seed=302,
    # Only race-free counters: the coalesced-vs-store-hit split depends
    # on worker timing, but exactly one execution happens either way.
    counters=(
        "service.jobs.submitted",
        "service.jobs.executed",
        "service.dedup.unique",
    ),
    setup=_service_burst_setup,
    teardown=_service_burst_teardown,
)
def _service_burst_run(ctx, iteration: int):
    config = dict(_SERVICE_CONFIG, seed=ctx["seed"] + iteration)
    jobs = [
        ctx["service"].submit(benchmark="F1", config=config)
        for _ in range(8)
    ]
    for job in jobs:
        if not job.wait(timeout=60.0):
            raise RuntimeError(f"burst job {job.id} did not settle")
    return jobs


def _service_traced_setup(seed: int):
    from repro.problems.io import problem_to_dict
    from repro.problems.registry import make_benchmark
    from repro.service.jobs import JobSpec

    return JobSpec(
        problem=problem_to_dict(make_benchmark("F1", case=0)),
        config={"seed": seed, "shots": None, "max_iterations": 40},
    )


@register_workload(
    "service.job.traced",
    description="one exact F1 job through the service runner under an "
    "enabled collector, its service.job tree detached into a record",
    suites=("service", "quick"),
    seed=303,
    # No counters: the run opens its own session, which would shadow the
    # counter pass's collector.
    setup=_service_traced_setup,
)
def _service_traced_run(spec, iteration: int):
    from repro import telemetry
    from repro.service.workers import default_runner

    # The other timed rounds run with telemetry off; this one times what
    # a traced service job costs, span bookkeeping and detach included.
    with telemetry.session() as collector:
        with telemetry.span("service.job", problem="F1") as job_span:
            result = default_runner(spec)
        return {"result": result, "trace": collector.detach(job_span)}


def _service_full_index_setup(seed: int):
    from repro.problems.io import problem_to_dict
    from repro.problems.registry import make_benchmark
    from repro.service.dedup import job_fingerprint
    from repro.service.jobs import JobSpec
    from repro.service.store import ResultStore
    from repro.service.workers import SolverService

    # No workers: every submit below is a result-store hit.
    service = SolverService(workers=1, store=ResultStore(capacity=64))
    payload = problem_to_dict(make_benchmark("F1", case=0))
    config = {"seed": seed}
    spec = JobSpec(problem=payload, config=config)
    service.store.put(job_fingerprint(spec), {"seed": seed})
    # Fill the job index to capacity with terminal jobs inside their TTL.
    for _ in range(service.max_jobs):
        service.submit(payload, config=config)
    return {"service": service, "payload": payload, "config": config}


def _service_full_index_teardown(ctx) -> None:
    ctx["service"].close(drain=False)


@register_workload(
    "service.submit.full_index",
    description="one result-store-hit submit against a job index holding "
    "4,096 terminal jobs inside their TTL, so each submit also evicts the "
    "oldest-finished job",
    suites=("service", "quick"),
    seed=304,
    counters=(
        "service.jobs.submitted",
        "service.jobs.evicted",
        "service.store.hits",
    ),
    setup=_service_full_index_setup,
    teardown=_service_full_index_teardown,
    inner=16,
)
def _service_full_index_run(ctx, iteration: int):
    job = ctx["service"].submit(ctx["payload"], config=ctx["config"])
    if not job.from_cache:
        raise RuntimeError(f"submit {job.id} missed the result store")
    return job


def _service_store_hit_setup(seed: int):
    ctx = _service_http_setup(seed)
    ctx["config"] = dict(_SERVICE_CONFIG, seed=seed)
    # One real solve fills the result store and opens the client's
    # connection; every timed request after it is a store hit on it.
    ctx["client"].solve(benchmark="F1", config=ctx["config"], wait_timeout=60.0)
    return ctx


@register_workload(
    "service.http.store_hit",
    description="HTTP POST /jobs round-trip answered from the result store "
    "over the client's kept-open connection",
    suites=("service", "quick"),
    seed=305,
    counters=("service.jobs.submitted", "service.http.connections"),
    setup=_service_store_hit_setup,
    teardown=_service_http_teardown,
    inner=8,
)
def _service_store_hit_run(ctx, iteration: int):
    record = ctx["client"].submit(benchmark="F1", config=ctx["config"])
    if not record.get("from_cache"):
        raise RuntimeError(f"request {record.get('id')} missed the result store")
    return record
