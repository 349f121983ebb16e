"""repro.service — solve-as-a-service on top of the execution engine.

The repo's long-running entry point (``python -m repro serve``): many
callers multiplex solve jobs over one service's simulator resources
through a priority queue, a worker pool with one execution process per
worker, content-addressed deduplication, and a result store — see
``docs/SERVICE.md``.

Layers (each its own module, composable without the others):

* :mod:`repro.service.jobs` — job model, states, deadlines/retries, and
  the thread-safe priority :class:`~repro.service.jobs.JobQueue`;
* :mod:`repro.service.dedup` — canonical content hashing of
  (problem, solver config, backend) and in-flight coalescing;
* :mod:`repro.service.store` — LRU result store with crash-safe JSONL
  persistence (torn-tail quarantine, atomic compaction);
* :mod:`repro.service.journal` — append-only job-event journal so a
  restarted service can report what died mid-flight;
* :mod:`repro.service.workers` — :class:`SolverService`, the worker
  pool draining the queue;
* :mod:`repro.service.execution` — one execution process per worker
  slot, running :func:`default_runner` through :mod:`repro.engine` off
  the service's interpreter;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the JSON
  API and its Python client.

In-process use::

    from repro.service import SolverService

    with SolverService(workers=4) as service:
        job = service.submit(benchmark="F1", config={"seed": 7})
        job.wait()
        print(job.result["arg"])

Determinism contract: a service result is bit-for-bit identical to a
direct :class:`~repro.core.solver.RasenganSolver` run with the same
problem, config, and backend — which is exactly what makes sharing one
execution between deduplicated submissions sound.
"""

from repro.service.dedup import DedupIndex, job_fingerprint
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import ServiceServer
from repro.service.journal import JobJournal
from repro.service.jobs import (
    Deadline,
    Job,
    JobQueue,
    JobSpec,
    JobState,
    JobTimeoutError,
    ServiceError,
    run_with_deadline,
    solver_config_from_dict,
)
from repro.service.store import ResultStore
from repro.service.workers import SolverService, default_runner

__all__ = [
    "Deadline",
    "DedupIndex",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobTimeoutError",
    "ResultStore",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceServer",
    "SolverService",
    "default_runner",
    "job_fingerprint",
    "run_with_deadline",
    "solver_config_from_dict",
]
