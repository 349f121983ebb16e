"""The versioned ``BENCH_<suite>.json`` artifact schema.

Every benchmark artifact this repo emits — ``python -m repro bench run``
suites and the ``REPRO_BENCH_TELEMETRY=1`` per-figure dumps — shares
this one format so any two artifacts can be fed to
:mod:`repro.bench.compare` regardless of which harness produced them.

A report is a plain JSON object::

    {
      "schema": "repro.bench/v1",
      "version": 1,
      "suite": "quick",
      "repeats": 5,
      "warmup": 1,
      "environment": {"python": "...", "numpy": "...", "cpu_count": 8, ...},
      "workloads": {
        "micro.pipeline.warm": {
          "seed": 1234,
          "samples_seconds": [0.0021, 0.0019, ...],
          "counters": {"pipeline.cache.hits": 5.0},
          "stats": {"median": 0.0019, "mean": ..., "min": ..., "max": ...,
                    "p95": ...}
        },
        ...
      }
    }

Forward compatibility is part of the contract: :func:`validate_report`
checks only the fields it knows about, and :func:`load_report` /
:func:`write_report` round-trip unknown top-level and per-workload fields
untouched, so a newer writer's artifacts stay readable (and re-emittable)
by an older comparison engine.

Determinism is the other part: a report carries **no timestamps** and no
other run-local noise outside ``samples_seconds``/``stats``, so two runs
of an unchanged tree differ only in timings — exactly what
``bench compare`` is built to judge.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ReproError

#: Bump when the report layout changes incompatibly.
SCHEMA_VERSION = 1

#: The ``schema`` tag embedded in (and required of) every report.
SCHEMA_ID = f"repro.bench/v{SCHEMA_VERSION}"


class BenchSchemaError(ReproError):
    """A BENCH payload does not conform to the schema."""


def environment_fingerprint() -> Dict[str, Any]:
    """The measurement environment, for cross-machine sanity checks.

    Two reports whose fingerprints differ were *not* produced under
    comparable conditions; ``bench gate`` warns (and by default does not
    fail) when asked to judge such a pair.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count() or 1,
    }


def sample_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Convenience aggregates stored alongside the raw samples.

    The raw ``samples_seconds`` stay authoritative — the comparison
    engine bootstraps from them, never from these.  Tail quantiles come
    from the telemetry :class:`~repro.telemetry.Histogram` (log-bucketed,
    the same aggregation every other duration metric in the repo uses).
    """
    from repro.telemetry import Histogram

    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise BenchSchemaError("a workload entry needs at least one sample")
    histogram = Histogram()
    for value in arr:
        histogram.observe(float(value))
    return {
        "median": float(np.median(arr)),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p95": float(histogram.p95),
    }


def workload_entry(
    *,
    seed: Optional[int],
    samples_seconds: Sequence[float],
    counters: Optional[Dict[str, float]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Build one schema-conformant workload entry."""
    entry: Dict[str, Any] = {
        "seed": seed,
        "samples_seconds": [float(s) for s in samples_seconds],
        "counters": {
            name: float(value) for name, value in (counters or {}).items()
        },
        "stats": sample_stats(samples_seconds),
    }
    entry.update(extra)
    return entry


def new_report(
    suite: str,
    workloads: Dict[str, Dict[str, Any]],
    *,
    repeats: int,
    warmup: int,
    environment: Optional[Dict[str, Any]] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Assemble (and validate) a full report."""
    report: Dict[str, Any] = {
        "schema": SCHEMA_ID,
        "version": SCHEMA_VERSION,
        "suite": suite,
        "repeats": int(repeats),
        "warmup": int(warmup),
        "environment": (
            environment if environment is not None else environment_fingerprint()
        ),
        "workloads": workloads,
    }
    report.update(extra)
    validate_report(report)
    return report


def schema_errors(payload: Any) -> List[str]:
    """All schema violations in ``payload`` (empty = valid).

    Only known fields are checked; unknown fields are legal and must be
    preserved by readers (forward compatibility).
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["report must be a JSON object"]
    if payload.get("schema") != SCHEMA_ID:
        errors.append(
            f"schema tag {payload.get('schema')!r} != {SCHEMA_ID!r}"
        )
    if payload.get("version") != SCHEMA_VERSION:
        errors.append(f"version {payload.get('version')!r} != {SCHEMA_VERSION}")
    if not isinstance(payload.get("suite"), str):
        errors.append("suite must be a string")
    for field in ("repeats", "warmup"):
        if not isinstance(payload.get(field), int):
            errors.append(f"{field} must be an integer")
    if not isinstance(payload.get("environment"), dict):
        errors.append("environment must be an object")
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict):
        errors.append("workloads must be an object")
        return errors
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            errors.append(f"workload {name!r} must be an object")
            continue
        samples = entry.get("samples_seconds")
        if (
            not isinstance(samples, list)
            or not samples
            or not all(isinstance(s, (int, float)) for s in samples)
        ):
            errors.append(
                f"workload {name!r}: samples_seconds must be a non-empty "
                "list of numbers"
            )
        counters = entry.get("counters")
        if not isinstance(counters, dict):
            errors.append(f"workload {name!r}: counters must be an object")
        if "seed" in entry and not isinstance(entry["seed"], (int, type(None))):
            errors.append(f"workload {name!r}: seed must be an integer or null")
    return errors


def validate_report(payload: Any) -> Dict[str, Any]:
    """Raise :class:`BenchSchemaError` unless ``payload`` is schema-valid."""
    errors = schema_errors(payload)
    if errors:
        raise BenchSchemaError(
            "invalid BENCH report: " + "; ".join(errors)
        )
    return payload


def dumps_report(report: Dict[str, Any]) -> str:
    """Canonical serialization (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, Any], path: str) -> None:
    """Validate and write ``report`` to ``path`` (canonical form)."""
    validate_report(report)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_report(report))


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a report; unknown fields come back untouched."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise BenchSchemaError(f"no BENCH report at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path!r} is not valid JSON: {exc}") from None
    return validate_report(payload)
