"""Unified execution engine (see ``docs/ARCHITECTURE.md``).

* :mod:`repro.engine.registry` — backends resolved by name or instance.
* :mod:`repro.engine.core` — :class:`ExecutionEngine`: the single path
  from "algorithm wants a distribution for parameters" to "backend
  returns counts/probabilities", with batching and deterministic
  process-pool fan-out.
"""

from repro.engine.core import (
    AnsatzSpec,
    EngineDefaults,
    ExecutionEngine,
    TransitionChainSpec,
    check_positive_int,
    check_shots,
    configure_defaults,
    ensure_engine,
    get_defaults,
    parameter_vector,
)
from repro.engine.registry import (
    EXACT_ALIASES,
    EngineError,
    available_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "AnsatzSpec",
    "EngineDefaults",
    "EngineError",
    "EXACT_ALIASES",
    "ExecutionEngine",
    "TransitionChainSpec",
    "available_backends",
    "check_positive_int",
    "check_shots",
    "configure_defaults",
    "ensure_engine",
    "get_defaults",
    "parameter_vector",
    "register_backend",
    "resolve_backend",
]
