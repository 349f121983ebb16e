"""Unified execution engine (see ``docs/ARCHITECTURE.md``).

* :mod:`repro.engine.registry` — backends resolved by name or instance.
* :mod:`repro.engine.cache` — compiled-circuit cache with angle rebinding.
* :mod:`repro.engine.core` — :class:`ExecutionEngine`: the single path
  from "algorithm wants a distribution for parameters" to "backend
  returns counts/probabilities", with batching and deterministic
  process-pool fan-out.
"""

from repro.engine.cache import CircuitCache, CompiledCircuit
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
    "CircuitCache",
    "CompiledCircuit",
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
    "register_backend",
    "resolve_backend",
]
