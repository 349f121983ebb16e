"""repro.faults — deterministic, seedable fault injection.

The service layer promises crash-safety: a worker that dies, a torn
store write, a runner exception, or a slow disk must never leave a job
stuck in a non-terminal state or brick a restart.  Promises like that
rot unless they are exercised, so this module provides the chaos half of
the contract: named **fault points** threaded through the store, the
worker pool, the execution engine, and the HTTP layer, plus a seeded
**injection plan** that decides — reproducibly — when each point fires
and what it does.

Fault points are free when no plan is installed: ``faults.point(name)``
reads one module attribute and returns, the same no-op fast path
discipline as :mod:`repro.telemetry`.  With a plan installed, a firing
point can

* ``raise`` an :class:`InjectedFault` (a ``RuntimeError``: retryable
  infrastructure failure, *not* a :class:`~repro.exceptions.ReproError`,
  so HTTP maps it to 500 and the worker retry loop treats it like any
  backend exception);
* ``kill`` the calling worker loop with :class:`WorkerCrash` (a
  ``BaseException`` subclass so per-attempt ``except Exception``
  isolation cannot swallow it — it unwinds to the worker loop, exactly
  like a real thread death);
* ``latency`` — sleep ``delay`` seconds before continuing;
* ``truncate`` — return a :class:`TruncateDirective` to cooperating
  call sites (the store's appender) that then write only a prefix of the
  line, simulating a crash mid-``write``.

Determinism: every point name gets its own RNG derived from the plan
seed through :mod:`repro.simulators.seeding`'s ``SeedSequence`` tree, and
its own call counter.  The decision for the *k*-th call to point *P*
under seed *S* is therefore a pure function of ``(S, P, k)`` — thread
interleaving across different points cannot change it — and the injector
keeps a :attr:`FaultInjector.log` of every injection so a chaos run can
assert "same seed, same fault sequence".

Canonical fault points (see ``docs/SERVICE.md`` for the full table)::

    store.append     store.compact     journal.append
    worker.run       engine.execute    http.handler

Typical use::

    from repro import faults

    plan = faults.FaultPlan(
        [faults.FaultRule("engine.execute", "raise", probability=0.2),
         faults.FaultRule("store.append", "truncate", every=3),
         faults.FaultRule("worker.run", "kill", every=7, max_fires=1)],
        seed=11,
    )
    with faults.session(plan) as injector:
        ...  # drive the service; injector.log records what fired
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.simulators.seeding import make_rng

#: Actions a rule may take when its point fires.
ACTIONS = ("raise", "kill", "latency", "truncate", "perturb")


class InjectedFault(RuntimeError):
    """An injected, retryable infrastructure failure."""


class WorkerCrash(BaseException):
    """An injected worker-thread death.

    Derives from ``BaseException`` deliberately: job-level ``except
    Exception`` isolation must not catch it, so it unwinds through the
    attempt loop to the worker loop — the same blast radius as a real
    crash of the thread.
    """


@dataclass(frozen=True)
class TruncateDirective:
    """Returned by :func:`point` to call sites that can tear a write.

    ``fraction`` is the prefix of the payload that should actually reach
    the file before the simulated crash (at least one byte, never the
    whole line).
    """

    point: str
    fraction: float = 0.5

    def cut(self, data: bytes) -> bytes:
        """The torn prefix of ``data``."""
        if not data:
            return data
        keep = int(len(data) * self.fraction)
        return data[: max(1, min(keep, len(data) - 1))]


@dataclass(frozen=True)
class PerturbDirective:
    """Returned by :func:`point` to call sites that can skew a value.

    The numerical counterpart of :class:`TruncateDirective`: cooperating
    call sites (the ``repro.verify`` differential harness) nudge one
    value of their payload by ``scale``, simulating a silent numerical
    divergence between two redundant computation paths.  A verification
    harness that cannot be made to fail proves nothing, so ``verify
    mutate`` installs ``perturb`` rules and asserts every check flips to
    a mismatch.
    """

    point: str
    scale: float = 1e-3


#: Directive types a fault point may hand back to a cooperating caller.
Directive = Union[TruncateDirective, PerturbDirective]


@dataclass
class FaultRule:
    """One injection rule: *when* a matching point fires, *what* happens.

    Args:
        point: fault-point name; a trailing ``*`` matches by prefix
            (``"store.*"``).
        action: one of :data:`ACTIONS`.
        probability: fire chance per call (seeded per point name).
        every: fire on every ``every``-th call to the point (1-based,
            counter-deterministic — no RNG draw).  Exactly one of
            ``probability``/``every`` applies; with neither given the
            rule always fires.
        delay: sleep seconds (``latency`` action).
        fraction: written prefix fraction (``truncate`` action).
        scale: numerical nudge magnitude (``perturb`` action).
        max_fires: stop firing after this many injections (``None`` =
            unlimited).
    """

    point: str
    action: str
    probability: Optional[float] = None
    every: Optional[int] = None
    delay: float = 0.01
    fraction: float = 0.5
    scale: float = 1e-3
    max_fires: Optional[int] = None
    fired: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from {ACTIONS}"
            )
        if self.probability is not None and self.every is not None:
            raise ValueError("give at most one of probability= and every=")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches(self, point: str) -> bool:
        if self.point.endswith("*"):
            return point.startswith(self.point[:-1])
        return point == self.point

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """Build a rule from a CLI spec string.

        Format: ``point:action[:key=value,key=value...]`` with keys
        ``p``/``probability``, ``every``, ``delay``, ``fraction``,
        ``scale``, ``max`` — e.g. ``engine.execute:raise:p=0.2`` or
        ``store.append:truncate:every=3,max=2``.
        """
        parts = text.split(":", 2)
        if len(parts) < 2:
            raise ValueError(
                f"bad fault rule {text!r}: expected point:action[:options]"
            )
        point, action = parts[0], parts[1]
        kwargs: Dict[str, object] = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if not value:
                    raise ValueError(f"bad fault rule option {item!r}")
                if key in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "every":
                    kwargs["every"] = int(value)
                elif key == "delay":
                    kwargs["delay"] = float(value)
                elif key == "fraction":
                    kwargs["fraction"] = float(value)
                elif key == "scale":
                    kwargs["scale"] = float(value)
                elif key in ("max", "max_fires"):
                    kwargs["max_fires"] = int(value)
                else:
                    raise ValueError(f"unknown fault rule option {key!r}")
        return cls(point, action, **kwargs)


@dataclass
class FaultPlan:
    """A seeded set of injection rules.

    The seed feeds one ``SeedSequence`` per point name (via
    :mod:`repro.simulators.seeding`), so the probabilistic decisions are
    reproducible per point regardless of thread interleaving.
    """

    rules: Sequence[FaultRule]
    seed: int = 0

    @classmethod
    def parse(cls, specs: Sequence[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI rule strings (see :meth:`FaultRule.parse`)."""
        return cls([FaultRule.parse(spec) for spec in specs], seed=seed)

    @classmethod
    def smoke(cls, seed: int = 0) -> "FaultPlan":
        """The default chaos plan used by ``serve --chaos-seed``.

        Moderate, survivable chaos: occasional retryable engine
        failures, a torn store write every few appends, slow appends,
        and a bounded number of worker kills.
        """
        return cls(
            [
                FaultRule("engine.execute", "raise", probability=0.05),
                FaultRule("worker.run", "raise", probability=0.05),
                FaultRule("store.append", "truncate", every=5),
                FaultRule("store.append", "latency", probability=0.2,
                          delay=0.01),
                FaultRule("worker.run", "kill", every=9, max_fires=2),
            ],
            seed=seed,
        )


class FaultInjector:
    """Live injection state for one :class:`FaultPlan`.

    Thread-safe.  Decisions and the :attr:`log` are made under a lock;
    the side effects (sleeping, raising) happen outside it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Private copies: per-rule fire counters are injector state, so
        # one FaultPlan can seed any number of independent runs.
        self._rules = [dataclasses.replace(rule) for rule in plan.rules]
        self._lock = threading.Lock()
        self._rngs: Dict[str, np.random.Generator] = {}
        self._calls: Dict[str, int] = {}
        #: Every injection, in decision order: (point, action, call index).
        self.log: List[Tuple[str, str, int]] = []

    def _rng(self, name: str) -> np.random.Generator:
        rng = self._rngs.get(name)
        if rng is None:
            digest = hashlib.sha256(name.encode("utf-8")).digest()
            entropy = [self.plan.seed, int.from_bytes(digest[:8], "big")]
            rng = make_rng(np.random.SeedSequence(entropy))
            self._rngs[name] = rng
        return rng

    def calls(self, name: str) -> int:
        """How many times ``name`` has been reached so far."""
        with self._lock:
            return self._calls.get(name, 0)

    def extend_log(self, entries: Sequence[Tuple[str, str, int]]) -> None:
        """Append injections another process made under this plan.

        The solve service's execution processes fire their fault points
        on their own copy of the injector and hand the entries back.
        """
        with self._lock:
            self.log.extend(tuple(entry) for entry in entries)

    def fire(self, name: str) -> Optional["Directive"]:
        """Evaluate every matching rule for one call to point ``name``.

        Applies latency inline, returns a truncate/perturb directive if
        any, and raises for ``raise``/``kill`` — in that order, so a rule
        set can both delay and fail the same call.
        """
        sleep_for = 0.0
        directive: Optional[Directive] = None
        error: Optional[BaseException] = None
        with self._lock:
            index = self._calls.get(name, 0) + 1
            self._calls[name] = index
            for rule in self._rules:
                if not rule.matches(name):
                    continue
                if rule.max_fires is not None and rule.fired >= rule.max_fires:
                    continue
                if rule.every is not None:
                    hit = index % rule.every == 0
                elif rule.probability is not None:
                    # One draw per (point, call, probabilistic rule):
                    # deterministic given the plan and the call index.
                    hit = bool(self._rng(name).random() < rule.probability)
                else:
                    hit = True
                if not hit:
                    continue
                rule.fired += 1
                self.log.append((name, rule.action, index))
                telemetry.add("service.faults.injected")
                telemetry.add(f"service.faults.{rule.action}")
                if rule.action == "latency":
                    sleep_for += rule.delay
                elif rule.action == "truncate":
                    directive = TruncateDirective(name, rule.fraction)
                elif rule.action == "perturb":
                    directive = PerturbDirective(name, rule.scale)
                elif rule.action == "raise" and error is None:
                    error = InjectedFault(
                        f"injected fault at {name} (call {index})"
                    )
                elif rule.action == "kill" and not isinstance(
                    error, WorkerCrash
                ):
                    error = WorkerCrash(
                        f"injected worker crash at {name} (call {index})"
                    )
        if sleep_for > 0.0:
            time.sleep(sleep_for)
        if error is not None:
            raise error
        return directive


# ----------------------------------------------------------------------
# Module-level switch (the fault points' single indirection)
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide; returns its live injector."""
    global _ACTIVE
    injector = FaultInjector(plan)
    _ACTIVE = injector
    return injector


def uninstall() -> Optional[FaultInjector]:
    """Remove the active injector (returned for log inspection)."""
    global _ACTIVE
    injector = _ACTIVE
    _ACTIVE = None
    return injector


def active() -> Optional[FaultInjector]:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


@contextmanager
def session(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Install ``plan`` for the duration of a ``with`` block."""
    injector = install(plan)
    try:
        yield injector
    finally:
        if _ACTIVE is injector:
            uninstall()


def point(name: str) -> Optional[Directive]:
    """Declare a fault point; no-op unless an injection plan is active.

    Returns a :class:`TruncateDirective` for cooperating writers (or a
    :class:`PerturbDirective` for cooperating numerical paths — check
    the type), raises :class:`InjectedFault`/:class:`WorkerCrash` or
    sleeps when the active plan says so.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.fire(name)


__all__ = [
    "ACTIONS",
    "Directive",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "PerturbDirective",
    "TruncateDirective",
    "WorkerCrash",
    "active",
    "install",
    "point",
    "session",
    "uninstall",
]
