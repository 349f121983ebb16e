"""Differential correctness harness: registry, verdicts, mutation hook.

The repository promises several *redundant paths* to the same answer —
a dense statevector and the sparse amplitude map, a cold compile and a
cache-served one, a serial engine and a process pool, an in-memory
result store and its reloaded twin.  Those equivalences are the
strongest correctness oracles the codebase has, and this module turns
them into executable checks: each :class:`Check` produces the same
payload through two independent paths and the harness judges whether
they agree within the check's stated tolerance (``0.0`` means the
payloads must be *bit-identical*, compared by canonical-JSON
fingerprint).

A harness that cannot fail is worthless, so every check routes its
second path through the fault point ``verify.<check name>``.  Under a
:func:`mutation_plan` (``python -m repro verify mutate``) that point
returns a :class:`repro.faults.PerturbDirective` and the harness nudges
one leaf of the path-B payload before judging — a healthy harness must
then report a mismatch for every check, proving the comparisons are
live rather than vacuous.

Verdicts are structured (:class:`CheckResult`): ``match`` /
``mismatch`` / ``skipped``, with per-path payload fingerprints, the
maximum absolute deviation, and a human-readable reason.  The report
returned by :func:`run_checks` is deterministic for a given seed — no
timestamps, no durations — so running a suite twice and diffing the
JSON is itself a determinism check (CI runs the full suite twice and
compares the reports byte for byte).

See ``docs/VERIFICATION.md`` for the check catalog and how to add one.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import faults, telemetry
from repro.exceptions import ReproError

#: Schema tag of the report dict produced by :func:`run_checks`.
REPORT_VERSION = "repro.verify/v1"

#: Known suite names: ``quick`` is the CI set, ``full`` additionally
#: raises per-check case counts (``CheckContext.thorough``).
SUITES = ("quick", "full")

#: Verdicts a check can produce.
VERDICTS = ("match", "mismatch", "skipped")


class VerifyError(ReproError):
    """Harness misuse: unknown check, bad suite, duplicate registration."""


class CheckSkipped(Exception):
    """Raised by a check body to report a ``skipped`` verdict.

    Reserved for genuinely inapplicable situations (a missing optional
    dependency, an instance too large for brute force) — never for a
    disagreement, which must surface as ``mismatch``.
    """


@dataclass(frozen=True)
class Check:
    """One registered differential check.

    Attributes:
        name: unique kebab-case identifier (also names the fault point
            ``verify.<name>`` used by mutation mode).
        description: one-line human description of the two paths.
        suites: suite names this check belongs to.
        tolerance: maximum allowed absolute deviation between the two
            payloads; ``0.0`` demands bit-identical canonical-JSON
            fingerprints.
        func: the check body, ``func(ctx) -> CheckOutput``.
    """

    name: str
    description: str
    suites: Tuple[str, ...]
    tolerance: float
    func: Callable[["CheckContext"], "CheckOutput"]


@dataclass
class CheckOutput:
    """What a check body returns: one payload per redundant path.

    Payloads may be any JSON-encodable composition of dicts, sequences,
    numbers, strings and numpy arrays.  ``payload_b`` is the path the
    harness perturbs in mutation mode, so by convention path A is the
    reference implementation and path B the optimised/cached/parallel
    one under test.
    """

    label_a: str
    payload_a: Any
    label_b: str
    payload_b: Any
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckResult:
    """Structured verdict of one executed check."""

    name: str
    verdict: str
    tolerance: float
    max_abs_deviation: float
    fingerprints: Dict[str, str]
    details: Dict[str, Any]
    reason: str = ""

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe record (non-finite deviations become ``None``)."""
        deviation: Optional[float] = self.max_abs_deviation
        if deviation is not None and not math.isfinite(deviation):
            deviation = None
        return {
            "name": self.name,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "max_abs_deviation": deviation,
            "fingerprints": dict(self.fingerprints),
            "details": _plain(self.details),
            "reason": self.reason,
        }


#: Registered checks in registration order (name -> Check).
REGISTRY: "OrderedDict[str, Check]" = OrderedDict()


def register_check(
    name: str,
    description: str,
    *,
    suites: Sequence[str] = ("quick", "full"),
    tolerance: float = 0.0,
) -> Callable[[Callable[["CheckContext"], CheckOutput]], Callable]:
    """Decorator: add a check body to :data:`REGISTRY`."""
    for suite in suites:
        if suite not in SUITES:
            raise VerifyError(
                f"unknown suite {suite!r} for check {name!r}; "
                f"choose from {SUITES}"
            )

    def decorator(func: Callable[["CheckContext"], CheckOutput]):
        if name in REGISTRY:
            raise VerifyError(f"check {name!r} registered twice")
        REGISTRY[name] = Check(
            name=name,
            description=description,
            suites=tuple(suites),
            tolerance=float(tolerance),
            func=func,
        )
        return func

    return decorator


def checks_for(
    suite: Optional[str] = None, names: Optional[Sequence[str]] = None
) -> List[Check]:
    """Resolve a suite name and/or explicit check names to Check objects.

    Explicit ``names`` win over ``suite``; an unknown name or suite
    raises :class:`VerifyError`.
    """
    _ensure_builtin_checks()
    if names:
        unknown = [name for name in names if name not in REGISTRY]
        if unknown:
            raise VerifyError(
                f"unknown check(s): {', '.join(unknown)} "
                f"(have: {', '.join(REGISTRY)})"
            )
        return [REGISTRY[name] for name in names]
    if suite is None:
        return list(REGISTRY.values())
    if suite not in SUITES:
        raise VerifyError(f"unknown suite {suite!r}; choose from {SUITES}")
    return [check for check in REGISTRY.values() if suite in check.suites]


def _ensure_builtin_checks() -> None:
    """Populate :data:`REGISTRY` with the built-in checks (idempotent)."""
    from repro.verify import checks as _checks  # noqa: F401  (registers)


@dataclass
class CheckContext:
    """Per-check execution context handed to every check body.

    Attributes:
        check: the check being run.
        seed: root seed of the verify invocation; derive per-purpose
            streams with :meth:`rng` / :meth:`derived_seed` so checks
            stay independent of registration order.
        suite: suite name the run was invoked with.
        thorough: ``True`` for the ``full`` suite — checks should raise
            their case counts / instance sizes.
    """

    check: Check
    seed: int = 0
    suite: str = "quick"
    thorough: bool = False

    def derived_seed(self, salt: str = "") -> int:
        """Deterministic child seed, independent of other checks."""
        digest = hashlib.sha256(
            f"{REPORT_VERSION}:{self.seed}:{self.check.name}:{salt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % (2**31 - 1)

    def rng(self, salt: str = "") -> np.random.Generator:
        """A fresh generator seeded from :meth:`derived_seed`."""
        return np.random.default_rng(self.derived_seed(salt))


# ----------------------------------------------------------------------
# Canonical payloads: fingerprints and deviations
# ----------------------------------------------------------------------
def _plain(obj: Any) -> Any:
    """Recursively convert a payload to canonical JSON-encodable form.

    Numpy scalars/arrays become native numbers/lists, complex numbers a
    tagged ``{"__complex__": [re, im]}`` mapping, tuples lists, and all
    mapping keys strings — so two payloads fingerprint equal exactly
    when every leaf is bit-equal.
    """
    if isinstance(obj, np.ndarray):
        return [_plain(value) for value in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        value = complex(obj)
        return {"__complex__": [value.real, value.imag]}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Mapping):
        return {str(key): _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Floats serialize through :func:`repr`-style shortest round-trip, so
    equal fingerprints mean bit-equal leaves — the comparison used by
    tolerance-0 (bit-identity) checks.
    """
    text = json.dumps(_plain(payload), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def max_deviation(a: Any, b: Any) -> float:
    """Maximum absolute numeric deviation between two aligned payloads.

    Structural disagreements — different keys, lengths, or non-numeric
    leaves that differ — count as ``inf`` so they can never sneak under
    a tolerance.
    """
    if a is None and b is None:
        return 0.0
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        return 0.0 if bool(a) == bool(b) else math.inf
    if isinstance(a, (numbers.Number, np.number)) and isinstance(
        b, (numbers.Number, np.number)
    ):
        return float(abs(complex(a) - complex(b)))
    if isinstance(a, str) or isinstance(b, str):
        return 0.0 if a == b else math.inf
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        keys_a = {str(key): key for key in a}
        keys_b = {str(key): key for key in b}
        if set(keys_a) != set(keys_b):
            return math.inf
        if not keys_a:
            return 0.0
        return max(
            max_deviation(a[keys_a[key]], b[keys_b[key]]) for key in keys_a
        )
    if isinstance(a, (list, tuple, np.ndarray)) and isinstance(
        b, (list, tuple, np.ndarray)
    ):
        items_a = list(a) if not isinstance(a, np.ndarray) else list(a.tolist())
        items_b = list(b) if not isinstance(b, np.ndarray) else list(b.tolist())
        if len(items_a) != len(items_b):
            return math.inf
        if not items_a:
            return 0.0
        return max(
            max_deviation(va, vb) for va, vb in zip(items_a, items_b)
        )
    return 0.0 if a == b else math.inf


# ----------------------------------------------------------------------
# Mutation: nudge the first perturbable leaf of a payload
# ----------------------------------------------------------------------
def perturb_payload(payload: Any, scale: float) -> Tuple[Any, bool]:
    """Return a copy of ``payload`` with its first numeric leaf nudged.

    Traversal is deterministic (mapping keys in sorted order, sequences
    in order) and tiered: the first float/complex leaf gets ``+scale``;
    if the payload holds no float at all, the first integer leaf gets
    ``+max(1, round(scale))``; failing that, the first string gets a
    marker appended.  Returns ``(perturbed, hit)`` — ``hit`` is False
    only for payloads with no scalar leaf at all.
    """
    for tier in ("float", "int", "str"):
        perturbed, hit = _perturb(payload, scale, tier)
        if hit:
            return perturbed, True
    return payload, False


def _perturb(obj: Any, scale: float, tier: str) -> Tuple[Any, bool]:
    if isinstance(obj, np.ndarray):
        if obj.size and tier == "float" and obj.dtype.kind in "fc":
            out = obj.copy()
            out.flat[0] = out.flat[0] + scale
            return out, True
        if obj.size and tier == "int" and obj.dtype.kind in "iu":
            out = obj.copy()
            out.flat[0] = out.flat[0] + max(1, round(scale))
            return out, True
        return obj, False
    if isinstance(obj, (bool, np.bool_)):
        return obj, False
    if tier == "float" and isinstance(
        obj, (float, complex, np.floating, np.complexfloating)
    ):
        return obj + scale, True
    if tier == "int" and isinstance(obj, (int, np.integer)):
        return obj + max(1, round(scale)), True
    if tier == "str" and isinstance(obj, str):
        return obj + "≠", True
    if isinstance(obj, Mapping):
        for key in sorted(obj, key=repr):
            value, hit = _perturb(obj[key], scale, tier)
            if hit:
                out = dict(obj)
                out[key] = value
                return out, True
        return obj, False
    if isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            value, hit = _perturb(item, scale, tier)
            if hit:
                out = list(obj)
                out[index] = value
                return type(obj)(out) if isinstance(obj, tuple) else out, True
        return obj, False
    return obj, False


def mutation_plan(
    *, scale: float = 1e-3, seed: int = 0, names: Optional[Sequence[str]] = None
) -> faults.FaultPlan:
    """A fault plan that perturbs every (or each named) verify point.

    The default scale (``1e-3``) sits far above every registered
    tolerance, so under this plan a healthy harness must flip every
    executed check to ``mismatch``.
    """
    if names:
        rules = [
            faults.FaultRule(f"verify.{name}", "perturb", scale=scale)
            for name in names
        ]
    else:
        rules = [faults.FaultRule("verify.*", "perturb", scale=scale)]
    return faults.FaultPlan(rules, seed=seed)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _judge(ctx: CheckContext, output: CheckOutput) -> CheckResult:
    """Compare the two payloads of one check output into a verdict."""
    payload_b = output.payload_b
    details = dict(output.details)
    directive = faults.point(f"verify.{ctx.check.name}")
    if isinstance(directive, faults.PerturbDirective):
        payload_b, hit = perturb_payload(payload_b, directive.scale)
        details["mutation"] = {"applied": hit, "scale": directive.scale}
    fingerprints = {
        output.label_a: fingerprint_payload(output.payload_a),
        output.label_b: fingerprint_payload(payload_b),
    }
    deviation = max_deviation(output.payload_a, payload_b)
    if ctx.check.tolerance == 0.0:
        agree = fingerprints[output.label_a] == fingerprints[output.label_b]
        reason = (
            ""
            if agree
            else f"payload fingerprints differ ({output.label_a} vs "
            f"{output.label_b}); max |delta| = {deviation:.3e}"
        )
    else:
        agree = deviation <= ctx.check.tolerance
        reason = (
            ""
            if agree
            else f"max |delta| = {deviation:.3e} exceeds tolerance "
            f"{ctx.check.tolerance:.1e}"
        )
    return CheckResult(
        name=ctx.check.name,
        verdict="match" if agree else "mismatch",
        tolerance=ctx.check.tolerance,
        max_abs_deviation=deviation,
        fingerprints=fingerprints,
        details=details,
        reason=reason,
    )


def run_check(check: Check, ctx: CheckContext) -> CheckResult:
    """Execute one check under telemetry; exceptions become verdicts."""
    with telemetry.span("verify.check", check=check.name) as span:
        telemetry.add("verify.checks")
        try:
            output = check.func(ctx)
            result = _judge(ctx, output)
        except CheckSkipped as exc:
            result = CheckResult(
                name=check.name,
                verdict="skipped",
                tolerance=check.tolerance,
                max_abs_deviation=0.0,
                fingerprints={},
                details={},
                reason=str(exc),
            )
        except Exception as exc:  # noqa: BLE001 — a crashing check is a
            # correctness finding, not infrastructure noise: report it as
            # a mismatch so the run exits nonzero.
            telemetry.add("verify.errors")
            result = CheckResult(
                name=check.name,
                verdict="mismatch",
                tolerance=check.tolerance,
                max_abs_deviation=math.inf,
                fingerprints={},
                details={},
                reason=f"check raised {type(exc).__name__}: {exc}",
            )
        span.set(verdict=result.verdict)
        telemetry.add(f"verify.{result.verdict}")
    return result


def run_checks(
    checks: Sequence[Check],
    *,
    seed: int = 0,
    suite: str = "quick",
    thorough: bool = False,
    mutated: bool = False,
) -> Dict[str, Any]:
    """Run ``checks`` and return the deterministic verdict report.

    The report carries no timestamps or durations: two runs with the
    same seed over the same tree are byte-identical, which is itself
    part of the determinism contract (CI compares two runs with ``cmp``).
    """
    results: List[CheckResult] = []
    with telemetry.span(
        "verify.run", suite=suite, seed=seed, checks=len(checks)
    ):
        for check in checks:
            ctx = CheckContext(
                check=check, seed=seed, suite=suite, thorough=thorough
            )
            results.append(run_check(check, ctx))
    summary = {verdict: 0 for verdict in VERDICTS}
    for result in results:
        summary[result.verdict] += 1
    return {
        "version": REPORT_VERSION,
        "seed": seed,
        "suite": suite,
        "mutated": mutated,
        "checks": [result.to_json_dict() for result in results],
        "summary": summary,
    }


def exit_code(report: Mapping[str, Any]) -> int:
    """CLI exit code for a report: 1 on any mismatch, else 0."""
    return 1 if report["summary"]["mismatch"] else 0
