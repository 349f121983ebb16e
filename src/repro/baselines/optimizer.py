"""Classical optimizer drivers.

All algorithms in the paper (Rasengan and baselines) use constrained
optimization by linear approximation — COBYLA [33] — for parameter
updating.  A small SPSA implementation is provided as well because it is
the customary alternative for shot-noise-dominated landscapes; tests use
it to cross-check optimizer-agnostic behaviour.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable

import numpy as np
from scipy import optimize as sciopt

from repro.exceptions import SolverError
from repro.simulators.seeding import SeedLike, make_rng
from repro import telemetry


@functools.cache
def _unconstrained():
    """:mod:`repro.baselines.cobyla`, or ``None`` on a scipy without pyprima.

    The module reuses ``scipy._lib.pyprima`` (scipy >= 1.16); on an
    older scipy its import fails and
    :func:`minimize_cobyla` calls ``scipy.optimize.minimize`` instead.
    Loaded on first use, as scipy loads pyprima, so importing
    :mod:`repro` does not pay for it.
    """
    try:
        return importlib.import_module("repro.baselines.cobyla")
    except ImportError:
        return None


def minimize_cobyla(
    loss: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iterations: int = 300,
    rhobeg: float = 0.5,
) -> np.ndarray:
    """COBYLA minimisation; returns the best parameter vector found.

    The evaluation budget is raised to COBYLA's minimum of ``x0.size + 2``
    (the initial simplex) when ``max_iterations`` is below it.  SciPy's
    COBYLA applies the same floor itself, with a ``UserWarning``; passing
    the floored value gives the same result without the warning.

    With pyprima available the loop runs in :mod:`repro.baselines.cobyla`,
    bit-identically to ``scipy.optimize.minimize(method="COBYLA")``;
    otherwise scipy runs it.  The ``optimizer.cobyla`` span records the
    loss ``evaluations`` and why COBYLA stopped (``stop``); on the
    in-repo loop also the trust-region steps taken (``tr_steps``) and
    how many of them pyprima's general ``trstlp`` served
    (``tr_fallbacks``).  A 0-d ``x0`` is read as a 1-vector, as scipy
    reads it.

    Raises:
        SolverError: when ``x0`` has more than one dimension, or holds a
            NaN or an infinity (scipy would silently start from a
            different point); or when ``loss`` returns a NaN or an
            infinity (PRIMA would replace it, or work on with it).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1:
        raise SolverError(
            f"COBYLA start point must be one-dimensional, got shape {x0.shape}"
        )
    if x0.size == 0:
        return x0
    if not np.isfinite(x0).all():
        raise SolverError(f"COBYLA start point must be finite, got {x0!r}")
    budget = max(max_iterations, x0.size + 2)
    with telemetry.span(
        "optimizer.cobyla", dimensions=int(x0.size), budget=budget
    ) as span:
        unconstrained = _unconstrained()
        if unconstrained is not None:
            run = unconstrained.minimize_unconstrained(loss, x0, budget, rhobeg)
            x, evaluations = run.x, run.evaluations
            span.set(
                stop=run.stop,
                tr_steps=run.tr_steps,
                tr_fallbacks=run.tr_fallbacks,
            )
        else:
            outcome = sciopt.minimize(
                _refusing_non_finite(loss),
                x0,
                method="COBYLA",
                options={"maxiter": budget, "rhobeg": rhobeg},
            )
            x, evaluations = outcome.x, int(outcome.nfev)
            span.set(stop=_fallback_stop(outcome, budget))
        span.set(evaluations=evaluations)
        telemetry.add("optimizer.evaluations", evaluations)
    return np.asarray(x, dtype=float)


def check_finite_loss(value, evaluation: int) -> None:
    """Refuse a NaN or infinite loss ``value`` from call ``evaluation``.

    COBYLA cannot use such a value: PRIMA replaces NaN and ``+inf``
    with a large finite number and runs on ``-inf`` into NaN arithmetic.
    ``evaluation`` counts the calls made to the loss, from 1.

    Raises:
        SolverError: naming the value and the evaluation.
    """
    if not np.isfinite(value):
        raise SolverError(
            f"COBYLA loss returned {value} on evaluation {evaluation}; "
            "the loss must be finite"
        )


def _refusing_non_finite(loss: Callable[[np.ndarray], float]):
    """``loss`` with :func:`check_finite_loss` applied, for scipy's COBYLA.

    The value is checked as scipy scalarises it (``.item()`` of a
    one-element result) and handed on unchanged.
    """
    calls = 0

    def checked(x: np.ndarray):
        nonlocal calls
        value = loss(x)
        calls += 1
        if np.size(value) == 1:
            check_finite_loss(np.asarray(value).item(), calls)
        return value

    return checked


def _fallback_stop(outcome: sciopt.OptimizeResult, budget: int) -> str:
    """Stop reason from a scipy result, whichever COBYLA scipy ran.

    Status codes differ between scipy's PRIMA port and its older
    Fortran COBYLA, so the two common cases are read from ``nfev`` and
    ``success`` instead; any other stop reports the raw ``status``.
    """
    if outcome.nfev >= budget:
        return "max_evaluations"
    if outcome.success:
        return "small_radius"
    return f"status_{int(outcome.status)}"


def minimize_spsa(
    loss: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iterations: int = 300,
    a: float = 0.2,
    c: float = 0.15,
    seed: SeedLike = None,
) -> np.ndarray:
    """Simultaneous-perturbation stochastic approximation.

    Two loss evaluations per iteration regardless of dimension; standard
    gain schedules ``a_k = a / (k+1)^0.602`` and ``c_k = c / (k+1)^0.101``.
    """
    rng = make_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return x
    with telemetry.span(
        "optimizer.spsa", dimensions=int(x.size), budget=max_iterations
    ):
        best_x = x.copy()
        best_value = loss(x)
        for k in range(max_iterations):
            telemetry.add("optimizer.iterations")
            ak = a / (k + 1) ** 0.602
            ck = c / (k + 1) ** 0.101
            delta = rng.choice((-1.0, 1.0), size=x.shape)
            plus = loss(x + ck * delta)
            minus = loss(x - ck * delta)
            gradient = (plus - minus) / (2.0 * ck) * delta
            x = x - ak * gradient
            value = min(plus, minus)
            if value < best_value:
                best_value = value
                best_x = x.copy()
        final = loss(x)
        if final < best_value:
            best_x = x
    return best_x
