"""Classical optimizer drivers.

All algorithms in the paper (Rasengan and baselines) use constrained
optimization by linear approximation — COBYLA [33] — for parameter
updating.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.baselines.cobyla import minimize_unconstrained
from repro.exceptions import SolverError
from repro import telemetry


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

    The loop runs in :mod:`repro.baselines.cobyla`, bit-identically to
    ``scipy.optimize.minimize(method="COBYLA")`` on a SciPy whose COBYLA
    is PRIMA's (>= 1.16), without importing SciPy.  The
    ``optimizer.cobyla`` span records the loss ``evaluations``, the
    seconds spent inside the loss (``loss_s``), why COBYLA stopped
    (``stop``) and the trust-region steps taken (``tr_steps``).  The
    histogram ``optimizer.driver_s`` takes the span's time less the
    loss's, once per call.  A 0-d ``x0`` is read as a 1-vector, as scipy
    reads it.

    Raises:
        SolverError: when ``rhobeg`` is not a finite positive number
            (PRIMA would warn and start with a radius of 1); when ``x0``
            has more than one dimension, or holds a NaN or an infinity
            (scipy would silently start from a different point); or when
            ``loss`` returns a NaN or an infinity (PRIMA would replace
            it, or work on with it).
    """
    if not (math.isfinite(rhobeg) and rhobeg > 0):
        raise SolverError(
            f"COBYLA rhobeg must be a finite positive number, got {rhobeg!r}"
        )
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
    loss = _TimedLoss(loss)
    with telemetry.span(
        "optimizer.cobyla", dimensions=int(x0.size), budget=budget
    ) as span:
        started = time.perf_counter()
        run = minimize_unconstrained(loss, x0, budget, rhobeg)
        span.set(
            stop=run.stop,
            tr_steps=run.tr_steps,
            evaluations=run.evaluations,
            loss_s=loss.seconds,
        )
        telemetry.add("optimizer.evaluations", run.evaluations)
        telemetry.observe(
            "optimizer.driver_s", time.perf_counter() - started - loss.seconds
        )
    return run.x


class _TimedLoss:
    """``loss``, summing the wall-clock seconds spent inside it."""

    __slots__ = ("loss", "seconds")

    def __init__(self, loss: Callable[[np.ndarray], float]):
        self.loss = loss
        self.seconds = 0.0

    def __call__(self, x: np.ndarray):
        start = time.perf_counter()
        try:
            return self.loss(x)
        finally:
            self.seconds += time.perf_counter() - start
