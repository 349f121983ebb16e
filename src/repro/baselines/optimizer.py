"""Classical optimizer drivers.

All algorithms in the paper (Rasengan and baselines) use constrained
optimization by linear approximation — COBYLA [33] — for parameter
updating.  A small SPSA implementation is provided as well because it is
the customary alternative for shot-noise-dominated landscapes; tests use
it to cross-check optimizer-agnostic behaviour.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import optimize as sciopt

from repro.simulators.seeding import SeedLike, make_rng
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
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.size == 0:
        return x0
    budget = max(max_iterations, x0.size + 2)
    with telemetry.span(
        "optimizer.cobyla", dimensions=int(x0.size), budget=budget
    ):
        outcome = sciopt.minimize(
            loss,
            x0,
            method="COBYLA",
            options={"maxiter": budget, "rhobeg": rhobeg},
        )
    return np.asarray(outcome.x, dtype=float)


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
