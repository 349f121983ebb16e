"""Unconstrained COBYLA: PRIMA's ``cobylb`` loop with no constraints.

Every optimizer call in this package is unconstrained (m = 0).  SciPy
>= 1.16 runs COBYLA as ``scipy._lib.pyprima``, a Python port of PRIMA,
whose helpers pay for the constraint machinery at m = 0.  This module
runs the same loop with numpy alone and gives the same bits: every
evaluated point, in order, and the returned ``x`` equal
``scipy.optimize.minimize(method="COBYLA")``'s on such a SciPy, and the
``cobyla-vs-scipy`` verify check holds the two to that.  Nothing here
imports SciPy.

What runs here, and why each simplification is exact at m = 0:

* **The options** (:func:`_preproc_rhoend`).  Of ``preproc``'s checks
  only the ``rhoend``/``rhobeg`` adjustment can change a value that
  :func:`~repro.baselines.optimizer.minimize_cobyla` passes: its
  ``rhobeg`` is finite and positive, its ``maxfun`` at least ``n + 2``,
  and ``eta1``, ``eta2``, ``gamma1``, ``gamma2``, ``ftarget``, ``ctol``
  and ``cweight`` are ``cobyla()``'s valid defaults.
* **No penalty update.**  ``getcpen`` works on copies of the simplex;
  with no constraints the predicted constraint reduction is
  ``cval[n] - max(0, ∅) = 0``, so it returns the penalty it was given.
  ``fcratio`` returns 0 for an empty constraint matrix, so the penalty
  stays ``cpen = EPS``.  Every constraint violation is ``max(0, ∅) = 0``,
  so the merit function ``f + cpen * cstrv`` is ``f + 0.0``.
* **The pole** (:func:`_findpole`, :func:`_updatepole`).  With every
  ``cval`` zero, ``findpole`` keeps ``jopt = n`` unless
  ``fval.min() < fval[n]``, and then takes the first ``argmin``; its
  masked-array ``argmin`` over ``cval`` and the ``conmat``/``cval``
  swaps are dead.  The pole shift, the ``erri`` test of ``simi`` and the
  ``inv`` repair are pyprima's.  ``cobylb`` calls ``updatepole`` at the
  head of every trust-region step and after every reduction of rho;
  only the first call can change anything (the argument is in
  :func:`minimize_unconstrained`).
* **The initial** ``simi`` (:func:`_initxfc`).  ``initxfc`` leaves a
  lower triangular ``sim[:, :n]`` with diagonal ``±rhobeg`` and inverts
  it with ``inv``.  Its inverse is built in closed form instead
  (:func:`~repro.baselines.simplex.initial_simplex_inverse`): every
  entry is ``0`` or ``±fl(1 / rhobeg)``, LAPACK's bits, signed zeros
  included, whenever ``rhobeg * (1.0 / rhobeg) == 1.0``, because the LU
  multipliers are then exactly ±1.  When that guard fails ``inv`` runs
  as in pyprima.  The argument is in :mod:`repro.baselines.simplex`.
* **The simplex update** (:func:`_updatexfc`): both rank-one branches
  as pyprima writes them, including the builtin ``sum`` of one branch
  and the aliasing of ``sim_old = sim``.
* **The point to drop and the geometry step** (:func:`_setdrop_tr`,
  :func:`_geostep`).  ``geostep``'s constraint terms ``cvpd`` and
  ``cvnd`` are ``max(0, ∅) = 0``.
* **Evaluation** (:meth:`_Objective.value`): ``moderatex``'s clip of
  ``x`` to ``±REALMAX`` and ``moderatef``'s clip of ``f`` to
  ``FUNCMAX``; ``moderatec`` has no constraint to moderate.
* **The break test** (:func:`_checkbreak`): the budget, then a NaN
  ``f``, then a non-finite ``x``, in ``checkbreak_con``'s precedence;
  the target test needs ``f <= -inf``, which a moderated ``f`` never
  meets.
* **The filter.**  With every ``cstrv = 0``, ``savefilt`` keeps exactly
  one point: the first, in its call order, that reaches the lowest
  ``f``.  (pyprima's ``isbetter`` ranks a NaN ``f``, which only a NaN
  ``x`` gives, above any number, and ``selectx`` takes the last of
  several NaNs.)  The driver keeps that ``(fbest, xbest)`` pair.
* **The trust-region step** (:func:`_trstlp_unconstrained`): ``trstlp``
  reduced to m = 0, every branch of its ``planerot`` included.
* **Dropped outright**: ``savehist`` and the ``fmsg``/``rhomsg``/
  ``retmsg`` printers (the history is never returned and ``iprint`` is
  0), and the front ends' bound and constraint processing.

Reductions keep pyprima's order, through numpy's entry points rather
than the Python-level wrappers pyprima calls, which cost more than the
arithmetic at these sizes.  Each gives the bits of the call it replaces:
``np.add.reduce`` with the same axis for ``primasum`` (``np.sum`` is
that reduction behind ``_wrapreduction``), and likewise
``np.minimum.reduce``, ``np.maximum.reduce``, ``.argmin()`` and
``.argmax()``; ``a.dot(b)`` for ``inprod`` (``np.dot``'s C routine);
``math.sqrt(d.dot(d))`` for ``norm`` (``np.linalg.norm``'s formula for
a vector, and both square roots round correctly); a broadcast product
``a[:, np.newaxis] * b`` for ``outprod`` (``np.outer``'s definition);
a copy for ``moderatex``'s clip of a finite ``x``.  ``redrat``,
``trrad`` and ``redrho`` are ported as scalar functions, with ``math``
tests for pyprima's ``np.isnan`` and ``np.isposinf``.

Left as pyprima has them, since each would change bits: ``@`` for
``matprod``, ``x * x`` for ``primapow2``, every BLAS ``dot`` (OpenBLAS
may fuse a multiply-add, so a two-entry ``pair.dot(pair)`` is not
``a*a + b*b`` in general), ``np.hypot`` (libm's, which ``math.hypot``
is not), the builtin ``sum`` in :func:`_updatexfc`, ``np.linalg.inv``
and every reduction axis.  What scipy's ``ScalarFunction`` does around
the loss is kept too (see :class:`_Objective`).

The control flow of :func:`minimize_unconstrained` and of the helpers
is adapted from ``cobylb``, ``initialize``, ``update``, ``geometry``,
``evaluate``, ``checkbreak``, ``selectx``, ``trustregion``, ``powalg``,
``linalg`` and ``preproc`` in PRIMA (https://github.com/libprima/prima),
as translated to Python by Nickolai Belakovski for ``scipy._lib.pyprima``;
the constants and exit codes are PRIMA's ``consts`` and ``infos``:

    Copyright (c) Zaikun Zhang (www.zhangzk.net).  All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright
       notice, this list of conditions and the following disclaimer in
       the documentation and/or other materials provided with the
       distribution.
    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    HOLDER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.simplex import initial_simplex_inverse
from repro.exceptions import SolverError

# PRIMA's constants (``consts``), as float64 scalars like pyprima's.
EPS = np.finfo(float).eps
REALMIN = np.finfo(float).tiny
REALMAX = np.finfo(float).max
FUNCMAX = 10.0**30
ETA1_DEFAULT = 0.1
GAMMA1_DEFAULT = 0.5
GAMMA2_DEFAULT = 2
RHOEND_DEFAULT = 1e-6

# PRIMA's exit codes (``infos``) that an m = 0 run can return.
INFO_DEFAULT = 0
SMALL_TR_RADIUS = 0
MAXFUN_REACHED = 3
MAXTR_REACHED = 20
NAN_INF_X = -1
NAN_INF_F = -2
DAMAGING_ROUNDING = 7

#: scipy's ``tol`` default for COBYLA, passed to PRIMA as ``rhoend``.
RHOEND = 1e-4

#: PRIMA exit codes by the name the ``optimizer.cobyla`` span reports;
#: any other code reads ``status_<code>``.
STOP_REASONS = {
    SMALL_TR_RADIUS: "small_radius",
    MAXFUN_REACHED: "max_evaluations",
    DAMAGING_ROUNDING: "damaging_rounding",
    MAXTR_REACHED: "max_tr_steps",
}

#: The penalty parameter: ``getcpen`` and ``fcratio`` never move it at m = 0.
_CPEN = EPS

#: ``updatepole``'s and ``updatexfc``'s tolerance on ``simi @ sim - I``.
_ITOL = 1


class CobylaRun(NamedTuple):
    """Outcome of one unconstrained COBYLA run."""

    x: np.ndarray
    #: Calls made to the loss.
    evaluations: int
    #: Why COBYLA stopped (see :data:`STOP_REASONS`).
    stop: str
    #: Trust-region steps taken.
    tr_steps: int


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


class _Objective:
    """scipy's ``ScalarFunction`` contract around the loss.

    The loss gets a copy of the point; a non-scalar result is reduced
    with ``.item()``; and a repeat of the last evaluated point returns
    the cached value without calling the loss.  The memo matters: a
    sampled objective draws from its RNG on every call, so one extra
    call would shift every later draw.  Unlike scipy, a NaN or infinite
    value is refused (:func:`check_finite_loss`).
    """

    __slots__ = ("loss", "x", "f", "calls")

    def __init__(self, loss: Callable[[np.ndarray], float], x0: np.ndarray):
        self.loss = loss
        self.calls = 0
        self.f = None
        self._call(np.array(x0, dtype=float))

    def _call(self, x: np.ndarray) -> None:
        """Call the loss at ``x``, which this object then owns."""
        self.x = x
        fx = self.loss(x.copy())
        self.calls += 1
        if type(fx) is not float and not np.isscalar(fx):
            try:
                fx = np.asarray(fx).item()
            except (TypeError, ValueError) as error:
                raise ValueError(
                    "The user-provided objective function "
                    "must return a scalar value."
                ) from error
        check_finite_loss(fx, self.calls)
        self.f = fx

    def value(self, x: np.ndarray) -> float:
        """PRIMA's ``evaluate`` at m = 0: the moderated loss at ``x``.

        A NaN in ``x`` gives ``f = sum(x)`` without calling the loss, as
        in pyprima.  Otherwise the loss sees ``x`` clipped to
        ``±REALMAX`` (``moderatex``, a copy), through the memo; the clip
        of a finite ``x`` is a plain copy.
        """
        if np.isfinite(x).all():
            x = x.copy()
        elif np.isnan(x).any():
            return np.sum(x)
        else:
            x = np.clip(x, -REALMAX, REALMAX)
        # np.array_equal on two n-vectors, as scipy's memo compares them.
        if not (x == self.x).all():
            self._call(x)
        return _moderatef(self.f)


def _moderatef(f) -> float:
    """``moderatef`` of a finite value: values above ``FUNCMAX`` become it.

    pyprima's ``np.clip`` runs only where it changes the value; ``float``
    then stores what pyprima's ``float64`` arrays would (an integer
    rounds once, a ``float32`` converts exactly).
    """
    if f <= FUNCMAX:
        return float(f)
    return float(np.clip(f, -REALMAX, FUNCMAX))


def minimize_unconstrained(
    loss: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maxfun: int,
    rhobeg: float,
) -> CobylaRun:
    """Minimise ``loss`` from a finite float vector ``x0`` with COBYLA.

    Equivalent to ``scipy.optimize.minimize(loss, x0, method="COBYLA",
    options={"maxiter": maxfun, "rhobeg": rhobeg})``, including every
    point handed to ``loss``, for a finite positive ``rhobeg`` and a
    ``maxfun`` of at least ``x0.size + 2``.
    """
    objective = _Objective(loss, x0)
    num_vars = x0.size
    rhoend = _preproc_rhoend(rhobeg, RHOEND)
    eta1 = ETA1_DEFAULT
    # cobyla() derives eta2 from eta1; PRIMA's ETA2_DEFAULT differs in
    # the last bit (0.7 against 0.7000000000000001).
    eta2 = (eta1 + 2) / 3
    gamma1 = GAMMA1_DEFAULT
    gamma2 = GAMMA2_DEFAULT
    x = np.array(x0, dtype=float)
    sim, simi, fval, evaluated, info = _initxfc(
        objective, maxfun, _moderatef(objective.f), rhobeg, x
    )
    nf = int(np.count_nonzero(evaluated))
    fbest, xbest = _initfilt(sim, fval, evaluated)
    if info != INFO_DEFAULT:
        return _finish(xbest, objective, info)

    distsq = np.zeros(num_vars + 1)
    rho = rhobeg
    delta = rhobeg
    shortd = False
    ratio = -1
    jdrop_tr = 0
    gamma3 = float(np.maximum(1, np.minimum(0.75 * gamma2, 1.5)))
    maxtr = 10 * maxfun
    tr_steps = 0
    # cobylb calls updatepole at the head of every trust-region step and
    # after every reduction of rho.  Only this first call can change
    # anything.  The penalty never changes (_CPEN), and from here on
    # sim, simi and fval change only in _updatexfc, which leaves the
    # lowest f at the pole (jopt = n) and a simi that passed the erri
    # test against the same sim.  The later calls would repeat that
    # test on unchanged arrays: no switch, no repair, no DAMAGING_ROUNDING.
    sim, simi, info = _updatepole(sim, simi, fval)
    if info == DAMAGING_ROUNDING:
        # cobylb would reach its final step with d unbound and raise.
        return _finish(xbest, objective, info)
    info = MAXTR_REACHED
    for _ in range(maxtr):
        column_sq = np.add.reduce(sim[:, :num_vars] * sim[:, :num_vars], axis=0)
        adequate_geo = (column_sq <= 4 * (delta * delta)).all()
        g = (fval[:num_vars] - fval[num_vars]) @ simi
        d = _trstlp_unconstrained(g, delta)
        tr_steps += 1
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        preref = -d.dot(g)
        prerem = preref + 0.0  # + cpen * prerec, and prerec = cval[n] - 0 = 0
        trfail = not (prerem > 1.0e-6 * min(_CPEN, 1) * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= gamma3 * rho:
                delta = rho
        else:
            x = sim[:, num_vars] + d
            f, fresh = _evaluate_near(objective, x, sim, fval, distsq, rhoend)
            if fresh:
                nf += 1
                if f < fbest or math.isnan(f):
                    fbest, xbest = f, x
            # The merit function f + cpen * cstrv, with every cstrv = 0.
            actrem = (fval[num_vars] + 0.0) - (f + 0.0)
            ratio = _redrat(actrem, prerem, eta1)
            delta = _trrad(delta, dnorm, eta1, eta2, gamma1, gamma2, ratio)
            if delta <= gamma3 * rho:
                delta = rho
            ximproved = actrem > 0
            jdrop_tr = _setdrop_tr(ximproved, d, delta, rho, sim, simi)
            # jdrop_tr is None only when no score is positive: simi @ d
            # is all zero or NaN, which an invertible simi and a step
            # that passed trfail (d != 0) never give.  PRIMA then keeps
            # the simplex.  (pyprima's updatexfc returns its arrays in
            # another order there, which its next updatepole could not
            # use.)
            if jdrop_tr is not None:
                sim, simi, subinfo = _updatexfc(jdrop_tr, d, f, fval, sim, simi)
                if subinfo == DAMAGING_ROUNDING:
                    info = subinfo
                    break
            subinfo = _checkbreak(maxfun, nf, f, x)
            if subinfo != INFO_DEFAULT:
                info = subinfo
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        improve_geo = bad_trstep and not adequate_geo
        reduce_rho = bad_trstep and adequate_geo and max(delta, dnorm) <= rho

        if improve_geo:
            column_sq = np.add.reduce(sim[:, :num_vars] * sim[:, :num_vars], axis=0)
            if not (column_sq <= 4 * (delta * delta)).all():
                jdrop_geo = column_sq.argmax()
                d = _geostep(jdrop_geo, delta / 2, fval, simi)
                x = sim[:, num_vars] + d
                f, fresh = _evaluate_near(objective, x, sim, fval, distsq, rhoend)
                if fresh:
                    nf += 1
                    if f < fbest or math.isnan(f):
                        fbest, xbest = f, x
                sim, simi, subinfo = _updatexfc(jdrop_geo, d, f, fval, sim, simi)
                if subinfo == DAMAGING_ROUNDING:
                    info = subinfo
                    break
                subinfo = _checkbreak(maxfun, nf, f, x)
                if subinfo != INFO_DEFAULT:
                    info = subinfo
                    break

        if reduce_rho:
            if rho <= rhoend:
                info = SMALL_TR_RADIUS
                break
            rho_next = _redrho(rho, rhoend)
            delta = max(0.5 * rho, rho_next)
            rho = rho_next
            # cobylb's updatepole here is a no-op (see above).

    # cobylb's final step: try the last trust-region step if it was short.
    x = sim[:, num_vars] + d
    if (
        info == SMALL_TR_RADIUS
        and shortd
        and np.linalg.norm(x - sim[:, num_vars]) > 1.0e-3 * rhoend
        and nf < maxfun
    ):
        f = objective.value(x)
        nf += 1
        if f < fbest or math.isnan(f):
            fbest, xbest = f, x
    return _finish(xbest, objective, info, tr_steps)


def _preproc_rhoend(rhobeg: float, rhoend: float) -> float:
    """``preproc``'s ``rhoend`` for a finite positive ``rhobeg``.

    A ``rhoend`` within ``100 * EPS`` (relative) of ``rhobeg`` becomes
    ``rhobeg``; one above ``rhobeg`` becomes ``max(EPS, min(0.1 *
    rhobeg, RHOEND_DEFAULT))``, with PRIMA's warning.  ``preproc``'s
    other checks change none of the options this module passes.
    """
    if abs(rhobeg - rhoend) < 1.0e2 * EPS * max(abs(rhobeg), 1):
        rhoend = rhobeg
    if rhobeg < rhoend:
        rhoend = max(EPS, min(0.1 * rhobeg, RHOEND_DEFAULT))
        warnings.warn(
            "COBYLA: Invalid RHOEND; it should be a positive number and "
            f"RHOEND <= RHOBEG; it is set to {rhoend}"
        )
    return rhoend


def _initxfc(
    objective: _Objective, maxfun: int, f0: float, rhobeg: float, x0: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """``initxfc`` at m = 0: ``(sim, simi, fval, evaluated, info)``.

    Evaluates ``x0 + rhobeg * e_j`` for each j; whenever a vertex beats
    the pole it becomes the pole, which keeps ``sim[:, :n]`` lower
    triangular.  ``simi`` is ``inv(sim[:, :n])`` once every vertex is
    in, written down in closed form where that gives ``inv``'s bits.
    """
    num_vars = x0.size
    sim = np.eye(num_vars, num_vars + 1) * rhobeg
    sim[:, num_vars] = x0
    simi = np.eye(num_vars) / rhobeg
    evaluated = np.zeros(num_vars + 1, dtype=bool)
    fval = np.zeros(num_vars + 1) + REALMAX
    info = INFO_DEFAULT
    for k in range(num_vars + 1):
        x = sim[:, num_vars].copy()
        if k == 0:
            j = num_vars
            f = f0
        else:
            j = k - 1
            x[j] += rhobeg
            f = objective.value(x)
        evaluated[j] = True
        fval[j] = f
        info = _checkbreak(maxfun, k, f, x)
        if info != INFO_DEFAULT:
            break
        if j < num_vars and fval[j] < fval[num_vars]:
            fval[j], fval[num_vars] = fval[num_vars], fval[j]
            sim[:, num_vars] = x
            sim[j, : j + 1] = -rhobeg
    if evaluated.all():
        simi = initial_simplex_inverse(sim[:, :num_vars], rhobeg)
    return sim, simi, fval, evaluated, info


def _initfilt(
    sim: np.ndarray, fval: np.ndarray, evaluated: np.ndarray
) -> Tuple[float, np.ndarray]:
    """``initfilt`` at m = 0: the filter's one ``(f, x)`` entry.

    ``savefilt`` sees the evaluated vertices in column order, each point
    rebuilt as ``sim[:, i] + sim[:, n]`` (the pole is ``sim[:, n]``).
    """
    num_vars = sim.shape[0]
    fbest = xbest = None
    for i in np.flatnonzero(evaluated):
        if i < num_vars:
            x = sim[:, i] + sim[:, num_vars]
        else:
            x = sim[:, num_vars].copy()
        f = fval[i]
        if fbest is None or f < fbest or math.isnan(f):
            fbest, xbest = f, x
    return fbest, xbest


def _checkbreak(maxfun: int, nf: int, f: float, x: np.ndarray) -> int:
    """``checkbreak_con`` with ``cstrv = 0`` and ``ftarget = -inf``."""
    if nf >= maxfun:
        return MAXFUN_REACHED
    # f is moderated: it is NaN only when x is, and never +inf or -inf.
    if math.isnan(f):
        return NAN_INF_F
    if not np.isfinite(x).all():
        return NAN_INF_X
    return INFO_DEFAULT


def _findpole(fval: np.ndarray) -> int:
    """``findpole(EPS, 0, fval)``: the vertex with the lowest ``f``.

    The pole (index n) stays unless a vertex is strictly lower; then the
    first of the lowest.  A NaN in ``fval`` follows pyprima's builtin
    ``min`` (which skips a NaN after the first entry) and its masked
    ``argmin`` (which does not mask a NaN).
    """
    num_vars = fval.size - 1
    fmin = np.minimum.reduce(fval)
    if fmin < fval[num_vars]:
        return int(fval.argmin())
    if not math.isnan(fmin):
        return num_vars
    fmin = min(fval)
    if fmin < fval[num_vars]:
        return int(np.flatnonzero(~(fval > fmin))[0])
    return num_vars


def _erri(simi: np.ndarray, sim: np.ndarray) -> float:
    """``max |simi @ sim[:, :n] - I|``; NaN if any entry is NaN."""
    num_vars = sim.shape[0]
    product = simi @ sim[:, :num_vars]
    # The matmul's result is contiguous, so ravel is a view onto it.
    product.ravel()[:: num_vars + 1] -= 1.0
    return np.maximum.reduce(np.abs(product), axis=None)


def _repaired(sim: np.ndarray, simi: np.ndarray) -> Tuple[np.ndarray, float]:
    """pyprima's ``erri`` test of ``simi``: ``(simi, erri)``.

    When ``simi`` is off by more than ``0.1 * _ITOL``, ``inv`` computes
    it afresh, and the fresh one is kept if it does better.
    """
    erri = _erri(simi, sim)
    if erri > 0.1 * _ITOL or math.isnan(erri):
        simi_test = np.linalg.inv(sim[:, : sim.shape[0]])
        erri_test = _erri(simi_test, sim)
        if erri_test < erri or (math.isnan(erri) and not math.isnan(erri_test)):
            return simi_test, erri_test
    return simi, erri


def _updatepole(
    sim: np.ndarray, simi: np.ndarray, fval: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``updatepole`` at m = 0: ``(sim, simi, info)``; ``fval`` in place.

    Moves the lowest vertex (:func:`_findpole`) to the pole and updates
    ``simi`` to match; on ``DAMAGING_ROUNDING`` returns the simplex as
    it was.  ``sim`` and ``simi`` are updated in place otherwise.
    """
    num_vars = sim.shape[0]
    jopt = _findpole(fval)
    sim_old = simi_old = None
    if jopt < num_vars:
        sim_old = sim.copy()
        simi_old = simi.copy()
        sim[:, num_vars] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :num_vars] -= sim_jopt[:, np.newaxis]
        simi[jopt, :] = -np.add.reduce(simi, axis=0)
    simi_in = simi
    simi, erri = _repaired(sim, simi)
    if erri <= _ITOL:
        if jopt < num_vars:
            fval[jopt], fval[num_vars] = fval[num_vars], fval[jopt]
        return sim, simi, INFO_DEFAULT
    # pyprima restores copies taken before the switch; with no switch
    # the arrays it was given are unchanged.
    if sim_old is None:
        return sim, simi_in, DAMAGING_ROUNDING
    return sim_old, simi_old, DAMAGING_ROUNDING


def _updatexfc(
    jdrop: int,
    d: np.ndarray,
    f: float,
    fval: np.ndarray,
    sim: np.ndarray,
    simi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``updatexfc`` at m = 0: ``(sim, simi, info)``; ``fval`` in place.

    Replaces vertex ``jdrop`` by ``sim[:, n] + d`` (value ``f``) with a
    rank-one update of ``simi``, then moves the lowest vertex to the
    pole.  As in pyprima, ``sim`` and ``simi`` are updated in place and
    ``DAMAGING_ROUNDING`` returns them as updated (``sim_old = sim`` is
    no copy there), with ``fval`` untouched.
    """
    num_vars = sim.shape[0]
    sim_old = sim
    simi_old = simi
    if jdrop < num_vars:
        sim[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / simi[jdrop, :].dot(d)
        simi -= (simi @ d)[:, np.newaxis] * simi_jdrop
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, num_vars] += d
        sim[:, :num_vars] -= d[:, np.newaxis]
        simid = simi @ d
        sum_simi = np.add.reduce(simi, axis=0)
        # The builtin sum, as in pyprima: a left-to-right sum, which
        # np.sum is not.
        simi += simid[:, np.newaxis] * (sum_simi / (1 - sum(simid)))
    simi, erri = _repaired(sim, simi)
    if not erri <= _ITOL:
        return sim_old, simi_old, DAMAGING_ROUNDING
    fval[jdrop] = f
    # updatepole: when the pole stays, its erri test would repeat the
    # one above on the same arrays and change nothing.
    if _findpole(fval) < num_vars:
        return _updatepole(sim, simi, fval)
    return sim, simi, INFO_DEFAULT


def _setdrop_tr(
    ximproved: bool,
    d: np.ndarray,
    delta: float,
    rho: float,
    sim: np.ndarray,
    simi: np.ndarray,
) -> Optional[int]:
    """``setdrop_tr``: the vertex the trust-region point replaces, or None."""
    num_vars = sim.shape[0]
    distsq = np.zeros(num_vars + 1)
    if ximproved:
        shifted = sim[:, :num_vars] - d[:, np.newaxis]
        distsq[:num_vars] = np.add.reduce(shifted * shifted, axis=0)
        distsq[num_vars] = np.add.reduce(d * d)
    else:
        distsq[:num_vars] = np.add.reduce(sim[:, :num_vars] * sim[:, :num_vars], axis=0)
    scale = max(rho, delta / 10)
    weight = np.maximum(1, distsq / (scale * scale))
    simid = simi @ d
    score = weight * np.abs(np.concatenate((simid, [1 - np.add.reduce(simid)])))
    if not ximproved:
        score[num_vars] = -1
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return score.argmax()
    if ximproved:
        return distsq.argmax()
    return None


def _geostep(
    jdrop: int, delbar: float, fval: np.ndarray, simi: np.ndarray
) -> np.ndarray:
    """``geostep`` at m = 0: a step of length ``delbar`` along ``simi[jdrop]``.

    The sign is the one that decreases the linear model of ``f``; the
    constraint terms ``cvpd`` and ``cvnd`` are ``max(0, ∅) = 0``.
    """
    num_vars = simi.shape[0]
    d = simi[jdrop, :]
    d = delbar * (d / math.sqrt(d.dot(d)))
    g = (fval[:num_vars] - fval[num_vars]) @ simi
    # pyprima compares -d.g + cpen * cvnd with d.g + cpen * cvpd; adding
    # cpen * 0 = +0.0 changes at most the sign of a zero, which < ignores.
    dg = d.dot(g)
    if -dg < dg:
        d *= -1
    return d


def _evaluate_near(
    objective: _Objective,
    x: np.ndarray,
    sim: np.ndarray,
    fval: np.ndarray,
    distsq: np.ndarray,
    rhoend: float,
) -> Tuple[float, bool]:
    """Evaluate ``x``, or reuse the simplex vertex it (almost) coincides with.

    cobylb's shared block after a trust-region or geometry step; returns
    ``(f, fresh)``, ``fresh`` false when a vertex's value was reused.
    """
    num_vars = x.size
    to_pole = x - sim[:, num_vars]
    distsq[num_vars] = np.add.reduce(to_pole * to_pole)
    to_vertices = x.reshape(num_vars, 1) - (
        sim[:, num_vars].reshape(num_vars, 1) + sim[:, :num_vars]
    )
    distsq[:num_vars] = np.add.reduce(to_vertices * to_vertices, axis=0)
    j = distsq.argmin()
    if distsq[j] <= (1e-4 * rhoend) * (1e-4 * rhoend):
        return fval[j], False
    return objective.value(x), True


def _redrat(ared: float, pred: float, rshrink: float) -> float:
    """``redrat``: the reduction ratio ``ared / pred``, safe for NaN and inf.

    pyprima's branches, with ``math`` tests for its scalar ``np.isnan``
    and ``np.isposinf``.
    """
    if math.isnan(ared):
        return -REALMAX
    if math.isnan(pred) or pred <= 0:
        return rshrink / 2 if ared > 0 else -REALMAX
    if pred == math.inf and ared == math.inf:
        return 1
    if pred == math.inf and ared == -math.inf:
        return -REALMAX
    return ared / pred


def _trrad(
    delta_in: float,
    dnorm: float,
    eta1: float,
    eta2: float,
    gamma1: float,
    gamma2: float,
    ratio: float,
) -> float:
    """``trrad``: the next trust-region radius from the step's ``ratio``."""
    if ratio <= eta1:
        return gamma1 * dnorm
    if ratio <= eta2:
        return max(gamma1 * delta_in, dnorm)
    return max(gamma1 * delta_in, gamma2 * dnorm)


def _redrho(rho_in: float, rhoend: float) -> float:
    """``redrho``: the next ``rho`` once the current one is exhausted."""
    rho_ratio = rho_in / rhoend
    if rho_ratio > 250:
        return 0.1 * rho_in
    if rho_ratio <= 16:
        return rhoend
    return math.sqrt(rho_ratio) * rhoend


#: ``planerot``'s range for its direct ``x / norm(x)`` rotation.
_ROTATION_MIN = math.sqrt(REALMIN)
_ROTATION_MAX = math.sqrt(REALMAX / 2.1)

#: ``EPS`` as a Python float, for the kernel's scalar loop.
_EPS = float(EPS)

#: ``trstlp`` rescales a gradient with an entry above this.
_TRSTLP_MAX_ENTRY = 1e12


def _isminor(x: float, ref: float) -> bool:
    """``isminor``: ``x`` is lost in rounding when added to ``ref``."""
    refa = abs(ref) + 0.1 * abs(x)
    refb = abs(ref) + 0.2 * abs(x)
    return abs(ref) >= refa or refa >= refb


def _planerot(x0: float, x1: float, pair: np.ndarray) -> Tuple[float, float]:
    """``planerot([x0, x1])`` as ``(c, s)``, for finite ``x`` and ``x1 != 0``.

    ``pair`` is a 2-vector to compute ``norm(x)`` in, as numpy does.
    The NaN, infinite and all-zero branches cannot be reached here.
    """
    if abs(x1) <= _EPS * abs(x0):
        return math.copysign(1.0, x0), 0.0
    if abs(x0) <= _EPS * abs(x1):
        return 0.0, math.copysign(1.0, x1)
    if (
        _ROTATION_MIN < abs(x0) < _ROTATION_MAX
        and _ROTATION_MIN < abs(x1) < _ROTATION_MAX
    ):
        # np.linalg.norm(x) is sqrt(x.dot(x)); a BLAS dot may fuse the
        # multiply-add, so r is not sqrt(x0*x0 + x1*x1) in general.
        pair[0] = x0
        pair[1] = x1
        r = math.sqrt(pair.dot(pair))
        return x0 / r, x1 / r
    # Scaled to avoid under- and overflow; the max guards rounding.
    if abs(x0) > abs(x1):
        t = x1 / x0
        u = math.copysign(max(1.0, abs(t), math.sqrt(1 + t * t)), x0)
        return 1 / u, t / u
    t = x0 / x1
    u = math.copysign(max(1.0, abs(t), math.sqrt(1 + t * t)), x1)
    return t / u, 1 / u


def _trstlp_unconstrained(g: np.ndarray, delta: float) -> np.ndarray:
    """``trstlp(A, b, delta, g)`` for an ``n x 0`` ``A``, bit for bit.

    With no constraints, ``trstlp``'s stage 1 returns at once (``d = 0``,
    ``z = I``) and stage 2 runs one iteration on the objective column
    ``g``, scaled by ``1 / max|g|`` if an entry is above 1e12:

    * A ``g`` with a NaN or an infinity gives ``d = 0``: ``inprod`` and
      ``qradd_Rdiag``'s ``g @ I`` meet ``inf * 0`` or ``NaN``, ``isminor``
      zeroes an infinite entry, no Givens step runs, and no column is
      added, so ``trstlp`` stops before it moves ``d``.
    * ``qradd_Rdiag(g, I, ., 0)`` sets ``cq = g @ I``, which is ``g``
      exactly for a finite ``g`` (each sum has one nonzero term), with
      the entries that ``isminor(g_i, |g_i|)`` finds (zeros, and the
      tiniest subnormals) set to 0.  It then sweeps Givens rotations
      bottom-up: for k = n-2, ..., 0, if ``cq[k+1] != 0``,
      ``G = planerot(cq[k:k+2])``, ``Q[:, [k, k+1]] @= G.T`` and
      ``cq[k] = hypot(cq[k], cq[k+1])``.  Only ``v = Q[:, 0]`` and
      ``zdota = cq[0]`` are used afterwards.  Column k is still ``e_k``
      when step k reaches it, so every entry of the 2 x 2 product has
      one exactly-zero term and ``v *= s; v[k] = c`` gives the same
      bits; a skipped step leaves column k as ``e_k`` and ``cq[k]`` as
      it was, so the sweep goes on from ``v = e_k``.
    * The column is added only if ``|zdota| > EPS**2`` and not
      ``isminor(zdota, |g_0|)``; otherwise ``trstlp`` returns ``d = 0``.
    * ``sdirn = -1/zdota * v``; from ``d = 0`` the step to the
      trust-region boundary is ``step * sdirn``, with ``sd = 0`` in the
      step-length formula.
    * The multiplier fraction is then 1, so ``d`` becomes that step
      (see the comment at the return).
    """
    num_vars = g.size
    magnitude = np.abs(g)
    top = np.maximum.reduce(magnitude)
    # A NaN or an infinity fails the first test; trstlp's stage 2
    # returns at once when 0 >= delta**2.
    if not (top <= REALMAX and delta * delta > 0):
        return np.zeros(num_vars)
    if top > _TRSTLP_MAX_ENTRY:
        g = g * max(2 * REALMIN, 1 / top)
        magnitude = np.abs(g)
    entries = g.tolist()
    # qradd_Rdiag's cqa = |g| @ I; only cqa[0] is read after the filter.
    first = abs(entries[0])
    if not np.minimum.reduce(magnitude) > REALMIN:
        # Only a zero or a subnormal can be minor to its own magnitude.
        entries = [0.0 if _isminor(x, abs(x)) else x for x in entries]
    v = np.zeros(num_vars)
    v[-1] = 1.0
    pair = np.empty(2)
    zdota = entries[-1]
    for k in range(num_vars - 2, -1, -1):
        gk = entries[k]
        if zdota == 0:
            # qradd_Rdiag skips the rotation: column k stays e_k.
            v[k + 1:] = 0.0
            v[k] = 1.0
            zdota = gk
            continue
        c, s = _planerot(gk, zdota, pair)
        v[k + 1:] *= s
        v[k] = c
        # libm's hypot, which math.hypot is not.
        zdota = float(np.hypot(gk, zdota))
    if not (abs(zdota) > _EPS * _EPS and not _isminor(zdota, first)):
        return np.zeros(num_vars)
    sdirn = -1 / zdota * v
    # trstlp's step to the boundary from d = 0, where sd = sdirn @ d = 0;
    # each early return is one of its breaks, taken before d moves.
    dd = delta * delta
    ss = float(sdirn.dot(sdirn))
    if ss <= _EPS * delta * delta:
        return np.zeros(num_vars)
    step = math.sqrt(ss * dd) / ss
    if not 0 < step < math.inf:
        return np.zeros(num_vars)
    # trstlp then solves lstsq(g, d_new) for the multiplier vmultd, which
    # stage 2 clamps to max(0, -lstsq) >= 0.  The step fraction takes
    # only entries with vmultd < 0, so it is 1 whatever lstsq returns,
    # and d = 0*0 + 1*d_new.  The multiplier and d are read again only
    # by a finiteness test.  |lstsq| ~ ||d_new|| / ||g|| cannot overflow:
    # ||d_new|| ~ delta < sqrt(REALMAX) (delta**2 is finite, or ss <=
    # EPS * delta**2 broke above), and ||g|| >= |zdota| > EPS**2.  So
    # lstsq is dropped.  Adding 0.0 turns -0.0 into +0.0, as trstlp's
    # 0 + d does.
    return step * sdirn + 0.0


def _finish(
    x: np.ndarray, objective: _Objective, info: int, tr_steps: int = 0
) -> CobylaRun:
    """The run's outcome; ``x`` is copied, as pyprima copies it from its filter."""
    stop = STOP_REASONS.get(info, f"status_{info}")
    return CobylaRun(x.copy(), objective.calls, stop, tr_steps)
