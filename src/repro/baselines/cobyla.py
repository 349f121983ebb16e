"""Unconstrained COBYLA: PRIMA's ``cobylb`` loop with no constraints.

Every optimizer call in this package is unconstrained (m = 0).  SciPy
>= 1.16 runs COBYLA as ``scipy._lib.pyprima``, a Python port of PRIMA,
whose main loop still pays for the constraint machinery at m = 0.  This
module runs the same loop on the same pyprima helpers (``trstlp``,
``updatexfc``, ``setdrop_tr``, ``geostep``, ...) and drops only work
that cannot change a result when there are no constraints:

* ``getcpen`` works on copies of the simplex, so it has no side effects.
  With no constraints the predicted constraint reduction is
  ``cval[n] - max(0, ∅) = 0``, so its loop breaks on the first pass and
  it returns the penalty it was given.  It still costs an ``updatepole``
  and a ``trstlp`` per trust-region step.
* ``fcratio`` returns 0 for an empty constraint matrix, so the penalty
  stays ``EPS`` at the start and at every reduction of rho.
* The constraint gradients ``A`` are an ``n x 0`` matrix and every
  constraint violation is ``max(0, ∅) = 0``.
* ``savehist`` and the ``fmsg``/``rhomsg``/``retmsg`` printers: the
  history is never returned and ``iprint`` is 0.
* The ``scipy.optimize.minimize`` and pyprima ``minimize`` front ends:
  bound and constraint processing and the projection of ``x0`` are
  no-ops without bounds or constraints.

What is kept is what scipy's ``ScalarFunction`` does around the loss
(see :class:`_Objective`) and ``cobyla()``'s option derivation through
``preproc``.  Every evaluated point, in order, and the returned ``x``
are bit-identical to ``scipy.optimize.minimize(method="COBYLA")``; the
``cobyla-vs-scipy`` verify check holds the two to that.

Importing this module raises :class:`ImportError` on a scipy without
pyprima; :mod:`repro.baselines.optimizer` then calls scipy instead.

The control flow of :func:`minimize_unconstrained` is adapted from
``cobylb`` in PRIMA (https://github.com/libprima/prima), as translated
to Python by Nickolai Belakovski for ``scipy._lib.pyprima``:

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

from typing import Callable, NamedTuple

import numpy as np
from scipy._lib.pyprima.cobyla.geometry import geostep, setdrop_tr
from scipy._lib.pyprima.cobyla.initialize import initfilt, initxfc
from scipy._lib.pyprima.cobyla.trustregion import trrad, trstlp
from scipy._lib.pyprima.cobyla.update import updatepole, updatexfc
from scipy._lib.pyprima.common.checkbreak import checkbreak_con
from scipy._lib.pyprima.common.consts import (
    CWEIGHT_DEFAULT,
    EPS,
    ETA1_DEFAULT,
    GAMMA1_DEFAULT,
    GAMMA2_DEFAULT,
    MAXFUN_DIM_DEFAULT,
)
from scipy._lib.pyprima.common.evaluate import evaluate, moderatef
from scipy._lib.pyprima.common.infos import (
    DAMAGING_ROUNDING,
    INFO_DEFAULT,
    MAXFUN_REACHED,
    MAXTR_REACHED,
    SMALL_TR_RADIUS,
)
from scipy._lib.pyprima.common.linalg import inprod, matprod, norm, primapow2, primasum
from scipy._lib.pyprima.common.preproc import preproc
from scipy._lib.pyprima.common.ratio import redrat
from scipy._lib.pyprima.common.redrho import redrho
from scipy._lib.pyprima.common.selectx import savefilt, selectx

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

_NO_CONSTRAINTS = np.zeros(0)


class CobylaRun(NamedTuple):
    """Outcome of one unconstrained COBYLA run."""

    x: np.ndarray
    #: Calls made to the loss.
    evaluations: int
    #: Why COBYLA stopped (see :data:`STOP_REASONS`).
    stop: str


class _Objective:
    """scipy's ``ScalarFunction`` contract around the loss.

    The loss gets a copy of the point; a non-scalar result is reduced
    with ``.item()``; and a repeat of the last evaluated point returns
    the cached value without calling the loss.  The memo matters: a
    sampled objective draws from its RNG on every call, so one extra
    call would shift every later draw.
    """

    __slots__ = ("loss", "x", "f", "calls")

    def __init__(self, loss: Callable[[np.ndarray], float], x0: np.ndarray):
        self.loss = loss
        self.calls = 0
        self.x = None
        self.f = None
        self._evaluate(x0)

    def _evaluate(self, x: np.ndarray) -> None:
        self.x = np.array(x, dtype=float)
        fx = self.loss(np.copy(self.x))
        self.calls += 1
        if not np.isscalar(fx):
            try:
                fx = np.asarray(fx).item()
            except (TypeError, ValueError) as error:
                raise ValueError(
                    "The user-provided objective function "
                    "must return a scalar value."
                ) from error
        self.f = fx

    def __call__(self, x: np.ndarray):
        if not np.array_equal(x, self.x):
            self._evaluate(x)
        return self.f, _NO_CONSTRAINTS


def minimize_unconstrained(
    loss: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maxfun: int,
    rhobeg: float,
) -> CobylaRun:
    """Minimise ``loss`` from a finite float vector ``x0`` with COBYLA.

    Equivalent to ``scipy.optimize.minimize(loss, x0, method="COBYLA",
    options={"maxiter": maxfun, "rhobeg": rhobeg})``, including every
    point handed to ``loss``.
    """
    calcfc = _Objective(loss, x0)
    num_vars = x0.size
    eta1 = ETA1_DEFAULT
    (
        iprint,
        maxfun,
        maxhist,
        ftarget,
        rhobeg,
        rhoend,
        _,
        maxfilt,
        ctol,
        cweight,
        eta1,
        eta2,
        gamma1,
        gamma2,
        _,
    ) = preproc(
        "COBYLA",
        num_vars,
        0,
        maxfun,
        max(maxfun, num_vars + 2, MAXFUN_DIM_DEFAULT * num_vars),
        -np.inf,
        rhobeg,
        RHOEND,
        num_constraints=0,
        maxfilt=2000,
        ctol=np.sqrt(np.finfo(float).eps),
        cweight=CWEIGHT_DEFAULT,
        eta1=eta1,
        # cobyla() derives eta2 from eta1; ETA2_DEFAULT differs in the
        # last bit (0.7 against 0.7000000000000001).
        eta2=(eta1 + 2) / 3,
        gamma1=GAMMA1_DEFAULT,
        gamma2=GAMMA2_DEFAULT,
        is_constrained=False,
    )
    x = np.array(x0, dtype=float)
    f = moderatef(calcfc.f)
    constr = _NO_CONSTRAINTS
    cstrv = 0.0  # max(0, ∅): with no constraints nothing is ever violated

    evaluated, conmat, cval, sim, simi, fval, nf, subinfo = initxfc(
        calcfc, iprint, maxfun, constr, None, None, ctol, f, ftarget,
        rhobeg, x, [], [], [], [], maxhist,
    )
    cfilt = np.zeros(min(max(maxfilt, 1), maxfun))
    confilt = np.zeros((0, cfilt.size))
    ffilt = np.zeros(cfilt.size)
    xfilt = np.zeros((num_vars, cfilt.size))
    nfilt = initfilt(
        conmat, ctol, cweight, cval, fval, sim, evaluated, cfilt, confilt,
        ffilt, xfilt,
    )
    if subinfo != INFO_DEFAULT:
        kopt = selectx(ffilt[:nfilt], cfilt[:nfilt], cweight, ctol)
        return _finish(xfilt[:, kopt], calcfc, subinfo)

    A = np.zeros((num_vars, 0))
    b = np.zeros(0)
    distsq = np.zeros(num_vars + 1)
    rho = rhobeg
    delta = rhobeg
    cpen = EPS  # fcratio is 0 without constraints: cpen = max(EPS, min(1e3, 0))
    prerec = 0.0  # cval[n] - max(0, ∅), whatever the step
    shortd = False
    ratio = -1
    jdrop_tr = 0
    gamma3 = np.maximum(1, np.minimum(0.75 * gamma2, 1.5))
    maxtr = 10 * maxfun
    info = MAXTR_REACHED
    # As in cobylb, ``d`` is first bound by the trust-region step; a
    # break before the first step would leave it unbound there too.
    for _ in range(maxtr):
        conmat, cval, fval, sim, simi, subinfo = updatepole(
            cpen, conmat, cval, fval, sim, simi
        )
        if subinfo == DAMAGING_ROUNDING:
            info = subinfo
            break
        adequate_geo = all(
            primasum(primapow2(sim[:, :num_vars]), axis=0) <= 4 * primapow2(delta)
        )
        g = matprod((fval[:num_vars] - fval[num_vars]), simi)
        d = trstlp(A, b, delta, g)
        dnorm = min(delta, norm(d))
        shortd = dnorm <= 0.1 * rho
        preref = -inprod(d, g)
        prerem = preref + cpen * prerec
        trfail = not (prerem > 1.0e-6 * min(cpen, 1) * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= gamma3 * rho:
                delta = rho
        else:
            x = sim[:, num_vars] + d
            f, constr, nf, nfilt = _evaluate_near(
                calcfc, x, sim, fval, conmat, distsq, rhoend, nf,
                nfilt, ctol, cweight, cfilt, ffilt, xfilt, confilt,
            )
            actrem = (fval[num_vars] + cpen * cval[num_vars]) - (f + cpen * cstrv)
            ratio = redrat(actrem, prerem, eta1)
            delta = trrad(delta, dnorm, eta1, eta2, gamma1, gamma2, ratio)
            if delta <= gamma3 * rho:
                delta = rho
            ximproved = actrem > 0
            jdrop_tr = setdrop_tr(ximproved, d, delta, rho, sim, simi)
            sim, simi, fval, conmat, cval, subinfo = updatexfc(
                jdrop_tr, constr, cpen, cstrv, d, f, conmat, cval, fval, sim, simi
            )
            if subinfo == DAMAGING_ROUNDING:
                info = subinfo
                break
            subinfo = checkbreak_con(maxfun, nf, cstrv, ctol, f, ftarget, x)
            if subinfo != INFO_DEFAULT:
                info = subinfo
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        improve_geo = bad_trstep and not adequate_geo
        reduce_rho = bad_trstep and adequate_geo and max(delta, dnorm) <= rho

        if improve_geo and not all(
            primasum(primapow2(sim[:, :num_vars]), axis=0) <= 4 * primapow2(delta)
        ):
            jdrop_geo = np.argmax(
                primasum(primapow2(sim[:, :num_vars]), axis=0), axis=0
            )
            delbar = delta / 2
            d = geostep(jdrop_geo, None, None, conmat, cpen, cval, delbar, fval, simi)
            x = sim[:, num_vars] + d
            f, constr, nf, nfilt = _evaluate_near(
                calcfc, x, sim, fval, conmat, distsq, rhoend, nf,
                nfilt, ctol, cweight, cfilt, ffilt, xfilt, confilt,
            )
            sim, simi, fval, conmat, cval, subinfo = updatexfc(
                jdrop_geo, constr, cpen, cstrv, d, f, conmat, cval, fval, sim, simi
            )
            if subinfo == DAMAGING_ROUNDING:
                info = subinfo
                break
            subinfo = checkbreak_con(maxfun, nf, cstrv, ctol, f, ftarget, x)
            if subinfo != INFO_DEFAULT:
                info = subinfo
                break

        if reduce_rho:
            if rho <= rhoend:
                info = SMALL_TR_RADIUS
                break
            delta = max(0.5 * rho, redrho(rho, rhoend))
            rho = redrho(rho, rhoend)
            conmat, cval, fval, sim, simi, subinfo = updatepole(
                cpen, conmat, cval, fval, sim, simi
            )
            if subinfo == DAMAGING_ROUNDING:
                info = subinfo
                break

    # cobylb's final step: try the last trust-region step if it was short.
    x = sim[:, num_vars] + d
    if (
        info == SMALL_TR_RADIUS
        and shortd
        and norm(x - sim[:, num_vars]) > 1.0e-3 * rhoend
        and nf < maxfun
    ):
        f, constr = evaluate(calcfc, x, 0, None, None)
        nf += 1
        nfilt, cfilt, ffilt, xfilt, confilt = savefilt(
            cstrv, ctol, cweight, f, x, nfilt, cfilt, ffilt, xfilt, constr, confilt
        )
    kopt = selectx(ffilt[:nfilt], cfilt[:nfilt], max(cpen, cweight), ctol)
    return _finish(xfilt[:, kopt], calcfc, info)


def _finish(x: np.ndarray, calcfc: _Objective, info: int) -> CobylaRun:
    """The run's outcome; ``x`` is copied out of the filter array."""
    stop = STOP_REASONS.get(info, f"status_{info}")
    return CobylaRun(x.copy(), calcfc.calls, stop)


def _evaluate_near(
    calcfc, x, sim, fval, conmat, distsq, rhoend, nf,
    nfilt, ctol, cweight, cfilt, ffilt, xfilt, confilt,
):
    """Evaluate ``x``, or reuse the simplex vertex it (almost) coincides with.

    cobylb's shared block after a trust-region or geometry step; returns
    ``(f, constr, nf, nfilt)`` and fills the filter arrays in place.
    """
    num_vars = x.size
    distsq[num_vars] = primasum(primapow2(x - sim[:, num_vars]))
    distsq[:num_vars] = primasum(
        primapow2(
            x.reshape(num_vars, 1)
            - (sim[:, num_vars].reshape(num_vars, 1) + sim[:, :num_vars])
        ),
        axis=0,
    )
    j = np.argmin(distsq)
    if distsq[j] <= primapow2(1e-4 * rhoend):
        return fval[j], conmat[:, j], nf, nfilt
    f, constr = evaluate(calcfc, x, 0, None, None)
    nfilt, _, _, _, _ = savefilt(
        0.0, ctol, cweight, f, x, nfilt, cfilt, ffilt, xfilt, constr, confilt
    )
    return f, constr, nf + 1, nfilt
