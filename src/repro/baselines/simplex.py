"""COBYLA's initial simplex inverse in closed form, with LAPACK's bits.

PRIMA's ``initxfc`` builds the initial simplex one vertex at a time and
then inverts it with ``inv``: an ``n x n`` LU solve, which at the HEA
baseline's 120 parameters costs more than the rest of the simplex
bookkeeping.  The matrix has a fixed shape, so its inverse is known
exactly; :func:`initial_simplex_inverse` writes it down.  Pure NumPy, so
the ``simplex-inverse-vs-inv`` verify check runs on every scipy.

**The matrix.**  Row j of ``sim[:, :n]`` is ``rhobeg * e_j``, or, when
vertex j beat the pole and swapped with it, ``-rhobeg`` on columns
``0..j``.  It is lower triangular with diagonal ``±rhobeg``.

**The inverse.**  Let ``N[j] = e_j`` for a row that was not swapped.  For
a swapped row j whose previous swapped row is s, ``N[j] = e_j + sum(e_k,
s < k < j) - e_s``; with no earlier swapped row, ``N[j] = e_j + sum(e_k,
k < j)``.  Then ``inv(sim[:, :n]) = N / diag(sim)[:, None]``, and the
row-wise division also gives the zeros LAPACK's signs.

**Why the bits are LAPACK's.**  Partial pivoting exchanges no rows: the
candidates in a column are equal in magnitude and ties go to the
diagonal.  The LU multipliers are ``±fl(rhobeg * fl(1 / rhobeg))``, which
are exactly ±1 iff ``rhobeg * (1.0 / rhobeg) == 1.0``.  Given that, every
sum in the triangular solves has at most two nonzero terms of size
``fl(1 / rhobeg)``, so each entry is exactly ``0`` or ``±fl(1 / rhobeg)``.
When the guard fails (rhobeg = 0.41, for one, where n = 2 with vertex 1
swapped is 1 ulp off) ``np.linalg.inv`` computes the inverse, as before.
The guard holds for the radii this package uses: 0.5 (baselines), 0.4
(Rasengan) and 0.3.  The ``simplex-inverse-vs-inv`` check holds the
closed form to ``inv`` on every swap pattern up to n = 8 and on seeded
patterns up to n = 130, signed zeros included.
"""

from __future__ import annotations

import numpy as np


def initial_simplex_inverse(basis: np.ndarray, rhobeg: float) -> np.ndarray:
    """``np.linalg.inv(basis)`` for the simplex ``initxfc`` leaves.

    ``basis`` is ``sim[:, :n]`` once every vertex is in (see the module
    docstring); a row with a negative diagonal is a swapped one.
    """
    if rhobeg * (1.0 / rhobeg) != 1.0:
        return np.linalg.inv(basis)
    diagonal = basis.diagonal()
    inverse = np.eye(basis.shape[0])
    previous = -1
    for j in np.flatnonzero(diagonal < 0).tolist():
        inverse[j, previous + 1 : j] = 1.0
        if previous >= 0:
            inverse[j, previous] = -1.0
        previous = j
    return inverse / diagonal[:, np.newaxis]
