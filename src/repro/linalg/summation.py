"""Float reductions whose bits do not depend on the interpreter.

Builtin ``sum`` adds floats in order up to Python 3.11 but compensates
(Neumaier) from 3.12 on, and ``np.sum`` adds pairwise.  Every float
reduction on the evaluation path goes through :func:`left_to_right_sum`,
so a seeded record has the same bits on every supported interpreter.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def left_to_right_sum(terms: Iterable[float]) -> float:
    """``0.0 + t0 + t1 + ...``, added strictly in order.

    An array is reduced with ``np.cumsum``, which adds in order; any
    other iterable with a plain loop.  Both give the same bits, and on
    Python 3.10/3.11 the same bits as builtin ``sum``.
    """
    if isinstance(terms, np.ndarray):
        if terms.size == 0:
            return 0.0
        # ``+ 0.0`` turns an all ``-0.0`` total into ``0.0``, as the
        # loop's start from ``0.0`` does.
        return float(np.cumsum(terms)[-1]) + 0.0
    total = 0.0
    for term in terms:
        total += term
    return float(total)
