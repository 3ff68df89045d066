"""Log-domain arithmetic for nonnegative quantities.

Every measure value in this library is carried as ``log(value)`` with
``-inf`` standing for zero.  That representation survives dimensions up to
10**6 where the linear values under- or overflow hopelessly.  ``nan`` and
``+inf`` are never legal: the former is a bug, the latter would mean an
infinite measure, which callers must reject explicitly.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b).  Exact for the zero element: log_add(x, -inf) == x."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    return float(np.logaddexp(a, b))
