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


def log_sub(a: float, b: float) -> float:
    """log(e^a - e^b) for a >= b.  Returns -inf when the operands are equal."""
    if b == LOG_ZERO:
        return a
    if b > a:
        raise ValueError(f"log_sub needs a >= b, got a={a!r} < b={b!r}")
    if a == b:
        return LOG_ZERO
    d = b - a
    # e^a - e^b = e^a (1 - e^(b-a)); b-a < 0 so expm1 is safe
    return a + math.log(-math.expm1(d))


def log_sum(values) -> float:
    """logsumexp over an iterable or array, exact when everything is -inf."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + float(np.log(np.sum(np.exp(arr - m))))
