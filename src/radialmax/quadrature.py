"""Adaptive Gauss-Legendre quadrature, plain and log-domain.

The log-domain driver is the workhorse: every measure in the library is an
integral of ``exp(phi(s))`` where ``phi`` is a log-integrand that may span
thousands of log-units across its interval.  The recipe is

  1. probe ``phi`` on a grid (plus caller-supplied peak hints),
  2. shift by the probed maximum ``m``,
  3. truncate to the window where ``phi >= m - drop`` (drop = 46 log-units,
     about 20 decimal digits, located by bisection on ``phi``),
  4. run global adaptive Gauss-Legendre on ``exp(phi - m)`` inside the
     window.

Truncation error is then below the quadrature tolerance, DEFAULT_REL_TOL,
which is the one tolerance of every measure in the library, and the shifted
integrand is O(1), so nothing ever under- or overflows.  Integrands must
accept numpy arrays.

On evaluation-cap overrun the best estimate is returned flagged with the
achieved tolerance instead of raising; callers that care can inspect the
result object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logspace import LOG_ZERO

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_EVALS = 10 ** 6
WINDOW_DROP = 46.0
N_PROBES = 257


@lru_cache(maxsize=32)
def gauss_legendre_nodes(order: int):
    """Nodes and weights on [-1, 1]; cached and marked read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class LogIntegralResult:
    log_value: float
    rel_error: float
    evaluations: int
    converged: bool
    shift: float
    window: tuple


def _panel(f, a, b):
    x25, w25 = gauss_legendre_nodes(25)
    x12, w12 = gauss_legendre_nodes(12)
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y25 = np.asarray(f(mid + h * x25), dtype=float)
    y12 = np.asarray(f(mid + h * x12), dtype=float)
    v = h * float(np.dot(w25, y25))
    v_low = h * float(np.dot(w12, y12))
    return v, abs(v - v_low), 37


def integrate(f, a: float, b: float, *, rel_tol: float = DEFAULT_REL_TOL,
              max_evals: int = DEFAULT_MAX_EVALS, splits=()) -> QuadratureResult:
    """Globally adaptive integral of a vectorized, finite integrand.

    The interval is seeded with panels at the given split points (known
    kinks), then the panel with the worst error estimate is bisected until
    the summed error estimate meets ``rel_tol`` relative to the summed
    value, or the evaluation budget runs out.
    """
    if not b > a:
        return QuadratureResult(0.0, 0.0, 0, True)
    edges = sorted({float(a), float(b), *(float(s) for s in splits if a < s < b)})
    segs = []
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e, n = _panel(f, lo, hi)
        segs.append([e, lo, hi, v])
        evals += n
    while True:
        total = sum(s[3] for s in segs)
        err = sum(s[0] for s in segs)
        if err <= rel_tol * abs(total) or err == 0.0:
            return QuadratureResult(total, err, evals, True)
        if evals >= max_evals:
            return QuadratureResult(total, err, evals, False)
        worst = max(range(len(segs)), key=lambda i: segs[i][0])
        _, lo, hi, _ = segs[worst]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval exhausted at machine precision
            segs[worst][0] = 0.0
            continue
        v1, e1, n1 = _panel(f, lo, mid)
        v2, e2, n2 = _panel(f, mid, hi)
        evals += n1 + n2
        segs[worst] = [e1, lo, mid, v1]
        segs.append([e2, mid, hi, v2])


def _bisect_crossing(log_f, below, above, tau):
    """Locate phi = tau between a sub- and a super-threshold point.

    Works for either orientation; returns the sub-threshold endpoint so the
    window always contains the crossing.
    """
    for _ in range(90):
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            break
        if float(log_f(np.asarray([mid]))[0]) >= tau:
            above = mid
        else:
            below = mid
    return below


def log_integral(log_f, a: float, b: float, *, splits=(),
                 probe_points=()) -> LogIntegralResult:
    """log of the integral of exp(log_f) over [a, b], to DEFAULT_REL_TOL.

    ``probe_points`` should include any interior maxima the caller knows
    about (density peaks, tabulation knots); the uniform probe grid alone
    only resolves peaks wider than (b - a) / N_PROBES.
    """
    if not b > a:
        return LogIntegralResult(LOG_ZERO, 0.0, 0, True, LOG_ZERO, (a, b))
    pts = {float(a), float(b)}
    pts.update(float(s) for s in splits if a < s < b)
    pts.update(float(p) for p in probe_points if a <= p <= b)
    grid = np.unique(np.concatenate([np.linspace(a, b, N_PROBES),
                                     np.array(sorted(pts))]))
    vals = np.asarray(log_f(grid), dtype=float)
    evals = grid.size
    m = float(np.max(vals))
    if m == LOG_ZERO:
        return LogIntegralResult(LOG_ZERO, 0.0, evals, True, LOG_ZERO, (a, b))
    tau = m - WINDOW_DROP
    above = vals >= tau
    i_lo = int(np.argmax(above))
    i_hi = int(len(above) - 1 - np.argmax(above[::-1]))
    lo = grid[i_lo] if i_lo == 0 else _bisect_crossing(log_f, grid[i_lo - 1], grid[i_lo], tau)
    hi = grid[i_hi] if i_hi == len(grid) - 1 else _bisect_crossing(log_f, grid[i_hi + 1], grid[i_hi], tau)
    evals += 0 if i_lo == 0 else 90
    evals += 0 if i_hi == len(grid) - 1 else 90

    def shifted(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(log_f(x), dtype=float) - m)

    inner = [s for s in splits if lo < s < hi]
    res = integrate(shifted, lo, hi, max_evals=max(DEFAULT_MAX_EVALS - evals, 10 ** 4),
                    splits=inner)
    evals += res.evaluations
    if res.value <= 0.0:
        return LogIntegralResult(LOG_ZERO, 0.0, evals, res.converged, m, (lo, hi))
    return LogIntegralResult(m + math.log(res.value), res.error / res.value,
                             evals, res.converged, m, (lo, hi))
