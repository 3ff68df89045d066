"""Adaptive Gauss-Legendre quadrature, plain and log-domain.

The log-domain driver is the workhorse: every measure in the library is an
integral of ``exp(phi(s))`` where ``phi`` is a log-integrand that may span
thousands of log-units across its interval.  The recipe is

  1. probe ``phi`` on a grid (plus caller-supplied peak hints),
  2. shift by the probed maximum ``m``,
  3. truncate to the window where ``phi >= m - drop`` (drop = 46 log-units,
     about 20 decimal digits, located by bisection on ``phi``; the
     bisection takes the midpoints of several steps per call of ``phi``
     and ends where a one-point-per-call bisection would),
  4. run global adaptive Gauss-Legendre on ``exp(phi - m)`` inside the
     window, one integrand call per refinement step.

Truncation error is then below the quadrature tolerance, DEFAULT_REL_TOL,
which is the one tolerance of every measure in the library, and the shifted
integrand is O(1), so nothing ever under- or overflows.  Integrands must
accept numpy arrays and act on each point alone.  Batching changes no
result: each rule is one dot product per panel, and the panel sums run
left to right in a fixed order, the same on every Python version.

On evaluation-cap overrun the best estimate is returned flagged with the
achieved tolerance instead of raising; callers that care can inspect the
result object.

Bulk callers use ``fixed_log_integral`` instead: one composite fixed-order
Gauss-Legendre rule in log space over many rows [lo, hi] at once, with no
error estimate.  It is the library's one fixed rule: the cap integral J,
the ball-measure grid (and so the Monte Carlo CDF) and the oracle's scan
all call it, each with its own panel count and order.
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
PANEL_EVALS = 37       # a 25- and a 12-point Gauss-Legendre rule per panel
BISECT_STEPS = 90      # evaluations charged per bisected window edge
BISECT_LEVELS = 3      # bisection steps per call of the integrand


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


_X25, _W25 = gauss_legendre_nodes(25)
_X12, _W12 = gauss_legendre_nodes(12)
_PANEL_NODES = np.concatenate([_X25, _X12])


def _panels(f, a, b):
    """Both Gauss-Legendre rules on the panels [a_i, b_i], from one call of f.

    Returns one (25-point value, distance from the 12-point value) pair per
    panel.  Each rule is its own dot product, so every panel sums exactly
    as it would alone.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f((mid[:, None] + h[:, None] * _PANEL_NODES).ravel()), dtype=float)
    out = []
    for hi, yi in zip(h.tolist(), y.reshape(len(h), -1)):
        v = hi * float(np.dot(_W25, yi[:25]))
        out.append((v, abs(v - hi * float(np.dot(_W12, yi[25:])))))
    return out


def _sequential_sum(x) -> float:
    """Left-to-right sum, the same on every Python version.

    The leading ``0.0 +`` turns an all-negative-zero sum into 0.0, as a
    sum started from 0 does.
    """
    return 0.0 + float(x.cumsum()[-1])


def integrate(f, a: float, b: float, *, rel_tol: float = DEFAULT_REL_TOL,
              max_evals: int = DEFAULT_MAX_EVALS, splits=()) -> QuadratureResult:
    """Globally adaptive integral of a vectorized, finite integrand.

    The interval is seeded with panels at the given split points (known
    kinks), then the panel with the worst error estimate is bisected until
    the summed error estimate meets ``rel_tol`` relative to the summed
    value, or the evaluation budget runs out.  Every panel costs
    ``PANEL_EVALS`` evaluations, but each step makes one call of ``f``: the
    seed panels share one, and so do the two halves of a bisected panel.
    """
    if not b > a:
        return QuadratureResult(0.0, 0.0, 0, True)
    edges = np.array(sorted({float(a), float(b), *(float(s) for s in splits if a < s < b)}))
    k = len(edges) - 1
    # the panel table; a bisected panel keeps its row for its left half
    # and appends its right half, and the arrays double when full
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    val, err = np.array(_panels(f, lo, hi)).T.copy()
    evals = PANEL_EVALS * k
    while True:
        total = _sequential_sum(val[:k])
        error = _sequential_sum(err[:k])
        if error <= rel_tol * abs(total) or error == 0.0:
            return QuadratureResult(total, error, evals, True)
        if evals >= max_evals:
            return QuadratureResult(total, error, evals, False)
        worst = int(err[:k].argmax())
        left, right = float(lo[worst]), float(hi[worst])
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:  # interval exhausted at machine precision
            err[worst] = 0.0
            continue
        (v1, e1), (v2, e2) = _panels(f, np.array([left, mid]), np.array([mid, right]))
        evals += 2 * PANEL_EVALS
        if k == len(val):
            lo, hi, val, err = (np.concatenate([c, np.empty_like(c)])
                                for c in (lo, hi, val, err))
        hi[worst], val[worst], err[worst] = mid, v1, e1
        lo[k], hi[k], val[k], err[k] = mid, right, v2, e2
        k += 1


def _bisect_crossing(log_f, below, above, tau):
    """Locate phi = tau between a sub- and a super-threshold point.

    Works for either orientation; returns the sub-threshold endpoint so the
    window always contains the crossing.  This is a plain bisection of at
    most BISECT_STEPS steps, but each call of ``log_f`` takes the midpoints
    of the next BISECT_LEVELS steps on every branch, and the walk then
    follows the branch the comparisons pick.
    """
    steps = 0
    while steps < BISECT_STEPS:
        levels = min(BISECT_LEVELS, BISECT_STEPS - steps)
        # the midpoints of every bracket the next steps can reach, level by
        # level: ends[j], ends[j + 1] is bracket j of a level, and its halves
        # are brackets 2j (its midpoint turned out super-threshold) and
        # 2j + 1 of the next
        ends, mids = [below, above], []
        for _ in range(levels):
            level = [0.5 * (lo + hi) for lo, hi in zip(ends, ends[1:])]
            mids += level
            ends = [x for pair in zip(ends, level) for x in pair] + ends[-1:]
        vals = log_f(np.array(mids))
        at = 0  # mids is in level order: node i has the halves 2i + 1, 2i + 2
        for _ in range(levels):
            mid = mids[at]
            if mid == below or mid == above:
                return below
            if float(vals[at]) >= tau:
                above, at = mid, 2 * at + 1
            else:
                below, at = mid, 2 * at + 2
        steps += levels
    return below


def fixed_log_integral(log_f, lo, hi, panels: int, order: int):
    """log of the integral of exp(log_f) over [lo, hi], for every row at once.

    A composite fixed rule: ``panels`` equal panels of ``order``-point
    Gauss-Legendre, exact for polynomials of degree 2 order - 1 on each
    panel.  ``log_f`` receives the nodes shaped ``lo.shape + (panels,
    order)``; each row is shifted by its largest finite value before the
    exponential.  A row with hi <= lo, or with no mass, gives LOG_ZERO.
    No error estimate: this is the bulk path, and ``log_integral`` the
    accuracy reference.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x, w = gauss_legendre_nodes(order)
    half = 0.5 * (hi - lo) / panels
    centers = lo[..., None] + half[..., None] * np.arange(1.0, 2.0 * panels, 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a private copy, shifted, exponentiated and weighted in place, so a
        # large batch holds one node-sized array at a time
        vals = np.array(log_f(centers[..., None] + half[..., None, None] * x), dtype=float)
        shift = np.max(vals, axis=(-2, -1), initial=-np.inf, where=np.isfinite(vals))
        shift = np.where(np.isfinite(shift), shift, 0.0)
        vals -= shift[..., None, None]
        np.exp(vals, out=vals)
        vals *= w
        total = vals.sum(axis=(-2, -1)) * half
        # total > 0 also fails for hi <= lo, where half <= 0
        return np.where(total > 0.0, shift + np.log(total), LOG_ZERO)


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
    evals += 0 if i_lo == 0 else BISECT_STEPS
    evals += 0 if i_hi == len(grid) - 1 else BISECT_STEPS

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
