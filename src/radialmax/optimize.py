"""Derivative-free 1-D searches and the four critical exponents.

Each bound family has a per-dimension growth base with log alpha(p, lam) =
a + q b, q = (p-1)/p, and (a, b) read from the one table
``bounds.growth_parts``; alpha crosses 1 at p*(lam) = b/(a+b), and the
critical exponent is the supremum of p* over lam.  The searches are
deterministic: a fixed uniform pre-scan picks the best cell, golden-section
refines it, and piecewise objectives (the general family jumps where its
annulus integer changes) are refined piece by piece with both one-sided
limits examined.  The general family's jumps in the cell are located by one
batched bisection (``find_root`` is element-wise), the pieces' golden
searches run in lockstep with one objective call per step, and the
one-sided limits are evaluated in one call; every float is the one the
piece-at-a-time search gives.

Reported values carry six meaningful digits; the reference values they are
matched against were produced elsewhere with unknown precision, so
acceptance comparisons use a 1e-3 tolerance while this module's own
reproducibility is exact bit-for-bit for a fixed grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (LAMBDA_MAX, _annulus_exponent, _check_p, _log_alpha,
                     growth_base_log, growth_parts)  # growth_base_log: re-exported
from .errors import BracketError

_ENDPOINT_GAP = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ROOT_MAX_ITER = 400   # bisection steps of find_root
_JUMP_CAP = 128        # annulus-integer crossings the general locator bisects


@dataclass
class SupremumResult:
    argmax: float
    value: float
    bracket: tuple
    evaluations: int
    discontinuity_notes: list = field(default_factory=list)

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.argmax <= hi:
            raise ValueError("argmax must lie inside the bracket")

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax": self.argmax,
            "bracket": [self.bracket[0], self.bracket[1]],
            "evaluations": self.evaluations,
            "discontinuities": list(self.discontinuity_notes),
        }


def find_root(g, lo, hi, tol: float = 1e-12):
    """Bisection roots of a continuous g with a sign change on each [lo, hi].

    Element-wise over array brackets: every step calls g once, on the whole
    array of midpoints, and each element stops by its own rules (width at
    most tol, a midpoint that no longer splits its bracket, an exact zero,
    or ``_ROOT_MAX_ITER`` steps), so each root is the float that bisecting
    its bracket alone gives.  An element that stops is frozen at its root
    (lo = hi), which every later step leaves as it is.  Scalar brackets
    return a float; a one-element bracket takes the same steps on Python
    floats, each calling g on the float midpoint alone.  Larger brackets
    need a vectorized g (see ``_eval_grid``).  The steps run under one
    ``np.errstate(over="ignore")``, the array steps updating their arrays
    in place: only the signs of the products g(lo) g(mid) are read, and an
    overflow to +-inf keeps them, so an overflow inside g during the steps
    is not reported either.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    if not np.all(lo < hi):
        raise ValueError("need lo < hi")
    g_lo, g_hi = _eval_grid(g, lo), _eval_grid(g, hi)
    open_ = (g_lo != 0.0) & (g_hi != 0.0)
    # only the products' signs are read, and an overflow to +-inf keeps them
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(open_ & (np.where(open_, g_lo, 1.0)
                                      * np.where(open_, g_hi, 1.0) > 0.0))
    if bad.size:
        i = bad[0]
        raise BracketError(f"no sign change on [{float(lo[i])}, {float(hi[i])}]: "
                           f"g={g_lo[i]:.3g}, {g_hi[i]:.3g}")
    # a zero at an end is the root: freeze the element there
    lo = np.where((g_lo != 0.0) & (g_hi == 0.0), hi, lo)
    hi = np.where(open_, hi, lo)
    g_lo = g_lo.copy()  # g may have returned an array it still holds
    with np.errstate(over="ignore"):
        if lo.size == 1:
            # the same steps on Python floats: on a one-element array each
            # numpy call costs far more than its arithmetic
            lo, hi, g_lo = float(lo[0]), float(hi[0]), float(g_lo[0])
            for _ in range(_ROOT_MAX_ITER):
                mid = 0.5 * (lo + hi)
                if hi - lo <= tol or mid <= lo or mid >= hi:
                    break
                g_mid = g(mid)  # a float, or a one-element array
                g_mid = (float(g_mid) if isinstance(g_mid, float)
                         else float(np.asarray(g_mid, dtype=float).reshape(1)[0]))
                if g_mid == 0.0:
                    lo = hi = mid
                elif g_lo * g_mid < 0.0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            root = 0.5 * (lo + hi)
            return root if scalar else np.array([root])
        for _ in range(_ROOT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            stop = (hi - lo <= tol) | (mid <= lo) | (mid >= hi)
            stopped = np.count_nonzero(stop)
            if stopped == stop.size:
                break
            if stopped:
                np.copyto(lo, mid, where=stop)
                np.copyto(hi, mid, where=stop)
            g_mid = _eval_grid(g, mid)
            zero = g_mid == 0.0
            if np.count_nonzero(zero):
                np.copyto(lo, mid, where=zero)
                np.copyto(hi, mid, where=zero)
                g_mid = np.where(zero, 1.0, g_mid)  # frozen: keep 0 * inf out of the product
            left = g_lo * g_mid < 0.0
            np.copyto(hi, mid, where=left)
            right = ~left
            np.copyto(lo, mid, where=right)
            np.copyto(g_lo, g_mid, where=right)
    root = 0.5 * (lo + hi)
    return float(root[0]) if scalar else root


def _golden_search(a: float, b: float, tol: float):
    """Golden-section maximum on [a, b], as a coroutine.

    It yields each point it needs and is sent f there; it returns
    (x, f(x), evaluations) of its best point.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = yield x1
    f2 = yield x2
    best = max((f1, x1), (f2, x2))
    evals = 2
    for _ in range(300):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = yield x2
            best = max(best, (f2, x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = yield x1
            best = max(best, (f1, x1))
        evals += 1
    fx, x = best
    return x, fx, evals


def _golden_lockstep(f, intervals, tol: float) -> list:
    """Golden-section maxima of f on every interval, run in lockstep.

    Each step calls f once, on the new points of the searches still
    running; each search keeps its own points and stop rules.  A search
    left running alone calls f on scalars.  Returns (x, f(x), evaluations)
    per interval.
    """
    running = [(i, _golden_search(a, b, tol)) for i, (a, b) in enumerate(intervals)]
    points = [next(search) for _, search in running]
    results = [None] * len(running)
    while len(running) > 1:
        vals = _eval_grid(f, np.array(points)).tolist()
        still, points = [], []
        for (i, search), v in zip(running, vals):
            try:
                points.append(search.send(v))
                still.append((i, search))
            except StopIteration as stop:
                results[i] = stop.value
        running = still
    for (i, search), x in zip(running, points):
        try:
            while True:
                x = search.send(f(x))
        except StopIteration as stop:
            results[i] = stop.value
    return results


def _eval_grid(f, xs):
    """f at every entry of the 1-D float array xs, in one call.

    A one-entry batch is evaluated as a scalar.  f must be vectorized: a
    result whose shape is not that of xs is refused.
    """
    if xs.size == 1:
        return np.asarray(f(float(xs[0])), dtype=float).reshape(1)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(f"f returned shape {vals.shape} on an array of shape {xs.shape}")
    return vals


def maximize_scalar(f, lo: float, hi: float, tol: float = 1e-12, *,
                    pre_scan: int = 2049, jump_locator=None) -> SupremumResult:
    """Global maximum of a vectorized scalar objective on [lo, hi].

    Uniform pre-scan (pre_scan points), then golden-section refinement of
    the cell around the best grid point.  When a ``jump_locator`` is
    given, it receives the refinement cell and returns the discontinuity
    abscissas inside it; each monotone piece is refined separately, the
    pieces in lockstep, and both one-sided limits at each jump are
    examined in one batch, so a supremum sitting at a jump is still found.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if pre_scan < 2:  # one point would make the bracket [lo, lo]
        raise ValueError(f"pre_scan must be at least 2, got {pre_scan!r}")
    xs = np.linspace(lo, hi, pre_scan)
    vals = _eval_grid(f, xs)
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective is not finite anywhere on the grid")
    i = int(np.nanargmax(vals))
    evals = pre_scan
    cell_lo = float(xs[max(i - 1, 0)])
    cell_hi = float(xs[min(i + 1, pre_scan - 1)])
    best_x, best_v = float(xs[i]), float(vals[i])

    jumps = []
    if jump_locator is not None:
        jumps = sorted(j for j in jump_locator(cell_lo, cell_hi)
                       if cell_lo <= j <= cell_hi)
    edges = [cell_lo, *jumps, cell_hi]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        # keep strictly inside the piece so each golden search sees one branch
        a_in, b_in = np.nextafter(a, b), np.nextafter(b, a)
        if b > a and b_in > a_in:
            pieces.append((a_in, b_in))
    for x, fx, n in _golden_lockstep(f, pieces, tol):
        evals += n
        if fx > best_v or (fx == best_v and x < best_x):
            best_x, best_v = x, fx
    if jumps:
        js = np.array(jumps)
        sides = np.stack([np.nextafter(js, cell_lo), js, np.nextafter(js, cell_hi)],
                         axis=1).ravel()
        for side, fx in zip(sides.tolist(), _eval_grid(f, sides).tolist()):
            evals += 1
            if fx > best_v or (fx == best_v and side < best_x):
                best_x, best_v = side, fx
    return SupremumResult(argmax=best_x, value=best_v, bracket=(cell_lo, cell_hi),
                          evaluations=evals, discontinuity_notes=list(jumps))


# --- the four critical exponents --------------------------------------------

def critical_exponent(kind: str, lam):
    """p*(lam) = b/(a+b), the p at which the family's growth base crosses 1.

    log alpha = a + (p-1)/p b with a >= 0 > b, so alpha > 1 exactly for
    p < p*(lam).  Vectorized in lam, like ``growth_parts``.
    """
    a, b = growth_parts(kind, lam)
    return b / (a + b)


def _jump_locator_general(a: float, b: float):
    """Annulus-integer crossings inside (a, b), all bisected in one find_root call."""
    nu_a = float(_annulus_exponent(np.asarray(a)))
    nu_b = float(_annulus_exponent(np.asarray(b)))
    if not math.isfinite(nu_a):
        return []
    lo_int = math.floor(nu_a) + 1
    hi_int = math.floor(nu_b) if math.isfinite(nu_b) else lo_int + _JUMP_CAP
    js = np.arange(lo_int, min(hi_int + 1, lo_int + _JUMP_CAP), dtype=float)
    if js.size == 0:
        return []
    return find_root(lambda lam: _annulus_exponent(lam) - js,
                     np.full(js.shape, a), np.full(js.shape, b), tol=1e-15).tolist()


def _search(kind: str, *, p=None, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum over lam of the family's p*(lam), or of log alpha(p, lam) given p.

    Only the general family is piecewise in lam, so only it gets the jump
    locator.
    """
    def objective(lam):
        if p is None:
            return critical_exponent(kind, lam)
        return _log_alpha(*growth_parts(kind, lam), p)

    locator = _jump_locator_general if kind == "general" else None
    return maximize_scalar(objective, _ENDPOINT_GAP, LAMBDA_MAX - _ENDPOINT_GAP,
                           tol=tol, pre_scan=pre_scan, jump_locator=locator)


def p0_general(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the general-construction exponent; reference 1.005274."""
    return _search("general", tol=tol, pre_scan=pre_scan)


def p0_gaussian(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the Gaussian lower exponent; reference 1.011871."""
    return _search("gaussian-lower", tol=tol, pre_scan=pre_scan)


def p1_gaussian(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the Gaussian upper (decay) exponent; reference 1.049427."""
    return _search("gaussian-upper", tol=tol, pre_scan=pre_scan)


def p0_unitball(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the unit-ball exponent; reference 1.03946."""
    return _search("unitball", tol=tol, pre_scan=pre_scan)


EXPONENT_SEARCHES = {
    "general": p0_general,
    "gaussian-lower": p0_gaussian,
    "gaussian-upper": p1_gaussian,
    "unitball": p0_unitball,
}


def max_growth_base_log(kind: str, p: float) -> SupremumResult:
    """sup over lam of log alpha(p, lam) for the named family."""
    _check_p(p)
    return _search(kind, p=p)
