"""Derivative-free 1-D searches and the four critical exponents.

Each bound family has a per-dimension growth base with log alpha(p, lam) =
a + q b, q = (p-1)/p, and (a, b) read from the one table
``bounds.growth_parts``; alpha crosses 1 at p*(lam) = b/(a+b), and the
critical exponent is the supremum of p* over lam.  The searches are
deterministic: a fixed uniform pre-scan picks the best cell, golden-section
refines it, and piecewise objectives (the general family jumps where its
annulus integer changes) are refined piece by piece with both one-sided
limits examined.

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


def find_root(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection root of a continuous g with a sign change on [lo, hi]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={g_lo:.3g}, {g_hi:.3g}")
    for _ in range(_ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def _golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximum on [a, b]; returns (x, f(x), evaluations)."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best = max((f1, x1), (f2, x2))
    evals = 2
    for _ in range(300):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
            best = max(best, (f2, x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
            best = max(best, (f1, x1))
        evals += 1
    fx, x = best
    return x, fx, evals


def _eval_grid(f, xs):
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
        return vals
    except (TypeError, ValueError):
        return np.array([float(f(float(x))) for x in xs])


def maximize_scalar(f, lo: float, hi: float, tol: float = 1e-12, *,
                    pre_scan: int = 2049, jump_locator=None) -> SupremumResult:
    """Global maximum of a scalar objective on [lo, hi].

    Uniform pre-scan (pre_scan points), then golden-section refinement of
    the cell around the best grid point.  When a ``jump_locator`` is
    given, it receives the refinement cell and returns the discontinuity
    abscissas inside it; each monotone piece is refined separately and
    both one-sided limits at each jump are examined, so a supremum sitting
    at a jump is still found.
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
    pieces = []
    edges = [cell_lo, *jumps, cell_hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            pieces.append((a, b))
    for a, b in pieces:
        # keep strictly inside the piece so each golden call sees one branch
        a_in = np.nextafter(a, b)
        b_in = np.nextafter(b, a)
        if b_in <= a_in:
            continue
        x, fx, n = _golden_max(f, a_in, b_in, tol)
        evals += n
        if fx > best_v or (fx == best_v and x < best_x):
            best_x, best_v = x, fx
    for j in jumps:
        for side in (np.nextafter(j, cell_lo), j, np.nextafter(j, cell_hi)):
            fx = float(f(float(side)))
            evals += 1
            if fx > best_v or (fx == best_v and side < best_x):
                best_x, best_v = float(side), fx
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
    """Annulus-integer crossings inside (a, b), located by bisection."""
    nu_a = float(_annulus_exponent(np.asarray(a)))
    nu_b = float(_annulus_exponent(np.asarray(b)))
    if not math.isfinite(nu_a):
        return []
    lo_int = math.floor(nu_a) + 1
    hi_int = math.floor(nu_b) if math.isfinite(nu_b) else lo_int + _JUMP_CAP
    out = []
    for j in range(lo_int, hi_int + 1):
        if len(out) >= _JUMP_CAP:
            break
        out.append(find_root(lambda x, jj=j: float(_annulus_exponent(np.asarray(x))) - jj,
                             a, b, tol=1e-15))
    return out


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
