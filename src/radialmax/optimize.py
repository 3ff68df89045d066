"""Derivative-free 1-D searches and the four critical exponents.

Each lower- or upper-bound family has a per-dimension growth base
alpha(p, lam); the critical exponent is the supremum over lam of the p at
which alpha crosses 1.  The searches are deterministic: a fixed uniform
pre-scan picks the best cell, golden-section refines it, and piecewise
objectives (the general family jumps where its annulus integer changes)
are refined piece by piece with both one-sided limits examined.

Reported values carry six meaningful digits; the reference values they are
matched against were produced elsewhere with unknown precision, so
acceptance comparisons use a 1e-3 tolerance while this module's own
reproducibility is exact bit-for-bit for a fixed grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import LAMBDA_MAX, gaussian_growth_base_log
from .errors import BracketError

_ENDPOINT_GAP = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def find_root(g, lo: float, hi: float, tol: float = 1e-12, *,
              max_iter: int = 400) -> float:
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
    for _ in range(max_iter):
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


# --- the four objective families -------------------------------------------

def _angle_parts(lam):
    lam = np.asarray(lam, dtype=float)
    cos_b0 = 1.0 - (1.0 + lam) ** 2 / 2.0
    sin_b0 = np.sqrt(np.maximum(1.0 - cos_b0 ** 2, 1e-300))
    return cos_b0, sin_b0


def _annulus_exponent(lam):
    """-log(2+lam)/log sin b0; its integer crossings are the jump points.

    Diverges to +inf as lam approaches sqrt(2)-1 where sin b0 rounds to 1.
    """
    _, s = _angle_parts(lam)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
        return np.where(log_s < 0.0,
                        -np.log(2.0 + np.asarray(lam, dtype=float)) / np.minimum(log_s, -1e-300),
                        np.inf)


def objective_general(lam):
    """Critical-exponent objective of the general construction (piecewise in lam)."""
    lam = np.asarray(lam, dtype=float)
    _, s = _angle_parts(lam)
    log_s = np.log(s)
    l = np.ceil(_annulus_exponent(lam))
    k = 1.0 / (1.0 + l)
    return np.log(lam) / (np.log(lam) - k * log_s)


def objective_gaussian_lower(lam):
    """Gaussian lower-construction exponent, from its growth condition.

    p(lam) = B/(A+B) with A = -(c/2)e^-c - log s and
    B = e^-c (1 - lam^2)/2 + log lam, c = cos^2 b0: the p at which the
    Gaussian growth base crosses 1.
    """
    lam = np.asarray(lam, dtype=float)
    cos_b0, s = _angle_parts(lam)
    c = cos_b0 ** 2
    e_c = np.exp(-c)
    B = np.log(lam) + 0.5 * e_c * (1.0 - lam ** 2)
    A_plus_B = np.log(lam / s) + 0.5 * e_c * (s ** 2 - lam ** 2)
    return B / A_plus_B


def objective_gaussian_upper(lam):
    """Exponent above which the Gaussian closed-form bound decays."""
    lam = np.asarray(lam, dtype=float)
    _, s = _angle_parts(lam)
    y = 0.5 * (1.0 - lam ** 2) + np.log(lam)
    return y / (y - np.log(s))


def objective_unitball(lam):
    """Unit-ball exponent: the general objective with k = 1."""
    lam = np.asarray(lam, dtype=float)
    _, s = _angle_parts(lam)
    return np.log(lam) / (np.log(lam) - np.log(s))


def _jump_locator_general(a: float, b: float, cap: int = 128):
    """Annulus-integer crossings inside (a, b), located by bisection."""
    nu_a = float(_annulus_exponent(np.asarray(a)))
    nu_b = float(_annulus_exponent(np.asarray(b)))
    if not math.isfinite(nu_a):
        return []
    lo_int = math.floor(nu_a) + 1
    hi_int = math.floor(nu_b) if math.isfinite(nu_b) else lo_int + cap
    out = []
    for j in range(lo_int, hi_int + 1):
        if len(out) >= cap:
            break
        out.append(find_root(lambda x, jj=j: float(_annulus_exponent(np.asarray(x))) - jj,
                             a, b, tol=1e-15))
    return out


def _search(objective, jump_locator=None, *, tol: float = 1e-12,
            pre_scan: int = 2049) -> SupremumResult:
    return maximize_scalar(objective, _ENDPOINT_GAP, LAMBDA_MAX - _ENDPOINT_GAP,
                           tol=tol, pre_scan=pre_scan, jump_locator=jump_locator)


def p0_general(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the general-construction exponent; reference 1.005274."""
    return _search(objective_general, _jump_locator_general, tol=tol, pre_scan=pre_scan)


def p0_gaussian(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the Gaussian lower exponent; reference 1.011871."""
    return _search(objective_gaussian_lower, tol=tol, pre_scan=pre_scan)


def p1_gaussian(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the Gaussian upper (decay) exponent; reference 1.049427."""
    return _search(objective_gaussian_upper, tol=tol, pre_scan=pre_scan)


def p0_unitball(*, tol: float = 1e-12, pre_scan: int = 2049) -> SupremumResult:
    """Supremum of the unit-ball exponent; reference 1.03946."""
    return _search(objective_unitball, tol=tol, pre_scan=pre_scan)


EXPONENT_SEARCHES = {
    "general": p0_general,
    "gaussian-lower": p0_gaussian,
    "gaussian-upper": p1_gaussian,
    "unitball": p0_unitball,
}


def growth_base_log(kind: str, p: float, lam: float) -> float:
    """log alpha(p, lam) for the named bound family."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    q = (p - 1.0) / p
    cos_b0, s = _angle_parts(np.asarray(lam))
    log_s = float(np.log(s))
    if kind == "general":
        nu = float(_annulus_exponent(np.asarray(lam)))
        if not math.isfinite(nu):
            return q * math.log(lam)  # k -> 0 at the right angle boundary
        k = 1.0 / (1.0 + math.ceil(nu))
        return q * math.log(lam) - k * log_s
    if kind == "gaussian-lower":
        return gaussian_growth_base_log(p, lam)
    if kind == "gaussian-upper":
        return q * (0.5 * (1.0 - lam * lam) + math.log(lam)) - log_s
    if kind == "unitball":
        return q * math.log(lam) - log_s
    raise ValueError(f"unknown bound family {kind!r}")


def max_growth_base_log(kind: str, p: float, *, pre_scan: int = 2049) -> SupremumResult:
    """sup over lam of log alpha(p, lam) for the named family."""
    locator = _jump_locator_general if kind == "general" else None

    def objective(lam):
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.array([growth_base_log(kind, p, float(x)) for x in arr])
        return out if np.ndim(lam) else float(out[0])

    return maximize_scalar(objective, _ENDPOINT_GAP, LAMBDA_MAX - _ENDPOINT_GAP,
                           pre_scan=pre_scan, jump_locator=locator)
