"""Measures of centered balls for radial densities, in log space.

Everything reduces by polar coordinates to

    mu(B_rho) = omega_{n-1} * integral_0^rho f(s) s^(n-1) ds,

with omega_{n-1} = n pi^(n/2) / Gamma(n/2 + 1) the surface measure of the
unit sphere in R^n.  The integral runs through the shifted log-domain
quadrature so dimensions up to 10**6 are routine.  The unit ball's
centered ball needs no integral: it is the volume omega_{n-1}/n min(rho, 1)^n.
The radius solver's sign decisions read ``_log_ball_for_signs``, where the
Gaussian's centered ball is the closed form P(n/2, pi rho^2) of ``special``;
its printed measures stay on the quadrature.
Tables of many radii sum ``_log_cells``, fixed-rule cells cut at the density's
knots, except a step density's, which is its exact layer sum
omega_{n-1}/n sum_i c_i min(rho, h_i)^n over the layers f = sum_i c_i 1_[0, h_i];
``check_radius`` is the one check of every public measure's radii, and
``check_dimension`` of every public entry's dimension n.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .densities import Gaussian, RadialDensity, TabulatedDecreasing, UnitBallIndicator
from .logspace import LOG_ZERO
from .quadrature import fixed_log_integral, log_integral
from .special import _log_gamma_p, lgamma

_GRID_ORDER = 12


def log_sphere_area(n):
    """log omega_{n-1}: surface measure of the unit sphere in R^n (n >= 1).

    n=1 gives log 2 (two endpoints), n=2 log(2 pi), n=3 log(4 pi).
    Accepts an integer or an array of them; an array gets, element by
    element, the scalar's floats.
    """
    if np.ndim(n) > 0:
        return np.vectorize(log_sphere_area, otypes=[float])(n)
    n = check_dimension(n)
    return math.log(n) + 0.5 * n * math.log(math.pi) - lgamma(0.5 * n + 1.0)


def check_dimension(n, *, least: int = 1, most: float = math.inf) -> int:
    """n as an int; a bool, a NaN, infinite or non-integral n, or one outside
    [least, most] is refused by a ValueError that names n and the range."""
    if isinstance(n, (bool, np.bool_)) or not (least <= n <= most and float(n).is_integer()):
        raise ValueError(f"the dimension must be an integer in [{least}, {most}], got n = {n!r}")
    return int(n)


def check_radius(name: str, value: float, *, positive: bool = False):
    """Refuse a NaN, negative, zero when ``positive``, or infinite radius by name."""
    if not (value > 0 if positive else value >= 0):  # NaN too
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite")


def log_ball_volume(n: int, rho: float) -> float:
    """log of the Lebesgue volume omega_{n-1} rho^n / n of a ball of radius rho in R^n."""
    return float(log_sphere_area(n) - math.log(n) + n * math.log(rho))


def sphere_ratio_bounds(n):
    """Two-sided bracket for omega_{n-2}/omega_{n-1}, n >= 2.

    Lower: (n-1)/(n sqrt(pi)).  Upper: (n-1)/sqrt(2 pi) * sqrt(1 + 1/n),
    the log-convexity bound.  Both are finite positive reals.  An array is
    checked in one pass, and its first element that is not a dimension >= 2
    is refused as ``check_dimension`` refuses it.
    """
    if np.ndim(n) == 0:
        check_dimension(n, least=2)
    else:
        flat = np.ravel(n)
        with np.errstate(invalid="ignore"):  # NaN and inf fail each test
            whole = (flat >= 2) & (flat < math.inf) & (flat % 1 == 0)
        if not whole.all():
            check_dimension(flat[np.argmin(whole)], least=2)
    arr = np.asarray(n, dtype=float)
    lower = (arr - 1.0) / (arr * math.sqrt(math.pi))
    upper = (arr - 1.0) / math.sqrt(2.0 * math.pi) * np.sqrt(1.0 + 1.0 / arr)
    if np.ndim(n) == 0:
        return float(lower), float(upper)
    return lower, upper


def radial_log_integrand(f: RadialDensity, n: int):
    """phi(s) = log f(s) + (n-1) log s, vectorized, -inf-safe at s = 0.

    From n = 2 on, ``phi(s, out)`` writes the values into ``out``, a float
    array of s's shape, and allocates no float array of that size but what
    ``f.log_density`` returns: the oracle's scan calls it on every block.
    """
    if n == 1:
        return lambda s: np.asarray(f.log_density(s), dtype=float)

    def phi(s, out=None):
        s = np.asarray(s, dtype=float)
        outside = s > 0.0
        np.logical_not(outside, out=outside)  # s <= 0, and NaN
        radial = np.maximum(s, 1e-300, out=np.empty(s.shape) if out is None else out)
        np.log(radial, out=radial)
        radial *= n - 1
        np.copyto(radial, LOG_ZERO, where=outside)
        radial += np.asarray(f.log_density(s), dtype=float)
        return radial

    return phi


def _probe_hints(f: RadialDensity, n: int):
    hints = list(f.probe_points())
    peak = f.peak_radius(n)
    if peak is not None and peak > 0:
        hints.append(peak)
    return hints


def upper_cutoff(f: RadialDensity, n: int) -> float:
    """A radius beyond which f(s) s^(n-1) is negligible against its peak.

    Finite-support densities return their support.  Otherwise the cutoff is
    found by doubling until the log-integrand has fallen 60 log-units below
    the best value seen, once per density instance and dimension: densities
    are immutable.
    """
    if math.isfinite(f.support_upper_bound):
        return f.support_upper_bound
    return _decay_radius(f, n)


@lru_cache(maxsize=64)
def _decay_radius(f: RadialDensity, n: int) -> float:
    """The doubling search of ``upper_cutoff``, cached per (density, n)."""
    phi = radial_log_integrand(f, n)
    peak = f.peak_radius(n)
    b = max(1.0, 2.0 * peak if peak else 1.0)
    best = float(np.max(phi(np.linspace(0.0, b, 129))))
    for _ in range(200):
        val = float(phi(np.asarray([b]))[0])
        best = max(best, val)
        if val < best - 60.0:
            return b
        b *= 2.0
    raise ValueError(f"could not find a decay radius for {f.kind}; is the measure finite?")


def log_ball_measure(f: RadialDensity, n: int, rho: float) -> float:
    """log mu(B_rho) for the centered ball; rho = inf is the total mass.

    Every rho at or past ``upper_cutoff(f, n)`` holds the total mass, which
    is integrated over [0, cutoff] once per density instance and dimension
    (``_log_mass``) and read back after; a smaller rho is integrated over
    [0, rho].  Both take one route, ``_log_ball_integral``, so a cached
    mass is the float the integral gives.
    """
    n = check_dimension(n)
    if rho != math.inf:
        check_radius("rho", rho)
    if rho == 0.0:
        return LOG_ZERO
    if isinstance(f, UnitBallIndicator):
        return log_ball_volume(n, min(rho, 1.0))
    cutoff = upper_cutoff(f, n)  # integrating no further keeps the probe grid dense at the peak
    if rho >= cutoff:
        return _log_mass(f, n, cutoff)
    return _log_ball_integral(f, n, rho)


@lru_cache(maxsize=64)
def _log_mass(f: RadialDensity, n: int, cutoff: float) -> float:
    """The total mass of ``log_ball_measure``, cached per (density, n); ``cutoff``
    is ``upper_cutoff(f, n)``, so it adds nothing to the key.  A raised
    ``ValueError`` is not cached: it is raised again on every call."""
    return _log_ball_integral(f, n, cutoff)


def _log_ball_for_signs(f: RadialDensity, n: int, rho: float) -> float:
    """log mu(B_rho) for a caller that only compares it: the radius solver's
    doubling and bisection.  The Gaussian's is the closed form
    log P(n/2, pi rho^2); every other kind's is ``log_ball_measure``.  The
    printed measures stay on ``log_ball_measure``, so for the Gaussian this
    is a second route to one value (ROADMAP, the fork table)."""
    n = check_dimension(n)
    if isinstance(f, Gaussian):
        return _log_gamma_p(0.5 * n, math.pi * rho * rho)
    return log_ball_measure(f, n, rho)


def _log_ball_integral(f: RadialDensity, n: int, b: float) -> float:
    """log mu(B_b) by the adaptive quadrature over [0, b]."""
    res = log_integral(radial_log_integrand(f, n), 0.0, b,
                       probe_points=[h for h in _probe_hints(f, n) if h <= b],
                       knots=f.probe_points())
    return float(log_sphere_area(n) + res.log_value)


def _log_cells(f: RadialDensity, n: int, edges: np.ndarray, log_weight=None, *,
               from_zero: bool = False) -> np.ndarray:
    """log int e^(log_weight(s)) f(s) s^(n-1) ds (no weight: 0) on each cell of the
    sorted ``edges``, cut at the density's knots and support strictly inside it:
    one _GRID_ORDER-point Gauss-Legendre panel per piece, exact on a step density
    up to n = 2 _GRID_ORDER, and the pieces added in logs.  Equal edges give
    LOG_ZERO; with no cut inside, the pieces are the cells.  ``from_zero`` puts
    a first cell [0, edges[0]] before them: its 0 goes in with the cuts, so the
    edges are copied once, and not at all where nothing goes in."""
    phi = radial_log_integrand(f, n)
    log_f = phi if log_weight is None else lambda s: log_weight(s) + phi(s)
    cuts = np.unique(np.append(f.probe_points(), f.support_upper_bound))
    at = np.searchsorted(edges, cuts)
    inside = (at < len(edges)) & (at == np.searchsorted(edges, cuts, "right"))
    inside &= (at > 0) | (from_zero & (cuts > 0.0))
    cuts, at = cuts[inside], at[inside]
    if from_zero:
        points = np.insert(edges, np.append(0, at), np.append(0.0, cuts))
        at += 1  # the cuts' places among the edges after the 0
    elif cuts.size:
        points = np.insert(edges, at, cuts)
    else:  # the pieces are the cells, and the edges need no copy
        return fixed_log_integral(log_f, edges[:-1], edges[1:], 1, _GRID_ORDER)
    pieces = fixed_log_integral(log_f, points[:-1], points[1:], 1, _GRID_ORDER)
    if not cuts.size:
        return pieces
    # cell i starts at its left edge, after i edges and the cuts below it
    starts = np.arange(len(pieces) - len(cuts))
    for place in at.tolist():
        starts[place:] += 1
    return np.logaddexp.reduceat(pieces, starts)


def log_ball_measure_grid(f: RadialDensity, n: int, radii):
    """log mu(B_r) on a sorted grid of finite radii, for the scans of many radii
    (the radius solver's, the oracle's mass table, the Monte Carlo inverse CDF).
    A step density's is its exact layer sum (``_log_layer_sum``), at every n.
    Every other kind's is the running log-sum of the ``_log_cells`` from 0,
    which the adaptive path checks; the sums run in place on the cells, so a
    grid of N radii holds few arrays of N floats.  A radius of 0 gives LOG_ZERO."""
    n = check_dimension(n)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or np.any(radii[1:] < radii[:-1]) or radii[0] < 0:
        raise ValueError("radii must be a sorted nonnegative 1-D grid")
    check_radius("radii", np.max(radii))  # a NaN anywhere, or an infinite radius
    if isinstance(f, TabulatedDecreasing):
        return _log_layer_sum(f, n, radii)
    cells = _log_cells(f, n, radii, from_zero=True)
    np.logaddexp.accumulate(cells, out=cells)
    cells += log_sphere_area(n)
    return cells


def _log_layer_sum(f: TabulatedDecreasing, n: int, radii: np.ndarray) -> np.ndarray:
    """log mu(B_r) of a step density at finite radii r >= 0 in closed form: with
    f = sum_i c_i 1_[0, h_i] (``TabulatedDecreasing.layers``),

        mu(B_r) = omega_{n-1}/n (sum_{h_i < r} c_i h_i^n + f(r) r^n),

    since the layers at and above r sum to f(r), which the table's own
    left-continuous search reads.  The first sum is a prefix of one
    ``np.logaddexp.accumulate`` over the knots."""
    heights, log_c = f.layers()
    with np.errstate(divide="ignore"):  # log 0 of a knot or a radius at 0
        log_h, log_r = np.log(heights), np.log(radii)
    below = np.logaddexp.accumulate(np.append(LOG_ZERO, log_c + n * log_h))
    top = f.log_density(radii) + n * log_r
    inner = below[np.searchsorted(heights, radii, side="left")]
    np.logaddexp(inner, top, out=top)
    top += log_sphere_area(n) - math.log(n)
    return top


def log_mass(f: RadialDensity, n: int) -> float:
    """log of the total mass: ``log_ball_measure`` at rho = inf, so the
    unit ball's closed form, and otherwise the mass integrated once per
    (density, n)."""
    return log_ball_measure(f, n, math.inf)

