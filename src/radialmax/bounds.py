"""Certified lower bounds on the maximal-operator L^p constant.

For a finite measure with radially decreasing density and radii r < R, the
indicator test function over B_r witnesses

    C >= T(R, r) = mu(B_R)/mu(B~) * (mu(B_r)/mu(B_R))^((p-1)/p),

where B~ = B(R xi, R + r) is the off-center ball through the far side of
the origin.  ``log_t_exact`` evaluates T by exact quadrature; the
construction functions additionally build the closed-form lower bounds
whose base alpha > 1 drives exponential growth in the dimension:

  general_construction    any finite radially decreasing density; the
                          balanced radius ties the inner cap estimate to
                          the outer annulus estimate
  gaussian_construction   the sharper estimates available for
                          f = exp(-pi s^2)
  unitball_construction   Lebesgue measure on the unit ball, where the
                          two-sided sandwich is elementary

Each growth base is affine in q = (p-1)/p, log alpha = a(lam) + q b(lam),
so alpha crosses 1 at p*(lam) = b/(a+b).  The four families' (a, b) are
written once, in ``growth_parts``, which the constructions and the
searches of ``optimize`` all read.  All rest on the contact angle b0 of
``_angle_parts``, the one place cos b0 is written: each construction's
b0 is the acos of that float, which its alpha was built on.

Every intermediate estimate of a construction is recorded in
``BoundReport.terms`` so each displayed inequality is individually
testable, separately from the exact values.

p enters T and the bounds only through (p-1)/p, so each construction runs
in two stages: a p-free stage (domain checks, the radius, the exact
measures) and a per-p stage of closed-form arithmetic.  The p-free stage is
a module-level function cached on its inputs (``maxsize=1``), so calls that
change only p, as a sweep's innermost loop does, solve and integrate once.
Its result is immutable, and each report builds its own ``terms``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .densities import Gaussian, RadialDensity, UnitBallIndicator
from .errors import NoBalancedRadiusError
from .geometry import off_center_ball_measure
from .measures import (_log_ball_for_signs, check_dimension, check_radius,
                       log_ball_measure, log_ball_measure_grid, log_sphere_area)

LAMBDA_MAX = math.sqrt(2.0) - 1.0
T_EXACT_MAX_N = 10_000  # the constructions' exact T stops here; above, it is untested


def _angle_parts(lam, R=1.0):
    """(cos b0, sin b0) of the contact angle, vectorized in lam: the one formula of b0.

    B(R xi, R + r), r = lam R, meets the sphere |y| = R at the angle b0,
    cos b0 = 1 - (1+lam)^2 / 2.  The unit ball's case analysis passes its R
    for the paper's 1 - R^2 (1+lam)^2 / 2, the angle against the unit sphere
    at R = 1 only.
    """
    lam = np.asarray(lam, dtype=float)
    # products, not ** 2: numpy squares a 0-d float64 through pow, which is
    # not correctly rounded, and an array by multiplication, which is
    one_lam = 1.0 + lam
    cos_b0 = 1.0 - R * R * one_lam * one_lam / 2.0
    sin_b0 = np.sqrt(np.maximum(1.0 - cos_b0 * cos_b0, 1e-300))
    return cos_b0, sin_b0


def _contact_angle(lam: float, R: float = 1.0):
    """(b0, cos b0) at one lam; every caller checks lam, and 0 < R <= 1, first,
    which puts cos b0 in (-1, 1), so acos needs no clamp."""
    cos_b0 = float(_angle_parts(lam, R)[0])
    return math.acos(cos_b0), cos_b0


def _annulus_exponent(lam):
    """-log(2+lam)/log sin b0; its integer crossings are the jump points.

    Diverges to +inf as lam approaches sqrt(2)-1 where sin b0 rounds to 1.
    """
    _, s = _angle_parts(lam)
    log_s = np.log(s)  # s >= 1e-150
    return np.where(log_s < 0.0,
                    -np.log(2.0 + np.asarray(lam, dtype=float)) / np.minimum(log_s, -1e-300),
                    np.inf)


def growth_parts(kind: str, lam):
    """(a, b) with log alpha(p, lam) = a + (p-1)/p b, for the named bound family.

    Vectorized in lam and unchecked: floats for a scalar lam, arrays for
    an array.  ``growth_base_log`` is the checked scalar entry.  For the
    general family k -> 0 where sin b0 rounds to 1.
    """
    lam = np.asarray(lam, dtype=float)
    cos_b0, s = _angle_parts(lam)
    log_s, log_lam = np.log(s), np.log(lam)
    if kind == "general":
        k = 1.0 / (1.0 + np.ceil(_annulus_exponent(lam)))
        a, b = -k * log_s, log_lam
    elif kind == "gaussian-lower":
        c = cos_b0 * cos_b0
        e_c = np.exp(-c)
        a, b = -0.5 * c * e_c - log_s, 0.5 * e_c * (1.0 - lam * lam) + log_lam
    elif kind == "gaussian-upper":
        a, b = -log_s, 0.5 * (1.0 - lam * lam) + log_lam
    elif kind == "unitball":
        a, b = -log_s, log_lam
    else:
        raise ValueError(f"unknown bound family {kind!r}")
    if lam.ndim == 0:
        return float(a), float(b)
    return a, b


def _log_alpha(a, b, p):
    """log alpha = a + (p-1)/p b: the one place a growth base meets p."""
    return a + (p - 1.0) / p * b


def gaussian_mode_radius(n: int) -> float:
    """Maximizer of exp(-pi s^2) s^(n-1): sqrt((n-1)/(2 pi))."""
    return Gaussian().peak_radius(check_dimension(n))


@dataclass
class BoundReport:
    """Full record of one lower-bound construction.

    ``terms`` maps labels to intermediate log-quantities so the individual
    estimates of the derivation stay auditable.  ``log_t_exact`` is None
    above n = T_EXACT_MAX_N, where the constructions skip the quadrature;
    an exact T more than 1e-9 below ``log_t_lower`` is refused.
    """

    n: int
    p: float
    lam: float
    beta0: float
    R: float
    r: float
    alpha: float
    log_t_lower: float
    log_t_exact: float | None = None
    l: int | None = None
    k: float | None = None
    Q: float | None = None
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.r - self.lam * self.R) > 1e-12 * max(self.r, self.lam * self.R):
            raise ValueError("r must equal lam * R")
        if self.l is not None and self.k != 1.0 / (1.0 + self.l):
            raise ValueError("k must equal 1/(1+l) when l is present")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.log_t_exact is not None and self.log_t_exact < self.log_t_lower - 1e-9:
            raise ValueError(f"certified chain violated: logT_exact={self.log_t_exact!r} "
                             f"< logT_lower={self.log_t_lower!r}")

    @property
    def chain_margin(self):
        """log_t_exact - log_t_lower; positive when the certified chain holds."""
        if self.log_t_exact is None:
            return None
        return self.log_t_exact - self.log_t_lower

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "lambda": self.lam,
            "beta0": self.beta0,
            "l": self.l,
            "k": self.k,
            "R": self.R,
            "r": self.r,
            "Q": self.Q,
            "alpha": self.alpha,
            "logT_lower": self.log_t_lower,
            "logT_exact": self.log_t_exact,
            "terms": dict(self.terms),
        }


def _three_measures(f: RadialDensity, n: int, R: float, r: float):
    """(log mu(B_R), log mu(B_r), log mu(B~)) by exact quadrature."""
    return (log_ball_measure(f, n, R), log_ball_measure(f, n, r),
            off_center_ball_measure(f, n, R, R + r))


def _exact_measures(f: RadialDensity, n: int, R: float, r: float):
    """The constructions' three measures: None above T_EXACT_MAX_N, where
    they skip the quadrature and report only closed forms."""
    return _three_measures(f, n, R, r) if n <= T_EXACT_MAX_N else None


def _log_t(p: float, lb_R: float, lb_r: float, lb_off: float) -> float:
    """log T from the three exact measures."""
    return lb_R - lb_off + (p - 1.0) / p * (lb_r - lb_R)


def _check_p(p: float):
    if not p >= 1.0:  # catches NaN too
        raise ValueError("p must be >= 1")
    if p == math.inf:
        raise ValueError("p must be finite")


def log_t_exact(f: RadialDensity, n: int, p: float, R: float, r: float) -> float:
    """log T(R, r) by exact quadrature of the three measures involved."""
    check_radius("R", R, positive=True)
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    _check_p(p)
    return _log_t(p, *_three_measures(f, n, R, r))


def solve_radius_equation(f: RadialDensity, n: int, beta0: float, k: float) -> float:
    """Largest R with mu(B_{R sin b0}) = sin(b0)^(n k) mu(B_R).

    The log-ratio g(R) = log mu(B_{R s}) - log mu(B_R) - n k log s falls
    from -n(1-k) log(1/s) < 0 at 0+ and climbs to -n k log s > 0 as the
    ratio tends to 1, so the last crossing is bracketed by doubling until
    the ratio is within 1e-6 of 1, scanning down in steps of R_max/10^4,
    and bisecting the first sign change to 1e-10 relative in R.

    The doubling and the bisection take their balls from
    ``measures._log_ball_for_signs``, which for the Gaussian is the closed
    form log P(n/2, pi rho^2).  The Gaussian's g does not fall as R grows,
    so its first sign change on the scan's radii is found by bisecting the
    indices on those same signs (``_monotone_crossing``), and its solve runs
    no quadrature.  Every other kind's scan reads one
    ``log_ball_measure_grid``, for a step density its exact layer sum.  R is
    the midpoint of a bracket that starts at two scan radii and moves only on
    signs: a ball's float reaches R only through the sign of g.
    """
    if not 0.0 < k < 1.0:
        raise ValueError("k must lie in (0, 1)")
    s = math.sin(beta0)
    if not 0.0 < s < 1.0:
        raise ValueError("sin(beta0) must lie in (0, 1)")
    target = n * k * math.log(s)

    def g(R):
        return _log_ball_for_signs(f, n, R * s) - _log_ball_for_signs(f, n, R) - target

    R_max = 1.0
    for _ in range(200):
        delta = _log_ball_for_signs(f, n, R_max * s) - _log_ball_for_signs(f, n, R_max)
        if delta >= -1e-6 and delta - target > 0.0:
            break
        R_max *= 2.0
    else:
        raise NoBalancedRadiusError("ball-measure ratio never approached 1 while doubling")

    scan_points = 10_000
    radii = R_max * (1.0 - np.arange(scan_points) / scan_points)
    if isinstance(f, Gaussian):
        j = _monotone_crossing(g, radii, target)
    else:
        j = _scanned_crossing(f, n, s, target, radii)
    lo, hi = float(radii[j]), float(radii[j - 1])
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scanned_crossing(f: RadialDensity, n: int, s: float, target: float, radii) -> int:
    """The first j with g(radii[j]) <= 0 < g(radii[j - 1]) on the descending
    ``radii``, with g read from one ``log_ball_measure_grid`` of the radii and
    their multiples by s; a NaN compares false on both sides."""
    merged = np.unique(np.concatenate([radii, radii * s]))
    lb = log_ball_measure_grid(f, n, merged)
    g_scan = lb[np.searchsorted(merged, radii * s)] - lb[np.searchsorted(merged, radii)] - target
    crossings = np.flatnonzero((g_scan[1:] <= 0.0) & (g_scan[:-1] > 0.0))
    if crossings.size == 0:
        deltas = g_scan + target
        raise NoBalancedRadiusError(
            "no sign change on the scanned range",
            ratio_range=(float(np.min(deltas)), float(np.max(deltas))))
    return int(crossings[0]) + 1


def _monotone_crossing(g, radii, target: float) -> int:
    """The first j with g(radii[j]) <= 0 < g(radii[j - 1]) on the descending
    ``radii`` of a g that does not fall as R grows, by bisection over the
    indices: about 14 calls of g where a scan makes one per radius.

    The Gaussian's g is such a g.  Its ball is log mu(B_R) = h(u),
    h(u) = log P(a, e^u) with a = n/2 and u = log(pi R^2); P(a, e^u) is the
    CDF at u of log X for X ~ Gamma(a), whose density e^(au - e^u)/Gamma(a)
    is log-concave, and a log-concave density has a log-concave CDF
    (Prekopa), so h is concave.  Then g(R) = h(u + 2 log s) - h(u) - target
    with 2 log s < 0: a concave h rises over [u + 2 log s, u] by no more as
    u grows, so g does not fall.  At a monotone g's ends, the refusal's
    ``ratio_range`` holds the scan's extremes."""
    first, last = g(float(radii[0])), g(float(radii[-1]))
    if not last <= 0.0 < first:
        raise NoBalancedRadiusError("no sign change on the scanned range",
                                    ratio_range=(last + target, first + target))
    above, at = 0, len(radii) - 1  # g(radii[above]) > 0 >= g(radii[at])
    while at - above > 1:
        mid = (above + at) // 2
        if g(float(radii[mid])) <= 0.0:
            at = mid
        else:
            above = mid
    return at


def _check_lam(lam: float):
    if not 0.0 < lam < LAMBDA_MAX:
        raise ValueError(f"lam must lie in (0, sqrt(2)-1), got {lam!r}")


def _check_lam_p(lam: float, p: float):
    _check_lam(lam)
    _check_p(p)


def growth_base_log(kind: str, p: float, lam: float) -> float:
    """log alpha(p, lam) of the named bound family, for lam in (0, sqrt(2)-1), p >= 1."""
    _check_lam_p(lam, p)
    return _log_alpha(*growth_parts(kind, lam), p)


def _general_parameters(lam: float):
    """(b0, cos b0, sin b0, log sin b0, l, k) of the general construction at lam.

    l is the smallest integer with sin(b0)^(-l) >= 2 + lam, read from the
    annulus exponent of the growth table; k = 1/(1+l).
    """
    nu = float(_annulus_exponent(lam))
    if not math.isfinite(nu):
        raise ValueError(f"lam = {lam!r} is too close to sqrt(2)-1: sin b0 rounds to 1")
    beta0, cos_b0 = _contact_angle(lam)
    s = math.sin(beta0)
    l = math.ceil(nu)
    return beta0, cos_b0, s, math.log(s), l, 1.0 / (1.0 + l)


@functools.lru_cache(maxsize=1)
def _general_stage(f: RadialDensity, n: int, lam: float):
    """The p-free part of ``general_construction``: the radius and the measures."""
    beta0, cos_b0, s, log_s, l, k = _general_parameters(lam)
    R = solve_radius_equation(f, n, beta0, k)
    r = lam * R
    Q = 1.0 / (math.sqrt(math.pi) * s * cos_b0)
    terms = {
        "ratio_lower_log": -math.log1p(Q) - n * k * log_s,
        "annulus_power_margin": -l * log_s - math.log(2.0 + lam),
        "outer_term_log": math.log(Q) + n * (1.0 - l * k) * log_s,
        "inner_term_log": n * k * log_s,
    }
    measures = _exact_measures(f, n, R, r)
    if measures is not None:
        lb_R, lb_r, lb_off = measures
        lb_cap = log_ball_measure(f, n, R * s)
        terms.update({
            "log_mu_ball_R": lb_R,
            "log_mu_ball_r": lb_r,
            "log_mu_ball_R_sin": lb_cap,
            "log_mu_offcenter": lb_off,
            "radius_equation_residual": lb_cap - lb_R - n * k * log_s,
        })
    return (beta0, growth_parts("general", lam), l, k, R, r, Q, MappingProxyType(terms),
            measures)


def general_construction(f: RadialDensity, n: int, p: float, lam: float) -> BoundReport:
    """Lower-bound construction valid for every finite radially decreasing density.

    Splits B~ at the sphere of radius R, covers the inner piece by the cap
    ball B_{R sin b0}, controls the outer piece through the annulus
    estimate with Q = 1/(sqrt(pi) sin b0 cos b0), and balances the two
    exponents with k = 1/(1+l); R then solves the balanced-radius
    equation and

        log T >= -log(Q + 1) + n log alpha,  alpha = lam^((p-1)/p) / sin(b0)^k.
    """
    n = check_dimension(n)
    _check_lam_p(lam, p)
    beta0, parts, l, k, R, r, Q, terms, measures = _general_stage(f, n, lam)
    log_alpha = _log_alpha(*parts, p)
    exact = None if measures is None else _log_t(p, *measures)
    return BoundReport(n=n, p=p, lam=lam, beta0=beta0, R=R, r=r,
                       alpha=math.exp(log_alpha), log_t_lower=-math.log1p(Q) + n * log_alpha,
                       log_t_exact=exact, l=l, k=k, Q=Q, terms=dict(terms))


@dataclass
class GrowthRow:
    n: int
    R: float
    log_f_at_R: float
    decay_bound_log: float


@dataclass
class GrowthReport:
    lam: float
    k: float
    rows: list
    radii_nondecreasing: bool
    decay_holds: bool

    @property
    def passed(self) -> bool:
        return self.radii_nondecreasing and self.decay_holds


def radius_growth_report(f: RadialDensity, n_values, lam: float) -> GrowthReport:
    """Track the balanced radius across dimensions.

    Checks that R_n does not shrink (up to a 1e-3 relative fluctuation
    allowance) and that the density value there decays at least like
    f(0) sin(b0)^(n (1-k)).
    """
    _check_lam(lam)
    beta0, _, s, _, _, k = _general_parameters(lam)
    log_f0 = f.log_density_at_zero
    rows = []
    nondecreasing = True
    decay = True
    prev = None
    for n in n_values:
        R = solve_radius_equation(f, n, beta0, k)
        log_fR = float(f.log_density(np.asarray([R]))[0])
        bound = log_f0 + n * (1.0 - k) * math.log(s)
        rows.append(GrowthRow(n=n, R=R, log_f_at_R=log_fR, decay_bound_log=bound))
        if prev is not None and R < prev * (1.0 - 1e-3):
            nondecreasing = False
        if log_fR > bound + 1e-9:
            decay = False
        prev = R
    return GrowthReport(lam=lam, k=k, rows=rows,
                        radii_nondecreasing=nondecreasing, decay_holds=decay)


def gaussian_ball_sandwich(n: int, rho: float):
    """Elementary bracket for the Gaussian ball measure below the mode radius.

    omega e^(-pi rho^2) rho^n / n <= mu(B_rho) <= omega e^(-pi rho^2) rho^n,
    valid for 0 < rho < sqrt((n-1)/(2 pi)), n >= 2.  Returns the three logs.
    """
    n = check_dimension(n, least=2)
    R_n = gaussian_mode_radius(n)
    if not 0.0 < rho < R_n:
        raise ValueError(f"need 0 < rho < {R_n!r}")
    core = log_sphere_area(n) - math.pi * rho * rho + n * math.log(rho)
    mid = log_ball_measure(Gaussian(), n, rho)
    return core - math.log(n), mid, core


def gaussian_mass_concentration(n: int):
    """Mass inside B_{R_n}: quadrature value and the 1 - 2/(sqrt(pi) sqrt(n-1)) floor.

    The returned floor is the quoted one and holds only for n <= 5: the mass
    equals P(chi2_n <= n-1), which is below 1/2 for every n.
    """
    n = check_dimension(n, least=2)
    log_mass = log_ball_measure(Gaussian(), n, gaussian_mode_radius(n))
    floor = 1.0 - 2.0 / (math.sqrt(math.pi) * math.sqrt(n - 1.0))
    return log_mass, floor


@functools.lru_cache(maxsize=1)
def _gaussian_stage(n: int, lam: float):
    """The p-free part of ``gaussian_construction``: the radius, the estimates
    and the measures."""
    beta0, cos_b0 = _contact_angle(lam)
    s = math.sin(beta0)
    c = cos_b0 * cos_b0
    e_c = math.exp(-c)
    R_n = gaussian_mode_radius(n)
    R = math.exp(-0.5 * c) * R_n
    r = lam * R
    lsa = log_sphere_area(n)
    log_K_half_n = 0.5 * n * (math.log(n - 1.0) - math.log(2.0 * math.pi))
    terms = {
        "bound_cap_cover": lsa - math.pi * R * R * s * s + n * math.log(R * s),
        "bound_outside": (lsa + n * math.log(s)
                          - math.log(math.sqrt(math.pi) * s * cos_b0)
                          + math.log(R + r) - math.pi * R_n * R_n
                          + (n - 1.0) * math.log(R_n)),
        "bound_offcenter_total": (lsa + math.log(2.0)
                                  - 0.5 * n * (s * s * e_c + c) + log_K_half_n
                                  + n * math.log(s)),
        "bound_ball_R": 0.5 + lsa - math.log(n) - 0.5 * n * (e_c + c) + log_K_half_n,
        "ratio_lower_log": -math.log(n) + math.pi * R * R * (1.0 - lam * lam)
                           + n * math.log(lam),
        # 1 - (s^2 e^-c + c) factors as (1-c)(1-e^-c); the product form
        # stays positive down to c ~ 1e-18 where the difference underflows
        "dominance_margin": (1.0 - c) * -math.expm1(-c),
        "transcendental_residual": (n * math.log(R) - math.pi * R * R * s * s
                                    - ((n - 1.0) * math.log(R_n) - math.pi * R_n * R_n)),
    }
    return (beta0, growth_parts("gaussian-lower", lam), R, r, MappingProxyType(terms),
            _exact_measures(Gaussian(), n, R, r))


def gaussian_construction(n: int, p: float, lam: float) -> BoundReport:
    """Sharper lower-bound construction for the Gaussian measure.

    Balancing the cap-cover and annulus estimates suggests the radius
    R = e^(-cos(b0)^2 / 2) sqrt((n-1)/(2 pi)) (an approximate balance, not
    an exact root; the residual is recorded).  The certified bound is

        log T >= -log n + n log alpha,

    with alpha the Gaussian growth base; each displayed estimate of the
    derivation lands in ``terms``.
    """
    n = check_dimension(n, least=2)
    _check_lam_p(lam, p)
    beta0, parts, R, r, terms, measures = _gaussian_stage(n, lam)
    log_alpha = _log_alpha(*parts, p)
    terms = {**terms, "growth_base_log": log_alpha,
             "decay_upper_bound": gaussian_upper_bound(n, p, R, r)}
    exact = None
    if measures is not None:
        exact = _log_t(p, *measures)
        terms.update(zip(("log_mu_ball_R", "log_mu_ball_r", "log_mu_offcenter"), measures))
    return BoundReport(n=n, p=p, lam=lam, beta0=beta0, R=R, r=r,
                       alpha=math.exp(log_alpha), log_t_lower=-math.log(n) + n * log_alpha,
                       log_t_exact=exact, terms=terms)


def gaussian_upper_bound(n: int, p: float, R: float, r: float) -> float:
    """Closed-form decay bound on log T for the Gaussian below the mode radius.

    sqrt(pi) n sin(b0) e^((lam^2-1)/2 (p-1)/p)
      * ((e^((1-lam^2)/2) lam)^((p-1)/p) / sin b0)^n,
    valid for 0 < r < R <= sqrt((n-1)/(2 pi)), n >= 2.
    """
    n = check_dimension(n, least=2)
    _check_p(p)
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    if R > gaussian_mode_radius(n) * (1.0 + 1e-12):
        raise ValueError("the decay bound only covers R <= sqrt((n-1)/(2 pi))")
    lam = r / R
    a, b = growth_parts("gaussian-upper", lam)  # a = -log sin b0
    q = (p - 1.0) / p
    return (0.5 * math.log(math.pi) + math.log(n) - a + 0.5 * (lam * lam - 1.0) * q
            + n * _log_alpha(a, b, p))


def _unitball_beta0(R: float, lam: float) -> float:
    """Contact angle b0 against the unit sphere, after the sandwich's R checks."""
    if not 0.0 < R <= 1.0:
        raise ValueError("R must lie in (0, 1]")
    if R < 1.0:
        raise ValueError("the unit-ball lower bound is only certified at R = 1")
    if not lam > 0.0:  # before the division below; catches NaN too
        raise ValueError("lam must be positive")
    if R >= math.sqrt(2.0) / (1.0 + lam):
        raise ValueError("sandwich needs R < sqrt(2)/(1+lam)")
    return _contact_angle(lam)[0]


def unitball_case_analysis(n: int, p: float, R: float, lam: float):
    """Classify (R, lam) into the decay proof's case and return its T bound.

    Case 1: R = 1, lam < sqrt(2)-1          sqrt(pi) n alpha^n
    Case 2: sin b0 < R < sqrt(2)/(1+lam)    sqrt(pi) n alpha^n (monotone in R)
    Case 3: R <= sin b0 (and R below the threshold)
                                            sqrt(pi) n lam^(n(p-1)/p)
    Case 4: R >= sqrt(2)/(1+lam)            2 lam^(n(p-1)/p), from the
                                            half-ball volume floor on B~
    """
    n = check_dimension(n)
    r = lam * R
    if not 0.0 < r < R <= 1.0:
        raise ValueError("need 0 < r < R <= 1")
    _check_p(p)
    q = (p - 1.0) / p
    threshold = math.sqrt(2.0) / (1.0 + lam)
    if R >= threshold:
        return 4, math.log(2.0) + n * q * math.log(lam)
    if R != 1.0 and R <= math.sin(_contact_angle(lam, R)[0]):
        return 3, math.log(math.sqrt(math.pi) * n) + n * q * math.log(lam)
    # R < threshold (case 1), or sin b0 < R < threshold (case 2), forces
    # lam < sqrt(2)-1, the growth table's domain
    return (1 if R == 1.0 else 2,
            math.log(math.sqrt(math.pi) * n) + n * growth_base_log("unitball", p, lam))


@functools.lru_cache(maxsize=1)
def _unitball_stage(n: int, R: float, lam: float):
    """The p-free part of ``unitball_construction``: the angle and the measures."""
    return (_unitball_beta0(R, lam), growth_parts("unitball", lam),
            _exact_measures(UnitBallIndicator(), n, R, lam * R))


def unitball_construction(n: int, p: float, R: float, lam: float) -> BoundReport:
    """BoundReport for the unit-ball measure at explicit (R, lam).

    The terms hold the two-sided sandwich

        n log(R lam^((p-1)/p) / sin b0)  <=  log T  <=  log(sqrt(pi) n) + same,

    with b0 the contact angle against the unit sphere; it needs
    R < sqrt(2)/(1 + lam).  The lower end is certified only at R = 1: below
    it, it can exceed the exact T (n = 100, p = 1.02, R = 0.8, lam = 0.2
    gives -8.29 against -12.45), so R < 1 is refused.
    """
    n = check_dimension(n)
    _check_p(p)
    beta0, parts, measures = _unitball_stage(n, R, lam)
    log_alpha = _log_alpha(*parts, p)
    lo = n * log_alpha  # R = 1, so log alpha has no log R term
    case_id, case_upper = unitball_case_analysis(n, p, R, lam)
    terms = {
        "sandwich_lower": lo,
        "sandwich_upper": math.log(math.sqrt(math.pi) * n) + lo,
        "case_id": float(case_id),
        "case_upper_bound": case_upper,
    }
    exact = None
    if measures is not None:
        lb_R, lb_r, lb_off = measures
        exact = _log_t(p, *measures)
        terms.update({
            "log_mu_ball_R": lb_R,
            "log_mu_ball_r": lb_r,
            "log_mu_offcenter": lb_off,
            "small_ratio_log": lb_r - lb_R,
        })
    return BoundReport(n=n, p=p, lam=lam, beta0=beta0, R=R, r=lam * R,
                       alpha=math.exp(log_alpha), log_t_lower=lo,
                       log_t_exact=exact, terms=terms)


def clear_stage_caches():
    """Empty the constructions' p-free stage caches.

    The CLI does so once per invocation, so an invocation's work does not
    depend on the invocations that ran before it in the same process.
    """
    for stage in (_general_stage, _gaussian_stage, _unitball_stage):
        stage.cache_clear()
