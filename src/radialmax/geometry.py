"""Off-center balls and spherical caps in log space.

Rotation invariance reduces every ball B(x, t) to the pair (d, t) with
d = |x|.  The sphere of radius s meets B(d xi, t) in a polar cap whose
angle theta(s) comes from the half-angle tangent of the triangle
(0, d xi, y) (``cap_angle``), so an off-center measure is a 1-D radial
integral

    mu(B(d xi, t)) = omega_{n-2} * int f(s) s^(n-1) J_n(theta(s)) ds,
    J_n(theta) = int_0^theta sin(beta)^(n-2) dbeta,

plus a fully-contained core when t > d.  At n = 1 the sphere is the two
points +-s: the core holds both and a band radius one, so the band has
weight 1 and no cap (``_band_log_weight``).  The vectorized evaluator
``_cap_j_log`` used inside integrands evaluates each angle once:
on theta itself up to pi/2, and past pi/2 on pi - theta, whose value the
complement rule J(theta) = 2 J(pi/2) - J(pi - theta) turns into J(theta).
At the oracle's dimensions the exponent m = n - 2 is at most 6 (a lens
needs m = n <= 6), and there int_0^theta sin^m is elementary: a series in
sin^2(theta/2) that is a polynomial for odd m, and for even m above pi/4
the recurrence in sin and cos, with J(pi/2) from Wallis's formula.  Above
m = 6 the change of variables sin(beta) = sin(theta) e^(-v/m),
x^2 = a^2 + v with a^2 = -m log sin(theta) turns J into a Gaussian tail,

    J_m(theta) = sqrt(2/m) int_a^inf e^(-x^2) G(2 x^2 / m) dx,
    G(z) = sqrt(z / expm1(z)),

whose smooth integrand ``quadrature.fixed_log_integral`` integrates over
[a, sqrt(a^2 + 40)] in 2 panels of 16 nodes (``_cap_j_log_half``).

From n = 2 on, the unit ball needs no radial integral: B(d xi, t) ∩ B_a
is a lens of two balls, two spherical caps cut by one hyperplane, and
``_log_lens`` adds their closed-form volumes.

Every other off-center measure takes one exact route, ``_log_measures``,
a two-order fixed rule on a core and a band per cap: with one cap rho for
the public functions, and so for ``bounds``'s exact T, and with the two
caps r and inf for the oracle's exact pass.

Pure functions throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .densities import RadialDensity, UnitBallIndicator
from .logspace import LOG_ZERO
from .measures import (_probe_hints, check_dimension, check_radius, log_ball_volume,
                       log_sphere_area, radial_log_integrand)
from .quadrature import N_PROBES, WINDOW_DROP, fixed_log_integral, log_integral

_TAIL_WIDTH = 40.0  # the rule stops at x^2 = a^2 + 40: a dropped tail below e^-40
_TAIL_PANELS = 2
_TAIL_ORDER = 16
_ELEMENTARY_MAX_M = 6  # J_m in elementary functions up to here: the oracle's n <= 6
_SERIES_TERMS = 16     # of the even-m series, on theta <= pi/4
_RULE_PANELS = 8       # the off-center measure's two-order fixed rule
_RULE_ORDERS = (16, 24)
_RULE_AGREEMENT = 1e-12


def cap_angle(d, t, s):
    """Polar angle of the cap where the sphere |y| = s meets B(d xi, t), vectorized.

    From the half-angle tangent of the triangle (0, d xi, y),

        tan(theta / 2) = sqrt((t - |d - s|)(t + |d - s|) / ((d + s - t)(d + s + t))),

    a ratio of gap products as in ``_log_lens``: a ball much thinner than
    its distance (t << d) keeps full relative precision, where the law of
    cosines takes arccos next to 1.  The gaps t - |d - s| and d + s - t are
    clipped at 0, which gives 0 where the sphere misses the ball and pi
    where it lies inside.  No checks.
    """
    gap = np.abs(d - s)
    return 2.0 * np.arctan2(np.sqrt(np.maximum(t - gap, 0.0) * (t + gap)),
                            np.sqrt(np.maximum(d + s - t, 0.0) * (d + s + t)))


@lru_cache(maxsize=_ELEMENTARY_MAX_M)
def _cap_series(m: int) -> np.ndarray:
    """Coefficients c_k of J_m = 2^m y^(a+1)/(a+1) sum_k c_k y^k, 1 <= m <= 6.

    With y = sin^2(theta/2) and a = (m - 1)/2, the substitution
    w = sin^2(beta/2) gives J_m = 2^m int_0^y (w (1 - w))^a dw, and
    expanding (1 - w)^a gives c_k = (-a)_k / k! (a + 1)/(a + 1 + k).  For
    odd m the sum ends at k = a: J_1 = v, J_3 = v^2 (1 - v/3) and
    J_5 = v^3 (4/3 - v + v^2/5) with v = 2y, exact on [0, pi/2].  For even
    m it converges like sin^2(pi/8)^k = 0.146^k on theta <= pi/4, where
    _SERIES_TERMS = 16 terms leave a tail below half an ulp.  Zeros pad
    the count to a power of two, at least 2, for ``_estrin``; read-only.
    """
    a = 0.5 * (m - 1)
    terms = int(a) + 1 if m % 2 else _SERIES_TERMS
    coeffs = np.zeros(max(2, 1 << (terms - 1).bit_length()))
    rising = 1.0
    for k in range(terms):
        coeffs[k] = rising * (a + 1.0) / (a + 1.0 + k)
        rising *= (k - a) / (k + 1.0)
    coeffs.flags.writeable = False
    return coeffs


def _estrin(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] y^k by Estrin's scheme; len(coeffs) a power of two >= 2.

    Pairs c_2i + c_2i+1 y, then pairs of pairs with y^2, and so on: a
    Horner rule of depth log2(len(coeffs)) whose every level is one array
    operation over all its pairs, so a short batch makes 3 log2(len)
    numpy calls where Horner makes two per term.  Each point's float
    depends on that point alone.
    """
    pairs = coeffs.reshape(-1, 2, *([1] * y.ndim))  # broadcast against y of any shape
    total = pairs[:, 1] * y
    total += pairs[:, 0]
    power = y
    while len(total) > 1:
        power = power * power
        total = total[0::2] + total[1::2] * power
    return total[0]


def _cap_j_log_series(m: int, th: np.ndarray) -> np.ndarray:
    """log J_m by the series of ``_cap_series``."""
    half = np.sin(0.5 * th)
    total = _estrin(_cap_series(m), half * half)
    with np.errstate(divide="ignore"):  # theta = 0 gives -inf
        return ((m * math.log(2.0) - math.log(0.5 * (m + 1))) + (m + 1) * np.log(half)
                + np.log(total))


def _cap_j_log_elementary(m: int, th: np.ndarray) -> np.ndarray:
    """log J_m on [0, pi/2] in elementary functions, 1 <= m <= 6.

    The series for odd m, and for even m up to pi/4; above pi/4 the even
    m climb the recurrence J_k = ((k - 1) J_(k-2) - sin^(k-1) cos) / k from
    J_0 = theta, which loses at most a factor of about 2.7 per step there.
    """
    if m % 2:
        return _cap_j_log_series(m, th)
    out = np.empty(th.shape)
    low = th <= 0.25 * math.pi
    if low.any():
        out[low] = _cap_j_log_series(m, th[low])
    if not low.all():
        high = ~low
        theta = th[high]
        sin = np.sin(theta)
        term = sin * np.cos(theta)  # sin^(k-1) cos at k = 2
        j = 0.5 * (theta - term)    # J_2
        if m > 2:
            sin2 = sin * sin
            for k in range(4, m + 1, 2):
                term *= sin2
                j = ((k - 1) * j - term) / k
        out[high] = np.log(j)
    return out


def _cap_tail_log(x, m: int):
    """log of e^(-x^2) G(2 x^2 / m) for ``_cap_j_log_half``, with
    G(z) = sqrt(z / expm1(z)) = e^(-z/2) sqrt(z / -expm1(-z)); x > 0."""
    x2 = x * x
    z = (2.0 / m) * x2
    return 0.5 * np.log(z / -np.expm1(-z)) - (1.0 + 1.0 / m) * x2


def _cap_j_log_half(m: int, theta):
    """log J_m on [0, pi/2]: J_m(theta) = int_0^theta sin^m, m >= 1, vectorized.

    Elementary for m <= _ELEMENTARY_MAX_M, the oracle's dimensions.  Above,
    a Gaussian tail: put sin(beta) = sin(theta) e^(-v/m), v in [0, inf),
    so that sin^m(beta) = sin^m(theta) e^(-v) and
    dbeta = -tan(beta) dv / m; then x^2 = a^2 + v, a^2 = -m log sin(theta),
    gives sin^m(beta) = e^(-x^2), dv = 2x dx, sin(beta) = e^(-x^2/m) and
    cos(beta) = sqrt(-expm1(-z)) with z = 2 x^2 / m, so that

        J_m(theta) = int_a^inf e^(-x^2) (2x/m) e^(-z/2) / sqrt(-expm1(-z)) dx
                   = sqrt(2/m) int_a^inf e^(-x^2) G(z) dx,  G(z) = sqrt(z / expm1(z)),

    since 2x/m = sqrt(2/m) sqrt(z).  G falls from 1 at z = 0, so the
    integrand is smooth on [a, inf), also at theta = pi/2 (a = 0), and past
    x^2 = a^2 + _TAIL_WIDTH it holds a share below e^-40 of the whole: the
    fixed rule runs on [a, sqrt(a^2 + _TAIL_WIDTH)].  From pi/4 on,
    a^2 = -(m/2) log1p(-cos^2 theta), since log(sin theta) loses its digits
    next to pi/2.  theta = 0 (a = inf) is LOG_ZERO, masked before the rule.
    """
    th = np.asarray(theta, dtype=float)
    if m <= _ELEMENTARY_MAX_M:
        return _cap_j_log_elementary(m, th)
    cos = np.cos(th)
    with np.errstate(divide="ignore"):  # theta = 0 gives +inf, masked next
        a2 = np.where(th < 0.25 * math.pi, -m * np.log(np.sin(th)),
                      -0.5 * m * np.log1p(-cos * cos))
    inside = th > 0.0
    a2 = np.where(inside, a2, 0.0)
    tail = fixed_log_integral(lambda x: _cap_tail_log(x, m), np.sqrt(a2),
                              np.sqrt(a2 + _TAIL_WIDTH), _TAIL_PANELS, _TAIL_ORDER)
    return np.where(inside, 0.5 * math.log(2.0 / m) + tail, LOG_ZERO)


@lru_cache(maxsize=256)
def _cap_j_log_half_pi(m: int) -> float:
    """log J_m(pi/2), the constant of the complement rule; cached per m.

    Where ``_cap_j_log_half`` is elementary, in closed form: Wallis's
    sqrt(pi) Gamma((m + 1)/2) / (2 Gamma(m/2 + 1)) = (m - 1)!! / m!!, times
    pi/2 for even m, as one correctly rounded ratio of integers.
    """
    if m <= _ELEMENTARY_MAX_M:
        wallis = math.prod(range(m - 1, 0, -2)) / math.prod(range(m, 0, -2))
        return math.log(wallis * (0.5 * math.pi if m % 2 == 0 else 1.0))
    return float(_cap_j_log_half(m, np.asarray(0.5 * math.pi)))


def _cap_j_log(n: int, theta):
    """log J_{n-2}(theta) on [0, pi], vectorized; complement rule past pi/2."""
    if n < 2:
        raise ValueError("caps need dimension n >= 2")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(np.clip(th, 0.0, math.pi))
    m = n - 2
    if m == 0:
        out = np.where(th > 0.0, np.log(np.maximum(th, 1e-300)), LOG_ZERO)
        return float(out[0]) if scalar else out
    over = th > 0.5 * math.pi
    # one rule evaluation per angle: past pi/2 it runs on the complement angle
    out = _cap_j_log_half(m, np.where(over, math.pi - th, th))
    if np.any(over):
        log_full = math.log(2.0) + _cap_j_log_half_pi(m)
        # J(theta) = 2 J(pi/2) - J(pi - theta), as log_full + log(-expm1(c -
        # log_full)); operands stay within 2x, no cancellation.  A complement
        # c of -inf (theta = pi) leaves log_full, and equal operands give -inf
        with np.errstate(divide="ignore"):
            out[over] = log_full + np.log(-np.expm1(np.minimum(out[over], log_full)
                                                    - log_full))
    return float(out[0]) if scalar else out


def _band_log_weight(n: int):
    """(log omega_{n-2}, theta -> log J_{n-2}(theta)), a band radius's cap
    weight; at n = 1, (0, 0): it holds one of the two points +-s, no cap."""
    if n == 1:
        return 0.0, np.zeros_like
    return log_sphere_area(n - 1), partial(_cap_j_log, n)


def _log_lens(n: int, d: float, t: float, a: float) -> float:
    """log Lebesgue volume of B(d xi, t) ∩ B_a in R^n, for n >= 2 and d >= 0.

    The boundary spheres meet in the hyperplane x_1 = (d^2 + a^2 - t^2)/(2d),
    which cuts a cap of half-angle phi_1 off B_a and one of half-angle phi_2
    off B(d xi, t).  A cap of angle phi of a ball of radius c has volume
    V_{n-1} c^n J(phi), J(phi) = int_0^phi sin^n, with V_{n-1} the volume
    of the unit ball of R^(n-1) (S. Li, "Concise formulas for the area and
    volume of a hyperspherical cap", 2011).  The angles come from their
    half-angle tangents, which are products of the gaps u = a + t - d,
    v = t + d - a and w = a + d - t, e.g. 1 - cos phi_1 = u v / (2 a d);
    so a thin lens (u -> 0) keeps full relative precision, where arccos
    near 1 would not.
    """
    u = math.fsum((a, t, -d))
    if u <= 0.0:
        return LOG_ZERO  # disjoint, or touching
    v = math.fsum((t, d, -a))
    w = math.fsum((a, d, -t))
    if v <= 0.0 or w <= 0.0:  # one ball holds the other
        return log_ball_volume(n, min(a, t))
    s = a + d + t
    phi = [2.0 * math.atan2(math.sqrt(u * v), math.sqrt(w * s)),
           2.0 * math.atan2(math.sqrt(u * w), math.sqrt(v * s))]
    j1, j2 = _cap_j_log(n + 2, np.asarray(phi))  # log J_n = log J_{(n+2)-2}
    return log_ball_volume(n - 1, 1.0) + float(np.logaddexp(n * math.log(a) + float(j1),
                                                            n * math.log(t) + float(j2)))


def _log_measures(f: RadialDensity, n: int, d: float, t: float, caps: tuple):
    """([log mu(B(d xi, t) ∩ B_cap) for each cap], whether the fixed rule settled all).

    Each cap gives two rows: the core [0, min(max(t - d, 0), cap, S)], a
    centered ball that B(d xi, t) holds whole, with weight omega_{n-1}, and
    the band [|t - d|, min(d + t, cap, S)], with the cap weight of
    ``_band_log_weight``; S is the support.  Each row runs on u in [0, 1]
    through s = lo + (hi - lo)(3u^2 - 2u^3), which turns the band's
    (s - lo)^((n-1)/2) ends into polynomials, by ``fixed_log_integral`` at
    _RULE_ORDERS on _RULE_PANELS panels, and settles when the two orders
    agree to _RULE_AGREEMENT max(1, |log|); rows empty at both orders
    agree.  A row that does not settle is cut to its window, the cells of
    an N_PROBES-point scan within WINDOW_DROP of the row's maximum and one
    more on each side, and runs again.  A row that still does not settle,
    such as one across a jump of a step density, takes ``log_integral`` on
    the whole row, probed at the density's knots and peak and, on a band
    with d > t, at sqrt(d^2 - t^2), where theta(s) is maximal.
    """
    S = f.support_upper_bound
    lo = np.array([0.0, abs(t - d)] * len(caps))  # the core never passes |t - d|
    hi = np.array([x for cap in caps for x in (min(max(t - d, 0.0), cap, S),
                                                min(d + t, cap, S))])
    band = np.arange(len(lo)) % 2 == 1
    phi_radial = radial_log_integrand(f, n)
    log_omega_sub, cap_j = _band_log_weight(n)
    weight = np.where(band, log_omega_sub, log_sphere_area(n))

    def add_caps(out, s, band):
        out[band] += cap_j(cap_angle(d, t, s[band]))
        return out

    def log_f(u, lo, width, band):
        s = lo + width * (u * u * (3.0 - 2.0 * u))
        return add_caps(phi_radial(s) + np.log(width * (6.0 * u * (1.0 - u))), s, band)

    def band_phi(s):  # a band row's log-integrand for ``log_integral``
        return phi_radial(s) + cap_j(cap_angle(d, t, s))

    def rule(lo, hi, band, weight):
        width = np.maximum(hi - lo, 0.0)
        u_hi = np.where(width > 0.0, 1.0, 0.0)  # an empty row gives LOG_ZERO
        args = (lo[:, None, None], width[:, None, None], band)
        low, high = (fixed_log_integral(log_f, np.zeros(len(lo)), u_hi, _RULE_PANELS,
                                        order, args) + weight for order in _RULE_ORDERS)
        with np.errstate(invalid="ignore"):  # -inf - -inf on empty rows
            return high, (low == high) | (np.abs(high - low)
                                          <= _RULE_AGREEMENT * np.maximum(1.0, np.abs(high)))

    vals, settled = rule(lo, hi, band, weight)
    redo = np.flatnonzero(~settled)
    if redo.size:
        grid = np.linspace(lo[redo], hi[redo], N_PROBES, axis=1)
        scan = add_caps(phi_radial(grid), grid, band[redo])
        keep = scan >= np.max(scan, axis=1, keepdims=True) - WINDOW_DROP
        rows = np.arange(redo.size)
        first = np.maximum(np.argmax(keep, axis=1) - 1, 0)
        last = np.minimum(N_PROBES - np.argmax(keep[:, ::-1], axis=1), N_PROBES - 1)
        vals[redo], settled[redo] = rule(grid[rows, first], grid[rows, last], band[redo],
                                         weight[redo])
    by_rule = bool(settled.all())
    for i in np.flatnonzero(~settled).tolist():
        hints = _probe_hints(f, n) + ([math.sqrt(d * d - t * t)] if band[i] and d > t else [])
        res = log_integral(band_phi if band[i] else phi_radial, lo[i], hi[i],
                           probe_points=[h for h in hints if lo[i] < h < hi[i]])
        vals[i] = weight[i] + res.log_value
    return np.logaddexp(vals[0::2], vals[1::2]).tolist(), by_rule


def _log_off_center(f: RadialDensity, n: int, d: float, t: float, rho: float) -> float:
    n = check_dimension(n)
    check_radius("d", d)
    check_radius("t", t, positive=True)
    if not rho > 0:
        raise ValueError("rho must be positive")
    if n > 1 and isinstance(f, UnitBallIndicator):
        return _log_lens(n, d, t, min(rho, 1.0))
    return _log_measures(f, n, d, t, (rho,))[0][0]


def off_center_ball_measure(f: RadialDensity, n: int, d: float, t: float) -> float:
    """log mu(B(d xi, t)) for finite d >= 0 and t > 0; d = 0 is the centered ball."""
    return _log_off_center(f, n, d, t, math.inf)


def intersect_with_centered_ball(f: RadialDensity, n: int, d: float, t: float,
                                 rho: float) -> float:
    """log mu(B(d xi, t) ∩ B_rho), d and t as in ``off_center_ball_measure``, rho > 0."""
    return _log_off_center(f, n, d, t, rho)

