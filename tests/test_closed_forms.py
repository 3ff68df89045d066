"""Library measures against closed forms at high dimension, evaluated in mpmath.

The Gaussian ball exp(-pi |x|^2) dx has mass P(n/2, pi rho^2), the
regularized lower incomplete gamma function (DLMF 8.2); an off-center ball
B(d xi, t) has the noncentral chi-squared mass sum_j Pois(j; pi d^2)
P(n/2 + j, pi t^2) (Ding, "Algorithm AS 275", 1992).  The lens of the
unit ball and B(d xi, t) is the sum of two spherical caps, one of each
ball, cut by their common hyperplane; a cap is half the ball's volume
times a regularized incomplete beta function (DLMF 8.17; S. Li, "Concise
formulas for the area and volume of a hyperspherical cap", 2011).  Both
reach far past the brute-force oracle's n <= 6.  The library computes the
unit-ball measures in closed form itself, so these are also checked against
the quadrature route of the same measure.
"""

import itertools
import math

import pytest

from radialmax.bounds import gaussian_construction
from radialmax.densities import Gaussian, TabulatedDecreasing, UnitBallIndicator
from radialmax.geometry import intersect_with_centered_ball, off_center_ball_measure
from radialmax.measures import log_ball_measure

mpmath = pytest.importorskip("mpmath")

_DPS = 40


def _log_gamma_p(a: float, x: float) -> float:
    """log P(a, x).

    Through Q for x >= a; below a, by the positive series
    P = x^a e^-x / Gamma(a+1) * sum_k x^k / ((a+1)...(a+k)), because
    mpmath.gammainc does not converge on the lower side at a ~ 5e4.
    """
    with mpmath.workdps(_DPS):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        if x >= a:
            return float(mpmath.log1p(-mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
        total = term = mpmath.mpf(1)
        k = 0
        while term > total * mpmath.mpf(10) ** (5 - _DPS):
            k += 1
            term *= x / (a + k)
            total += term
        return float(a * mpmath.log(x) - x - mpmath.loggamma(a + 1) + mpmath.log(total))


def _log_ball(n, rho):
    """log volume of B(0, rho) in R^n (mpmath)."""
    with mpmath.workdps(_DPS):
        return (n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2 + 1)
                + n * mpmath.log(rho))


def _log_cap(n, rho, c):
    """log volume of {x in B(0, rho): x_1 >= c} for -rho <= c <= rho (mpmath)."""
    log_ball = _log_ball(n, rho)
    half = mpmath.betainc(mpmath.mpf(n + 1) / 2, mpmath.mpf(1) / 2, 0, 1 - (c / rho) ** 2,
                          regularized=True) / 2
    return log_ball + mpmath.log(half if c >= 0 else 1 - half)


def _log_lens(n: int, d: float, t: float, a: float = 1.0) -> float:
    """log vol(B(0, a) ∩ B(d xi, t)) for |a - t| < d < a + t.

    The boundary spheres meet in the hyperplane x_1 = c, at distance c from
    the origin and d - c from the other centre, on the origin's side of it.
    """
    with mpmath.workdps(_DPS):
        d, t, a = mpmath.mpf(d), mpmath.mpf(t), mpmath.mpf(a)
        c = (d * d + a * a - t * t) / (2 * d)
        return float(mpmath.log(mpmath.exp(_log_cap(n, a, c))
                                + mpmath.exp(_log_cap(n, t, d - c))))


@pytest.mark.parametrize("n,tol", [(2, 1e-10), (10, 1e-10), (100, 1e-10), (1000, 1e-10),
                                   (10_000, 1e-10), (100_000, 5e-10)])
@pytest.mark.parametrize("frac", [0.5, 0.9, 1.0, 1.1, 2.0])
def test_gaussian_ball_is_incomplete_gamma(n, tol, frac):
    # the tolerance widens at n = 1e5, where log terms of size ~1e5 cancel
    rho = frac * math.sqrt((n - 1) / (2.0 * math.pi))
    exact = _log_gamma_p(n / 2.0, math.pi * rho * rho)
    assert abs(log_ball_measure(Gaussian(), n, rho) - exact) <= tol


def _log_noncentral_chi2(n: int, d: float, t: float) -> float:
    """log mu(B(d xi, t)) for the Gaussian: a Poisson mixture of P(n/2 + j, pi t^2).

    Past the Poisson mode both factors fall with j, so the sum stops once a
    term is 50 log-units below the largest.
    """
    with mpmath.workdps(_DPS):
        lam, x = mpmath.pi * mpmath.mpf(d) ** 2, mpmath.pi * mpmath.mpf(t) ** 2
        terms = []
        for j in itertools.count():
            terms.append(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1)
                         + _log_gamma_p(n / 2 + j, x))
            if j > lam and terms[-1] < max(terms) - 50:
                break
        top = max(terms)
        return float(top + mpmath.log(mpmath.fsum(mpmath.exp(v - top) for v in terms)))


# the benchmark's oracle-inclusion/2/14 candidate, n = 3, d = 0.39438040059138463,
# t = 3.0265303763987245e-4, in units of the n = 3 mode radius 1/sqrt(pi)
_THIN = (0.39438040059138463 * math.sqrt(math.pi), 3.0265303763987245e-4 * math.sqrt(math.pi))


@pytest.mark.parametrize("n", [2, 3, 6, 10, 100, 1000])
@pytest.mark.parametrize("d,t", [(0.4, 1.1), (1.0, 0.5), pytest.param(*_THIN, id="thin")])
def test_gaussian_off_center_is_noncentral_chi2(n, d, t):
    # (d, t) in units of the mode radius sqrt((n - 1) / (2 pi)).  With d < t
    # the sphere |y| = s meets B(d xi, t) in caps of angle pi down to 0, so
    # the cap integral runs on both sides of pi/2; with d > t every angle is
    # below arcsin(t / d).  The worst case is about 5e-12, at n = 2.  The
    # thin ball, t / d ~ 8e-4, holds 1e-12: its cap angles come from gap
    # products, where the law-of-cosines arccos was 4.2e-10 off at n = 3.
    tol = 1e-12 if (d, t) == _THIN else 1e-11
    scale = math.sqrt(max(n - 1, 1) / (2.0 * math.pi))
    d, t = d * scale, t * scale
    exact = _log_noncentral_chi2(n, d, t)
    lib = off_center_ball_measure(Gaussian(), n, d, t)
    assert abs(lib - exact) <= tol * max(1.0, abs(exact))


@pytest.mark.parametrize("n,geometry", [
    pytest.param(1000, "construction", id="1000-construction"),
    pytest.param(10_000, (0.4, 1.1), id="10000-0.4-1.1")])
def test_gaussian_off_center_is_noncentral_chi2_at_bound_dimensions(n, geometry):
    # bound-exact evaluates the Gaussian off-center measure up to n = 10^4:
    # at n = 1000 the Gaussian construction's own B(R xi, R + r), lam = 0.2,
    # and at n = 10^4 (0.4, 1.1) in units of the mode radius.  Measured
    # errors: 5.3e-15 and 6.2e-12 of max(1, |exact|).  The construction's
    # ball at n = 10^4 is left out: its mpmath sum takes about 20 s
    if geometry == "construction":
        rep = gaussian_construction(n, 1.01, 0.2)
        d, t = rep.R, rep.R + rep.r
    else:
        scale = math.sqrt((n - 1) / (2.0 * math.pi))
        d, t = geometry[0] * scale, geometry[1] * scale
    exact = _log_noncentral_chi2(n, d, t)
    lib = off_center_ball_measure(Gaussian(), n, d, t)
    assert abs(lib - exact) <= 1e-11 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
@pytest.mark.parametrize("R,lam", [(1.0, 0.05), (1.0, 0.2), (1.0, 0.4), (0.8, 0.2),
                                   (0.5, 0.3)])
def test_unit_ball_lens_is_two_beta_caps(n, R, lam):
    # at (0.5, 0.3) the cap of B(d xi, t) holds its centre (d - c < 0),
    # which takes the complement branch of _log_cap
    exact = _log_lens(n, R, R * (1.0 + lam))
    lib = off_center_ball_measure(UnitBallIndicator(), n, R, R * (1.0 + lam))
    assert abs(lib - exact) <= 1e-13 * max(1.0, abs(exact))


# (d, t) in units of the radius a of the centered ball
_LENS_SHAPES = {
    "two-small-caps": (1.0, 0.6),
    "cap-past-centre": (0.9, 0.3),  # d - c < 0: the cap of B(d xi, t) has angle > pi/2
    "thin": (1.4 - 1e-9, 0.4),  # d within 1e-9 a of a + t
    "inside": (0.5, 0.2),  # B(d xi, t) lies in B_a
}


@pytest.mark.parametrize("n", [2, 3, 6, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("a", [0.3, 1.0])
@pytest.mark.parametrize("shape", sorted(_LENS_SHAPES))
def test_unit_ball_intersection_closed_form(n, a, shape):
    d, t = (a * x for x in _LENS_SHAPES[shape])
    if shape == "inside":
        exact = float(_log_ball(n, t))
    else:
        exact = _log_lens(n, d, t, a)
    lib = intersect_with_centered_ball(UnitBallIndicator(), n, d, t, a)
    assert abs(lib - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [2, 3, 6, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5, math.inf])
def test_unit_ball_centered_ball_closed_form(n, rho):
    exact = float(_log_ball(n, min(rho, 1.0)))
    lib = log_ball_measure(UnitBallIndicator(), n, rho)
    assert abs(lib - exact) <= 1e-13 * max(1.0, abs(exact))


# the same measure as UnitBallIndicator, but one that still runs through the
# radial quadrature
_QUADRATURE_UNIT_BALL = TabulatedDecreasing([1.0], [0.0])


@pytest.mark.parametrize("n", [2, 3, 6, 10, 100])
@pytest.mark.parametrize("d,t,rho", [(1.0, 1.2, math.inf), (0.5, 0.7, 1.0), (0.3, 0.2, 0.6),
                                     (0.7, 0.5, 0.4), (0.9, 0.3, math.inf),
                                     (0.2, 0.3, 0.8), (0.4, 2.0, 0.5)])
def test_unit_ball_intersection_matches_quadrature(n, d, t, rho):
    lib = intersect_with_centered_ball(UnitBallIndicator(), n, d, t, rho)
    quad = intersect_with_centered_ball(_QUADRATURE_UNIT_BALL, n, d, t, rho)
    assert abs(lib - quad) <= 1e-10 * max(1.0, abs(quad))
    if rho == math.inf:
        assert off_center_ball_measure(UnitBallIndicator(), n, d, t) == lib


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
@pytest.mark.parametrize("rho", [0.25, 0.9, 1.0, 3.0])
def test_unit_ball_centered_ball_matches_quadrature(n, rho):
    lib = log_ball_measure(UnitBallIndicator(), n, rho)
    quad = log_ball_measure(_QUADRATURE_UNIT_BALL, n, rho)
    assert abs(lib - quad) <= 1e-10 * max(1.0, abs(quad))
