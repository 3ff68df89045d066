import math
import time
import warnings

import numpy as np
import pytest

from radialmax.densities import Gaussian, TabulatedDecreasing, UnitBallIndicator
from radialmax.bounds import _contact_angle, gaussian_construction
from radialmax.geometry import (_band_log_weight, _cap_j_log, _cap_j_log_half,
                                _cap_j_log_half_pi, _log_measures, cap_angle,
                                intersect_with_centered_ball, off_center_ball_measure)
from radialmax.logspace import LOG_ZERO
from radialmax.measures import (_probe_hints, log_ball_measure, log_sphere_area,
                                radial_log_integrand, upper_cutoff)
from radialmax.quadrature import log_integral

# log of the classical two-unit-disk lens area at center distance 1
LOG_UNIT_LENS = math.log(2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0)


def _log_sub(a: float, b: float) -> float:
    """log(e^a - e^b) for a >= b, one scalar at a time with math's log and expm1."""
    if b == LOG_ZERO:
        return a
    if a == b:
        return LOG_ZERO
    return a + math.log(-math.expm1(b - a))


def cap_log_area(n: int, theta: float) -> float:
    """log surface measure of the cap of angular radius theta on S^(n-1).

    omega_{n-2} * int_0^theta sin^(n-2), by adaptive log-domain quadrature;
    this is the reference route against which the fast evaluator and
    every closed form are tested.
    """
    if n < 2:
        raise ValueError("caps need dimension n >= 2")
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError("theta must lie in [0, pi]")
    theta = min(theta, math.pi)
    if theta == 0.0:
        return LOG_ZERO
    if n == 2:
        return math.log(theta) + log_sphere_area(1)
    m = n - 2

    def phi(beta):
        beta = np.asarray(beta, dtype=float)
        sin_b = np.sin(np.clip(beta, 0.0, math.pi))
        with np.errstate(divide="ignore"):
            return np.where(sin_b > 0.0, m * np.log(np.maximum(sin_b, 1e-300)), LOG_ZERO)

    hint = min(theta, 0.5 * math.pi)
    res = log_integral(phi, 0.0, theta, probe_points=[hint])
    return float(log_sphere_area(n - 1) + res.log_value)


def _two_pass_cap_j_log(n, theta):
    """The cap evaluator that runs the fixed rule on min(theta, pi/2) for
    every angle, then again on pi - theta for the angles past pi/2."""
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(np.clip(th, 0.0, math.pi))
    m = n - 2
    if m == 0:
        with np.errstate(divide="ignore"):
            out = np.where(th > 0.0, np.log(np.maximum(th, 1e-300)), LOG_ZERO)
        return float(out[0]) if scalar else out
    out = _cap_j_log_half(m, np.minimum(th, 0.5 * math.pi))
    over = th > 0.5 * math.pi
    if np.any(over):
        log_full = math.log(2.0) + _cap_j_log_half_pi(m)
        comp = _cap_j_log_half(m, math.pi - th[over])
        with np.errstate(divide="ignore"):
            vals = log_full + np.log(-np.expm1(np.minimum(comp, log_full) - log_full))
        out = out.copy()
        out[over] = vals
    return float(out[0]) if scalar else out


def cap_j_exact(m: int, theta: float) -> float:
    """Independent oracle: cancellation-safe closed forms for int_0^theta sin^m."""
    c = math.cos(theta)
    one_minus_c = 2.0 * math.sin(0.5 * theta) ** 2  # 1 - cos, stable at 0
    if m == 0:
        return theta
    if m == 1:
        return one_minus_c
    if m == 2:
        # (2 theta - sin 2 theta)/4, by series when the difference underflows
        if theta < 0.05:
            u = 2.0 * theta
            return (u ** 3 / 6.0 - u ** 5 / 120.0 + u ** 7 / 5040.0) / 4.0
        return (2.0 * theta - math.sin(2.0 * theta)) / 4.0
    if m == 3:
        # (2 - 3c + c^3)/3 = (1-c)^2 (2+c)/3
        return one_minus_c ** 2 * (2.0 + c) / 3.0
    raise ValueError(m)


class TestIntersectionAngle:
    # geometry.cap_angle is the one angle formula: the cap where the sphere
    # |y| = s meets B(d xi, t), pi inside the ball and 0 outside it
    def test_symmetric_case(self):
        # d = t = s = 1: cos(theta) = 1/2
        assert cap_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3.0, rel=1e-14)

    def test_containment_limit(self):
        # s = t - d exactly, and a sphere inside the ball
        assert cap_angle(0.5, 1.0, 0.5) == math.pi
        assert cap_angle(0.4, 1.0, 0.59) == math.pi

    def test_tangency_limit(self):
        # s = t + d exactly, and a sphere outside the ball
        assert cap_angle(0.5, 1.0, 1.5) == 0.0
        assert cap_angle(0.4, 1.0, 2.0) == 0.0

    def test_centered_ball(self):
        assert cap_angle(0.0, 1.0, 0.5) == math.pi
        assert cap_angle(0.0, 1.0, 1.0) == 0.0
        assert cap_angle(0.0, 1.0, 1.5) == 0.0

    def test_law_of_cosines_values(self):
        # d=2, t=1, s=2: cos = (4+4-1)/8 = 7/8
        assert cap_angle(2.0, 1.0, 2.0) == pytest.approx(math.acos(7.0 / 8.0), rel=1e-14)

    def test_cap_angle_is_the_one_formula(self):
        # the oracle's exact pass broadcasts rows of s; each entry is the
        # float of the scalar call, the law-of-cosines angle inside the lens,
        # and pi or 0 outside it
        rng = np.random.default_rng(11)
        d = 0.7
        ts = rng.uniform(0.05, 1.5, 40)
        s = rng.uniform(0.0, 2.5, (40, 30))
        got = cap_angle(d, ts[:, None], s)
        assert got.shape == s.shape
        for i, t in enumerate(ts):
            for j, sj in enumerate(s[i]):
                assert got[i, j] == float(cap_angle(d, float(t), float(sj)))
                if abs(t - d) < sj < t + d:
                    cos = (d * d + sj * sj - t * t) / (2.0 * d * sj)
                    assert got[i, j] == pytest.approx(math.acos(cos), rel=1e-9)
                else:
                    assert got[i, j] == (math.pi if sj <= t - d else 0.0)

    @pytest.mark.parametrize("d,t", [(0.39438040059138463, 3.0265303763987245e-4),
                                     (1.0, 1e-7), (2.5, 1e-3)])
    def test_thin_ball_angle_has_full_precision(self, d, t):
        # theta(s) for a ball much thinner than its distance, against the
        # half-angle tangent in mpmath; arccos of the law of cosines keeps
        # only about sqrt(eps) / theta of it there
        mpmath = pytest.importorskip("mpmath")
        s = d + t * np.linspace(-0.999, 0.999, 41)
        got = cap_angle(d, t, s)
        with mpmath.workdps(40):
            for si, gi in zip(s.tolist(), got.tolist()):
                D, T, S = mpmath.mpf(d), mpmath.mpf(t), mpmath.mpf(si)
                want = 2 * mpmath.atan(mpmath.sqrt((T * T - (D - S) ** 2)
                                                   / ((D + S) ** 2 - T * T)))
                assert abs(gi - float(want)) <= 1e-15 * float(want)


class TestCapArea:
    @pytest.mark.parametrize("n", [2, 3, 5, 11])
    def test_full_sphere(self, n):
        assert cap_log_area(n, math.pi) == pytest.approx(log_sphere_area(n), rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_hemisphere(self, n):
        expected = log_sphere_area(n) - math.log(2.0)
        assert cap_log_area(n, math.pi / 2.0) == pytest.approx(expected, rel=1e-10)

    def test_n3_closed_form(self):
        expected = math.log(2.0 * math.pi * (1.0 - math.cos(1.0)))
        assert cap_log_area(3, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_zero_cap(self):
        assert cap_log_area(7, 0.0) == LOG_ZERO

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_log_area(1, 1.0)
        with pytest.raises(ValueError):
            cap_log_area(3, 3.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("theta", [1e-4, 0.3, 1.0, math.pi / 2, 2.2, 3.0])
    def test_batch_evaluator_vs_closed_forms(self, n, theta):
        got = _cap_j_log(n, theta)
        assert got == pytest.approx(math.log(cap_j_exact(n - 2, theta)), rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("n", [7, 40, 500, 10_000])
    @pytest.mark.parametrize("theta", [0.05, 0.7, math.pi / 2, 2.5])
    def test_batch_evaluator_vs_adaptive(self, n, theta):
        batch = _cap_j_log(n, theta) + log_sphere_area(n - 1)
        adaptive = cap_log_area(n, theta)
        assert batch == pytest.approx(adaptive, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 10, 100, 10_000])
    def test_batch_evaluator_matches_two_pass_rule(self, m):
        # each angle is evaluated once, on its complement past pi/2; the
        # floats must be those of evaluating every angle on [0, pi/2] first
        n = m + 2
        edges = [0.0, 0.5 * math.pi, math.nextafter(0.5 * math.pi, math.pi), math.pi]
        for theta in edges:
            got = _cap_j_log(n, theta)
            assert isinstance(got, float)
            assert got.hex() == float(_two_pass_cap_j_log(n, theta)).hex()
        rng = np.random.default_rng(m)
        for size in (1, 7, 257):
            theta = rng.uniform(-0.1, math.pi + 0.1, size)
            theta[: size // 3] = rng.choice(edges, size // 3)
            got, want = _cap_j_log(n, theta), _two_pass_cap_j_log(n, theta)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]

    @pytest.mark.parametrize("m", [1, 2, 10, 10_000])
    def test_complement_rule_is_log_sub(self, m):
        # the vectorized complement past pi/2 against a scalar log-difference
        # per angle: numpy's log and expm1 may round differently from math's, by
        # at most one unit in the last place of max(1, |value|); theta = pi
        # (complement -inf) gives the full value exactly
        n = m + 2
        theta = np.concatenate([np.random.default_rng(m).uniform(0.5 * math.pi, math.pi, 2000),
                                [math.nextafter(0.5 * math.pi, math.pi), math.pi]])
        got = _cap_j_log(n, theta)
        log_full = math.log(2.0) + _cap_j_log_half_pi(m)
        comp = _cap_j_log_half(m, math.pi - theta)
        want = np.array([_log_sub(log_full, min(c, log_full)) for c in comp.tolist()])
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(1.0, np.abs(want))))
        assert got[-1] == want[-1] == log_full

    @pytest.mark.parametrize("n", [2, 3, 6, 25])
    @pytest.mark.parametrize("theta", [0.2, 1.0, 1.8, 2.9])
    def test_cap_complement(self, n, theta):
        total = np.logaddexp(cap_log_area(n, theta), cap_log_area(n, math.pi - theta))
        assert total == pytest.approx(log_sphere_area(n), rel=1e-9)


_QUARTER = 0.25 * math.pi
# the seam between the series and the recurrence, at pi/4 and, folded, at
# 3 pi/4, each with its neighbours one ulp away; the fold at pi/2; both ends
_ELEMENTARY_EDGES = [math.nextafter(_QUARTER, 0.0), _QUARTER, math.nextafter(_QUARTER, 1.0),
                     math.nextafter(0.5 * math.pi, 0.0), 0.5 * math.pi,
                     math.nextafter(0.5 * math.pi, math.pi),
                     math.nextafter(3.0 * _QUARTER, 0.0), 3.0 * _QUARTER,
                     math.nextafter(3.0 * _QUARTER, math.pi), 1e-8, math.pi - 1e-8, math.pi]
_ELEMENTARY_THETAS = np.concatenate([np.geomspace(1e-8, 0.1, 40),
                                     np.linspace(0.01, math.pi - 0.01, 200),
                                     math.pi - np.geomspace(1e-8, 0.1, 40),
                                     _ELEMENTARY_EDGES])


def _log_cap_j_betainc(m: int, theta: float) -> float:
    """log J_m(theta) from the classical 1/2 B(sin^2 theta; (m+1)/2, 1/2), in mpmath.

    Past pi/2, J_m(theta) = B((m+1)/2, 1/2) - J_m(pi - theta).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, half = mpmath.mpf(m + 1) / 2, mpmath.mpf(1) / 2
        th = mpmath.mpf(theta)
        part = mpmath.betainc(a, half, 0, mpmath.sin(th) ** 2) / 2
        if th > mpmath.pi / 2:
            part = mpmath.beta(a, half) - part
        return float(mpmath.log(part))


class TestElementaryCaps:
    """J_m for m <= 6 in elementary functions: the oracle's dimensions."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_against_incomplete_beta(self, m):
        got = _cap_j_log(m + 2, _ELEMENTARY_THETAS)
        want = np.array([_log_cap_j_betainc(m, t) for t in _ELEMENTARY_THETAS.tolist()])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-15, _ELEMENTARY_THETAS[err.argmax()]

    @pytest.mark.parametrize("m, num, den", [(1, 1, 1), (2, 1, 4), (3, 2, 3), (4, 3, 16),
                                             (5, 8, 15), (6, 5, 32)])
    def test_half_pi_constants(self, m, num, den):
        # J_m(pi/2) = num/den, times pi for even m: Wallis's integrals
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.mpf(num) / den * (mpmath.pi if m % 2 == 0 else 1)))
        got = _cap_j_log_half_pi(m)
        assert abs(got - want) <= 2.0 ** -52 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_each_angle_alone(self, m):
        # the oracle's exact pass sends (2, 8, 16) arrays; each angle's float
        # is the one a call on that angle alone gives
        rng = np.random.default_rng(m)
        theta = rng.uniform(0.0, math.pi, (2, 8, 16))
        theta.flat[:len(_ELEMENTARY_EDGES)] = _ELEMENTARY_EDGES
        got = _cap_j_log(m + 2, theta)
        assert got.shape == theta.shape
        alone = [_cap_j_log(m + 2, t).hex() for t in theta.ravel().tolist()]
        assert [x.hex() for x in got.ravel().tolist()] == alone

    def test_two_angle_call_not_slower_than_the_fixed_rule(self):
        # a unit-ball lens makes one call on its two cap angles.  Before the
        # elementary forms, every m ran a fixed rule, whose cost does not
        # depend on m; m = 7 now runs the 32-node Gaussian-tail rule of
        # _cap_j_log_half.  Interleaved rounds, the best of each
        pairs = [np.array([0.7, 1.9]), np.array([0.3, 0.6]), np.array([1.2, 2.8])]

        def cost(n):
            start = time.perf_counter()
            for _ in range(10):
                for theta in pairs:
                    _cap_j_log(n, theta)
            return time.perf_counter() - start

        for m in range(1, 7):
            elementary, fixed_rule = [], []
            for _ in range(15):
                elementary.append(cost(m + 2))
                fixed_rule.append(cost(9))
            assert min(elementary) <= min(fixed_rule), m


_TAIL_MS = [7, 8, 9, 50, 998, 9998]
_TAIL_THETAS = [1e-8, 0.05, 0.7, 1.2, 1.5707, 1.57079, math.nextafter(0.5 * math.pi, 0.0),
                2.0, math.pi - 1e-6]


class TestTailRule:
    """J_m for m > 6 by the Gaussian-tail rule of ``_cap_j_log_half``."""

    @pytest.mark.parametrize("m", _TAIL_MS)
    def test_against_incomplete_beta(self, m):
        # next to pi/2, a^2 taken from log(sin theta) is 1.3e-10 off at
        # m = 9998, theta = 1.57079; from log1p(-cos^2 theta) it is not
        got = _cap_j_log(m + 2, np.array(_TAIL_THETAS))
        want = np.array([_log_cap_j_betainc(m, t) for t in _TAIL_THETAS])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-14, _TAIL_THETAS[err.argmax()]

    @pytest.mark.parametrize("m", _TAIL_MS)
    def test_ends_without_warnings(self, m):
        # theta = 0 is masked before the rule, which would otherwise take
        # inf - inf; theta = pi is the full integral of the complement rule
        log_full = math.log(2.0) + _cap_j_log_half_pi(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = _cap_j_log(m + 2, np.array([0.0, math.pi]))
            assert _cap_j_log(m + 2, 0.0) == LOG_ZERO
            assert _cap_j_log_half(m, np.array([0.0, 0.0])).tolist() == [LOG_ZERO, LOG_ZERO]
        assert ends.tolist() == [LOG_ZERO, log_full]

    @pytest.mark.parametrize("m", _TAIL_MS)
    def test_each_angle_alone(self, m):
        # a batch's rows are the floats of the same angles evaluated alone
        rng = np.random.default_rng(m)
        theta = rng.uniform(0.0, math.pi, (3, 40))
        theta.flat[:len(_TAIL_THETAS) + 3] = _TAIL_THETAS + [0.0, 0.25 * math.pi, math.pi]
        got = _cap_j_log(m + 2, theta)
        assert got.shape == theta.shape
        alone = [_cap_j_log(m + 2, t).hex() for t in theta.ravel().tolist()]
        assert [x.hex() for x in got.ravel().tolist()] == alone


class TestOffCenterBall:
    def test_centered_reduction(self):
        # at d = 0 the band is empty and the core is c = min(t, rho, support).
        # The unit ball's lens returns the smaller ball's volume, and a core
        # across a knot of the step density falls back to the adaptive route:
        # both give the centered ball's float.  Every other core settles by
        # the fixed rule, and is checked against a closed form: the
        # Gaussian's regularized P(n/2, pi c^2), and below the first knot
        # (the unit ball at n = 1 too) the Lebesgue volume of B_c
        mpmath = pytest.importorskip("mpmath")
        step = TabulatedDecreasing([0.5, 1.0, 1.5], [0.0, -0.7, -2.0])
        for f in (Gaussian(), UnitBallIndicator(), step):
            for n in (1, 2, 7):
                past = 1.5 * upper_cutoff(f, n)  # past the support or the decay radius
                for t in (0.4, 1.2, past):
                    for rho in (math.inf, 0.9, 2.0 * past):  # rho below or above t
                        got = (off_center_ball_measure(f, n, 0.0, t) if rho == math.inf
                               else intersect_with_centered_ball(f, n, 0.0, t, rho))
                        c = min(t, rho, f.support_upper_bound)
                        if isinstance(f, UnitBallIndicator) and n > 1 or f is step and c > 0.5:
                            assert got.hex() == log_ball_measure(f, n, c).hex()
                            continue
                        if isinstance(f, Gaussian):
                            want = float(mpmath.log(mpmath.gammainc(
                                n / 2, 0, mpmath.pi * mpmath.mpf(c) ** 2, regularized=True)))
                        else:
                            want = (0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
                                    + n * math.log(c))
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (f, n, t, rho)

    def test_unit_disk_lens(self):
        got = off_center_ball_measure(UnitBallIndicator(), 2, 1.0, 1.0)
        assert got == pytest.approx(LOG_UNIT_LENS, rel=1e-9)

    def test_lens_via_intersection(self):
        # a flat step density takes the quadrature route, not the unit ball's lens
        got = intersect_with_centered_ball(TabulatedDecreasing([1.0], [0.0]), 2, 1.0, 1.0, 1.0)
        assert got == pytest.approx(LOG_UNIT_LENS, rel=1e-9)

    def test_containment_equals_off_center(self):
        f = Gaussian()
        a = intersect_with_centered_ball(f, 3, 0.7, 1.2, 5.0)
        b = off_center_ball_measure(f, 3, 0.7, 1.2)
        assert a == pytest.approx(b, rel=1e-10)

    def test_unit_ball_small_ball_inside_is_its_volume(self):
        # B(d xi, t) lies in B_rho: the measure is the Lebesgue volume of B_t,
        # log(pi^3 / 6) + 6 log t in R^6 (the adaptive radial integral used to
        # stall on this input at its evaluation cap)
        t = 2.235e-4
        got = intersect_with_centered_ball(UnitBallIndicator(), 6, 0.2565, t,
                                           0.2838297354945334)
        assert abs(got - (math.log(math.pi ** 3 / 6.0) + 6.0 * math.log(t))) <= 1e-13

    def test_vanishing_region(self):
        assert intersect_with_centered_ball(Gaussian(), 3, 2.0, 0.5, 1.0) == LOG_ZERO

    def test_vanishing_outer_radius_limit(self):
        # rho -> 0+ pinches the intersection down to B_rho
        got = intersect_with_centered_ball(Gaussian(), 3, 0.5, 1.2, 1e-8)
        expected = log_ball_measure(Gaussian(), 3, 1e-8)
        assert got == pytest.approx(expected, rel=1e-8)
        assert got < -50.0

    def test_monotone_in_t(self):
        f = Gaussian()
        ts = [0.5, 0.8, 1.2, 2.0, 3.0]
        vals = [off_center_ball_measure(f, 3, 0.9, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nonincreasing_in_d_for_decreasing_density(self, n):
        f = Gaussian()
        ds = [0.0, 0.3, 0.8, 1.5, 2.5]
        vals = [off_center_ball_measure(f, n, d, 1.0) for d in ds]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_additivity_of_split(self):
        # mu(Btilde ∩ B_R) + mu(Btilde \ B_R) = mu(Btilde)
        f = Gaussian()
        n, R, lam = 4, 1.1, 0.25
        t = R * (1.0 + lam)
        whole = off_center_ball_measure(f, n, R, t)
        inner = intersect_with_centered_ball(f, n, R, t, R)
        outer = _log_sub(whole, inner)
        assert np.logaddexp(inner, outer) == pytest.approx(whole, rel=1e-8)

    @pytest.mark.parametrize("n", list(range(2, 9)))
    def test_cap_cover_bound(self, n):
        # mu(Btilde ∩ B_R) <= mu(B_{R sin b0}) for decreasing densities
        f = Gaussian()
        for R in (0.6, 1.0, 1.6):
            for lam in (0.1, 0.25, 0.38):
                b0, _ = _contact_angle(lam)
                lhs = intersect_with_centered_ball(f, n, R, R * (1.0 + lam), R)
                rhs = log_ball_measure(f, n, R * math.sin(b0))
                assert lhs <= rhs + 1e-9

    def test_one_dimensional_intervals(self):
        # UnitBall on the line is Lebesgue on [-1, 1]
        f = UnitBallIndicator()
        # B(0.5, 0.3) = (0.2, 0.8): fully inside the support
        assert off_center_ball_measure(f, 1, 0.5, 0.3) == pytest.approx(math.log(0.6), rel=1e-11)
        # B(0.5, 1.0) = (-0.5, 1.5) clipped to (-0.5, 1]: length 1.5
        assert off_center_ball_measure(f, 1, 0.5, 1.0) == pytest.approx(math.log(1.5), rel=1e-11)
        # intersect with B_0.4 = (-0.4, 0.4): (-0.4, 0.4) ∩ (-0.5, 1.5) -> 0.8
        got = intersect_with_centered_ball(f, 1, 0.5, 1.0, 0.4)
        assert got == pytest.approx(math.log(0.8), rel=1e-11)

    def test_tabulated_off_center(self):
        # piecewise f: 1 on [0,1], e^-1 on (1,2]; lens-style region in R^2
        f = TabulatedDecreasing([1.0, 2.0], [0.0, -1.0])
        got = off_center_ball_measure(f, 2, 1.5, 0.4)
        # region is the disk B(1.5 xi, 0.4): annular band s in [1.1, 1.9]
        # crude Riemann oracle on the 2-D disk
        xs, ys = np.meshgrid(np.linspace(1.1, 1.9, 2001), np.linspace(-0.4, 0.4, 2001))
        inside = (xs - 1.5) ** 2 + ys ** 2 <= 0.4 ** 2
        dens = np.where(np.hypot(xs, ys) <= 1.0, 1.0,
                        np.where(np.hypot(xs, ys) <= 2.0, math.exp(-1.0), 0.0))
        riemann = float((dens * inside).sum() * (0.8 / 2000) ** 2)
        assert got == pytest.approx(math.log(riemann), abs=2e-3)



def _random_gaussian_cases(seed, count):
    """Seeded (n, r, rho, t) draws: n in 2..6, every fifth ball thin."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = int(rng.integers(2, 7))
        r, rho = float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.01, 1.5))
        t = float(rng.uniform(1e-4, 1e-3) if i % 5 == 0 else rng.uniform(1e-4, 3.0))
        cases.append((n, r, rho, t))
    return cases


def _log_noncentral_chi2(n, d, t):
    """log mu(B(d xi, t)) for the Gaussian, sum_j Pois(j; pi d^2) P(n/2 + j, pi t^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, x = mpmath.pi * mpmath.mpf(d) ** 2, mpmath.pi * mpmath.mpf(t) ** 2
        total, j = mpmath.mpf(0), 0
        while True:
            term = (mpmath.exp(-lam) * lam ** j / mpmath.factorial(j)
                    * mpmath.gammainc(mpmath.mpf(n) / 2 + j, 0, x, regularized=True))
            total += term
            if j > lam and term < total * mpmath.mpf(10) ** -30:
                return float(mpmath.log(total))
            j += 1


def _log_gaussian_intersection(n, d, t, rho):
    """log mu(B(d xi, t) ∩ B_rho) for the Gaussian, n >= 2, in mpmath.

    The core P(n/2, pi c^2), c = min(max(t - d, 0), rho), plus the band's
    omega_{n-2} int e^(-pi s^2) s^(n-1) J_{n-2}(theta(s)) ds by tanh-sinh,
    with theta(s) from the law of cosines at 30 digits and the cap integral
    J_m(theta) = B(sin^2 theta; (m + 1)/2, 1/2) / 2 up to pi/2, and its
    complement B((m + 1)/2, 1/2) - J_m(pi - theta) past it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        d, t, rho = mpmath.mpf(d), mpmath.mpf(t), mpmath.mpf(rho)
        a = mpmath.mpf(n - 1) / 2
        full = mpmath.beta(a, 0.5)  # J_m(pi)

        def band(s):
            cos = (d * d + s * s - t * t) / (2 * d * s)
            cap = (0 if cos >= 1 else full if cos <= -1
                   else mpmath.betainc(a, 0.5, 0, 1 - cos * cos) / 2)
            if -1 < cos < 0:
                cap = full - cap
            return mpmath.exp(-mpmath.pi * s * s) * s ** (n - 1) * cap

        core = min(max(t - d, 0), rho)
        total = mpmath.gammainc(mpmath.mpf(n) / 2, 0, mpmath.pi * core ** 2, regularized=True)
        lo, hi = abs(t - d), min(d + t, rho)
        if hi > lo:
            knots = [lo, hi]
            if d > t and lo < mpmath.sqrt(d * d - t * t) < hi:  # theta's peak
                knots.insert(1, mpmath.sqrt(d * d - t * t))
            total += 2 * mpmath.pi ** a / mpmath.gamma(a) * mpmath.quad(band, knots)
        return float(mpmath.log(total)) if total > 0 else LOG_ZERO


def _adaptive_reference(f, n, d, t, cap):
    """log mu(B(d xi, t) ∩ B_cap) from ``log_integral`` on the core and the
    band, probed where the fallback of ``_log_measures`` probes them."""
    S = f.support_upper_bound
    phi_radial = radial_log_integrand(f, n)
    log_omega_sub, cap_j = _band_log_weight(n)
    rows = [(0.0, min(max(t - d, 0.0), cap, S), log_sphere_area(n), phi_radial, []),
            (abs(t - d), min(d + t, cap, S), log_omega_sub,
             lambda s: phi_radial(s) + cap_j(cap_angle(d, t, s)),
             [math.sqrt(d * d - t * t)] if d > t else [])]
    logs = []
    for lo, hi, weight, phi, hints in rows:
        hints = [h for h in _probe_hints(f, n) + hints if lo < h < hi]
        logs.append(weight + log_integral(phi, lo, hi, probe_points=hints).log_value)
    return float(np.logaddexp(*logs))


def _close(got, want, tol):
    return got == want or abs(got - want) <= tol * max(1.0, abs(want))


class TestOffCenterRule:
    """``_log_measures``, the one exact route of every off-center measure."""

    def test_gaussian_against_closed_forms(self):
        # both caps of the oracle's exact pass: the whole ball against the
        # noncentral chi-squared sum, the one cut at r against an mpmath
        # radial integral with incomplete-beta caps
        for n, r, rho, t in _random_gaussian_cases(2, 25):
            (num, den), by_rule = _log_measures(Gaussian(), n, rho, t, (r, math.inf))
            assert by_rule, (n, r, rho, t)
            assert _close(den, _log_noncentral_chi2(n, rho, t), 1e-12), (n, r, rho, t)
            assert _close(num, _log_gaussian_intersection(n, rho, t, r), 1e-12), (n, r, rho, t)

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.4])
    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_settles_at_the_gaussian_construction(self, n, lam):
        # bound's exact T measures B(R xi, R + r) here; the public route gives
        # the rule's float, which test_closed_forms holds to the noncentral
        # chi-squared sum within 1e-11 (checked here up to n = 1000)
        rep = gaussian_construction(n, 1.01, lam)
        (got,), by_rule = _log_measures(Gaussian(), n, rep.R, rep.R + rep.r, (math.inf,))
        assert by_rule
        assert got == off_center_ball_measure(Gaussian(), n, rep.R, rep.R + rep.r)
        if n <= 1000:
            assert _close(got, _log_noncentral_chi2(n, rep.R, rep.R + rep.r), 1e-11)

    @pytest.mark.parametrize("n", [192, 500])
    def test_settles_at_oracle_geometries_in_high_dimension(self, n):
        # the Gaussian construction's inclusion check (p = 1.01, lam = 0.1,
        # 16 radii), past the oracle's dimension cap: the radii at or above r,
        # the witness t = rho + r and the shorter balls its scans pick
        rep = gaussian_construction(n, 1.01, 0.1)
        R, r = rep.R, rep.r
        for rho in np.linspace(0.0, R * (1.0 - 1e-6), 16).tolist():
            if rho < r:
                continue
            for c in (0.7, 0.8, 0.9, 1.0, 1.1):
                t = c * (rho + r)
                logs, by_rule = _log_measures(Gaussian(), n, rho, t, (r, math.inf))
                assert by_rule, (rho, c)
                if c == 1.0:
                    for got, cap in zip(logs, (r, math.inf)):
                        want = _adaptive_reference(Gaussian(), n, rho, t, cap)
                        assert _close(got, want, 1e-10), (rho, cap)

    def test_step_density_jump_falls_back(self):
        # the density jumps from 0 to -3 at s = 0.5, inside the whole ball's
        # band [0.23, 0.97] and off its panel edges: the orders 16 and 24
        # disagree there, on the whole row and on its window, so that row
        # takes the adaptive route, to the last bit.  The band cut at
        # r = 0.3 holds no jump and settles by the rule
        f = TabulatedDecreasing([0.5, 2.0], [0.0, -3.0])
        (num, den), by_rule = _log_measures(f, 3, 0.6, 0.37, (0.3, math.inf))
        assert not by_rule
        assert den.hex() == _adaptive_reference(f, 3, 0.6, 0.37, math.inf).hex()
        assert _close(num, _adaptive_reference(f, 3, 0.6, 0.37, 0.3), 1e-10)
