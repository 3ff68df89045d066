import dataclasses
import math
import re

import numpy as np
import pytest

from radialmax import bounds, measures
from radialmax.bounds import (BoundReport, LAMBDA_MAX, _angle_parts, _annulus_exponent,
                              _contact_angle, _general_parameters,
                              gaussian_ball_sandwich, gaussian_construction,
                              gaussian_mass_concentration, gaussian_mode_radius,
                              gaussian_upper_bound, general_construction,
                              growth_base_log, log_t_exact, radius_growth_report,
                              solve_radius_equation, unitball_case_analysis,
                              unitball_construction)
from radialmax.densities import Gaussian, TabulatedDecreasing, UnitBallIndicator
from radialmax.errors import NoBalancedRadiusError
from radialmax.measures import log_ball_measure
from radialmax.quadrature import log_integral
from test_measures import _mp_step_log_ball
from test_special import _mp_log_gamma_p


class TestTExact:
    def test_p_equal_one_drops_small_ball(self):
        f = Gaussian()
        got = log_t_exact(f, 3, 1.0, 1.0, 0.2)
        from radialmax.geometry import off_center_ball_measure
        expected = (log_ball_measure(f, 3, 1.0)
                    - off_center_ball_measure(f, 3, 1.0, 1.2))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unitball_saturated_radii_give_t_one(self):
        # r >= 1: every measure involved is the full ball
        got = log_t_exact(UnitBallIndicator(), 4, 1.3, 1.5, 1.2)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_unitball_value_inside_sandwich(self):
        n, p, lam = 20, 1.02, 0.15
        rep = unitball_construction(n, p, 1.0, lam)
        got = log_t_exact(UnitBallIndicator(), n, p, 1.0, lam)
        assert rep.terms["sandwich_lower"] - 1e-9 <= got <= rep.terms["sandwich_upper"] + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_t_exact(Gaussian(), 3, 1.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            log_t_exact(Gaussian(), 3, 0.9, 1.0, 0.5)

    def test_infinite_R_refused_by_name(self):
        # it was refused as "d must be finite", by the off-center measure
        with pytest.raises(ValueError, match="^R must be finite$"):
            log_t_exact(Gaussian(), 3, 1.1, math.inf, 0.2)

    def test_scale_invariance_in_the_density(self):
        # T is a ratio of measures, so a constant rescaling of f drops out;
        # unnormalized tabulated densities are therefore acceptable
        from radialmax.densities import TabulatedDecreasing
        base = TabulatedDecreasing([0.6, 1.3, 2.0], [0.0, -0.7, -2.1])
        scaled = TabulatedDecreasing([0.6, 1.3, 2.0], [5.0, 4.3, 2.9])
        a = log_t_exact(base, 3, 1.05, 1.0, 0.3)
        b = log_t_exact(scaled, 3, 1.05, 1.0, 0.3)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestContactAngle:
    """cos b0 = 1 - R^2 (1+lam)^2 / 2 of the growth table, the one formula of b0."""

    def test_positivity_boundary(self):
        assert _contact_angle(LAMBDA_MAX)[0] == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_reference_value(self):
        # lam = 0.2 -> cos = 1 - 1.44/2 = 0.28
        assert float(_angle_parts(0.2)[0]) == pytest.approx(0.28, rel=1e-14)

    def test_small_lambda_limit(self):
        assert _contact_angle(1e-9)[0] == pytest.approx(math.pi / 3.0, rel=1e-6)

    def test_unit_ball_variant(self):
        # R = 1 is the concentric formula, float for float
        for lam in (0.05, 0.2, 0.3, 0.4):
            assert ([float(x).hex() for x in _angle_parts(lam, 1.0)]
                    == [float(x).hex() for x in _angle_parts(lam)])
        assert float(_angle_parts(0.15, 0.9)[0]) == pytest.approx(1.0 - 0.81 * 1.3225 / 2.0,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("lam", [0.01, 0.2, 0.38])
    def test_every_report_carries_the_table_angle(self, lam):
        cos_b0 = float(_angle_parts(lam)[0])
        beta0 = math.acos(cos_b0)
        general = general_construction(Gaussian(), 20, 1.01, lam)
        gaussian = gaussian_construction(20, 1.01, lam)
        unitball = unitball_construction(20, 1.01, 1.0, lam)
        assert [rep.beta0 for rep in (general, gaussian, unitball)] == [beta0] * 3
        assert general.Q == 1.0 / (math.sqrt(math.pi) * math.sin(beta0) * cos_b0)
        c = cos_b0 * cos_b0
        assert gaussian.terms["dominance_margin"] == (1.0 - c) * -math.expm1(-c)

    def test_domains_through_the_constructions(self):
        for lam in (0.0, 1.0, LAMBDA_MAX):
            message = f"^{re.escape(f'lam must lie in (0, sqrt(2)-1), got {lam!r}')}$"
            with pytest.raises(ValueError, match=message):
                general_construction(Gaussian(), 5, 1.01, lam)
            with pytest.raises(ValueError, match=message):
                gaussian_construction(5, 1.01, lam)
            with pytest.raises(ValueError, match=message):
                radius_growth_report(Gaussian(), [5], lam)
        with pytest.raises(ValueError, match=r"^R must lie in \(0, 1\]$"):
            unitball_construction(5, 1.01, 1.5, 0.2)
        for lam in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="^lam must be positive$"):
                unitball_construction(5, 1.01, 1.0, lam)


class TestRadiusEquation:
    def test_unitball_closed_form(self):
        # for the unit ball the equation solves to R = sin(b0)^(k-1)
        lam = 0.2
        beta0, _ = _contact_angle(lam)
        k = 1.0 / 21.0
        got = solve_radius_equation(UnitBallIndicator(), 30, beta0, k)
        expected = math.sin(beta0) ** (k - 1.0)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_gaussian_against_dense_scan_oracle(self):
        n, lam, k = 100, 0.2, 1.0 / 21.0
        beta0, _ = _contact_angle(lam)
        s = math.sin(beta0)
        got = solve_radius_equation(Gaussian(), n, beta0, k)

        # independent oracle: cumulative trapezoid mass on a 1e5-point grid,
        # interpolated, with the last crossing refined by bisection
        grid = np.linspace(0.0, 16.0, 100_001)
        logh = np.where(grid > 0, -np.pi * grid ** 2 + (n - 1) * np.log(np.maximum(grid, 1e-300)),
                        -np.inf)
        h = np.exp(logh - logh.max())
        H = np.concatenate([[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(grid))])

        def g(R):
            return (math.log(np.interp(R * s, grid, H))
                    - math.log(np.interp(R, grid, H)) - n * k * math.log(s))

        lo, hi = None, None
        radii = np.linspace(15.9, 0.1, 4000)
        for a, b in zip(radii[1:], radii[:-1]):
            if g(a) <= 0.0 < g(b):
                lo, hi = a, b
                break
        assert lo is not None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert got == pytest.approx(oracle, rel=1e-6)


def _loop_solve_radius_equation(f, n, beta0, k, log_ball=None):
    """solve_radius_equation with its first crossing found by a Python loop,
    and the doubling's and the bisection's balls from ``log_ball`` (default
    ``log_ball_measure``, the adaptive quadrature for the Gaussian too)."""
    log_ball = log_ball or bounds.log_ball_measure
    s = math.sin(beta0)
    target = n * k * math.log(s)

    def g(R):
        return log_ball(f, n, R * s) - log_ball(f, n, R) - target

    R_max = 1.0
    for _ in range(200):
        delta = log_ball(f, n, R_max * s) - log_ball(f, n, R_max)
        if delta >= -1e-6 and delta - target > 0.0:
            break
        R_max *= 2.0
    scan_points = 10_000
    radii = R_max * (1.0 - np.arange(scan_points) / scan_points)
    merged = np.unique(np.concatenate([radii, radii * s]))
    lb = bounds.log_ball_measure_grid(f, n, merged)
    idx = np.searchsorted(merged, radii)
    idx_s = np.searchsorted(merged, radii * s)
    g_scan = lb[idx_s] - lb[idx] - target
    bracket = None
    for j in range(1, scan_points):
        if g_scan[j] <= 0.0 < g_scan[j - 1]:
            bracket = (float(radii[j]), float(radii[j - 1]))
            break
    if bracket is None:
        deltas = g_scan + target
        raise NoBalancedRadiusError(
            "no sign change on the scanned range",
            ratio_range=(float(np.min(deltas)), float(np.max(deltas))))
    lo, hi = bracket
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_STEP_DENSITY = TabulatedDecreasing([0.4, 0.9, 1.6, 2.5], [0.0, -0.8, -2.1, -3.7])


class TestRadiusCrossingSearch:
    """The scan's first sign change, found by one vectorized search (every kind
    but the Gaussian) or by bisecting the indices (the Gaussian), against the loop."""

    @pytest.mark.parametrize("f,n,lam", [(Gaussian(), 5, 0.1), (Gaussian(), 60, 0.3),
                                         (Gaussian(), 5000, 0.2), (_STEP_DENSITY, 40, 0.2),
                                         (_STEP_DENSITY, 300, 0.1)])
    def test_same_radius_as_the_loop(self, f, n, lam):
        beta0, _, _, _, _, k = _general_parameters(lam)
        got = solve_radius_equation(f, n, beta0, k)
        assert got.hex() == _loop_solve_radius_equation(f, n, beta0, k).hex()

    @staticmethod
    def _synthetic_scan(monkeypatch, g_of_j):
        """Make the scan's g the given array; the doubling and bisection stay real.
        The density is a step density: the Gaussian's crossing is not scanned."""
        # not lam = 0.2, where sin b0 = 0.96 puts some radii * s on the scan grid
        f, n = _STEP_DENSITY, 5
        beta0, _, s, _, _, k = _general_parameters(0.1)
        target = n * k * math.log(s)
        scanned = []  # the top of each scan, R_max

        def grid(f_, n_, merged):
            scanned.append(merged.max())
            radii = scanned[-1] * (1.0 - np.arange(10_000) / 10_000)
            idx = np.searchsorted(merged, radii)
            idx_s = np.searchsorted(merged, radii * s)
            assert np.intersect1d(idx, idx_s).size == 0
            lb = np.zeros(merged.size)
            lb[idx_s] = g_of_j + target
            return lb

        monkeypatch.setattr(bounds, "log_ball_measure_grid", grid)
        return (f, n, beta0, k), scanned

    @pytest.mark.parametrize("j", [1, 2, 4321, 9998, 9999])
    def test_crossing_at_j(self, monkeypatch, j):
        g = np.where(np.arange(10_000) < j, 1.0, -1.0)
        g[j + 1:] = np.resize([-1.0, 2.0], g.size - j - 1)  # later crossings
        args, scanned = self._synthetic_scan(monkeypatch, g)
        got = solve_radius_equation(*args)
        assert got.hex() == _loop_solve_radius_equation(*args).hex()
        R_max = scanned[0]
        assert R_max * (1.0 - j / 10_000) <= got <= R_max * (1.0 - (j - 1) / 10_000)

    def test_crossing_after_nan_entries(self, monkeypatch):
        # NaN compares false on both sides, so a NaN next to a sign change
        # hides it: the first crossing is the one at j = 9000
        g = np.full(10_000, 1.0)
        g[50:60] = np.nan
        g[60:3000] = -1.0
        g[7000] = np.nan
        g[7001:8000] = -1.0
        g[9000:] = -1.0
        args, scanned = self._synthetic_scan(monkeypatch, g)
        got = solve_radius_equation(*args)
        assert got.hex() == _loop_solve_radius_equation(*args).hex()
        R_max = scanned[0]
        assert R_max * (1.0 - 9000 / 10_000) <= got <= R_max * (1.0 - 8999 / 10_000)

    @pytest.mark.parametrize("fill", [1.0, -1.0, np.nan])
    def test_no_crossing(self, monkeypatch, fill):
        g = np.full(10_000, fill)
        if fill == -1.0:
            g[0] = np.nan  # a NaN before a negative run is no crossing either
        args, _ = self._synthetic_scan(monkeypatch, g)
        with pytest.raises(NoBalancedRadiusError) as got:
            solve_radius_equation(*args)
        with pytest.raises(NoBalancedRadiusError) as want:
            _loop_solve_radius_equation(*args)
        assert str(got.value) == str(want.value)
        assert repr(got.value.ratio_range) == repr(want.value.ratio_range)


class TestGaussianIndexSearch:
    """The Gaussian's g does not fall as R grows, so the first sign change on
    the scan's radii is found by bisecting their indices on log P's signs."""

    @pytest.mark.parametrize("n,lam", [
        pytest.param(int(a), float(b), id=f"{int(a)}-{float(b):.4f}") for a, b in zip(
            np.exp(np.random.default_rng(40).uniform(math.log(2.0), math.log(1e6), 16)).astype(int),
            np.random.default_rng(41).uniform(0.02, 0.41, 16))])
    def test_same_radius_as_the_full_grid_loop(self, n, lam):
        beta0, _, _, _, _, k = _general_parameters(lam)
        got = solve_radius_equation(Gaussian(), n, beta0, k)
        want = _loop_solve_radius_equation(Gaussian(), n, beta0, k, measures._log_ball_for_signs)
        assert got.hex() == want.hex()

    @staticmethod
    def _synthetic_signs(monkeypatch, g_of_j):
        """Make the Gaussian's g on the scan's radii (R_max = 1) the given
        array: the log balls are 0 at the radii and g + target at their
        multiples by s.  Every other log ball is 0, so the bisection's g is
        -target > 0.  The table's radii that are read go to the returned list."""
        f, n = Gaussian(), 5
        beta0, _, s, _, _, k = _general_parameters(0.1)
        target = n * k * math.log(s)
        radii = (1.0 - np.arange(10_000) / 10_000).tolist()
        table = dict.fromkeys(radii, 0.0)
        table.update({r * s: g + target for r, g in zip(radii, g_of_j.tolist())})
        assert len(table) == 2 * len(radii)  # no radius times s on the grid
        read = []

        def log_ball(f_, n_, rho):
            if rho in table:
                read.append(rho)
            return table.get(rho, 0.0)

        monkeypatch.setattr(bounds, "_log_ball_for_signs", log_ball)
        full_grid = np.array([table[r * s] - table[r] - target for r in radii])
        return (f, n, beta0, k), full_grid, target, read

    @pytest.mark.parametrize("j", [1, 2, 4321, 9998, 9999])
    def test_crossing_at_j(self, monkeypatch, j):
        g = (j - 0.5 - np.arange(10_000)) / 10_000  # falls along the descending radii
        g[0] = 1.0  # so that the doubling stops at R_max = 1: g(1) > -target
        args, full_grid, _, read = self._synthetic_signs(monkeypatch, g)
        assert np.flatnonzero((full_grid[1:] <= 0.0) & (full_grid[:-1] > 0.0)).tolist() == [j - 1]
        got = solve_radius_equation(*args)
        assert 1.0 - j / 10_000 <= got <= 1.0 - (j - 1) / 10_000
        # the doubling's two balls at R_max = 1, then two per g: both ends
        # and at most 14 halvings of the 9999 index gaps
        assert len(read) <= 2 + 2 * (2 + 14)

    def test_no_crossing(self, monkeypatch):
        g = np.linspace(2.0, 1.0, 10_000)
        args, full_grid, target, _ = self._synthetic_signs(monkeypatch, g)
        with pytest.raises(NoBalancedRadiusError) as got:
            solve_radius_equation(*args)
        assert str(got.value) == "no sign change on the scanned range"
        deltas = full_grid + target  # what the full-grid loop reports
        assert got.value.ratio_range == (float(np.min(deltas)), float(np.max(deltas)))


def _mp_log_gaussian_ball(f, n, rho):
    """log mu(B_rho) of the Gaussian as an mpmath number: log P(n/2, pi rho^2),
    with rho the float the solver passes and pi rho^2 taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    return _mp_log_gamma_p(mpmath.mpf(n) / 2, mpmath.pi * mpmath.mpf(rho) ** 2)


def _replay_draws():
    """Seeded (n, lam): n log-uniform in [2, 10**6], lam uniform in (0.02, 0.41),
    and 12 more with lam in [0.39, 0.41], where sin b0 -> 1 and g is flat."""
    rng = np.random.default_rng(39)
    n = np.exp(rng.uniform(math.log(2.0), math.log(1e6), 24)).astype(int)
    lam = np.concatenate([rng.uniform(0.02, 0.41, 12), rng.uniform(0.39, 0.41, 12)])
    return [pytest.param(int(a), float(b), id=f"{int(a)}-{float(b):.4f}")
            for a, b in zip(n, lam)]


class TestGaussianSolverSigns:
    """The Gaussian solver decides each step by log P(n/2, pi rho^2)."""

    @pytest.mark.parametrize("n,lam", _replay_draws())
    def test_radius_of_the_bisection_with_exact_signs(self, n, lam):
        # the doubling and the bisection replayed with every sign taken from
        # 50-digit mpmath: the radius is that replay's, float for float.  With
        # the adaptive quadrature's signs, 6 of these radii, all at lam >= 0.399,
        # lay 5e-11 to 4.5e-10 (relative) away from it
        mpmath = pytest.importorskip("mpmath")
        beta0, _, _, _, _, k = _general_parameters(lam)
        got = solve_radius_equation(Gaussian(), n, beta0, k)
        with mpmath.workdps(50):
            want = _loop_solve_radius_equation(Gaussian(), n, beta0, k, _mp_log_gaussian_ball)
        assert got.hex() == want.hex()


def _layer_sum_ball(f, n, rho):
    """log mu(B_rho) of a step density by the exact layer sum of ``log_ball_measure_grid``."""
    return float(measures.log_ball_measure_grid(f, n, [rho])[0])


def _step_draw(seed, n_max):
    """A step density like the benchmark's, 8-32 knots up to a support in
    [1.8, 2.2] and log f falling by 5 to 7, with n log-uniform in [5, n_max]
    and lam uniform in (0.05, 0.4)."""
    rng = np.random.default_rng(4000 + seed)
    knots = int(rng.integers(8, 33))
    support = rng.uniform(1.8, 2.2)
    radii = np.append(support * np.sort(rng.uniform(0.0, 1.0, knots - 1)), support)
    log_f = np.concatenate([[0.0], -np.cumsum(rng.dirichlet(np.full(knots - 1, 20.0))
                                              * rng.uniform(5.0, 7.0))])
    n = int(math.exp(rng.uniform(math.log(5.0), math.log(n_max))))
    return TabulatedDecreasing(radii, log_f), n, float(rng.uniform(0.05, 0.4))


class TestStepSolverSigns:
    """A step density's radius with the layer sum's signs, against exact signs."""

    @pytest.mark.parametrize("seed,n_max", [(seed, 10 ** 6) for seed in range(12)]
                             + [(seed, 100) for seed in range(12, 36)])
    def test_layer_sum_signs_give_the_radius_of_exact_signs(self, seed, n_max):
        # the doubling and the bisection replayed twice on the scan's bracket:
        # every sign from the layer sum, and every sign from 40-digit mpmath.
        # The solver's own signs, the adaptive quadrature's, miss this radius
        # on 11 of these draws, all at n <= 100, by 9e-11 to 4e-6 relative
        mpmath = pytest.importorskip("mpmath")
        f, n, lam = _step_draw(seed, n_max)
        beta0, _, _, _, _, k = _general_parameters(lam)
        got = _loop_solve_radius_equation(f, n, beta0, k, _layer_sum_ball)
        with mpmath.workdps(40):
            want = _loop_solve_radius_equation(f, n, beta0, k, _mp_step_log_ball)
        assert got.hex() == want.hex()


class TestGeneralConstruction:
    def test_reference_arithmetic_lam_02(self):
        # sin b0 = sqrt(1 - 0.28^2), l = ceil(log 2.2 / -log sin b0) = 20, k = 1/21
        rep = general_construction(UnitBallIndicator(), 10, 1.003, 0.2)
        assert math.sin(rep.beta0) == pytest.approx(math.sqrt(1.0 - 0.28 ** 2), rel=1e-12)
        assert rep.l == 20
        assert rep.k == pytest.approx(1.0 / 21.0)
        assert rep.Q == pytest.approx(1.0 / (math.sqrt(math.pi) * math.sin(rep.beta0) * 0.28),
                                      rel=1e-12)

    def test_annulus_power_margin_on_lambda_grid(self):
        # sin(b0)^(-l) >= 2 + lam must hold for every admissible lam
        for lam in np.linspace(0.01, LAMBDA_MAX - 0.01, 40):
            beta0, _ = _contact_angle(float(lam))
            log_s = math.log(math.sin(beta0))
            l = math.ceil(-math.log(2.0 + lam) / log_s)
            assert -l * log_s >= math.log(2.0 + lam) - 1e-12

    @pytest.mark.parametrize("density", [Gaussian(), UnitBallIndicator()])
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_lower_bound_chain(self, density, n):
        rep = general_construction(density, n, 1.003, 0.2)
        assert rep.log_t_exact >= rep.log_t_lower
        assert rep.r == pytest.approx(0.2 * rep.R, rel=1e-13)

    def test_affine_growth_in_dimension(self):
        # closed-form lower bound is exactly affine in n; slope = log alpha
        lam, p = 0.2, 1.004
        reps = [general_construction(Gaussian(), n, p, lam)
                for n in (1000, 10_000)]
        slope = ((reps[1].log_t_lower - reps[0].log_t_lower)
                 / (reps[1].n - reps[0].n))
        assert slope == pytest.approx(math.log(reps[0].alpha), abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            general_construction(Gaussian(), 5, 1.01, 0.5)  # lam beyond sqrt(2)-1
        with pytest.raises(ValueError):
            general_construction(Gaussian(), 5, 0.99, 0.2)


def _solve_and_construct(f, n):
    beta0, _, _, _, _, k = _general_parameters(0.2)
    R = solve_radius_equation(f, n, beta0, k)
    terms = general_construction(f, n, 1.003, 0.2).terms
    return [R.hex()] + [(key, value.hex()) for key, value in sorted(terms.items())]


class TestCachedTotalMass:
    """The radius solver and the construction read the same floats whether
    the total mass is cached or integrated at every radius past the cutoff."""

    @pytest.mark.parametrize("case", ["step-5", "step-12", "gaussian-40"])
    def test_same_floats_with_the_mass_cache_bypassed(self, case, monkeypatch):
        kind, n = case.split("-")

        def density():  # a new object per run: no stage or mass is shared
            if kind == "gaussian":
                return Gaussian()
            return TabulatedDecreasing([0.25, 0.67, 1.19, 1.45, 2.3],
                                       [0.0, -0.5, -0.8, -1.7, -2.0])

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return log_integral(*args, **kwargs)

        monkeypatch.setattr(measures, "log_integral", counted)
        cached = _solve_and_construct(density(), int(n))
        cached_calls = len(calls)
        with monkeypatch.context() as m:
            m.setattr(measures, "_log_mass", measures._log_ball_integral)
            calls.clear()
            bypassed = _solve_and_construct(density(), int(n))
        assert cached == bypassed
        if kind == "step":  # past the support every radius asks for the total mass
            assert cached_calls < len(calls)
        else:  # the Gaussian's solve never reaches its decay radius
            assert cached_calls == len(calls)


class TestRadiusGrowth:
    def test_gaussian_radii_increase(self):
        rep = radius_growth_report(Gaussian(), [20, 40, 80, 160], 0.2)
        radii = [row.R for row in rep.rows]
        assert all(b > a for a, b in zip(radii, radii[1:]))
        assert rep.radii_nondecreasing
        assert rep.decay_holds

    def test_unitball_radius_stays_above_support(self):
        rep = radius_growth_report(UnitBallIndicator(), [10, 30, 90], 0.2)
        assert all(row.R >= 1.0 for row in rep.rows)
        assert rep.passed


class TestGaussianLemmas:
    def test_sandwich_gap_is_log_n(self):
        n = 10
        rho = gaussian_mode_radius(n) / 2.0
        lo, mid, hi = gaussian_ball_sandwich(n, rho)
        assert hi - lo == pytest.approx(math.log(n), rel=1e-12)
        assert lo <= mid <= hi

    @pytest.mark.parametrize("n,frac", [(100, 0.9), (2, 0.75), (37, 0.5)])
    def test_sandwich_holds(self, n, frac):
        rho = frac * gaussian_mode_radius(n)
        lo, mid, hi = gaussian_ball_sandwich(n, rho)
        assert lo - 1e-12 <= mid <= hi + 1e-12

    def test_sandwich_domain(self):
        with pytest.raises(ValueError):
            gaussian_ball_sandwich(10, gaussian_mode_radius(10) * 1.01)

    def test_mass_concentration_small_n(self):
        # the printed floor is vacuous at n=2 and holds up to n=5
        log_mass, floor = gaussian_mass_concentration(2)
        assert floor < 0.0
        assert math.exp(log_mass) >= floor
        for n in (3, 4, 5):
            log_mass, floor = gaussian_mass_concentration(n)
            assert math.exp(log_mass) >= floor

    def test_mass_concentration_floor_fails_beyond_n5(self):
        # The mode of the radial mass profile sits exactly at the bracket
        # radius, so the ball below it holds just under half the mass; the
        # printed floor 1 - 2/(sqrt(pi) sqrt(n-1)) exceeds that from n = 6
        # on.  Frozen reference: chi-squared CDF, mu(B) = P(chi2_n <= n-1).
        log_mass, floor = gaussian_mass_concentration(101)
        assert floor == pytest.approx(1.0 - 0.2 / math.sqrt(math.pi), rel=1e-12)
        assert math.exp(log_mass) == pytest.approx(0.49057549602813133, rel=1e-9)
        assert math.exp(log_mass) < floor
        log_mass6, floor6 = gaussian_mass_concentration(6)
        assert math.exp(log_mass6) == pytest.approx(0.4561868841166955, rel=1e-9)
        assert math.exp(log_mass6) < floor6

    def test_mass_below_mode_radius_approaches_half(self):
        masses = [math.exp(gaussian_mass_concentration(n)[0]) for n in (10, 100, 1000)]
        assert all(0.39 < m < 0.5 for m in masses)
        assert masses == sorted(masses)

    def test_mode_radius_is_stationary(self):
        # finite-difference derivative of h(s) = e^(-pi s^2) s^(n-1) at the
        # mode, for every n in 2..100
        for n in range(2, 101):
            R = gaussian_mode_radius(n)

            def h(s):
                return math.exp(-math.pi * s * s + (n - 1) * math.log(s))

            delta = 1e-4 * R
            fd = (h(R + delta) - h(R - delta)) / (2.0 * delta)
            assert abs(fd) <= 1e-6 * h(R), n


class TestGaussianConstruction:
    def test_radius_choice(self):
        rep = gaussian_construction(50, 1.005, 0.2)
        c = math.cos(rep.beta0) ** 2
        assert rep.R == pytest.approx(math.exp(-0.5 * c) * gaussian_mode_radius(50), rel=1e-13)
        assert rep.R < gaussian_mode_radius(50)

    @pytest.mark.parametrize("n", [50, 200])
    def test_lower_bound_chain(self, n):
        rep = gaussian_construction(n, 1.005, 0.2)
        assert rep.log_t_exact >= rep.log_t_lower

    def test_dominance_margin_positive_everywhere(self):
        # the cap-cover estimate must dominate the annulus estimate
        # exponentially: sin^2(b0) e^(-cos^2 b0) + cos^2 b0 < 1
        for lam in np.linspace(1e-6, LAMBDA_MAX - 1e-9, 200):
            rep_margin = gaussian_construction(20, 1.0, float(lam)).terms["dominance_margin"]
            assert rep_margin > 0.0

    def test_transcendental_residual_linear_growth(self):
        # the chosen radius is an approximate balance, not a root: the
        # log-equation residual grows ~ 0.035 n at lam = 0.2, and stays a
        # vanishing fraction of each side of the equation
        vals = {}
        for n in (100, 1000, 10_000):
            rep = gaussian_construction(n, 1.005, 0.2)
            vals[n] = rep.terms["transcendental_residual"]
            side = abs(n * math.log(rep.R) - math.pi * rep.R ** 2 * math.sin(rep.beta0) ** 2)
            assert 0.0 < vals[n] < 0.1 * side
        assert vals[10_000] / 10_000 == pytest.approx(vals[1000] / 1000, rel=0.1)

    def test_growth_base_matches_lower_bound_slope(self):
        lam, p = 0.15, 1.008
        r1 = gaussian_construction(1000, p, lam)
        r2 = gaussian_construction(10_000, p, lam)
        slope = (r2.log_t_lower + math.log(10_000)
                 - (r1.log_t_lower + math.log(1000))) / 9000.0
        assert slope == pytest.approx(growth_base_log("gaussian-lower", p, lam), abs=1e-9)


class TestGaussianUpperBound:
    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("lam", [0.1, 0.3])
    def test_dominates_exact_value(self, n, lam):
        R = 0.8 * gaussian_mode_radius(n)
        r = lam * R
        bound = gaussian_upper_bound(n, 1.06, R, r)
        exact = log_t_exact(Gaussian(), n, 1.06, R, r)
        assert exact <= bound

    def test_boundary_lambda_t_below_two(self):
        # at lam = sqrt(2)-1 the cone argument caps T at 2
        n = 10
        R = 0.9 * gaussian_mode_radius(n)
        r = LAMBDA_MAX * R
        exact = log_t_exact(Gaussian(), n, 1.01, R, r)
        assert exact <= math.log(2.0) + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_upper_bound(10, 1.05, gaussian_mode_radius(10) * 1.2, 0.1)

    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
    def test_p_is_checked_as_everywhere(self, p):
        # p = 0.5 used to give 15.016727110942046, and p = nan gave nan
        with pytest.raises(ValueError, match="^p must be "):
            gaussian_upper_bound(10, p, 1.0, 0.2)


class TestUnitBall:
    @pytest.mark.parametrize("n", [5, 10, 20, 50, 100])
    def test_sandwich_contains_exact(self, n):
        p = 1.02
        for lam in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4):
            rep = unitball_construction(n, p, 1.0, lam)
            lo, hi = rep.terms["sandwich_lower"], rep.terms["sandwich_upper"]
            exact = log_t_exact(UnitBallIndicator(), n, p, 1.0, lam)
            assert rep.log_t_exact == exact
            assert lo - 1e-9 <= exact <= hi + 1e-9, lam

    def test_sandwich_refuses_radius_below_one(self):
        # below R = 1 the lower end can exceed the exact T (R = 0.8, n = 100,
        # lam = 0.2: -8.29 against -12.45), so no R < 1 is certified
        for n in (5, 10, 20, 50, 100):
            for R in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
                for lam in (0.05, 0.1, 0.2, 0.3, 0.4):
                    with pytest.raises(ValueError, match="only certified at R = 1"):
                        unitball_construction(n, 1.02, R, lam)

    @pytest.mark.parametrize("lam", [-1.0, -0.1, 0.0, -math.inf, math.nan])
    def test_sandwich_refuses_nonpositive_lambda(self, lam):
        # checked before sqrt(2)/(1 + lam), which divides by zero at lam = -1
        with pytest.raises(ValueError, match="lam must be positive"):
            unitball_construction(10, 1.01, 1.0, lam)

    def test_small_ball_ratio_is_lambda_power_n(self):
        n, lam = 12, 0.3
        gap = (log_ball_measure(UnitBallIndicator(), n, lam)
               - log_ball_measure(UnitBallIndicator(), n, 1.0))
        assert gap == pytest.approx(n * math.log(lam), rel=1e-9)

    def test_sandwich_base_increasing_in_R(self):
        lam = 0.2
        lo = 2.0 * math.sqrt((1.0 + lam) ** -2 - (1.0 + lam) ** -4)
        Rs = np.linspace(lo + 1e-3, 1.0, 30)
        bases = []
        for R in Rs:
            bases.append(R / math.sin(_contact_angle(lam, float(R))[0]))
        assert all(b > a for a, b in zip(bases, bases[1:]))

    def test_case_classification(self):
        # R = 1, small lam: case 1 with alpha < 1 for p above the critical value
        case, bound = unitball_case_analysis(20, 1.1, 1.0, 0.2)
        assert case == 1
        alpha = 0.2 ** (0.1 / 1.1) / math.sin(_contact_angle(0.2)[0])
        assert alpha < 1.0
        assert bound == pytest.approx(math.log(math.sqrt(math.pi) * 20) + 20 * math.log(alpha),
                                      rel=1e-12)
        # large R: case 4 uses the half-ball floor
        case4, bound4 = unitball_case_analysis(20, 1.1, 0.99, 0.5)
        assert case4 == 4
        assert bound4 == pytest.approx(math.log(2.0) + 20 * (0.1 / 1.1) * math.log(0.5),
                                       rel=1e-12)
        # tiny R: case 3
        case3, _ = unitball_case_analysis(20, 1.1, 0.2, 0.2)
        assert case3 == 3
        # intermediate R: case 2
        case2, _ = unitball_case_analysis(20, 1.1, 0.95, 0.2)
        assert case2 == 2

    @pytest.mark.parametrize("n", [5, 15])
    def test_case_bounds_dominate_exact(self, n):
        p = 1.06  # above the unit-ball critical exponent
        grid = [(1.0, 0.05), (1.0, 0.15), (1.0, 0.3), (1.0, 0.41),
                (0.95, 0.1), (0.95, 0.25), (0.9, 0.2), (0.85, 0.35),
                (0.7, 0.15), (0.7, 0.3), (0.5, 0.2), (0.5, 0.4),
                (0.35, 0.25), (0.2, 0.3), (0.99, 0.45), (0.9, 0.5),
                (0.8, 0.55), (0.99, 0.05), (0.6, 0.45), (0.3, 0.5)]
        for R, lam in grid:
            _, bound = unitball_case_analysis(n, p, R, lam)
            exact = log_t_exact(UnitBallIndicator(), n, p, R, lam * R)
            assert exact <= bound + 1e-9, (R, lam)

    def test_construction_report(self):
        rep = unitball_construction(20, 1.02, 1.0, 0.15)
        assert rep.log_t_exact >= rep.log_t_lower
        assert rep.terms["sandwich_upper"] >= rep.log_t_exact - 1e-9
        assert rep.terms["case_id"] == 1.0


class TestBoundReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundReport(n=3, p=1.1, lam=0.2, beta0=1.0, R=1.0, r=0.3,
                        alpha=1.01, log_t_lower=0.0)
        with pytest.raises(ValueError):
            BoundReport(n=3, p=1.1, lam=0.2, beta0=1.0, R=1.0, r=0.2,
                        alpha=1.01, log_t_lower=0.0, l=4, k=0.3)

    def test_violated_chain_refused(self):
        # an exact T more than 1e-9 below the certified bound is refused by
        # the report itself, not only by the CLI
        rep = gaussian_construction(20, 1.01, 0.2)
        with pytest.raises(ValueError, match=r"^certified chain violated: "
                                             r"logT_exact=\S+ < logT_lower=\S+$"):
            dataclasses.replace(rep, log_t_exact=rep.log_t_lower - 1e-6)
        within = dataclasses.replace(rep, log_t_exact=rep.log_t_lower - 1e-10)
        assert within.chain_margin < 0.0

    def test_serialization_keys(self):
        rep = gaussian_construction(30, 1.004, 0.2)
        d = rep.as_dict()
        assert list(d.keys()) == ["n", "p", "lambda", "beta0", "l", "k", "R", "r",
                                  "Q", "alpha", "logT_lower", "logT_exact", "terms"]
        assert d["l"] is None
        assert isinstance(d["terms"], dict)
        assert rep.chain_margin == pytest.approx(d["logT_exact"] - d["logT_lower"])


_GAUSSIAN = Gaussian()  # one instance, so consecutive calls share the general stage


class TestPSequence:
    """Calls that change only p share one cached p-free stage, and each gives
    the report of a call made on an empty cache."""

    CONSTRUCTIONS = {
        "general": lambda p, lam: general_construction(_GAUSSIAN, 12, p, lam),
        "gaussian": lambda p, lam: gaussian_construction(30, p, lam),
        "unitball": lambda p, lam: unitball_construction(20, p, 1.0, lam),
    }

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_matches_single_p_calls(self, name):
        build = self.CONSTRUCTIONS[name]
        bounds.clear_stage_caches()
        build(1.003, 0.2)
        for p in (1.04, 1.003):
            cached = build(p, 0.2)
            bounds.clear_stage_caches()
            assert cached.as_dict() == build(p, 0.2).as_dict()
        for p in (0.9, float("nan")):  # NaN is refused with p < 1, stage cached or not
            with pytest.raises(ValueError, match=r"^p must be >= 1$"):
                build(p, 0.2)
        with pytest.raises(ValueError, match=r"^p must be finite$"):
            build(math.inf, 0.2)

    @pytest.mark.parametrize("name,solves", [("general", 1), ("gaussian", 0),
                                             ("unitball", 0)])
    def test_stage_runs_once_for_k_exponents(self, monkeypatch, name, solves):
        calls = {"solve_radius_equation": 0, "off_center_ball_measure": 0}

        def counted(fn_name):
            inner = getattr(bounds, fn_name)

            def wrapper(*args, **kwargs):
                calls[fn_name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for fn_name in calls:  # patched where the stages look them up
            monkeypatch.setattr(bounds, fn_name, counted(fn_name))
        bounds.clear_stage_caches()
        ps = [1.003, 1.02, 1.04, 1.3]
        reps = [self.CONSTRUCTIONS[name](p, 0.2) for p in ps]
        assert [rep.p for rep in reps] == ps
        assert len({rep.log_t_exact for rep in reps}) == len(ps)
        assert calls == {"solve_radius_equation": solves, "off_center_ball_measure": 1}

    def test_reports_do_not_share_terms(self):
        for build in self.CONSTRUCTIONS.values():
            a = build(1.003, 0.2)
            key = next(iter(a.terms))
            a.terms[key] = 0.0
            a.terms["extra"] = 1.0
            b = build(1.04, 0.2)
            assert "extra" not in b.terms
            assert b.terms[key] != 0.0

    def test_stage_error_behind_p_check(self):
        # next to sqrt(2)-1 the p-free stage fails, but only on the calls
        # whose p passes the check made before it
        lam = float(np.nextafter(LAMBDA_MAX, 0.0))
        stage_error = f"lam = {lam!r} is too close to sqrt(2)-1: sin b0 rounds to 1"
        for p, error in [(1.01, stage_error), (0.5, "p must be >= 1"),
                         (1.02, stage_error)]:
            with pytest.raises(ValueError) as got:
                general_construction(_GAUSSIAN, 5, p, lam)
            assert str(got.value) == error
        for p in (0.5, 1.01):
            with pytest.raises(ValueError, match=r"^lam must lie in \(0, sqrt\(2\)-1\), got 0.9$"):
                general_construction(_GAUSSIAN, 5, p, 0.9)


class TestGrowthTable:
    """Every construction's alpha is the growth table's, float for float."""

    LAMS = [0.0068, 0.0069, 0.03, 0.0673, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.414]
    PS = [1.0, 1.003, 1.02, 1.3]

    @pytest.mark.parametrize("lam", LAMS)
    def test_general(self, lam):
        n = 7
        f = UnitBallIndicator()
        for p in self.PS:
            rep = general_construction(f, n, p, lam)
            log_alpha = growth_base_log("general", p, lam)
            assert rep.log_t_lower == -math.log1p(rep.Q) + n * log_alpha
            assert rep.alpha == math.exp(log_alpha)
            # the printed l is the one the table's k comes from
            assert rep.l == math.ceil(float(_annulus_exponent(lam)))

    @pytest.mark.parametrize("lam", LAMS)
    def test_gaussian(self, lam):
        n = 40
        for p in self.PS:
            rep = gaussian_construction(n, p, lam)
            log_alpha = growth_base_log("gaussian-lower", p, lam)
            assert rep.terms["growth_base_log"] == log_alpha
            assert rep.log_t_lower == -math.log(n) + n * log_alpha
            assert rep.alpha == math.exp(log_alpha)

    @pytest.mark.parametrize("lam", LAMS)
    def test_unitball(self, lam):
        n = 30
        for p in self.PS:
            rep = unitball_construction(n, p, 1.0, lam)
            log_alpha = growth_base_log("unitball", p, lam)
            # n * log alpha, not sandwich_lower / n: that quotient rounds
            assert rep.terms["sandwich_lower"] == rep.log_t_lower == n * log_alpha
            assert rep.alpha == math.exp(log_alpha)
            assert rep.terms["sandwich_upper"] == math.log(math.sqrt(math.pi) * n) + n * log_alpha
            case, bound = unitball_case_analysis(n, p, 1.0, lam)
            assert (case, bound) == (1, rep.terms["sandwich_upper"])

    def test_gaussian_upper_bound_is_n_upper_growth_bases(self):
        n, p, lam = 50, 1.06, 0.2
        R = 0.8 * gaussian_mode_radius(n)
        a = -math.log(math.sin(_contact_angle(lam)[0]))
        rest = (gaussian_upper_bound(n, p, R, lam * R) - 0.5 * math.log(math.pi)
                - math.log(n) + a - 0.5 * (lam * lam - 1.0) * (p - 1.0) / p)
        assert rest == pytest.approx(n * growth_base_log("gaussian-upper", p, lam),
                                     rel=1e-12)

    def test_general_refuses_lambda_where_sin_b0_rounds_to_one(self):
        # the annulus exponent is infinite there, so no l exists; before,
        # this raised a bare ZeroDivisionError
        lam = LAMBDA_MAX - 1e-9
        with pytest.raises(ValueError, match="sin b0 rounds to 1"):
            general_construction(UnitBallIndicator(), 5, 1.01, lam)
