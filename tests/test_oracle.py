import math
import re
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from radialmax import oracle
from radialmax.bounds import log_t_exact
from radialmax.densities import Gaussian, TabulatedDecreasing, UnitBallIndicator
from radialmax.geometry import (_cap_j_log, _log_measures, intersect_with_centered_ball,
                                off_center_ball_measure)
from radialmax.logspace import LOG_ZERO
from radialmax.measures import log_ball_measure, log_mass
from radialmax.quadrature import DEFAULT_REL_TOL, fixed_log_integral
from radialmax.oracle import (_J_THETAS, _SCAN_ORDER, _SCAN_PANELS, _TABLE_POINTS,
                              InclusionReport, RadialProfile, _j_lookup,
                              _MaximalEvaluator,
                              log_constant_estimate,
                              log_maximal_function_at, maximal_profile,
                              monte_carlo_ball_measure,
                              verify_level_set_inclusion)
from test_geometry import (_adaptive_reference, _close, _log_gaussian_intersection,
                           _log_noncentral_chi2, _random_gaussian_cases)


def mg_1d_interval_oracle(rho: float, r: float, support: float = 1.0) -> float:
    """Hand-computable 1-D maximal function of chi[-r,r]/(2r) at rho.

    Mg(rho) = sup_t |[rho-t, rho+t] ∩ [-r, r]| / (|[rho-t, rho+t] ∩ [-s, s]| 2r)
    for Lebesgue measure restricted to [-s, s]; dense grid plus local zoom.
    """

    def ratio(t):
        num = max(0.0, min(rho + t, r) - max(rho - t, -r))
        den = max(0.0, min(rho + t, support) - max(rho - t, -support))
        return 0.0 if den == 0.0 else num / (den * 2.0 * r)

    ts = np.linspace(1e-9, 2.0 * (rho + r) + support, 200_001)
    vals = np.array([ratio(float(t)) for t in ts])
    i = int(np.argmax(vals))
    zoom = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)], 20_001)
    return max(float(max(ratio(float(t)) for t in zoom)), float(vals[i]))


class TestMaximalFunction:
    def test_centered_value_is_reciprocal_mass(self):
        f = Gaussian()
        got = log_maximal_function_at(f, 3, 0.4, 0.0)
        assert got == -log_ball_measure(f, 3, 0.4)

    @pytest.mark.parametrize("f, want", [(UnitBallIndicator(), 3.3959), (Gaussian(), 3.4708)])
    def test_exact_just_below_r(self, f, want):
        # every t <= r - rho gives ratio 1 and no t more, so Mg = 1/mu(B_r);
        # here r - rho = 2e-7 lies below the t grid's 1e-6 start, and a scan
        # returned 2.7044 (unit ball) and 2.7793 (Gaussian)
        ev = _MaximalEvaluator(f, 3, 0.2, max_rho=1.0)
        got = ev.log_maximal_at(0.1999998)
        assert got == -ev.log_mu_br
        assert got == pytest.approx(want, abs=1e-4)

    def test_one_dimensional_against_interval_oracle(self):
        f = UnitBallIndicator()  # Lebesgue on [-1, 1]
        got = log_maximal_function_at(f, 1, 0.2, 0.5)
        expected = mg_1d_interval_oracle(0.5, 0.2)
        assert got == pytest.approx(math.log(expected), abs=1e-6)

    def test_witness_radius_lower_bound(self):
        # Mg(rho) >= 1/mu(B(rho xi, rho + r)) by taking t = rho + r
        f = Gaussian()
        n, r, rho = 3, 0.2, 0.7
        got = log_maximal_function_at(f, n, r, rho)
        witness = -off_center_ball_measure(f, n, rho, rho + r)
        assert got >= witness - 1e-9

    def test_bounded_by_reciprocal_small_ball_mass(self):
        f = UnitBallIndicator()
        cap = -log_ball_measure(f, 2, 0.15)
        for rho in (0.0, 0.3, 0.8, 1.2):
            assert log_maximal_function_at(f, 2, 0.15, rho) <= cap + 1e-8

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            log_maximal_function_at(Gaussian(), 7, 0.2, 0.5)

    def test_zero_mass_test_function(self):
        with pytest.raises(ValueError):
            log_maximal_function_at(UnitBallIndicator(), 2, 0.0, 0.5)

    def test_nan_radii_refused(self):
        with pytest.raises(ValueError, match="r must be positive"):
            _MaximalEvaluator(Gaussian(), 2, math.nan, max_rho=1.0)
        ev = _MaximalEvaluator(Gaussian(), 2, 0.3, max_rho=1.0)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            ev.log_maximal_at(math.nan)

    @pytest.mark.parametrize("max_rho", [math.nan, -0.5])
    def test_nan_horizon_refused_before_the_table(self, monkeypatch, max_rho):
        # a NaN horizon once gave a 4097-entry table of -inf, silently
        def no_table(*args):
            raise AssertionError("the ball-measure table was built")

        monkeypatch.setattr(oracle, "log_ball_measure_grid", no_table)
        with pytest.raises(ValueError, match="max_rho must be nonnegative"):
            _MaximalEvaluator(Gaussian(), 2, 0.3, max_rho=max_rho)

    @pytest.mark.parametrize("r,rho,message", [
        (math.inf, 0.5, "^test-function radius r must be finite$"),
        (1e308, 0.5, r"^r = 1e\+308 and max_rho = 1e\+308 overflow the table horizon"),
        (0.5, math.inf, "^rho must be finite$"),
        (0.5, 1e308, r"^r = 0.5 and max_rho = 1e\+308 overflow the table horizon"),
    ])
    def test_infinite_horizon_refused_before_the_table(self, monkeypatch, r, rho, message):
        # an infinite horizon printed a value of about 1 after RuntimeWarnings,
        # or failed with a math domain error
        def no_table(*args):
            raise AssertionError("the ball-measure table was built")

        monkeypatch.setattr(oracle, "log_ball_measure_grid", no_table)
        with pytest.raises(ValueError, match=message):
            log_maximal_function_at(Gaussian(), 3, r, rho)

    @pytest.mark.parametrize("t_points", [0, -1])
    def test_empty_scan_refused_before_the_table(self, monkeypatch, t_points):
        # t_points = 0 skipped the scan and returned the witness-only value
        def no_table(*args):
            raise AssertionError("the ball-measure table was built")

        monkeypatch.setattr(oracle, "log_ball_measure_grid", no_table)
        with pytest.raises(ValueError, match=rf"^t_points must be >= 1, got {t_points}$"):
            log_maximal_function_at(Gaussian(), 2, 0.2, 0.5, t_points=t_points)

    def test_nan_rho_refused_before_the_evaluator(self, monkeypatch):
        def no_evaluator(*args, **kwargs):
            raise AssertionError("the evaluator was built")

        monkeypatch.setattr(oracle, "_MaximalEvaluator", no_evaluator)
        for rho in (math.nan, -0.1):
            with pytest.raises(ValueError, match="^rho must be nonnegative$"):
                log_maximal_function_at(Gaussian(), 2, 0.3, rho)


class TestCapTable:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_built_once_per_dimension(self, n):
        assert _j_lookup(n) is _j_lookup(n)

    def test_read_only(self):
        table = _j_lookup(4).fp
        with pytest.raises(ValueError):
            table[0] = 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_floats_as_direct_evaluation(self, n):
        want = _cap_j_log(n, np.linspace(0.0, math.pi, _TABLE_POINTS))
        assert [x.hex() for x in _j_lookup(n).fp.tolist()] == [x.hex() for x in want.tolist()]

    def test_shared_between_evaluators(self):
        a = _MaximalEvaluator(Gaussian(), 3, 0.2, max_rho=1.0)
        b = _MaximalEvaluator(Gaussian(), 3, 0.5, max_rho=1.0)
        assert a._cap_j is b._cap_j is _j_lookup(3)


def _hexes(values):
    return [x.hex() for x in np.asarray(values, dtype=float).ravel().tolist()]


def _ball_lookup(f, n):
    return _MaximalEvaluator(f, n, 0.3, max_rho=1.0)._log_ball


def _synthetic_lookup(head: int):
    # a grid off 0, runs of -inf, a -0.0 and finite-to--inf cells, one of
    # them (258) the cell that points just below its knot fall in, where the
    # formula gives +inf; with head = 0 finite first cells, where a point
    # below the grid would extrapolate
    fp = np.random.default_rng(3).normal(size=1001)
    fp[:head] = fp[259] = fp[500:503] = fp[700] = LOG_ZERO
    fp[100] = -0.0
    return oracle._UniformLookup(np.linspace(-2.5, 7.0, 1001), fp)


_LOOKUPS = {**{f"J n={n}": (lambda n=n: _j_lookup(n)) for n in range(2, 7)},
            "gaussian ball n=3": lambda: _ball_lookup(Gaussian(), 3),
            "unit-ball ball n=2": lambda: _ball_lookup(UnitBallIndicator(), 2),
            "synthetic": lambda: _synthetic_lookup(3),
            "synthetic, finite first knot": lambda: _synthetic_lookup(0)}


class TestUniformLookup:
    """The scan's table lookup gives np.interp's floats, except next to a knot."""

    @pytest.mark.parametrize("name", sorted(_LOOKUPS))
    def test_same_floats_as_interp(self, name):
        # bit for bit a thousandth of a cell or more from every knot, off the
        # grid, at NaN and +-inf, and inside the cells next to a -inf; next to
        # a knot the value may be either piece's line
        lookup = _LOOKUPS[name]()
        xp, fp = lookup.xp, lookup.fp
        assert (fp[0] == LOG_ZERO) == ("finite" not in name)  # the tables start at -inf
        lo, hi = float(xp[0]), float(xp[-1])
        h = (hi - lo) / (len(xp) - 1)
        rng = np.random.default_rng(20240214)
        x = np.concatenate([
            rng.uniform(lo, hi, 100_000),
            *(xp + k * np.spacing(xp) for k in range(-4, 5)),
            *(xp + h * rng.uniform(-1e-3, 1e-3, xp.shape) for _ in range(4)),
            [0.0, math.pi, lo - 1.0, -1e-300, hi + 1e-9, 2.0 * hi + 1.0,
             math.nan, -math.inf, math.inf]])
        got, want = lookup(x), np.interp(x, xp, fp)
        off_grid = ~((x >= lo) & (x <= hi))
        j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
        k = np.where(np.abs(x - xp[j]) <= np.abs(x - xp[j + 1]), j, j + 1)  # nearest knot
        inside = (x > xp[j]) & (x < xp[j + 1])
        exact = (off_grid | (inside & ((fp[j] == LOG_ZERO) | (fp[j + 1] == LOG_ZERO)))
                 | (np.abs(x - xp[k]) >= 1e-3 * h))
        assert _hexes(got[exact]) == _hexes(want[exact])
        # the kink's slopes times the distance to the knot (one spacing of x
        # at least), and four roundings of the largest finite value of the
        # knot and its neighbours; a -inf's cells are bit for bit above
        with np.errstate(invalid="ignore"):  # -inf - -inf
            slope = np.abs(np.diff(fp) / np.diff(xp))
        slope[~np.isfinite(slope)] = 0.0
        size = np.where(np.isfinite(fp), np.abs(fp), 0.0)
        left, right = np.maximum(k - 1, 0), np.minimum(k + 1, len(fp) - 1)
        reach = ((slope[left] + slope[np.minimum(k, len(slope) - 1)])
                 * np.maximum(np.abs(x - xp[k]), np.abs(np.spacing(x)))
                 + 4.0 * np.spacing(np.maximum.reduce([size[left], size[k], size[right]])))
        with np.errstate(invalid="ignore"):  # -inf - -inf, NaN
            near = (got == want) | (np.abs(got - want) <= reach)
        assert near[~exact].all(), x[~exact][~near[~exact]]
        assert exact.sum() > 90_000 and (~exact).sum() > 0

    def test_built_once_per_dimension_and_read_only(self):
        lookup = _j_lookup(4)
        assert lookup is _j_lookup(4)
        assert lookup.xp is _J_THETAS
        for table in (lookup.xp, lookup.fp, lookup._slope):
            with pytest.raises(ValueError):
                table[1] = 0.0


def _reference_scan_pair(ev, rho, ts):
    """The scan as it was written before the lookup and the row skipping:
    np.interp in both tables, one full fixed_log_integral call per partial."""
    xp, fp = ev._log_ball.xp, ev._log_ball.fp

    def log_ball(radius):
        return np.interp(np.minimum(radius, ev.horizon), xp, fp)

    inner = np.abs(ts - rho)
    full = np.clip(ts - rho, 0.0, None)
    if ev.n == 1:
        # the band holds one of +-s: half the table's difference on every row,
        # log(e^a - e^b) - log 2 where a > b and -inf elsewhere
        def band(hi):
            a, b = log_ball(hi), log_ball(np.minimum(inner, hi))
            out = np.full(ts.shape, LOG_ZERO)
            more = a > b
            out[more] = a[more] + np.log(-np.expm1(b[more] - a[more])) - math.log(2.0)
            return out

        return (np.logaddexp(log_ball(np.minimum(full, ev.r)),
                             band(np.minimum(ts + rho, ev.r))),
                np.logaddexp(log_ball(full), band(ts + rho)))
    outer = np.minimum(ts + rho, ev.support)
    j_table = _j_lookup(ev.n).fp

    def log_f(s, t):
        cos = (rho * rho + s * s - t * t) / np.maximum(2.0 * rho * s, 1e-300)
        return ev._phi(s) + np.interp(np.arccos(np.clip(cos, -1.0, 1.0)), _J_THETAS, j_table)

    def partial(cap):
        hi = np.minimum(outer, cap)
        return (fixed_log_integral(log_f, np.minimum(inner, hi), hi, _SCAN_PANELS, _SCAN_ORDER,
                                   (ts[:, None, None],))
                + ev._log_omega_sub)

    den = np.logaddexp(log_ball(full), partial(np.inf))
    num = np.logaddexp(log_ball(np.minimum(full, ev.r)), partial(ev.r))
    return num, den


def _reference_log_maximal_at(ev, rho):
    """log_maximal_at with the reference scan and one scan per zoom."""
    if rho == 0.0:
        return -ev.log_mu_br
    ts = np.geomspace(max(1e-6, rho - ev.r) * (1.0 - 1e-9), 2.0 * (rho + ev.r) + ev.support,
                      ev.t_points)
    num, den = _reference_scan_pair(ev, rho, ts)
    with np.errstate(invalid="ignore"):
        ratio = np.where(den > LOG_ZERO, num - den, -np.inf)
    top = []
    for idx in np.argsort(ratio)[::-1]:
        if not np.isfinite(ratio[idx]):
            continue
        if all(abs(idx - j) > 1 for j in top):
            top.append(int(idx))
        if len(top) == 3:
            break
    candidates = [rho + ev.r]
    for idx in top:
        zoom = np.linspace(ts[max(idx - 1, 0)], ts[min(idx + 1, len(ts) - 1)], 65)
        z_num, z_den = _reference_scan_pair(ev, rho, zoom)
        with np.errstate(invalid="ignore"):
            z_ratio = np.where(z_den > LOG_ZERO, z_num - z_den, -np.inf)
        candidates.append(float(zoom[int(np.argmax(z_ratio))]))
    return max(ev._exact_ratio(rho, t) for t in candidates) - ev.log_mu_br


_SCAN_DENSITIES = {"gaussian": Gaussian(), "unit ball": UnitBallIndicator(),
                   "tabulated": TabulatedDecreasing([0.3, 0.55, 1.4], [0.0, -0.7, -2.5])}
_MAX_RHO = 1.1


def _scan_grid(ev, rho):
    return np.geomspace(max(1e-6, rho - ev.r) * (1.0 - 1e-9),
                        2.0 * (rho + ev.r) + ev.support, 160)


class TestScan:
    """The scan keeps every float while it skips rows and zoom calls."""

    @pytest.mark.parametrize("kind", sorted(_SCAN_DENSITIES))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_floats_as_reference_scan(self, kind, n):
        ev = _MaximalEvaluator(_SCAN_DENSITIES[kind], n, 0.3, max_rho=_MAX_RHO,
                               t_points=128)
        for rho in (0.0, 1e-3, 0.999 * _MAX_RHO):
            ts = _scan_grid(ev, rho)
            got, want = ev._scan_pair(rho, ts), _reference_scan_pair(ev, rho, ts)
            assert [_hexes(a) for a in got] == [_hexes(a) for a in want], rho
            assert (ev.log_maximal_at(rho).hex()
                    == _reference_log_maximal_at(ev, rho).hex()), rho

    def test_every_row_empty(self, monkeypatch):
        # rho past the unit ball's support and t < rho - 1: no row has width
        ev = _MaximalEvaluator(UnitBallIndicator(), 3, 0.3, max_rho=2.0)
        ts = np.array([0.05, 0.2, 0.4])
        want = _reference_scan_pair(ev, 1.5, ts)
        rows = []

        def counted(log_f, lo, hi, panels, order, args=()):
            rows.append(len(lo))
            return fixed_log_integral(log_f, lo, hi, panels, order, args)

        monkeypatch.setattr(oracle, "fixed_log_integral", counted)
        got = ev._scan_pair(1.5, ts)
        assert [_hexes(a) for a in got] == [_hexes(a) for a in want]
        assert np.all(got[1] == LOG_ZERO)
        assert rows == [0]

    @pytest.mark.parametrize("kind", sorted(_SCAN_DENSITIES))
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_no_empty_or_repeated_rows(self, monkeypatch, kind, n):
        ev = _MaximalEvaluator(_SCAN_DENSITIES[kind], n, 0.3, max_rho=_MAX_RHO)
        rows = []

        def counted(log_f, lo, hi, panels, order, args=()):
            rows.append((np.array(lo), np.array(hi)))
            return fixed_log_integral(log_f, lo, hi, panels, order, args)

        monkeypatch.setattr(oracle, "fixed_log_integral", counted)
        for rho in (1e-3, 0.2, 0.6, 0.999 * _MAX_RHO):
            ts = _scan_grid(ev, rho)
            rows.clear()
            ev._scan_pair(rho, ts)
            assert len(rows) == 1  # one call serves both partials
            lo, hi = rows[0]
            assert np.all(hi > lo), rho
            # the rows the parent's two calls took and gave a value for
            inner, outer = np.abs(ts - rho), np.minimum(ts + rho, ev.support)
            num_hi = np.minimum(outer, ev.r)
            den_nonempty = outer > np.minimum(inner, outer)
            num_own = (num_hi > np.minimum(inner, num_hi)) & (num_hi != outer)
            assert len(lo) == np.count_nonzero(den_nonempty) + np.count_nonzero(num_own)
            assert len(lo) < 2 * len(ts)

    def test_one_dimensional_band_reads_past_the_support(self):
        # at n = 1 the band is half the ball table's difference, read at
        # rho + t: the table interpolates across the unit ball's support at 1,
        # and a read there was 3.4e-4 to 6.9e-4 off on these rows
        ev = _MaximalEvaluator(UnitBallIndicator(), 1, 0.3, max_rho=1.0)
        rho, cell = 0.8, ev._log_ball.xp[1]
        ts = np.linspace(0.2 + 2.0 * cell, 0.6, 101)  # rho + t past the support's cell
        _, den = ev._scan_pair(rho, ts)
        assert np.max(np.abs(den - np.log(1.0 - (rho - ts)))) <= 1e-5

    def test_two_scans_per_evaluation(self, monkeypatch):
        calls = []
        scan_pair = _MaximalEvaluator._scan_pair

        def counted(self, rho, ts):
            calls.append(len(ts))
            return scan_pair(self, rho, ts)

        monkeypatch.setattr(_MaximalEvaluator, "_scan_pair", counted)
        ev = _MaximalEvaluator(Gaussian(), 3, 0.2, max_rho=1.0)
        ev.log_maximal_at(0.5)
        assert calls == [512, 3 * 65]  # the scan, then the three zooms at once

    def test_row_subset_gives_the_same_floats(self):
        # fixed_log_integral reduces each row on its own, which the scan's
        # row skipping relies on
        ev = _MaximalEvaluator(Gaussian(), 4, 0.3, max_rho=1.0)
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.0, 1.0, 1024)
        hi = lo + rng.uniform(0.0, 1.5, 1024)
        t = rng.uniform(0.1, 2.0, 1024)

        def integral(rows):
            def log_f(s, t):
                return ev._phi(s) - t * s
            return _hexes(fixed_log_integral(log_f, lo[rows], hi[rows], _SCAN_PANELS,
                                             _SCAN_ORDER, (t[rows][:, None, None],)))

        everything = integral(np.arange(1024))
        for size in (1, 2, 7, 100, 513, 1023):
            rows = np.sort(rng.choice(1024, size, replace=False))
            assert integral(rows) == [everything[i] for i in rows], size
        for i in (0, 511, 1023):
            assert integral(np.array([i])) == [everything[i]]


def _scan_t(ev, rho, points):
    return np.geomspace(max(1e-6, rho - ev.r) * (1.0 - 1e-9), 2.0 * (rho + ev.r) + ev.support,
                        points)


class TestScanWorkArrays:
    """The scan's blocks write into the rule's node array and into work arrays
    the evaluator keeps, with the floats of fresh arrays."""

    @pytest.mark.parametrize("kind", sorted(_SCAN_DENSITIES))
    def test_warm_scan_peaks_below_half_of_fresh_arrays(self, kind):
        # with fresh arrays in every block, a warmed 512-t scan peaked at about
        # 700 KiB on each of these densities, and the heap handed back after
        # one block was faulted in again by the next
        ev = _MaximalEvaluator(_SCAN_DENSITIES[kind], 3, 0.3, max_rho=_MAX_RHO)
        ts = _scan_t(ev, 0.7, 512)
        ev._scan_pair(0.7, ts)
        work = ev._work
        tracemalloc.start()
        try:
            ev._scan_pair(0.7, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 350 * 1024, peak
        assert ev._work is work  # no block outgrew the arrays of the first scan

    def test_work_arrays_are_the_evaluators_own(self):
        # evaluators share the cap lookup, and each keeps its own work arrays
        lookup_state = dict(vars(_j_lookup(3)))
        a, b = (_MaximalEvaluator(Gaussian(), 3, r, max_rho=1.0) for r in (0.2, 0.3))
        for ev in (a, b):
            ev._scan_pair(0.6, _scan_t(ev, 0.6, 64))
        assert a._work[0] is not b._work[0]
        assert vars(_j_lookup(3)).keys() == lookup_state.keys()
        assert all(vars(_j_lookup(3))[k] is v for k, v in lookup_state.items())

    @pytest.mark.parametrize("kind", sorted(_SCAN_DENSITIES))
    def test_row_from_zero_with_nodes_at_zero(self, monkeypatch, kind):
        # rho = t = 24 subnormal steps: the row [0, rho + t] has panels one
        # step wide, so some of its nodes round to 0, where phi is LOG_ZERO,
        # and others to 1 step; the integrand written
        # into work arrays gives, float for float, the one of fresh arrays
        ev = _MaximalEvaluator(_SCAN_DENSITIES[kind], 3, 0.3, max_rho=1.0)
        seen = []

        def recorded(log_f, lo, hi, panels, order, args=()):
            def logged(s, t):
                seen.append((s.copy(), t.copy(), log_f(s, t).copy()))
                return seen[-1][2]
            return fixed_log_integral(logged, lo, hi, panels, order, args)

        monkeypatch.setattr(oracle, "fixed_log_integral", recorded)
        rho = 24 * 5e-324
        ts = np.array([rho, 3.0 * rho])
        got = ev._scan_pair(rho, ts)
        s, t, vals = seen[0]
        assert np.any(s[0] == 0.0) and np.any(s[0] > 0.0)
        cos = (rho * rho + s * s - t * t) / np.maximum(2.0 * rho * s, 1e-300)
        want = ev._phi(s) + ev._cap_j(np.arccos(np.clip(cos, -1.0, 1.0)))
        assert _hexes(vals) == _hexes(want)
        assert _hexes(vals[s == 0.0]) == [LOG_ZERO.hex()] * np.count_nonzero(s == 0.0)
        assert [_hexes(a) for a in got] == [_hexes(a) for a in _reference_scan_pair(ev, rho, ts)]

    @pytest.mark.parametrize("name", sorted(_LOOKUPS))
    def test_lookup_into_work_arrays_keeps_the_floats(self, name):
        lookup = _LOOKUPS[name]()
        lo, hi = float(lookup.xp[0]), float(lookup.xp[-1])
        x = np.concatenate([np.random.default_rng(11).uniform(lo - 1.0, hi + 1.0, 5000),
                            lookup.xp, [math.nan, -math.inf, math.inf]]).reshape(1, -1)
        out = np.full(x.shape, 3.0)
        work = (np.empty(x.shape), np.empty(x.shape, np.intp), np.empty(x.shape, bool),
                np.empty(x.shape, bool))
        assert lookup(x, out=out, work=work) is out
        assert _hexes(out) == _hexes(lookup(x))


def _log_gaussian_interval(x0, x1):
    """log int_x0^x1 e^(-pi x^2) dx, the Gaussian on the line, by erf, or by
    erfc for an interval in one tail."""
    if x1 <= x0:
        return LOG_ZERO
    a, b = math.sqrt(math.pi) * x0, math.sqrt(math.pi) * x1
    if a >= 0.0:
        return math.log(0.5 * (math.erfc(a) - math.erfc(b)))
    if b <= 0.0:
        return math.log(0.5 * (math.erfc(-b) - math.erfc(-a)))
    return math.log(0.5 * (math.erf(b) - math.erf(a)))


def _log_gaussian_line(d, t, rho=math.inf):
    """log mu(B(d, t) ∩ B_rho) for the Gaussian at n = 1."""
    return _log_gaussian_interval(max(d - t, -rho), min(d + t, rho))


class TestOneDimensionalGaussian:
    """n = 1 runs the core-and-band route of every dimension, checked against
    the erf closed form to 1e-12 max(1, |log|).  The thinnest balls keep
    t >= d / 200: below that the erfc difference itself loses digits (at
    d = 3, t = 1e-4 it was 1.7e-12 off an mpmath quadrature)."""

    @pytest.mark.parametrize("d,t,rho", [
        (0.5, 0.2, math.inf),  # t < d
        (0.5, 0.9, math.inf),  # t > d: a core and a band
        (2.0, 1e-2, math.inf),  # t << d
        (4.0, 0.5, math.inf),  # in the tail
        (0.7, 0.5, 0.9),  # cut at rho on one side
        (0.3, 1.2, 0.4),  # cut at rho on both sides
        (0.7, 0.5, 0.1),  # no overlap with B_rho
    ])
    def test_geometry(self, d, t, rho):
        want = _log_gaussian_line(d, t, rho)
        got = (off_center_ball_measure(Gaussian(), 1, d, t) if rho == math.inf
               else intersect_with_centered_ball(Gaussian(), 1, d, t, rho))
        assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_exact_pass(self):
        r = 0.3
        ev = _MaximalEvaluator(Gaussian(), 1, r, max_rho=2.0)
        rng = np.random.default_rng(11)
        for i in range(100):
            rho = float(rng.uniform(r, 2.0))
            t = float(rng.uniform(1e-2, 3.0) if i % 4 else rng.uniform(rho / 200.0, 1e-2))
            num, den = _log_gaussian_line(rho, t, r), _log_gaussian_line(rho, t)
            pair, by_rule = _log_measures(Gaussian(), 1, rho, t, (r, math.inf))
            assert by_rule
            for got, want in zip(pair, (num, den)):
                assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))
            ratio = ev._exact_ratio(rho, t)
            assert ratio == pair[0] - pair[1]
            assert ratio == num - den or abs(ratio - (num - den)) <= 2e-12 * max(1.0, abs(den))
        assert (ev.exact_fixed, ev.exact_geometry) == (100, 0)

    def test_inclusion_settles_every_candidate_by_the_fixed_rule(self):
        # at n = 1 the margins sit within rounding of 0, so only the routes count
        rep = verify_level_set_inclusion(Gaussian(), 1, 1.2, 0.3, n_points=8)
        assert (rep.exact_fixed, rep.exact_geometry) == (24, 0)


class TestExactPass:
    """The exact pass takes geometry's ``_log_measures`` on both caps, r and
    inf, for every density but the unit ball, whose lens goes through the
    public geometry functions; the ratios are checked against references
    built apart from that route."""

    def test_fixed_rule_matches_adaptive_route(self):
        # the reference is ``log_integral`` on the same core and band rows,
        # good to its DEFAULT_REL_TOL (1e-10); on draws like these it is up
        # to 1.1e-11 off the closed forms, which the rule holds to 1e-12
        for n, r, rho, t in _random_gaussian_cases(1, 60):
            ev = _MaximalEvaluator(Gaussian(), n, r, max_rho=rho)
            got = ev._exact_ratio(rho, t)
            assert (ev.exact_fixed, ev.exact_geometry) == (1, 0), (n, r, rho, t)
            num, den = (_adaptive_reference(Gaussian(), n, rho, t, cap)
                        for cap in (r, math.inf))
            if num == -math.inf:
                assert got == num
            else:
                assert abs(got - (num - den)) <= DEFAULT_REL_TOL * (max(1.0, abs(num))
                                                                    + max(1.0, abs(den)))

    def test_denominator_is_noncentral_chi2(self):
        # the ratio's denominator is the noncentral chi-squared sum and its
        # numerator an mpmath radial integral, each held to 1e-12
        for n, r, rho, t in _random_gaussian_cases(2, 10):
            ev = _MaximalEvaluator(Gaussian(), n, r, max_rho=rho)
            num = _log_gaussian_intersection(n, rho, t, r)
            den = _log_noncentral_chi2(n, rho, t)
            got = ev._exact_ratio(rho, t)
            if num == -math.inf:
                assert got == num
            else:
                assert abs(got - (num - den)) <= 1e-12 * (max(1.0, abs(num))
                                                          + max(1.0, abs(den))), (n, r, rho, t)

    def test_disagreeing_orders_fall_back(self):
        # the density jumps from 0 to -3 at s = 0.5, inside the cap band
        # [0.23, 0.97]: that row takes the adaptive route, to the last bit,
        # and the candidate counts as geometry's
        f = TabulatedDecreasing([0.5, 2.0], [0.0, -3.0])
        ev = _MaximalEvaluator(f, 3, 0.3, max_rho=1.0)
        (num, den), by_rule = _log_measures(f, 3, 0.6, 0.37, (0.3, math.inf))
        assert not by_rule
        assert den.hex() == _adaptive_reference(f, 3, 0.6, 0.37, math.inf).hex()
        assert ev._exact_ratio(0.6, 0.37).hex() == (num - den).hex()
        assert (ev.exact_fixed, ev.exact_geometry) == (0, 1)

    def test_fixed_rule_settles_the_gaussian(self):
        ev = _MaximalEvaluator(Gaussian(), 4, 0.25, max_rho=1.0)
        (num, den), by_rule = _log_measures(Gaussian(), 4, 0.7, 0.5, (0.25, math.inf))
        assert by_rule
        assert ev._exact_ratio(0.7, 0.5) == num - den
        assert (ev.exact_fixed, ev.exact_geometry) == (1, 0)

    @pytest.mark.parametrize("f,n", [(Gaussian(), 1), (UnitBallIndicator(), 1),
                                     (UnitBallIndicator(), 2), (UnitBallIndicator(), 5)])
    def test_closed_form_and_one_dimensional_paths_unchanged(self, f, n):
        # the unit ball's lens, from n = 2 on, is geometry's public functions;
        # at n = 1 both densities settle by the fixed rule, as the Gaussian does
        # at n >= 2, within 1e-12 of the adaptive reference on the same rows, and
        # the unit ball's combined call gives the public functions' floats
        ev = _MaximalEvaluator(f, n, 0.3, max_rho=1.0)
        fixed = n == 1
        for rho, t in [(0.5, 0.1), (0.5, 0.9), (0.8, 2e-4), (0.2, 1.7)]:
            got = ev._exact_ratio(rho, t)
            if fixed:
                (num, den), by_rule = _log_measures(f, n, rho, t, (0.3, math.inf))
                assert by_rule and got == num - den
                for part, cap in zip((num, den), (0.3, math.inf)):
                    assert _close(part, _adaptive_reference(f, n, rho, t, cap), 1e-12)
            if isinstance(f, UnitBallIndicator):
                num = intersect_with_centered_ball(f, n, rho, t, 0.3)
                den = off_center_ball_measure(f, n, rho, t)
                assert got.hex() == (-math.inf if den == -math.inf else num - den).hex()
        assert (ev.exact_fixed, ev.exact_geometry) == ((4, 0) if fixed else (0, 4))

    def test_one_dimensional_unit_ball_takes_the_public_floats(self):
        # at n = 1 the unit ball has no lens: the exact pass's one combined
        # call on the caps r and inf is the two public functions, float for float
        f, rng = UnitBallIndicator(), np.random.default_rng(5)
        for _ in range(300):
            rho, t, r = rng.uniform(0.0, 2.0), rng.uniform(1e-4, 3.0), rng.uniform(1e-3, 1.2)
            (num, den), by_rule = _log_measures(f, 1, rho, t, (r, math.inf))
            assert by_rule
            assert num.hex() == intersect_with_centered_ball(f, 1, rho, t, r).hex()
            assert den.hex() == off_center_ball_measure(f, 1, rho, t).hex()

    def test_report_counts_every_candidate(self, monkeypatch):
        calls = []
        exact_ratio = _MaximalEvaluator._exact_ratio

        def counted(self, rho, t):
            calls.append((rho, t))
            return exact_ratio(self, rho, t)

        monkeypatch.setattr(_MaximalEvaluator, "_exact_ratio", counted)
        gauss = verify_level_set_inclusion(Gaussian(), 2, 0.8, 0.2, n_points=6)
        assert (gauss.exact_fixed, gauss.exact_geometry) == (len(calls), 0)
        calls.clear()
        ball = verify_level_set_inclusion(UnitBallIndicator(), 2, 0.8, 0.2, n_points=6)
        assert (ball.exact_fixed, ball.exact_geometry) == (0, len(calls))
        assert len(calls) >= 5  # one witness per radius at or above r at least


class TestProfile:
    def test_profile_shape_and_monotone_grid(self):
        prof = maximal_profile(Gaussian(), 2, 0.3, points=48)
        assert len(prof.radii) == len(prof.log_values)
        assert np.all(np.diff(prof.radii) > 0)
        assert prof.meta["kind"] == "gaussian"

    def test_profile_plateau_and_continuity(self):
        r = 0.3
        prof = maximal_profile(Gaussian(), 2, r, points=96)
        log_cap = -log_ball_measure(Gaussian(), 2, r)
        log_vals = prof.log_values
        # inside the test ball the sup is attained by balls within B_r, so
        # the profile sits exactly on the plateau log 1/mu(B_r)
        inside = prof.radii <= 0.9 * r
        assert np.all(np.abs(log_vals[inside] - log_cap) <= 1e-8)
        # away from the indicator boundary (where Mg genuinely drops by
        # about half over a vanishing distance) the profile moves smoothly
        away = (prof.radii[:-1] > 1.6 * r) | (prof.radii[1:] < 0.8 * r)
        jumps = np.abs(np.diff(log_vals))[away]
        assert float(jumps.max()) < 0.25

    def test_csv_round_trip(self):
        prof = RadialProfile(radii=np.array([0.0, 0.5, 1.0]),
                             log_values=np.array([2.0, 1.5, 1.0]),
                             meta={"kind": "gaussian", "n": 2, "r": 0.3,
                                   "grid": "test", "seed": "none"})
        text = prof.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert "rho,log_value" in lines
        data = [l for l in lines if not l.startswith("#") and "," in l and "rho" not in l]
        assert len(data) == 3
        assert float(data[0].split(",")[1]) == 2.0

    def test_csv_bytes_pinned(self):
        # 17 significant digits; -inf, -0 and nan spelled as serialize does
        prof = RadialProfile(radii=[0.0, 0.1, 0.5, 1.25],
                             log_values=[1 / 3, 2.5e-300, -math.inf, -0.0],
                             meta={"kind": "gaussian", "n": 2, "r": repr(0.3),
                                   "grid": "smoothstep:4:0:1.25", "seed": "none"})
        assert prof.to_csv() == (
            "# kind=gaussian\n# n=2\n# r=0.3\n# grid=smoothstep:4:0:1.25\n# seed=none\n"
            "rho,log_value\n0,0.33333333333333331\n0.10000000000000001,2.5e-300\n"
            "0.5,-inf\n1.25,-0\n")
        assert (RadialProfile(radii=[0.0], log_values=[math.nan]).to_csv()
                == "rho,log_value\n0,nan\n")

    def test_profile_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            RadialProfile(radii=np.array([0.0, 0.0]), log_values=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("points", [0, -3])
    def test_profile_refuses_empty_grid(self, points):
        # points = 0 was an IndexError on the empty grid
        with pytest.raises(ValueError, match=rf"^points must be >= 1, got {points}$"):
            maximal_profile(Gaussian(), 2, 0.3, points=points)

    def test_one_point_profile(self):
        prof = maximal_profile(Gaussian(), 2, 0.3, points=1, t_points=16)
        assert prof.radii.tolist() == [0.0]
        assert prof.log_values[0] == -log_ball_measure(Gaussian(), 2, 0.3)


class TestLevelSetInclusion:
    def test_unitball_reference_config(self):
        rep = verify_level_set_inclusion(UnitBallIndicator(), 2, 1.0, 0.15,
                                         n_points=64)
        assert isinstance(rep, InclusionReport)
        assert rep.passed, rep.failures
        assert len(rep.rows) == 64
        assert rep.min_margin > 0.0

    def test_gaussian_reference_config(self):
        rep = verify_level_set_inclusion(Gaussian(), 3, 1.0, 0.2, n_points=64)
        assert rep.passed, rep.failures
        assert rep.min_margin > 0.0

    def test_near_degenerate_radii(self):
        rep = verify_level_set_inclusion(Gaussian(), 2, 0.8, 0.999 * 0.8,
                                         n_points=32)
        assert rep.passed, rep.failures

    def test_desk_scale_n5(self):
        rep = verify_level_set_inclusion(Gaussian(), 5, 1.0, 0.25, n_points=32)
        assert rep.passed, rep.failures
        rep_ub = verify_level_set_inclusion(UnitBallIndicator(), 5, 0.9, 0.2,
                                            n_points=32)
        assert rep_ub.passed, rep_ub.failures

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_level_set_inclusion(Gaussian(), 2, 0.5, 0.7)

    def test_infinite_R_refused_by_name(self):
        # it was refused as "d must be finite", by the off-center measure
        with pytest.raises(ValueError, match="^R must be finite$"):
            verify_level_set_inclusion(Gaussian(), 2, math.inf, 0.2, n_points=4)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_refuses_empty_grid(self, n_points):
        # n_points = 0 gave no rows, passed = True and a min_margin that raised
        with pytest.raises(ValueError, match=rf"^n_points must be >= 1, got {n_points}$"):
            verify_level_set_inclusion(Gaussian(), 2, 0.8, 0.2, n_points=n_points)

    def test_one_point_grid(self):
        rep = verify_level_set_inclusion(Gaussian(), 2, 0.8, 0.2, n_points=1, t_points=16)
        assert [row.rho for row in rep.rows] == [0.0]
        assert rep.min_margin == rep.rows[0].margin

    def test_unitball_small_candidate_balls_do_not_stall(self):
        # the exact re-evaluation meets balls of radius ~2e-4 well inside B_r;
        # as radial integrals they ran into the quadrature's evaluation cap
        # (about 80 s in all)
        start = time.perf_counter()
        rep = verify_level_set_inclusion(UnitBallIndicator(), 6, 0.7694758186220195,
                                         0.2838297354945334, n_points=4)
        assert time.perf_counter() - start < 5.0
        assert len(rep.rows) == 4
        assert all(math.isfinite(row.log_mg) for row in rep.rows)


class TestGridSizes:
    """Each public entry refuses a bool or non-integral grid size by its name.

    A float 2.5 raised numpy's TypeError, and True ran as 1.
    """

    BAD = [True, np.True_, 2.5, np.float64(16.5), math.nan, math.inf]

    @staticmethod
    def _refused(name, value, call):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call()

    @pytest.mark.parametrize("value", BAD)
    def test_log_maximal_function_at(self, value):
        self._refused("t_points", value, lambda: log_maximal_function_at(
            Gaussian(), 2, 0.2, 0.5, t_points=value))

    @pytest.mark.parametrize("name", ["points", "t_points"])
    @pytest.mark.parametrize("value", BAD)
    def test_maximal_profile(self, name, value):
        kwargs = {"points": 4, "t_points": 16, name: value}
        self._refused(name, value, lambda: maximal_profile(Gaussian(), 2, 0.3, **kwargs))

    @pytest.mark.parametrize("name", ["n_points", "t_points"])
    @pytest.mark.parametrize("value", BAD)
    def test_verify_level_set_inclusion(self, name, value):
        kwargs = {"n_points": 2, "t_points": 16, name: value}
        self._refused(name, value, lambda: verify_level_set_inclusion(
            Gaussian(), 2, 0.8, 0.2, **kwargs))

    @pytest.mark.parametrize("name", ["points", "t_points"])
    @pytest.mark.parametrize("value", BAD)
    def test_log_constant_estimate(self, name, value):
        kwargs = {"points": 4, "t_points": 16, name: value}
        self._refused(name, value, lambda: log_constant_estimate(
            Gaussian(), 2, 0.3, 2.0, **kwargs))

    def test_integral_sizes_run_as_ints(self):
        want = maximal_profile(Gaussian(), 2, 0.3, points=4, t_points=16)
        got = maximal_profile(Gaussian(), 2, 0.3, points=4.0, t_points=np.int64(16))
        assert got.meta == want.meta
        assert got.log_values.tobytes() == want.log_values.tobytes()


_STEP = TabulatedDecreasing([0.25, 0.67, 1.19, 1.45], [0.0, -0.5, -0.8, -1.7])
_P_CASES = {"gaussian n=2": (Gaussian(), 2), "gaussian n=3": (Gaussian(), 3),
            "unit ball n=2": (UnitBallIndicator(), 2), "step n=3": (_STEP, 3),
            "step n=5": (_STEP, 5)}


@lru_cache(maxsize=None)
def _p_profile(case: str, r: float, points: int):
    """(radii, log Mg, log Mg(r)) of ``log_constant_estimate``'s own evaluator."""
    f, n = _P_CASES[case]
    _, radii, log_mg, ev = oracle._log_profile(f, n, r, points, 64)
    return radii, log_mg, ev.log_maximal_at(r)


def _mp_pieces(f, a, b):
    """[a, b] cut at the density's knots and support, as (lo, hi) pairs."""
    cuts = [c for c in (*f.probe_points(), f.support_upper_bound) if a < c < b]
    edges = [a, *cuts, b]
    return list(zip(edges[:-1], edges[1:]))


def _step_log_f(f, lo, hi) -> float:
    """log f on a piece (lo, hi) of a step density or the unit ball."""
    return float(f.log_density(np.array([0.5 * (lo + hi)]))[0])


def _mp_log_f(f, lo, hi):
    """log f on (lo, hi) in mpmath: -pi s^2, or the step's constant there."""
    mpmath = pytest.importorskip("mpmath")
    if isinstance(f, Gaussian):
        return lambda s: -mpmath.pi * s * s
    return lambda s: mpmath.mpf(_step_log_f(f, lo, hi))


def _mp_log_sphere_area(n):
    mpmath = pytest.importorskip("mpmath")
    return mpmath.log(2) + n / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2)


class TestEmpiricalBound:
    def test_dominates_certified_bound(self):
        f, n, p, R, r = UnitBallIndicator(), 2, 1.5, 1.0, 0.15
        emp = log_constant_estimate(f, n, r, p, points=96)
        cert = log_t_exact(f, n, p, R, r)
        assert emp >= cert + math.log1p(-1e-3)

    @pytest.mark.parametrize("f,n,r,p", [
        (Gaussian(), 2, 0.3, 1.5),
        (Gaussian(), 3, 0.5, 2.0),
        (UnitBallIndicator(), 2, 0.2, 1.25),
        (Gaussian(), 1, 0.4, 1.5),
        (UnitBallIndicator(), 3, 0.35, 3.0),
    ])
    def test_at_least_one(self, f, n, r, p):
        emp = log_constant_estimate(f, n, r, p, points=64)
        assert emp >= math.log1p(-1e-6)

    @pytest.mark.parametrize("n", [1, 2, 6])
    @pytest.mark.parametrize("f", [Gaussian(), UnitBallIndicator()])
    def test_never_below_one(self, f, n):
        # Mg >= g, so the ratio of norms is at least 1 and its log at least 0.
        # The B_r part is added exactly, and the log of the estimate is log1p
        # of the rest's share: an interpolation across the jump of Mg at r
        # printed 0.9679 for the Gaussian at n = 6, r = 0.2, p = 4
        for r in (0.2, 0.5):
            for p in (1.5, 4.0, 8.0):
                emp = log_constant_estimate(f, n, r, p, points=32, t_points=64)
                assert emp >= 0.0, (r, p)

    def test_weak_type_level_bound(self):
        # tau = 1/mu(B~) catches at least B_R, so the weak functional is
        # at least mu(B_R)/mu(B~)
        f, n, R, r = UnitBallIndicator(), 2, 1.0, 0.15
        emp = log_constant_estimate(f, n, r, 1.0, points=128)
        floor = log_ball_measure(f, n, R) - off_center_ball_measure(f, n, R, R + r)
        assert emp >= floor + math.log1p(-5e-2)

    def test_estimate_from_the_profile(self):
        # p > 1: the log of (1 + mu(B_r)^(p - 1) int_{|x| > r} Mg^p dmu)^(1/p),
        # log Mg interpolated linearly from log Mg(r) through the profile radii
        # past r, integrated here by 20-point Gauss-Legendre on every cell
        f, n, r, p = Gaussian(), 2, 0.3, 2.0
        prof = maximal_profile(f, n, r, points=32, t_points=64)
        past = prof.radii > r
        knots = np.concatenate([[r], prof.radii[past]])
        log_knots = np.concatenate([[log_maximal_function_at(f, n, r, r, t_points=64)],
                                    prof.log_values[past]])
        x, w = np.polynomial.legendre.leggauss(20)
        mid, half = (knots[1:] + knots[:-1]) / 2, (knots[1:] - knots[:-1]) / 2
        s = mid[:, None] + half[:, None] * x
        log_mg = np.interp(s, knots, log_knots)
        rest = math.fsum((half[:, None] * w * np.exp(p * log_mg + f.log_density(s))
                          * 2.0 * math.pi * s ** (n - 1)).ravel())
        want = math.log1p(rest * math.exp((p - 1.0) * log_ball_measure(f, n, r))) / p
        got = log_constant_estimate(f, n, r, p, points=32, t_points=64)
        assert got == pytest.approx(want, abs=1e-9)

    def test_weak_type_from_the_profile(self):
        # p = 1 is the log of sup_tau tau mu({Mg > tau}) over the profile's
        # levels tau, here with the cells' masses from the adaptive ball measure
        f, n, r = Gaussian(), 2, 0.3
        prof = maximal_profile(f, n, r, points=32, t_points=64)
        mass = np.exp([log_ball_measure(f, n, float(s)) for s in prof.radii])
        want = -math.inf
        for tau in prof.log_values:
            above = (prof.log_values[1:] > tau) & (prof.log_values[:-1] > tau)
            if above.any():
                want = max(want, tau + math.log(math.fsum(np.diff(mass)[above])))
        got = log_constant_estimate(f, n, r, 1.0, points=32, t_points=64)
        assert got == pytest.approx(want, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_constant_estimate(Gaussian(), 2, 0.3, 0.9)
        with pytest.raises(ValueError, match="p must be >= 1"):
            log_constant_estimate(Gaussian(), 2, 0.3, math.nan)
        with pytest.raises(ValueError, match="^p must be finite$"):
            log_constant_estimate(Gaussian(), 2, 0.3, math.inf)

    def test_overflowing_p_refused(self):
        # p log Mg overflowed to a printed "nan"
        with pytest.raises(ValueError, match=r"^p = 1e\+308 overflows p log Mg$"):
            log_constant_estimate(Gaussian(), 2, 0.2, 1e308, points=16, t_points=16)

    def test_huge_p_answered_at_once(self):
        # p log Mg of about 1.8e290 and 1.4e305 on [r, cutoff]: the adaptive
        # integral refused both as leaving no window (before that it spent
        # 10^6 evaluations reaching NaN); the cells give the p -> inf limit
        # log(||Mg||_inf / ||g||_inf) = 0
        for n, r in ((6, 5.0), (2, 0.2)):
            start = time.perf_counter()
            got = log_constant_estimate(Gaussian(), n, r, 1e305, points=8, t_points=8)
            assert time.perf_counter() - start < 0.5
            assert 0.0 <= got <= 1e-12, (n, r, got)

    @pytest.mark.parametrize("points", [1, 0, -3])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_refuses_fewer_than_two_points(self, points, p):
        # one radius bounds no cell: p > 1 returned 0.0 at points = 1
        with pytest.raises(ValueError, match=rf"^points must be >= 2, got {points}$"):
            log_constant_estimate(Gaussian(), 2, 0.3, p, points=points, t_points=16)

    def test_two_point_profile(self):
        emp = log_constant_estimate(Gaussian(), 2, 0.3, 2.0, points=2, t_points=16)
        assert math.isfinite(emp) and emp >= 0.0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5])
    def test_scale_of_the_density_cancels(self, n, p):
        # log f = c on [0, 1] gives the estimate of c = 0; at n = 2, e^800 gave
        # 2.93e47 at p = 1.5 and 0 at p = 1, and e^-800 an OverflowError.  The
        # logs agree to 1e-12, as the estimates did to 1e-12 relative
        def estimate(c):
            f = TabulatedDecreasing([0.5, 1.0], [c, c])
            return log_constant_estimate(f, n, 0.2, p, points=16, t_points=64)

        want = estimate(0.0)
        for c in (800.0, -800.0):
            assert abs(estimate(c) - want) <= 1e-12


    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("case", sorted(_P_CASES))
    def test_cell_sum_of_the_interpolant(self, case, p):
        # p > 1 against an mpmath sum over the same interpolant of log Mg,
        # each cell cut at the density's knots; the B_r part is the
        # library's mu(B_r) on both sides
        mpmath = pytest.importorskip("mpmath")
        f, n = _P_CASES[case]
        r = 0.2
        radii, log_mg, log_mg_r = _p_profile(case, r, 32)
        past = radii > r
        knots = [r, *radii[past].tolist()]
        log_knots = [log_mg_r, *log_mg[past].tolist()]
        with mpmath.workdps(30):
            rest = mpmath.mpf(0)
            for a, b, la, lb in zip(knots, knots[1:], log_knots, log_knots[1:]):
                slope = (mpmath.mpf(lb) - la) / (mpmath.mpf(b) - a)
                for lo, hi in _mp_pieces(f, a, b):
                    log_f = _mp_log_f(f, lo, hi)
                    rest += mpmath.quad(lambda s: mpmath.exp(p * (la + slope * (s - a)) + log_f(s))
                                        * s ** (n - 1), [lo, hi])
            log_share = (_mp_log_sphere_area(n) + mpmath.log(rest)
                         + (p - 1.0) * log_ball_measure(f, n, r))
            want = float(mpmath.log1p(mpmath.exp(log_share)) / p)
        got = log_constant_estimate(f, n, r, p, points=32, t_points=64)
        assert got >= 0.0
        assert abs(got - want) <= 1e-12, (got, want)

    @pytest.mark.parametrize("case", ["step n=3", "step n=5", "unit ball n=2"])
    def test_weak_type_with_exact_masses(self, case):
        # p = 1 against the profile's cell masses as exact sums of powers,
        # omega_{n-1} e^v (hi^n - lo^n) / n on each step; with the masses of
        # a 12-node panel per cell, straddling the knots, the log was off by
        # 6.0e-4 (step n = 3) and 1.1e-3 (step n = 5)
        mpmath = pytest.importorskip("mpmath")
        f, n = _P_CASES[case]
        radii, log_mg, _ = _p_profile(case, 0.2, 32)
        with mpmath.workdps(30):
            mass = []
            for a, b in zip(radii.tolist(), radii[1:].tolist()):
                total = mpmath.mpf(0)
                for lo, hi in _mp_pieces(f, a, b):
                    total += (mpmath.exp(_step_log_f(f, lo, hi))
                              * (mpmath.mpf(hi) ** n - mpmath.mpf(lo) ** n) / n)
                mass.append(total)
            best = mpmath.ninf
            for tau in log_mg:
                above = (log_mg[1:] > tau) & (log_mg[:-1] > tau)
                if above.any():
                    cells = mpmath.fsum(m for m, keep in zip(mass, above) if keep)
                    best = max(best, tau + mpmath.log(cells))
            want = float(best + _mp_log_sphere_area(n))
        got = log_constant_estimate(f, n, 0.2, 1.0, points=32, t_points=64)
        assert abs(got - want) <= 1e-12, (got, want)


class TestMonteCarlo:
    def test_certain_event(self):
        est, err = monte_carlo_ball_measure(UnitBallIndicator(), 3, 0.0, 2.0,
                                            10_000, seed=7)
        assert est == 1.0
        assert err == 0.0

    def test_gaussian_agrees_with_quadrature(self):
        f, n, d, t = Gaussian(), 3, 0.7, 1.2
        est, err = monte_carlo_ball_measure(f, n, d, t, 2_000_000, seed=123)
        truth = math.exp(off_center_ball_measure(f, n, d, t) - log_mass(f, n))
        assert abs(est - truth) <= 3.0 * err

    def test_deterministic_for_fixed_seed(self):
        a = monte_carlo_ball_measure(Gaussian(), 2, 0.5, 0.9, 50_000, seed=42)
        b = monte_carlo_ball_measure(Gaussian(), 2, 0.5, 0.9, 50_000, seed=42)
        assert a == b
        c = monte_carlo_ball_measure(Gaussian(), 2, 0.5, 0.9, 50_000, seed=43)
        assert c != a

    def test_preconditions(self):
        with pytest.raises(ValueError):
            monte_carlo_ball_measure(Gaussian(), 7, 0.5, 1.0, 10_000, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_ball_measure(Gaussian(), 3, 0.5, 1.0, 100, seed=1)
        # measures.check_radius: each radius refused by its own name
        for d, t, message in [(math.nan, 1.0, "d must be nonnegative"),
                              (-0.1, 1.0, "d must be nonnegative"),
                              (math.inf, 1.0, "d must be finite"),
                              (0.5, math.nan, "t must be positive"),
                              (0.5, 0.0, "t must be positive"),
                              (0.5, math.inf, "t must be finite")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                monte_carlo_ball_measure(Gaussian(), 3, d, t, 10_000, seed=1)
