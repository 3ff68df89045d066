import math
import re
import warnings

import numpy as np
import pytest

from radialmax import bounds, geometry, measures, oracle, quadrature
from radialmax.densities import Gaussian, RadialDensity, TabulatedDecreasing, UnitBallIndicator
from radialmax.logspace import LOG_ZERO
from radialmax.measures import (_decay_radius, log_ball_measure, log_ball_measure_grid,
                                log_mass, log_sphere_area, radial_log_integrand,
                                sphere_ratio_bounds, upper_cutoff)
from radialmax.geometry import intersect_with_centered_ball, off_center_ball_measure
from radialmax.oracle import (log_constant_estimate, log_maximal_function_at, maximal_profile,
                              monte_carlo_ball_measure, verify_level_set_inclusion)
from radialmax.quadrature import fixed_log_integral, log_integral


# Lebesgue measure on B_20: a one-knot step density whose knot lies beyond
# every radius the tests below ask for, measured by the quadrature
FLAT = TabulatedDecreasing([20.0], [0.0])


def erf_taylor(x: float) -> float:
    """Independent oracle: erf by its Maclaurin series (fine for |x| <= 2)."""
    total, term = 0.0, x
    k = 0
    while abs(term) > 1e-18 * max(abs(total), 1e-30):
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


class TestSphereArea:
    def test_circle(self):
        assert log_sphere_area(2) == pytest.approx(math.log(2.0 * math.pi), rel=1e-14)

    def test_two_sphere(self):
        assert log_sphere_area(3) == pytest.approx(math.log(4.0 * math.pi), rel=1e-14)

    def test_zero_sphere_counts_endpoints(self):
        assert log_sphere_area(1) == pytest.approx(math.log(2.0), rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_sphere_area(0)

    def test_against_mpmath(self):
        # relative to max(1, |value|); the worst over n = 1..30000 and the
        # last 2000 dimensions up to 10**6 is 1.8e-15, at n = 18
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        ns = set(np.exp(rng.uniform(0.0, math.log(1e6), 2000)).astype(int).tolist())
        with mpmath.workdps(40):
            for n in sorted(ns | {1, 2, 3, 18, 10**6}):
                m = mpmath.mpf(n)
                ref = float(mpmath.log(m) + m / 2 * mpmath.log(mpmath.pi)
                            - mpmath.loggamma(m / 2 + 1))
                assert abs(log_sphere_area(n) - ref) <= 2.5e-15 * max(1.0, abs(ref)), n

    def test_scalar_path_gives_the_array_floats(self):
        # an array is mapped element by element: each gets the scalar's float
        n = np.arange(1, 30001)
        want = [x.hex() for x in log_sphere_area(n).tolist()]
        assert [log_sphere_area(k).hex() for k in n.tolist()] == want
        assert log_sphere_area(np.int64(37)).hex() == want[36]
        assert log_sphere_area(37.0).hex() == want[36]
        with pytest.raises(ValueError):
            log_sphere_area(0.5)


class TestSphereRatio:
    def test_frozen_n3(self):
        lo, hi = sphere_ratio_bounds(3)
        assert lo == pytest.approx(0.37612638903183754, rel=1e-12)
        assert hi == pytest.approx(0.92131773192356127, rel=1e-12)
        true = math.exp(log_sphere_area(2) - log_sphere_area(3))
        assert true == pytest.approx(0.5, rel=1e-12)
        assert lo < true < hi

    def test_frozen_n2(self):
        lo, hi = sphere_ratio_bounds(2)
        assert lo == pytest.approx(0.28209479177387814, rel=1e-12)
        assert hi == pytest.approx(0.48860251190291992, rel=1e-12)
        assert lo < 1.0 / math.pi < hi

    def test_brackets_true_ratio_up_to_1e4(self):
        n = np.arange(2, 10_001)
        lo, hi = sphere_ratio_bounds(n)
        true = np.exp(log_sphere_area(n - 1) - log_sphere_area(n))
        assert np.all(lo < true)
        assert np.all(true < hi)

    def test_asymptotic_scaling(self):
        n = 10 ** 4
        true = math.exp(log_sphere_area(n - 1) - log_sphere_area(n))
        assert true / math.sqrt(n) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_ratio_bounds(1)

    def test_each_element_of_an_array_is_a_dimension(self):
        # 2.5 gave a bracket, NaN gave (nan, nan), and inf warned
        for bad in (2.5, math.nan, math.inf):
            message = ("the dimension must be an integer in [2, inf], "
                       f"got n = {np.float64(bad)!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sphere_ratio_bounds(np.array([2.0, bad, 3.0]))

    def test_an_array_is_checked_in_one_pass(self, monkeypatch):
        # check_dimension ran once per element, 15 ms at n = 2..10001; now it
        # runs only to refuse the first bad element, by its own message
        calls = []
        inner = measures.check_dimension
        monkeypatch.setattr(measures, "check_dimension",
                            lambda m, **kw: calls.append(m) or inner(m, **kw))
        n = np.arange(2, 10_001)
        lo, hi = sphere_ratio_bounds(n)
        assert calls == []
        assert lo[:50].tolist() == [sphere_ratio_bounds(int(m))[0] for m in n[:50]]
        for bad, first in [([2, 3, 1, 0, 4], np.int64(1)), ([4.0, 2.5, math.nan], np.float64(2.5)),
                           ([[3, 4], [5, -7]], np.int64(-7)), (np.array([True, False]), np.True_),
                           ([3.0, math.inf, 1.0], np.float64(math.inf))]:
            message = f"the dimension must be an integer in [2, inf], got n = {first!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sphere_ratio_bounds(bad)


class TestBallMeasure:
    def test_lebesgue_ball_closed_form(self):
        # |B_2| in R^3 = (4/3) pi 8
        got = log_ball_measure(FLAT, 3, 2.0)
        assert got == pytest.approx(math.log(32.0 * math.pi / 3.0), rel=1e-12)

    def test_unitball_truncates_past_support(self):
        # rho beyond the support returns the total mass |B_1^7|
        vol_b1_7 = 3.5 * math.log(math.pi) - math.lgamma(4.5)
        got = log_ball_measure(UnitBallIndicator(), 7, 1.5)
        assert got == pytest.approx(vol_b1_7, rel=1e-11)

    def test_gaussian_1d_is_erf(self):
        got = log_ball_measure(Gaussian(), 1, 0.5)
        assert got == pytest.approx(math.log(erf_taylor(math.sqrt(math.pi) * 0.5)), rel=1e-11)

    def test_zero_radius(self):
        assert log_ball_measure(Gaussian(), 3, 0.0) == LOG_ZERO

    def test_total_mass_gaussian_is_one(self):
        for n in (1, 2, 10, 100):
            assert log_mass(Gaussian(), n) == pytest.approx(0.0, abs=1e-10)

    def test_lebesgue_exactness(self):
        for n in range(1, 51):
            for rho in (0.1, 1.0, 10.0):
                expected = log_sphere_area(n) - math.log(n) + n * math.log(rho)
                got = log_ball_measure(FLAT, n, rho)
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), (n, rho)

    def test_monotone_in_rho(self):
        f = Gaussian()
        rhos = np.linspace(0.05, 3.0, 25)
        vals = [log_ball_measure(f, 5, float(r)) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_decreasing_density_ratio_bound(self, n):
        # mu(B_R)/mu(B_r) <= (R/r)^n for radially decreasing f, in log space
        f = Gaussian()
        for r, R in [(0.1, 0.5), (0.3, 1.0), (0.5, 2.0), (1.0, 4.0)]:
            gap = log_ball_measure(f, n, R) - log_ball_measure(f, n, r)
            assert gap <= n * math.log(R / r) + 1e-9

    def test_no_overflow_at_n_1e6(self):
        n = 10 ** 6
        g = log_ball_measure(Gaussian(), n, 500.0)
        assert math.isfinite(g)
        u = log_ball_measure(UnitBallIndicator(), n, 0.5)
        assert u == pytest.approx(log_sphere_area(n) - math.log(n) + n * math.log(0.5),
                                  rel=1e-9)

    def test_tabulated_ball_measure(self):
        # two steps: f=1 on [0,1], f=e^-2 on (1,2]: mu(B_2) in R^2
        t = TabulatedDecreasing([1.0, 2.0], [0.0, -2.0])
        expected = math.log(math.pi * (1.0 + math.exp(-2.0) * 3.0))
        assert log_ball_measure(t, 2, 2.0) == pytest.approx(expected, rel=1e-10)


class TestGridMeasure:
    def test_matches_adaptive_on_grid(self):
        f = Gaussian()
        radii = np.linspace(0.1, 4.0, 400)
        grid_vals = log_ball_measure_grid(f, 8, radii)
        for idx in (0, 57, 199, 399):
            ref = log_ball_measure(f, 8, float(radii[idx]))
            assert grid_vals[idx] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_support_clipping(self):
        f = UnitBallIndicator()
        radii = np.array([0.5, 1.0, 3.0])
        vals = log_ball_measure_grid(f, 4, radii)
        assert vals[1] == pytest.approx(vals[2], abs=1e-12)


STEP = TabulatedDecreasing([0.25, 0.67, 1.19, 1.45], [0.0, -0.5, -0.8, -1.7])


def _mp_step_log_ball(f, n, rho):
    """log mu(B_rho) of a step density as an mpmath number at the working
    precision: omega_{n-1} sum_i f_i (min(rho, h_i)^n - min(rho, h_{i-1})^n) / n,
    with h_0 = 0, and -inf for an empty ball."""
    mpmath = pytest.importorskip("mpmath")
    m = mpmath.mpf(n)
    total, below = mpmath.mpf(0), mpmath.mpf(0)
    knots = f.probe_points()
    for h, v in zip(knots, f.log_density(np.asarray(knots)).tolist()):
        top = min(mpmath.mpf(rho), mpmath.mpf(h))
        total += mpmath.exp(v) * (top ** n - below ** n) / n
        below = top
    if total == 0:
        return mpmath.mpf(LOG_ZERO)
    return (mpmath.log(m) + m / 2 * mpmath.log(mpmath.pi)
            - mpmath.loggamma(m / 2 + 1) + mpmath.log(total))


def _exact_step_log_ball(f, n, rho):
    """``_mp_step_log_ball`` to 40 digits, rounded to a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(_mp_step_log_ball(f, n, rho))


def _one_panel_grid(f, n, radii):
    """The grid rule before the cells were cut at the knots: one
    _GRID_ORDER-point panel per cell, capped at the support."""
    edges = np.concatenate([[0.0], radii])
    panel = fixed_log_integral(radial_log_integrand(f, n), edges[:-1],
                               np.minimum(edges[1:], f.support_upper_bound), 1,
                               measures._GRID_ORDER)
    return log_sphere_area(n) + np.logaddexp.accumulate(panel)


class TestGridCells:
    @pytest.mark.parametrize("n", [1, 3, 10, 25, 300, 10 ** 4])
    @pytest.mark.parametrize("seed", [None] + list(range(6)))
    def test_step_density_grid_is_the_exact_step_sum(self, seed, n):
        # the layer sum is exact at every n; the knot-cut cells it replaced
        # were exact only up to n = 2 _GRID_ORDER, and 1e-3 off at n = 300
        f = STEP if seed is None else _random_step(seed)[0]
        radii = np.linspace(0.0, 2.0, 41)
        got = log_ball_measure_grid(f, n, radii)
        assert got[0] == LOG_ZERO
        for rho, value in zip(radii[1:].tolist(), got[1:].tolist()):
            want = _exact_step_log_ball(f, n, rho)
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (rho, value, want)

    @pytest.mark.parametrize("n", [1, 3, 25, 10 ** 4])
    @pytest.mark.parametrize("case", ["knot at 0", "two equal steps", "-inf tail"])
    def test_step_density_grid_edge_cases(self, case, n):
        # no warning: no log of 0, no -inf - -inf; a radius of 0 is empty, a
        # radius on a knot takes the step below it, and past the support
        # every radius holds the whole mass
        knots, log_f = {"knot at 0": ([0.0, 0.4, 1.0], [0.5, 0.0, -1.0]),
                        "two equal steps": ([0.3, 0.6, 0.9, 1.2], [0.0, -0.5, -0.5, -1.1]),
                        "-inf tail": ([0.5, 1.0, 1.5, 2.0], [0.0, -0.7, -np.inf, -np.inf])}[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = TabulatedDecreasing(knots, log_f)
            radii = np.sort(np.concatenate([[0.0, 0.0, 0.2], knots, np.array(knots) + 0.05,
                                            [2.5, 7.0]]))
            got = log_ball_measure_grid(f, n, radii)
        assert np.all(got[radii == 0.0] == LOG_ZERO)
        for rho, value in zip(radii[radii > 0.0].tolist(), got[radii > 0.0].tolist()):
            want = _exact_step_log_ball(f, n, rho)
            assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), (rho, value, want)
        support = f.support_upper_bound if case != "-inf tail" else 1.0
        past = got[radii >= support]
        assert past.size >= 3 and np.all(past == past[0])
        assert past[0] == pytest.approx(log_mass(f, n), rel=1e-9)

    @pytest.mark.parametrize("kind,n", [("gaussian", 2), ("gaussian", 6), ("gaussian", 40),
                                        ("gaussian", 10 ** 4), ("unitball", 2),
                                        ("unitball", 6)])
    @pytest.mark.parametrize("grid", ["oracle-table", "solver-scan"])
    def test_grid_without_knots_keeps_the_one_panel_floats(self, kind, n, grid):
        # no knot, and the unit ball's support only adds empty pieces past it
        f = Gaussian() if kind == "gaussian" else UnitBallIndicator()
        cutoff = upper_cutoff(f, n)
        if grid == "oracle-table":
            radii = np.linspace(0.0, 2.0 * (0.5 * cutoff + 0.2) + cutoff + 1.0, 4097)
        else:
            scan = 1.5 * cutoff * (1.0 - np.arange(10_000) / 10_000)
            radii = np.unique(np.concatenate([scan, scan * 0.7]))
        got = log_ball_measure_grid(f, n, radii)
        want = _one_panel_grid(f, n, radii)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]

    def test_leading_zero_and_duplicate_radii_give_empty_cells(self):
        radii = np.array([0.0, 0.0, 0.5, 0.5, 0.67, 1.0, 1.0, 1.45, 2.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = measures._log_cells(STEP, 3, np.append(0.0, radii))
            got = log_ball_measure_grid(STEP, 3, radii)
        assert cells[[0, 1, 3, 6, 9]].tolist() == [LOG_ZERO] * 5
        assert got[0] == got[1] == LOG_ZERO
        for a, b in [(2, 3), (5, 6), (8, 9), (7, 8)]:  # nothing past the support
            assert got[a] == got[b]
        for rho, value in zip(radii[2:].tolist(), got[2:].tolist()):
            assert value == pytest.approx(_exact_step_log_ball(STEP, 3, rho), rel=1e-13)

    @pytest.mark.parametrize("edges", [[0.1, 0.5, 1.3, 2.0], [0.3, 0.67, 0.9], [0.0, 0.25, 1.0],
                                       [0.25, 0.25, 1.45, 3.0], [0.7], [0.0], [2.0, 2.5],
                                       list(np.linspace(0.0, 2.0, 41))])
    @pytest.mark.parametrize("kind", ["gaussian", "unitball", "step", "step with a knot at 0"])
    def test_first_cell_from_zero_keeps_the_floats_of_a_zero_edge(self, kind, edges):
        # the 0 goes in with the cuts, in the one copy of the edges that a cut
        # needs: the cells of the edges with a 0 put before them, float for float
        f = {"gaussian": Gaussian(), "unitball": UnitBallIndicator(), "step": STEP,
             "step with a knot at 0": TabulatedDecreasing([0.0, 0.2, 0.8], [0.3, 0.0, -1.0])}[kind]
        edges = np.array(edges)
        for n, weight in [(1, None), (3, None), (7, None), (2, lambda s: s)]:
            got = measures._log_cells(f, n, edges, weight, from_zero=True)
            want = measures._log_cells(f, n, np.append(0.0, edges), weight)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()], n

    def test_weighted_cells_cut_at_the_knots(self):
        # a weight e^s at n = 2: each piece integrates f_i s e^s, whose
        # antiderivative is f_i (s - 1) e^s
        mpmath = pytest.importorskip("mpmath")
        edges = [0.1, 0.5, 1.3, 2.0]
        cells = measures._log_cells(STEP, 2, np.array(edges), lambda s: s)
        radii = STEP.probe_points()
        knots = list(zip(radii, STEP.log_density(np.asarray(radii)).tolist()))
        with mpmath.workdps(40):
            for lo, hi, value in zip(edges[:-1], edges[1:], cells.tolist()):
                total, a = mpmath.mpf(0), mpmath.mpf(lo)
                for h, v in knots:
                    b = min(mpmath.mpf(hi), mpmath.mpf(h))
                    if b > a:
                        total += mpmath.exp(v) * ((b - 1) * mpmath.exp(b) - (a - 1) * mpmath.exp(a))
                        a = b
                assert value == pytest.approx(float(mpmath.log(total)), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("kind", ["gaussian", "unitball", "step"])
@pytest.mark.parametrize("n", [2, 3, 7])
def test_phi_into_out_keeps_the_floats(kind, n):
    # phi writes into the scan's work array with the floats of its formula:
    # LOG_ZERO for s <= 0 and NaN, and a subnormal s counted as 1e-300
    f = {"gaussian": Gaussian(), "unitball": UnitBallIndicator(), "step": STEP}[kind]
    s = np.concatenate([[-1.0, -0.0, 0.0, 5e-324, 1e-310, 1e-300, 0.25, 1.0, 1.45, 40.0,
                         math.nan], np.random.default_rng(n).uniform(0.0, 2.0, 200)])
    s = s.reshape(1, -1, 1)
    want = (np.asarray(f.log_density(s), dtype=float)
            + np.where(s > 0.0, (n - 1) * np.log(np.maximum(s, 1e-300)), LOG_ZERO))
    out = np.full(s.shape, 3.0)
    phi = radial_log_integrand(f, n)
    assert phi(s, out=out) is out
    hexes = [x.hex() for x in want.ravel().tolist()]
    assert [x.hex() for x in out.ravel().tolist()] == hexes
    assert [x.hex() for x in phi(s).ravel().tolist()] == hexes


_REFUSAL_DENSITIES = {"gaussian": Gaussian(), "unitball": UnitBallIndicator(), "step": STEP}


def _refusals():
    """(id, call taking a density, the argument its ValueError names)."""
    cases = [("log_ball_measure-nan", lambda f: log_ball_measure(f, 3, math.nan), "rho")]
    for x in (math.nan, math.inf):
        cases.append((f"log_ball_measure_grid-{x}",
                      lambda f, x=x: log_ball_measure_grid(f, 3, [0.0, 0.5, x]), "radii"))
        cases.append((f"log_ball_measure_grid-alone-{x}",
                      lambda f, x=x: log_ball_measure_grid(f, 3, [x]), "radii"))
    calls = {
        "off_center_ball_measure": lambda f, d, t: off_center_ball_measure(f, 3, d, t),
        "intersect_with_centered_ball":
            lambda f, d, t: intersect_with_centered_ball(f, 3, d, t, 0.8),
        "monte_carlo_ball_measure":
            lambda f, d, t: monte_carlo_ball_measure(f, 3, d, t, 10_000, seed=1),
    }
    for name, call in calls.items():
        for d in (math.nan, math.inf):
            cases.append((f"{name}-d-{d}", lambda f, d=d, call=call: call(f, d, 0.5), "d"))
        for t in (math.nan, 0.0, math.inf):
            cases.append((f"{name}-t-{t}", lambda f, t=t, call=call: call(f, 0.5, t), "t"))
    return cases


class TestRadiusRefusals:
    @pytest.mark.parametrize("kind", sorted(_REFUSAL_DENSITIES))
    @pytest.mark.parametrize("case,call,name", _refusals(),
                             ids=[case for case, _, _ in _refusals()])
    def test_non_finite_radius_is_refused_by_name(self, kind, case, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be (nonnegative|positive|finite)$"):
            call(_REFUSAL_DENSITIES[kind])

    @pytest.mark.parametrize("kind", sorted(_REFUSAL_DENSITIES))
    def test_infinite_rho_is_still_the_total_mass(self, kind):
        f = _REFUSAL_DENSITIES[kind]
        assert log_ball_measure(f, 3, math.inf) == log_mass(f, 3)
        assert log_ball_measure(f, 3, math.inf) == log_ball_measure(f, 3, upper_cutoff(f, 3))

    @pytest.mark.parametrize("value,positive,message", [
        (math.nan, False, "x must be nonnegative"), (-1e-300, False, "x must be nonnegative"),
        (math.inf, False, "x must be finite"), (0.0, True, "x must be positive"),
        (math.nan, True, "x must be positive"), (-math.inf, True, "x must be positive"),
        (math.inf, True, "x must be finite")])
    def test_check_radius(self, value, positive, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            measures.check_radius("x", value, positive=positive)
        measures.check_radius("x", 0.0 if not positive else 5e-324, positive=positive)
        measures.check_radius("x", 1e308, positive=positive)


_G = Gaussian()
_BETA0, _ = bounds._contact_angle(0.2)
# every public entry that takes the dimension n: (entry, call, the least n, the most n)
_DIMENSION_ENTRIES = [
    ("log_sphere_area", log_sphere_area, 1, math.inf),
    ("sphere_ratio_bounds", sphere_ratio_bounds, 2, math.inf),
    ("log_ball_measure", lambda n: log_ball_measure(_G, n, 1.0), 1, math.inf),
    ("log_ball_measure_grid", lambda n: log_ball_measure_grid(_G, n, [0.5, 1.0]), 1, math.inf),
    ("off_center_ball_measure", lambda n: off_center_ball_measure(_G, n, 0.3, 0.5), 1, math.inf),
    ("intersect_with_centered_ball",
     lambda n: intersect_with_centered_ball(_G, n, 0.3, 0.5, 0.8), 1, math.inf),
    ("solve_radius_equation",
     lambda n: bounds.solve_radius_equation(_G, n, _BETA0, 0.5), 1, math.inf),
    ("log_t_exact", lambda n: bounds.log_t_exact(_G, n, 1.1, 1.0, 0.2), 1, math.inf),
    ("general_construction",
     lambda n: bounds.general_construction(_G, n, 1.01, 0.2), 1, math.inf),
    ("gaussian_construction", lambda n: bounds.gaussian_construction(n, 1.01, 0.2), 2, math.inf),
    ("unitball_construction",
     lambda n: bounds.unitball_construction(n, 1.01, 1.0, 0.2), 1, math.inf),
    ("unitball_case_analysis",
     lambda n: bounds.unitball_case_analysis(n, 1.01, 1.0, 0.2), 1, math.inf),
    ("gaussian_mode_radius", bounds.gaussian_mode_radius, 1, math.inf),
    ("gaussian_ball_sandwich", lambda n: bounds.gaussian_ball_sandwich(n, 0.1), 2, math.inf),
    ("gaussian_mass_concentration", bounds.gaussian_mass_concentration, 2, math.inf),
    ("gaussian_upper_bound",
     lambda n: bounds.gaussian_upper_bound(n, 1.01, 0.5, 0.1), 2, math.inf),
    ("log_maximal_function_at", lambda n: log_maximal_function_at(_G, n, 0.2, 0.5), 1, 6),
    ("maximal_profile", lambda n: maximal_profile(_G, n, 0.2, points=4, t_points=16), 1, 6),
    ("verify_level_set_inclusion",
     lambda n: verify_level_set_inclusion(_G, n, 0.5, 0.2, n_points=4), 1, 6),
    ("log_constant_estimate",
     lambda n: log_constant_estimate(_G, n, 0.2, 2.0, points=4, t_points=16), 1, 6),
    ("monte_carlo_ball_measure",
     lambda n: monte_carlo_ball_measure(_G, n, 0.5, 1.0, 10_000, seed=1), 2, 6),
]


def _dimension_refusals():
    for entry, call, least, most in _DIMENSION_ENTRIES:
        bad = [0, -1, 2.5, math.nan, math.inf, True] + [least - 1] * (least > 1)
        for n in bad + [most + 1] * (most < math.inf):
            yield pytest.param(call, least, most, n, id=f"{entry}-{n!r}")


@pytest.fixture
def no_integrals(monkeypatch):
    """Every integral, adaptive or fixed-rule, fails with an error that is not a ValueError."""
    def fail(*args, **kwargs):
        raise AssertionError("an integral ran")

    for module in (quadrature, measures, geometry, oracle):
        for name in ("log_integral", "fixed_log_integral"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)


class TestDimensionRefusals:
    @pytest.mark.parametrize("call,least,most,n", _dimension_refusals())
    def test_refused_by_name_before_any_integral(self, no_integrals, call, least, most, n):
        message = f"the dimension must be an integer in [{least}, {most}], got n = {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(n)

    @pytest.mark.parametrize("n", [3.0, np.int64(3), np.float64(3.0)])
    def test_an_integral_float_or_numpy_n_runs_as_the_int(self, n):
        want = [log_ball_measure(_G, 3, 1.0), *log_ball_measure_grid(_G, 3, [0.5, 1.0]).tolist(),
                off_center_ball_measure(_G, 3, 0.3, 0.5),
                bounds.gaussian_construction(3, 1.01, 0.2).log_t_exact]
        report = bounds.gaussian_construction(n, 1.01, 0.2)
        got = [log_ball_measure(_G, n, 1.0), *log_ball_measure_grid(_G, n, [0.5, 1.0]).tolist(),
               off_center_ball_measure(_G, n, 0.3, 0.5), report.log_t_exact]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert type(report.n) is int and report.n == 3

    @pytest.mark.parametrize("n", [2.0, np.int64(2)])
    def test_an_integral_n_gives_the_int_margins(self, n):
        want = verify_level_set_inclusion(_G, 2, 0.5, 0.2, n_points=4)
        got = verify_level_set_inclusion(_G, n, 0.5, 0.2, n_points=4)
        assert [r.margin.hex() for r in got.rows] == [r.margin.hex() for r in want.rows]
        assert type(got.n) is int

    def test_check_dimension(self):
        for n in (1, 3.0, np.int64(3), np.float64(7.0), 10**6):
            got = measures.check_dimension(n)
            assert type(got) is int and got == n
        assert measures.check_dimension(2, least=2, most=2) == 2
        for n, least, most in [(np.bool_(True), 1, math.inf), (1, 2, math.inf), (7, 1, 6),
                               (-math.inf, 1, math.inf), (3.0000000000000004, 1, math.inf)]:
            with pytest.raises(ValueError, match=re.escape(f"[{least}, {most}], got n = {n!r}")):
                measures.check_dimension(n, least=least, most=most)


class _CountingGaussian(Gaussian):
    """The Gaussian, counting the calls of its log-density."""

    def __init__(self):
        self.calls = 0

    def log_density(self, s):
        self.calls += 1
        return super().log_density(s)


class TestUpperCutoff:
    def test_doubling_search_runs_once_per_density_and_dimension(self):
        f = _CountingGaussian()
        first = upper_cutoff(f, 7)
        searched = f.calls
        assert searched > 1
        assert upper_cutoff(f, 7) == first
        assert f.calls == searched
        upper_cutoff(f, 8)
        assert f.calls > searched
        other = _CountingGaussian()  # another instance searches afresh
        assert upper_cutoff(other, 7) == first
        assert other.calls == searched

    def test_cached_radius_is_the_searched_one(self):
        for n in (1, 2, 7, 1000, 10 ** 6):
            f = Gaussian()
            assert upper_cutoff(f, n) == _decay_radius.__wrapped__(f, n)
            assert upper_cutoff(f, n) == _decay_radius.__wrapped__(Gaussian(), n)

    def test_finite_support_skips_the_search(self):
        assert upper_cutoff(UnitBallIndicator(), 5) == 1.0
        assert upper_cutoff(FLAT, 3) == 20.0

    def test_infinite_mass_subclass_is_refused(self):
        class Flat(RadialDensity):  # f = 1 on all of R^n: no decay radius exists
            kind = "flat"

            def log_density(self, s):
                return np.zeros_like(np.asarray(s, dtype=float))

        with pytest.raises(ValueError, match="could not find a decay radius for flat"):
            log_mass(Flat(), 3)


def _uncached_log_ball(f, n, b):
    """log mu(B_b) by its own adaptive integral over [0, b], with no cache."""
    hints = list(f.probe_points())
    if f.peak_radius(n):
        hints.append(f.peak_radius(n))
    res = log_integral(radial_log_integrand(f, n), 0.0, b,
                       probe_points=[h for h in hints if h <= b])
    return float(log_sphere_area(n) + res.log_value)


def _random_step(seed):
    """A random step density with 8-32 knots and a dimension in 1..39."""
    rng = np.random.default_rng(2000 + seed)
    knots = int(rng.integers(8, 33))
    radii = np.sort(rng.uniform(0.05, 3.0, knots))
    log_f = np.concatenate([[0.0], -np.cumsum(rng.exponential(0.5, knots - 1))])
    return TabulatedDecreasing(radii, log_f), int(rng.integers(1, 40))


@pytest.fixture
def count_integrals(monkeypatch):
    """The list of intervals ``measures`` hands to ``log_integral`` from now on."""
    calls = []

    def counted(log_f, a, b, **kwargs):
        calls.append((a, b))
        return log_integral(log_f, a, b, **kwargs)

    monkeypatch.setattr(measures, "log_integral", counted)
    return calls


class TestTotalMass:
    @pytest.mark.parametrize("case", ["gaussian-1", "gaussian-5", "gaussian-1000"]
                             + [f"step-{seed}" for seed in range(6)])
    def test_every_radius_past_the_cutoff_reads_the_integral(self, case):
        kind, arg = case.split("-")
        f, n = (Gaussian(), int(arg)) if kind == "gaussian" else _random_step(int(arg))
        cutoff = upper_cutoff(f, n)
        want = _uncached_log_ball(f, n, cutoff).hex()
        assert log_mass(f, n).hex() == want
        for rho in (cutoff, 2.0 * cutoff, math.inf):
            assert log_ball_measure(f, n, rho).hex() == want
        assert log_mass(f, n).hex() == want
        # below the cutoff every radius is integrated as before
        assert (log_ball_measure(f, n, 0.5 * cutoff).hex()
                == _uncached_log_ball(f, n, 0.5 * cutoff).hex())

    def test_mass_is_integrated_once_per_density_and_dimension(self, count_integrals):
        radii, log_f = [0.25, 0.67, 1.19, 1.45], [0.0, -0.5, -0.8, -1.7]
        f = TabulatedDecreasing(radii, log_f)
        mass = log_mass(f, 7)
        assert count_integrals == [(0.0, 1.45)]
        for rho in (1.45, 3.0, math.inf):
            assert log_ball_measure(f, 7, rho) == mass
        assert log_mass(f, 7) == mass
        assert len(count_integrals) == 1
        log_ball_measure(f, 7, 1.0)
        log_ball_measure(f, 7, 1.0)  # a smaller radius is integrated every time
        assert count_integrals[1:] == [(0.0, 1.0), (0.0, 1.0)]
        log_mass(f, 8)  # another dimension integrates its own mass
        assert len(count_integrals) == 4
        # an equal table is another density: it integrates its own mass
        g = TabulatedDecreasing(radii, log_f)
        assert log_mass(g, 7) == mass
        assert len(count_integrals) == 5
        assert log_mass(g, 7) == mass
        assert len(count_integrals) == 5

    def test_a_raising_integral_raises_on_every_call(self, count_integrals):
        f = TabulatedDecreasing([1.0], [1e20])  # positive maximum with no window below it
        for calls in (1, 2, 3):
            with pytest.raises(ValueError, match="leaves no window"):
                log_mass(f, 1)
            assert len(count_integrals) == calls

    def test_nan_radius_is_refused(self, count_integrals):
        # a NaN radius used to fail ``rho >= cutoff`` and integrate to LOG_ZERO
        for _ in range(2):
            with pytest.raises(ValueError, match="^rho must be nonnegative$"):
                log_ball_measure(Gaussian(), 3, math.nan)
        assert count_integrals == []
