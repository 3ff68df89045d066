import math
import re
from functools import partial

import numpy as np
import pytest

from radialmax import bounds, geometry, measures, quadrature
from radialmax.densities import Gaussian, TabulatedDecreasing
from radialmax.geometry import _cap_j_log
from radialmax.logspace import LOG_ZERO
from radialmax.measures import radial_log_integrand
from radialmax.quadrature import (LogIntegralResult, QuadratureResult, _bisect_crossings,
                                  _sequential_sum, fixed_log_integral, integrate,
                                  log_integral)


def test_polynomial_is_exact():
    res = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-14)
    assert res.converged


def test_oscillatory_to_tolerance():
    # int_0^10 sin^2(x) dx = 5 - sin(20)/4
    expected = 5.0 - math.sin(20.0) / 4.0
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, 10.0)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=quadrature.DEFAULT_REL_TOL)


def test_empty_interval():
    assert integrate(lambda x: x, 1.0, 1.0).value == 0.0
    assert log_integral(lambda x: np.zeros_like(x), 2.0, 2.0).log_value == LOG_ZERO


def test_a_panel_exhausted_at_machine_precision_drops_its_error():
    # odd about the centre of an 8-ulp interval: the total is 0 up to
    # rounding, so the stop test waits for rounding-level errors, and the
    # loop bisects down to a one-ulp panel, whose mid rounds to an end
    ulp = math.ulp(1.0)
    res = integrate(lambda x: x - (1.0 + 4 * ulp), 1.0, 1.0 + 8 * ulp)
    assert res.converged
    assert abs(res.value) <= 1e-2 * (8 * ulp) * (4 * ulp)


def test_eval_cap_flags_not_converged():
    res = integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, max_evals=200)
    assert not res.converged
    assert res.evaluations >= 200
    assert res.value == pytest.approx(4.0 / 3.0, rel=1e-3)


def _spiked_exp(x):
    """e^-x, set to +inf where (100 x mod 1) < 0.05."""
    x = np.asarray(x, dtype=float)
    return np.where(np.mod(100.0 * x, 1.0) < 0.05, math.inf, np.exp(-x))


def test_an_infinite_total_is_not_converged():
    # the first panel's sums are inf and inf; inf <= 1e-10 inf must not stop it
    res = integrate(_spiked_exp, 0.0, 1.0)
    assert res.value == math.inf
    assert not res.converged
    assert res.evaluations == quadrature.PANEL_EVALS == 37


def test_log_integral_passes_an_infinite_total_on():
    # -x on the probe grid, so the window is all of [0, 1]; +inf on the
    # spiked set off it, which only the quadrature's nodes meet
    grid = np.linspace(0.0, 1.0, quadrature.N_PROBES)

    def log_f(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.isin(x, grid), -x, np.log(_spiked_exp(x)))

    res = log_integral(log_f, 0.0, 1.0)
    assert res.log_value == math.inf
    assert not res.converged
    assert res.evaluations == quadrature.N_PROBES + quadrature.PANEL_EVALS


def test_log_integral_gaussian_total():
    # int_-40^40 e^(-x^2) dx = sqrt(pi) to all displayed digits
    res = log_integral(lambda x: -np.asarray(x) ** 2, -40.0, 40.0)
    assert res.log_value == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
    assert res.converged


def test_log_integral_handles_huge_shifts():
    # integrand e^(5000 - x^2): value sqrt(pi) e^5000, impossible unshifted
    res = log_integral(lambda x: 5000.0 - np.asarray(x) ** 2, -50.0, 50.0)
    assert res.log_value == pytest.approx(5000.0 + 0.5 * math.log(math.pi), rel=1e-12)
    assert res.shift >= 4999.0


@pytest.mark.parametrize("peak", [math.nan, math.inf, 1e18, 2e305])
def test_log_integral_refuses_a_maximum_without_window(peak):
    # a positive maximum m with m - WINDOW_DROP == m left no window; on a
    # steep integrand it gave NaN after 10^6 evaluations
    message = rf"^log-integrand maximum {re.escape(repr(peak))} leaves no window"
    with pytest.raises(ValueError, match=message):
        log_integral(lambda x: peak - np.asarray(x) ** 2, -1.0, 1.0)


def test_log_integral_keeps_a_very_negative_maximum():
    # every value of -1e20 - x^2 on [-1, 1] rounds to m: the window is the
    # whole interval, and m + log 2 rounds to m
    res = log_integral(lambda x: -1e20 - np.asarray(x) ** 2, -1.0, 1.0)
    assert res.log_value == -1e20


def test_log_integral_narrow_peak_via_probe_hint():
    # sharp Gaussian bump at x = 0.7312 inside [0, 1000]; the uniform probe
    # grid misses it, the hint finds it
    center = 0.7312

    def phi(x):
        return -1.0e4 * (np.asarray(x) - center) ** 2

    expected = 0.5 * math.log(math.pi / 1.0e4)
    res = log_integral(phi, 0.0, 1000.0, probe_points=[center])
    assert res.log_value == pytest.approx(expected, rel=1e-10)


def test_log_integral_all_zero_integrand():
    res = log_integral(lambda x: np.full_like(np.asarray(x, dtype=float), LOG_ZERO),
                       0.0, 1.0)
    assert res.log_value == LOG_ZERO
    assert res.converged


def test_log_integral_window_whose_integral_rounds_to_zero():
    # half of the one-subnormal width rounds to 0, so every panel sums to 0;
    # the integral is 5e-324 (log -744.4), so the zero is flagged, where it
    # was returned as converged, and its relative error is infinite, where it
    # read 0.0 as if exact
    res = log_integral(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, 5e-324)
    assert (res.log_value, res.rel_error, res.converged, res.shift) == (LOG_ZERO, math.inf,
                                                                      False, 0.0)
    assert res.window == (0.0, 5e-324)


def test_log_integral_skips_zero_plateau():
    # integrand vanishes on [2, 10]; window should confine to [0, 2]
    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 2.0, 0.0, LOG_ZERO)

    res = log_integral(phi, 0.0, 10.0)
    assert res.log_value == pytest.approx(math.log(2.0), rel=1e-10)
    assert isinstance(res, LogIntegralResult)


# --- the fixed rule -----------------------------------------------------

@pytest.mark.parametrize("order", [1, 2, 5, 8, 12, 16])
@pytest.mark.parametrize("panels", [1, 3])
def test_fixed_rule_exact_on_polynomials(order, panels):
    # int_a^b x^k = (b^(k+1) - a^(k+1)) / (k+1), for every degree k the
    # rule integrates exactly, 0 <= k <= 2 order - 1
    degrees = np.arange(2 * order)
    a, b = 0.5, 2.0
    got = fixed_log_integral(lambda x, k: k * np.log(x),
                             np.full(degrees.shape, a), np.full(degrees.shape, b),
                             panels, order, (degrees[:, None, None],))
    want = np.log((b ** (degrees + 1) - a ** (degrees + 1)) / (degrees + 1))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_fixed_rule_empty_and_massless_rows():
    lo = np.array([1.0, 2.0, 0.0, 0.0])
    hi = np.array([1.0, 1.0, 1.0, 1.0])

    def log_f(x):
        # rows 2 and 3: zero integrand, then one that is -inf but at one node
        out = np.zeros_like(x)
        out[2] = LOG_ZERO
        out[3] = LOG_ZERO
        out[3, 0, 0] = 0.0
        return out

    got = fixed_log_integral(log_f, lo, hi, 2, 4)
    assert list(got[:3]) == [LOG_ZERO] * 3
    assert np.isfinite(got[3])


def test_fixed_rule_no_overflow_at_huge_logs():
    # e^(1e5 - x^2) over [-10, 10]: sqrt(pi) e^(1e5), far beyond a double
    with np.errstate(all="raise"):
        got = fixed_log_integral(lambda x: 1.0e5 - x * x, np.asarray(-10.0),
                                 np.asarray(10.0), 40, 16)
    assert got.shape == ()
    assert float(got) == pytest.approx(1.0e5 + 0.5 * math.log(math.pi), rel=1e-15)


def test_fixed_rule_two_dimensional_rows():
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.0, 1.0, (3, 4))
    hi = lo + rng.uniform(0.1, 2.0, (3, 4))
    seen = []

    def log_f(x):
        seen.append(x.shape)
        return -x * x + np.sin(3.0 * x)

    grid = fixed_log_integral(log_f, lo, hi, 5, 6)
    flat = fixed_log_integral(log_f, lo.ravel(), hi.ravel(), 5, 6)
    assert seen == [(3, 4, 5, 6), (12, 5, 6)]
    assert grid.shape == (3, 4)
    np.testing.assert_allclose(grid.ravel(), flat, rtol=1e-15)
    one = [float(fixed_log_integral(log_f, np.asarray(a), np.asarray(b), 5, 6))
           for a, b in zip(lo.ravel(), hi.ravel())]
    np.testing.assert_allclose(flat, one, rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 50, 1000])
def test_fixed_rule_matches_adaptive_on_gaussian_radial(n):
    phi = radial_log_integrand(Gaussian(), n)
    peak = math.sqrt(max(n - 1, 0) / (2.0 * math.pi))
    a, b = max(peak - 3.0, 0.0), peak + 3.0
    got = float(fixed_log_integral(phi, np.asarray(a), np.asarray(b), 64, 16))
    want = log_integral(phi, a, b, probe_points=[peak]).log_value
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# the callers' (panels, order), each with a batch that straddles a block
# edge: the oracle's scan, the cap rule (on a lens-scan batch and on the
# old 4097-angle table), the ball-measure grid and the oracle's exact pass
_CALLER_SHAPES = [(24, 8, 900), (10, 16, 640), (10, 16, 4097), (1, 12, 20000), (8, 24, 70)]


def _blocked_case(panels, order, rows):
    rng = np.random.default_rng(rows)
    lo = rng.uniform(0.0, 2.0, rows)
    hi = lo + rng.uniform(-0.1, 1.5, rows)  # some empty rows too
    scale = rng.uniform(0.1, 3.0, rows)[:, None, None]
    flip = (np.arange(rows) % 3 == 0)  # a boolean row mask, as the exact pass has

    def log_f(x, scale, flip):
        out = np.log(x + 0.5) - scale * x * x
        out[flip] += np.sin(5.0 * x[flip])
        return out

    return log_f, lo, hi, (scale, flip)


@pytest.mark.parametrize("panels, order, rows", _CALLER_SHAPES)
def test_fixed_rule_blocks_match_one_row_at_a_time(panels, order, rows):
    log_f, lo, hi, args = _blocked_case(panels, order, rows)
    got = fixed_log_integral(log_f, lo, hi, panels, order, args)
    assert rows > quadrature.BLOCK_NODES // (panels * order)  # more than one block
    one = [float(fixed_log_integral(log_f, lo[i:i + 1], hi[i:i + 1], panels, order,
                                    tuple(a[i:i + 1] for a in args))[0]).hex()
           for i in range(rows)]
    assert [x.hex() for x in got.tolist()] == one


@pytest.mark.parametrize("panels, order, rows", _CALLER_SHAPES)
@pytest.mark.parametrize("block_nodes", [1, 3 * 96, 10 ** 9])
def test_fixed_rule_blocks_change_no_float(monkeypatch, panels, order, rows, block_nodes):
    # one row per block, a few rows per block, and one block for the batch
    log_f, lo, hi, args = _blocked_case(panels, order, rows)
    want = [x.hex() for x in fixed_log_integral(log_f, lo, hi, panels, order, args).tolist()]
    seen = []

    def counted(x, *block_args):
        seen.append(x.shape[0])
        assert all(len(a) == x.shape[0] for a in block_args)
        return log_f(x, *block_args)

    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    got = fixed_log_integral(counted, lo, hi, panels, order, args)
    assert [x.hex() for x in got.tolist()] == want
    assert sum(seen) == rows
    assert max(seen) == max(1, min(rows, block_nodes // (panels * order)))


@pytest.mark.parametrize("panels, order, rows", _CALLER_SHAPES)
def test_fixed_rule_blocks_share_one_node_array(panels, order, rows):
    # every block's nodes are a slice of one array, sized to the first block,
    # and the values log_f returns are only read: here they are read-only
    log_f, lo, hi, args = _blocked_case(panels, order, rows)
    want = [x.hex() for x in fixed_log_integral(log_f, lo, hi, panels, order, args).tolist()]
    starts, returned = set(), []

    def read_only(x, *block_args):
        starts.add(x.__array_interface__["data"][0])
        vals = log_f(x, *block_args)
        vals.flags.writeable = False
        returned.append((vals, vals.copy()))
        return vals

    got = fixed_log_integral(read_only, lo, hi, panels, order, args)
    assert [x.hex() for x in got.tolist()] == want
    assert len(starts) == 1 and len(returned) > 1
    assert all(np.array_equal(vals, copy, equal_nan=True) for vals, copy in returned)


def test_fixed_rule_rows_holding_inf_or_nan():
    # a row is shifted by its largest value where that is finite: a row
    # holding +inf sums to +inf, and one holding NaN to NaN, whatever the
    # shift, so they give +inf and LOG_ZERO; the finite rows of the block keep
    # the floats they have alone
    code = np.array([0, 1, 2, 3, 4, 0])

    def log_f(x, code):
        out = -x * x
        out[code == 1, 0, 0] = math.nan
        out[code == 2, 1, 2] = math.inf
        out[code >= 3] = LOG_ZERO
        out[code == 4, 0, 1] = math.inf
        return out

    got = fixed_log_integral(log_f, np.zeros(6), np.ones(6), 2, 4, (code,))
    assert got[1:5].tolist() == [LOG_ZERO, math.inf, LOG_ZERO, math.inf]
    alone = float(fixed_log_integral(lambda x: -x * x, np.zeros(1), np.ones(1), 2, 4)[0])
    assert got[0].hex() == got[5].hex() == alone.hex()
    assert alone == pytest.approx(math.log(0.5 * math.sqrt(math.pi) * math.erf(1.0)), rel=1e-6)


# --- bit pinning ---------------------------------------------------------
# The quadrature evaluates its integrand in batches, but every number it
# returns must be the float that the one-panel-per-call, one-point-per-step
# algorithm returns.  That algorithm is copied below and run in the same
# process: the floats depend on which SIMD kernels numpy dispatches, so
# they cannot be literals.  The evaluation counts and flags can.

def _scalar_bisect(log_f, below, above, tau):
    """The one-point-per-call window bisection that _bisect_crossing batches."""
    for _ in range(90):
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            break
        if float(log_f(np.asarray([mid]))[0]) >= tau:
            above = mid
        else:
            below = mid
    return below


def _with_ends(log_f, below, above):
    """The bracket (below, above, log_f(below), log_f(above)), as log_integral passes it."""
    with np.errstate(divide="ignore"):
        ends = np.asarray(log_f(np.array([below, above], dtype=float)), dtype=float)
    return (below, above, *ends.tolist())


def _bisect_crossing(log_f, below, above, tau, *, ends=True):
    """One window edge, bisected alone; ``ends`` passes log_f at both ends."""
    bracket = _with_ends(log_f, below, above) if ends else (below, above)
    return _bisect_crossings(log_f, [bracket], tau)[0]


def _assert_same_float(got, want):
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("seed", range(8))
def test_bisect_crossing_matches_scalar_loop_both_orientations(seed):
    rng = np.random.default_rng(seed)
    log_f = lambda x: -3.0 * np.asarray(x) ** 2
    for _ in range(25):
        a, b = np.sort(rng.uniform(0.0, 5.0, 2))
        tau = -3.0 * rng.uniform(a, b) ** 2
        # on [a, b] log_f decreases: the super-threshold end is the left one
        _assert_same_float(_bisect_crossing(log_f, b, a, tau), _scalar_bisect(log_f, b, a, tau))
        # on [-b, -a] it increases: the super-threshold end is the right one
        _assert_same_float(_bisect_crossing(log_f, -b, -a, tau),
                           _scalar_bisect(log_f, -b, -a, tau))


@pytest.mark.parametrize("seed", range(4))
def test_bisect_crossing_matches_scalar_loop_non_monotone(seed):
    rng = np.random.default_rng(100 + seed)
    log_f = lambda x: np.sin(37.0 * np.asarray(x)) + 0.1 * np.asarray(x)
    for _ in range(25):
        below, above = rng.uniform(-2.0, 2.0, 2)
        tau = rng.uniform(-1.0, 1.0)
        _assert_same_float(_bisect_crossing(log_f, below, above, tau),
                           _scalar_bisect(log_f, below, above, tau))


def test_bisect_crossing_exhausted_bracket():
    # brackets a few ulps wide run out of midpoints inside a batch of levels
    log_f = lambda x: np.asarray(x) - 1.0
    for ulps in range(0, 12):
        above = 1.0 + ulps * np.finfo(float).eps
        for tau in (0.0, 0.5 * ulps * np.finfo(float).eps, 1.0):
            _assert_same_float(_bisect_crossing(log_f, 1.0, above, tau),
                               _scalar_bisect(log_f, 1.0, above, tau))
    _assert_same_float(_bisect_crossing(log_f, 1.0, math.nextafter(1.0, 2.0), 0.0), 1.0)


def test_bisect_crossing_without_end_values_matches_scalar_loop():
    # with the end values withheld the walk predicts nothing until both
    # ends have moved: the level trees alone carry it at first
    rng = np.random.default_rng(7)
    smooth = lambda x: -3.0 * np.asarray(x) ** 2
    wavy = lambda x: np.sin(37.0 * np.asarray(x)) + 0.1 * np.asarray(x)
    for _ in range(25):
        a, b = np.sort(rng.uniform(0.0, 5.0, 2))
        tau = -3.0 * rng.uniform(a, b) ** 2
        for below, above in ((b, a), (-b, -a)):
            _assert_same_float(_bisect_crossing(smooth, below, above, tau, ends=False),
                               _scalar_bisect(smooth, below, above, tau))
        below, above = rng.uniform(-2.0, 2.0, 2)
        tau = rng.uniform(-1.0, 1.0)
        _assert_same_float(_bisect_crossing(wavy, below, above, tau, ends=False),
                           _scalar_bisect(wavy, below, above, tau))
    for ulps in range(0, 12):
        above = 1.0 + ulps * np.finfo(float).eps
        _assert_same_float(_bisect_crossing(lambda x: np.asarray(x) - 1.0, 1.0, above, 0.0,
                                            ends=False), 1.0)


@pytest.mark.parametrize("n", [1, 3])
def test_bisect_crossing_at_a_step_density_knot(n):
    # phi jumps across tau at a knot: the secant point lies anywhere in the
    # bracket, the prediction fails, and the level trees carry the walk
    rng = np.random.default_rng(11 + n)
    phi = radial_log_integrand(_STEP, n)
    mirrored = lambda x: phi(-np.asarray(x))
    knots = np.array(_STEP.probe_points())
    crossings = 0
    for k in range(1, len(knots) - 1):
        for _ in range(6):
            below = rng.uniform(knots[k], knots[k + 1])
            above = rng.uniform(knots[k - 1], knots[k])
            sub, sup = phi(np.array([below, above])).tolist()
            if not sub < sup:
                continue
            # phi rises inside each step, so tau in [sub, sup) crosses at the knot alone
            tau = rng.uniform(sub, sup)
            crossings += 1
            got = _bisect_crossing(phi, below, above, tau)
            _assert_same_float(got, _scalar_bisect(phi, below, above, tau))
            _assert_same_float(_bisect_crossing(mirrored, -below, -above, tau),
                               _scalar_bisect(mirrored, -below, -above, tau))
            assert knots[k] <= got <= knots[k] + 2.0 * np.spacing(knots[k])
    assert crossings >= 12


def test_bisect_crossing_with_a_minus_inf_end():
    # the radial integrand is -inf at s = 0, so a bracket from 0 predicts
    # nothing until its sub-threshold end has moved off 0
    phi = radial_log_integrand(Gaussian(), 50)
    mirrored = lambda x: phi(-np.asarray(x))
    peak = Gaussian().peak_radius(50)
    tau = float(phi(np.array([peak]))[0]) - quadrature.WINDOW_DROP
    for above in (0.9, 1.3, 1.7, peak):
        counted = _Counted(phi)
        got = _bisect_crossing(counted, 0.0, above, tau)
        _assert_same_float(got, _scalar_bisect(phi, 0.0, above, tau))
        assert counted.sizes[1] == 2 ** quadrature.BISECT_LEVELS - 1  # the tree alone
        assert len(counted.sizes) <= 8
        _assert_same_float(_bisect_crossing(mirrored, 0.0, -above, tau),
                           _scalar_bisect(mirrored, 0.0, -above, tau))


def test_bisect_crossing_runs_all_steps_in_batches():
    # log x = -69 lies far below 2^-90 of [0, 1], so no step exhausts the bracket
    calls = []

    def log_f(x):
        calls.append(len(x))
        return np.log(x)

    # log 0 = -inf predicts nothing, so the level trees carry every step
    got = _bisect_crossings(log_f, [(0.0, 1.0, -math.inf, 0.0)], -69.0)[0]
    _assert_same_float(got, _scalar_bisect(np.log, 0.0, 1.0, -69.0))
    _assert_same_float(got, 0.0)
    assert len(calls) == math.ceil(quadrature.BISECT_STEPS / quadrature.BISECT_LEVELS)


def _hex_result(res):
    out = []
    for v in (getattr(res, k) for k in res.__dataclass_fields__):
        if isinstance(v, tuple):
            out.append(tuple(float(x).hex() for x in v))
        elif isinstance(v, (bool, int)):
            out.append(v)
        else:
            out.append(float(v).hex())
    return tuple(out)


def _one_panel(f, a, b):
    x25, w25 = quadrature.gauss_legendre_nodes(25)
    x12, w12 = quadrature.gauss_legendre_nodes(12)
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    v = h * float(np.dot(w25, np.asarray(f(mid + h * x25), dtype=float)))
    v_low = h * float(np.dot(w12, np.asarray(f(mid + h * x12), dtype=float)))
    return v, abs(v - v_low)


def _left_sum(values):
    total = 0
    for v in values:
        total += v
    return total


def _panel_integrate(f, a, b, *, max_evals=quadrature.DEFAULT_MAX_EVALS):
    """The adaptive rule with one call of f per panel, which integrate batches."""
    if not b > a:
        return QuadratureResult(0.0, 0.0, 0, True)
    v, e = _one_panel(f, float(a), float(b))
    segs = [[e, v, float(a), float(b)]]  # [error, value, lo, hi]
    evals = quadrature.PANEL_EVALS
    while True:
        total = _left_sum(s[1] for s in segs)
        err = _left_sum(s[0] for s in segs)
        if err <= quadrature.DEFAULT_REL_TOL * abs(total) or err == 0.0:
            return QuadratureResult(total, err, evals, True)
        if evals >= max_evals:
            return QuadratureResult(total, err, evals, False)
        worst = max(range(len(segs)), key=lambda i: segs[i][0])
        lo, hi = segs[worst][2:]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            segs[worst][0] = 0.0
            continue
        v1, e1 = _one_panel(f, lo, mid)
        v2, e2 = _one_panel(f, mid, hi)
        evals += 2 * quadrature.PANEL_EVALS
        segs[worst] = [e1, v1, lo, mid]
        segs.append([e2, v2, mid, hi])


def _panel_log_integral(log_f, a, b, *, probe_points=(), knots=()):
    """log_integral with the one-point bisection and the one-panel rule.

    ``knots`` is taken and ignored: the one-panel loop bisects the panels
    toward them one call at a time.
    """
    pts = {float(a), float(b)}
    pts.update(float(p) for p in probe_points if a <= p <= b)
    grid = np.unique(np.concatenate([np.linspace(a, b, quadrature.N_PROBES),
                                     np.array(sorted(pts))]))
    vals = np.asarray(log_f(grid), dtype=float)
    evals = grid.size
    m = float(np.max(vals))
    tau = m - quadrature.WINDOW_DROP
    above = vals >= tau
    i_lo = int(np.argmax(above))
    i_hi = int(len(above) - 1 - np.argmax(above[::-1]))
    lo, hi = grid[i_lo], grid[i_hi]
    if i_lo > 0:
        lo = _scalar_bisect(log_f, grid[i_lo - 1], grid[i_lo], tau)
        evals += quadrature.BISECT_STEPS
    if i_hi < len(grid) - 1:
        hi = _scalar_bisect(log_f, grid[i_hi + 1], grid[i_hi], tau)
        evals += quadrature.BISECT_STEPS

    def shifted(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(log_f(x), dtype=float) - m)

    res = _panel_integrate(shifted, lo, hi,
                           max_evals=max(quadrature.DEFAULT_MAX_EVALS - evals, 10 ** 4))
    return LogIntegralResult(m + math.log(res.value), res.error / res.value,
                             evals + res.evaluations, res.converged, m, (lo, hi))


def _assert_pinned(res, reference, evaluations, converged):
    assert _hex_result(res) == _hex_result(reference)
    assert (res.evaluations, res.converged) == (evaluations, converged)


_STEP = TabulatedDecreasing([0.15, 0.4, 0.55, 0.9, 1.3, 1.45, 2.0, 2.7],
                            [0.0, -0.7, -1.9, -2.4, -4.0, -4.2, -6.5, -7.0])


def test_pinned_step_density_log_integral():
    # no splits at the jumps: about 200 refinement steps, and a bisected window edge
    phi = radial_log_integrand(_STEP, 3)
    args = (phi, 0.0, 2.7)
    kwargs = {"probe_points": _STEP.probe_points()}
    _assert_pinned(log_integral(*args, **kwargs), _panel_log_integral(*args, **kwargs),
                   15043, True)
    f = lambda x: np.exp(phi(x))
    _assert_pinned(integrate(f, 0.0, 2.7), _panel_integrate(f, 0.0, 2.7), 14689, True)


def test_pinned_gaussian_off_center_log_integral():
    # the off-center integrand of mu(B(d xi, t)) at n = 3, with the nested
    # cap integral on both sides of pi/2
    d, t, n = 0.3, 0.5, 3
    phi_radial = radial_log_integrand(Gaussian(), n)

    def phi(s):
        s = np.asarray(s, dtype=float)
        theta = np.arccos(np.clip((d * d + s * s - t * t)
                                  / np.maximum(2.0 * d * s, 1e-300), -1.0, 1.0))
        return phi_radial(s) + _cap_j_log(n, theta)

    args = (phi, t - d, t + d)
    kwargs = {"probe_points": [Gaussian().peak_radius(n)]}
    _assert_pinned(log_integral(*args, **kwargs), _panel_log_integral(*args, **kwargs),
                   385, True)


def test_pinned_capped_integral():
    # converged after 1295 evaluations with no cap
    f = lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))
    kwargs = {"max_evals": 1000}
    _assert_pinned(integrate(f, -1.0, 1.0, **kwargs), _panel_integrate(f, -1.0, 1.0, **kwargs),
                   1073, False)


def test_sums_are_left_to_right():
    # a compensated sum (builtin sum from Python 3.12 on) would give 1.0
    assert _sequential_sum(np.array([1e16, 1.0, -1e16])) == 0.0
    assert math.copysign(1.0, _sequential_sum(np.array([-0.0, -0.0]))) == 1.0


# --- batched refinement and lockstep window edges -----------------------
# integrate evaluates the halves of every panel it must bisect anyway in
# one call of f, and log_integral bisects both window edges in lockstep;
# the floats, the evaluation counts and the flags stay those of the
# one-panel-per-call loop above.

def _random_step(seed):
    """A random step density with 8-32 knots and a dimension in 1..39."""
    rng = np.random.default_rng(1000 + seed)
    knots = int(rng.integers(8, 33))
    radii = np.sort(rng.uniform(0.05, 3.0, knots))
    log_f = np.concatenate([[0.0], -np.cumsum(rng.exponential(0.5, knots - 1))])
    return TabulatedDecreasing(radii, log_f), int(rng.integers(1, 40))


class _Counted:
    """An integrand that records the size of every call."""

    def __init__(self, f):
        self.f, self.sizes = f, []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.f(x)


@pytest.mark.parametrize("seed", range(8))
def test_step_density_matches_panel_loop(seed):
    # no splits at the jumps: hundreds of refinement steps per integral
    density, n = _random_step(seed)
    phi = radial_log_integrand(density, n)
    b = float(density.probe_points()[-1])
    kwargs = {"probe_points": density.probe_points()}
    got = log_integral(phi, 0.0, b, **kwargs)
    want = _panel_log_integral(phi, 0.0, b, **kwargs)
    assert _hex_result(got) == _hex_result(want)
    assert got.evaluations > 100 * quadrature.PANEL_EVALS
    m = float(np.max(phi(np.linspace(0.0, b, 1001))))
    f = lambda x: np.exp(phi(x) - m)
    assert _hex_result(integrate(f, 0.0, b)) == _hex_result(_panel_integrate(f, 0.0, b))


def test_step_density_calls_f_for_a_third_of_the_steps():
    density, n = _random_step(4)
    phi = radial_log_integrand(density, n)
    b = float(density.probe_points()[-1])
    f = _Counted(lambda x: np.exp(phi(x)))
    res = integrate(f, 0.0, b)
    steps = (res.evaluations // quadrature.PANEL_EVALS - 1) // 2
    assert steps >= 200
    assert len(f.sizes) <= steps / 3
    # every evaluated panel is one the loop used: nothing is evaluated ahead in vain
    assert sum(f.sizes) == res.evaluations


@pytest.mark.parametrize("max_evals", [1000, 3001, 6000, 9990, 15000])
def test_capped_step_density_stops_where_the_panel_loop_stops(max_evals):
    density, n = _random_step(3)
    phi = radial_log_integrand(density, n)
    b = float(density.probe_points()[-1])
    f = lambda x: np.exp(phi(x))
    # converged after 26603 evaluations with no cap
    kwargs = {"max_evals": max_evals}
    got = integrate(f, 0.0, b, **kwargs)
    want = _panel_integrate(f, 0.0, b, **kwargs)
    _assert_pinned(got, want, want.evaluations, False)
    assert max_evals <= got.evaluations < max_evals + 2 * quadrature.PANEL_EVALS


def _window_searches(monkeypatch):
    """Record the sizes of the integrand calls of every window search."""
    searches, inner = [], quadrature._bisect_crossings

    def counted(log_f, brackets, tau):
        f = _Counted(log_f)
        searches.append(f.sizes)
        return inner(f, brackets, tau)

    monkeypatch.setattr(quadrature, "_bisect_crossings", counted)
    return searches


def test_two_window_edges_bisect_in_lockstep(monkeypatch):
    # the Gaussian radial integrand at n = 50 falls 46 log-units below its
    # peak inside [0, 30] on both sides, so both window edges are bisected
    phi = radial_log_integrand(Gaussian(), 50)
    kwargs = {"probe_points": [Gaussian().peak_radius(50)]}
    searches = _window_searches(monkeypatch)
    got = log_integral(phi, 0.0, 30.0, **kwargs)
    assert 0.0 < got.window[0] < got.window[1] < 30.0
    _assert_pinned(got, _panel_log_integral(phi, 0.0, 30.0, **kwargs), got.evaluations, True)
    # one search takes both edges; the probe values predict the path from
    # the first call on, and each call takes the tree of both walks and
    # their predicted midpoints, BISECT_PATH steps per edge at most
    [sizes] = searches
    walk = 2 ** quadrature.BISECT_LEVELS - 1
    assert sizes[0] == 2 * (walk + quadrature.BISECT_PATH - quadrature.BISECT_LEVELS)
    # about 52 steps per edge, against 18 calls of 2 x 7 midpoints with the
    # level trees alone
    assert len(sizes) <= 5
    assert sum(sizes) <= 2 * walk * math.ceil(quadrature.BISECT_STEPS / quadrature.BISECT_LEVELS)


def test_lockstep_calls_are_those_of_the_longer_walk():
    log_f = lambda x: -3.0 * np.asarray(x) ** 2
    eps = np.finfo(float).eps
    brackets = [_with_ends(log_f, below, above) for below, above in
                [(2.0, 0.5), (-2.0, -0.25), (1.0 + 8.0 * eps, 1.0), (0.0, 1.0)]]
    tau = -3.0
    alone = []
    for bracket in brackets:
        counted = _Counted(log_f)
        alone.append((_bisect_crossings(counted, [bracket], tau)[0], counted.sizes))
    counted = _Counted(log_f)
    together = _bisect_crossings(counted, brackets, tau)
    assert [float(x).hex() for x in together] == [float(x).hex() for x, _ in alone]
    assert [float(x).hex() for x in together] == [
        float(_scalar_bisect(log_f, *bracket[:2], tau)).hex() for bracket in brackets]
    assert len(counted.sizes) == max(len(sizes) for _, sizes in alone)
    assert sum(counted.sizes) == sum(sum(sizes) for _, sizes in alone)
    calls = [len(sizes) for _, sizes in alone]
    # the smooth crossings settle in a few calls, the exhausted bracket in
    # one; (0, 1) lies above tau at both ends, so it has no secant point and
    # runs all BISECT_STEPS steps on the level trees alone
    assert max(calls[:2]) <= 6
    assert calls[2:] == [1, math.ceil(quadrature.BISECT_STEPS / quadrature.BISECT_LEVELS)]


def test_walks_with_asks_of_different_lengths_share_one_call():
    # without end values a walk asks for its level tree first and for its
    # predicted path too from then on; with them it asks for both at once,
    # so each call must hand every walk its own slice of the values
    log_f = lambda x: -3.0 * np.asarray(x) ** 2
    brackets = [(2.0, 0.5), _with_ends(log_f, -2.0, -0.25), (1.7, 0.3),
                _with_ends(log_f, 1.9, 0.1)]
    tau = -3.0
    counted = _Counted(log_f)
    together = _bisect_crossings(counted, brackets, tau)
    walk = 2 ** quadrature.BISECT_LEVELS - 1
    path = quadrature.BISECT_PATH - quadrature.BISECT_LEVELS
    assert counted.sizes[0] == 4 * walk + 2 * path
    assert [float(x).hex() for x in together] == [
        float(_bisect_crossings(log_f, [bracket], tau)[0]).hex() for bracket in brackets]
    assert [float(x).hex() for x in together] == [
        float(_scalar_bisect(log_f, *bracket[:2], tau)).hex() for bracket in brackets]


@pytest.mark.parametrize("case", ["gaussian", "step", "off-center"] + [
    f"random-step-{seed}" for seed in range(4)])
def test_log_integral_same_floats_with_end_values_withheld(case, monkeypatch):
    if case == "gaussian":
        args = (radial_log_integrand(Gaussian(), 50), 0.0, 30.0)
        kwargs = {"probe_points": [Gaussian().peak_radius(50)]}
    elif case == "off-center":
        d, t, n = 0.3, 0.5, 3
        phi_radial = radial_log_integrand(Gaussian(), n)

        def phi(s):
            s = np.asarray(s, dtype=float)
            theta = np.arccos(np.clip((d * d + s * s - t * t)
                                      / np.maximum(2.0 * d * s, 1e-300), -1.0, 1.0))
            return phi_radial(s) + _cap_j_log(n, theta)

        args, kwargs = (phi, t - d, t + d), {"probe_points": [Gaussian().peak_radius(n)]}
    else:
        density, n = (_STEP, 3) if case == "step" else _random_step(int(case[-1]))
        args = (radial_log_integrand(density, n), 0.0, float(density.probe_points()[-1]))
        kwargs = {"probe_points": density.probe_points()}
    searches = _window_searches(monkeypatch)
    got = log_integral(*args, **kwargs)
    inner = quadrature._bisect_crossings
    monkeypatch.setattr(quadrature, "_bisect_crossings", lambda log_f, brackets, tau: inner(
        log_f, [bracket[:2] for bracket in brackets], tau))
    assert _hex_result(got) == _hex_result(log_integral(*args, **kwargs))
    assert len(searches) == 2


@pytest.mark.parametrize("seed", range(4))
def test_lockstep_walks_match_one_at_a_time(seed):
    # walks of every length in one batch: exhausted brackets of a few ulps
    # stop early, and the others run on alone
    rng = np.random.default_rng(200 + seed)
    log_f = lambda x: np.sin(37.0 * np.asarray(x)) + 0.1 * np.asarray(x)
    brackets = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(5)]
    brackets += [(1.0, 1.0 + ulps * np.finfo(float).eps) for ulps in (1, 3, 7)]
    # with and without end values, so the asks differ in length
    brackets = [_with_ends(log_f, *b) if i % 2 else b for i, b in enumerate(brackets)]
    rng.shuffle(brackets)
    tau = rng.uniform(-1.0, 1.0)
    got = _bisect_crossings(log_f, brackets, tau)
    assert [float(x).hex() for x in got] == [
        float(_scalar_bisect(log_f, *bracket[:2], tau)).hex() for bracket in brackets]


# --- the refinement loop's heap and running sums ------------------------
# integrate takes the worst panel from a heap and tests the stop on running
# sums, which it sums again exactly, left to right, only near the stop, at
# the cap and when a sum is not finite; _panels sums both rules of every
# panel by np.vecdot.  The floats, the counts and the flags stay those of
# the one-panel loop above.

def _argmax_integrate(f, a, b, *, max_evals):
    """_panel_integrate with numpy's argmax, which takes a NaN error as the largest.

    Also returns every error the loop saw.
    """
    v, e = _one_panel(f, float(a), float(b))
    segs = [[e, v, float(a), float(b)]]  # [error, value, lo, hi]
    evals, seen = quadrature.PANEL_EVALS, [e]
    while True:
        total = _left_sum(s[1] for s in segs)
        err = _left_sum(s[0] for s in segs)
        if err <= quadrature.DEFAULT_REL_TOL * abs(total) or err == 0.0:
            return QuadratureResult(total, err, evals, True), seen
        if evals >= max_evals:
            return QuadratureResult(total, err, evals, False), seen
        worst = int(np.argmax([s[0] for s in segs]))
        lo, hi = segs[worst][2:]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            segs[worst][0] = 0.0
            continue
        v1, e1 = _one_panel(f, lo, mid)
        v2, e2 = _one_panel(f, mid, hi)
        evals += 2 * quadrature.PANEL_EVALS
        seen += [e1, e2]
        segs[worst] = [e1, v1, lo, mid]
        segs.append([e2, v2, mid, hi])


def test_worst_panel_ties_go_to_the_lower_column():
    # a step pattern of period 1/4: dyadic panels a multiple of it apart
    # see the same values at their nodes, so their errors tie bit for bit,
    # and the worst error is tied at most steps
    f = lambda x: np.where(np.mod(4.0 * np.asarray(x) + 1.0 / 3.0, 1.0) < 0.5, 1.0, 0.25)
    got = integrate(f, 0.0, 1.0)
    want, seen = _argmax_integrate(f, 0.0, 1.0, max_evals=quadrature.DEFAULT_MAX_EVALS)
    assert _hex_result(got) == _hex_result(want)
    assert _hex_result(got) == _hex_result(_panel_integrate(f, 0.0, 1.0))
    assert got.converged and len(seen) - len(set(seen)) >= 100


@pytest.mark.parametrize("max_evals", [800, 3000])
def test_a_nan_error_comes_first_as_argmax_has_it(max_evals):
    # NaN near 0.8 on every panel there; +inf at one 12-point node of
    # [0, 0.5], so that panel's error is +inf, and the NaN panel [0.5, 1]
    # after it goes first; then the NaN panels in column order
    x12, _ = quadrature.gauss_legendre_nodes(12)
    spike = 0.25 + 0.25 * float(x12[3])

    def f(x, points):
        x = np.asarray(x, dtype=float)
        points.append(x)
        out = np.exp(-x)
        out[x == spike] = math.inf
        out[np.abs(x - 0.8) < 0.03] = math.nan
        return out

    got_points, want_points = [], []
    got = integrate(partial(f, points=got_points), 0.0, 1.0, max_evals=max_evals)
    want, seen = _argmax_integrate(partial(f, points=want_points), 0.0, 1.0,
                                   max_evals=max_evals)
    assert _hex_result(got) == _hex_result(want)
    assert not got.converged
    assert math.isnan(seen[0]) and seen[1] == math.inf and math.isnan(seen[2])
    # the NaN total hides which panels were bisected; the nodes show it
    assert (np.sort(np.concatenate(got_points)).tobytes()
            == np.sort(np.concatenate(want_points)).tobytes())


@pytest.mark.parametrize("seed", range(12))
def test_running_sums_stop_where_the_exact_sums_stop(seed):
    # signed integrands that cancel, scaled from 1e-290 to 1e290: the stop
    # test fires within the running sums' rounding bound only at the step
    # the left-to-right sums fire on
    rng = np.random.default_rng(300 + seed)
    omega, phase = rng.uniform(1.0, 60.0), rng.uniform(0.0, 2.0 * math.pi)
    offset, scale = rng.uniform(-0.05, 0.05), 10.0 ** rng.uniform(-290.0, 290.0)
    a = rng.uniform(-3.0, 3.0)
    b = a + rng.uniform(0.1, 8.0)
    f = lambda x: scale * (np.cos(omega * np.asarray(x) + phase) + offset
                           + 0.3 * np.sqrt(np.abs(np.asarray(x) - a - 0.37 * (b - a))))
    kwargs = {"max_evals": 40_000}
    assert _hex_result(integrate(f, a, b, **kwargs)) == _hex_result(
        _panel_integrate(f, a, b, **kwargs))


def test_exact_sums_only_at_the_first_step_and_the_stop(monkeypatch):
    # about 200 refinement steps, and the left-to-right sums twice: the
    # loop's own work per step is O(1)
    phi = radial_log_integrand(_STEP, 3)
    f = lambda x: np.exp(phi(x))
    sums, inner = [], quadrature._sequential_sum
    monkeypatch.setattr(quadrature, "_sequential_sum",
                        lambda x: sums.append(x.shape) or inner(x))
    res = integrate(f, 0.0, 2.7)
    assert (res.evaluations, res.converged) == (14689, True)
    assert len(sums) == 2


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 10_000])
def test_panels_same_floats_as_a_dot_per_panel(rows):
    # values from e^-700 to e^700, and zeros: each rule sums every panel as
    # np.dot sums it alone
    rng = np.random.default_rng(rows)
    a = rng.uniform(-5.0, 5.0, rows)
    b = a + rng.uniform(1e-6, 3.0, rows)
    y = np.exp(rng.uniform(-700.0, 700.0, (rows, quadrature.PANEL_EVALS)))
    y[rng.random(y.shape) < 0.1] = 0.0
    seen = []

    def f(x):
        seen.append(x.shape)
        return y.ravel()

    values, errors = quadrature._panels(f, a, b)
    assert seen == [(rows * quadrature.PANEL_EVALS,)]
    _, w25 = quadrature.gauss_legendre_nodes(25)
    _, w12 = quadrature.gauss_legendre_nodes(12)
    h = 0.5 * (b - a)
    want_v = [hi * float(np.dot(w25, yi[:25])) for hi, yi in zip(h.tolist(), y)]
    want_e = [abs(v - hi * float(np.dot(w12, yi[25:])))
              for v, hi, yi in zip(want_v, h.tolist(), y)]
    assert [x.hex() for x in values] == [x.hex() for x in want_v]
    assert [x.hex() for x in errors] == [x.hex() for x in want_e]


def _solver_floats(density, n):
    """The balanced radius, and the general construction's radii, exact log T and terms."""
    bounds.clear_stage_caches()
    beta0, _, _, _, _, k = bounds._general_parameters(0.2)
    rep = bounds.general_construction(density, n, 1.01, 0.2)
    bounds.clear_stage_caches()
    floats = [bounds.solve_radius_equation(density, n, beta0, k), rep.R, rep.r,
              rep.log_t_exact, *rep.terms.values()]
    return [float(x).hex() for x in floats], list(rep.terms)


@pytest.mark.parametrize("case", ["step-5", "step-12", "gaussian-40"])
def test_solver_same_floats_as_with_the_one_panel_loop(case, monkeypatch):
    # the radius solver and the exact T run hundreds of integrals through
    # log_integral; each must be the float of the one-panel loop
    kind, n = case.split("-")
    density = Gaussian() if kind == "gaussian" else _random_step(int(n))[0]
    got, names = _solver_floats(density, int(n))
    assert "log_mu_offcenter" in names
    calls = []

    def reference(*args, **kwargs):
        calls.append(args[1:3])
        return _panel_log_integral(*args, **kwargs)

    monkeypatch.setattr(measures, "log_integral", reference)
    monkeypatch.setattr(geometry, "log_integral", reference)
    assert _solver_floats(density, int(n))[0] == got
    assert len(calls) >= 50


# --- the bisection chain toward each knot -------------------------------
# log_integral and integrate take a step density's knots (``knots``); each
# call of the integrand then also evaluates the halves of the panels a
# bisection toward each knot meets, KNOT_CHAIN levels deep, and the loop
# takes them by their ends once it makes those panels.  The floats, the
# counts and the flags stay those of the same integral without knots.

def _random_knotted(seed):
    """A random step density with 1-32 knots, a dimension in 1..40, and a
    radius inside its support (odd seeds) or past it (even seeds)."""
    rng = np.random.default_rng(5000 + seed)
    knots = int(rng.integers(1, 33))
    radii = np.sort(rng.uniform(0.05, 3.0, knots))
    log_f = np.concatenate([[0.0], -np.cumsum(rng.exponential(0.5, knots - 1))])
    support = float(radii[-1])
    rho = support * (rng.uniform(0.05, 1.0) if seed % 2 else rng.uniform(1.0, 2.0))
    return TabulatedDecreasing(radii, log_f), int(rng.integers(1, 41)), rho


def _with_and_without_knots(density, n, rho):
    """log_integral of the radial integrand over [0, rho], as measures calls
    it, with the knots and without; and the integrand calls of each."""
    phi = radial_log_integrand(density, n)
    knots = density.probe_points()
    kwargs = {"probe_points": [k for k in knots if k <= rho]}
    chained, plain = _Counted(phi), _Counted(phi)
    return (log_integral(chained, 0.0, rho, knots=knots, **kwargs),
            log_integral(plain, 0.0, rho, **kwargs), chained.sizes, plain.sizes)


@pytest.mark.parametrize("seed", range(300))
def test_knot_chain_same_floats_as_without_knots(seed):
    got, want, chained, plain = _with_and_without_knots(*_random_knotted(seed))
    # log_value, rel_error, evaluations, converged, shift and window
    assert _hex_result(got) == _hex_result(want)
    # every call takes at least the halves the call without knots takes
    assert len(chained) <= len(plain)


def test_knot_chain_saves_most_calls():
    chained = plain = 0
    for seed in range(40):
        _, _, got, want = _with_and_without_knots(*_random_knotted(seed))
        chained, plain = chained + len(got), plain + len(want)
    assert chained <= plain / 2


def _jumps(points):
    """A smooth integrand with a jump at each of ``points``."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x) + sum((x > p).astype(float) for p in points)
    return f


def _integrate_both(f, a, b, knots, **kwargs):
    chained, plain = _Counted(f), _Counted(f)
    got = integrate(chained, a, b, knots=knots, **kwargs)
    want = integrate(plain, a, b, **kwargs)
    assert _hex_result(got) == _hex_result(want)
    assert _hex_result(got) == _hex_result(_panel_integrate(f, a, b, **kwargs))
    return got, chained.sizes, plain.sizes


def test_knot_at_a_dyadic_midpoint():
    # 0.5 is the window's midpoint and 0.75 that of its right half: the
    # chain toward each ends where the knot becomes a panel end
    got, chained, plain = _integrate_both(_jumps([0.5, 0.75]), 0.0, 1.0, [0.5, 0.75])
    assert got.converged
    # the window, its halves, and the halves of [0.5, 1]
    assert chained[0] == 5 * quadrature.PANEL_EVALS
    assert len(chained) < len(plain)


@pytest.mark.parametrize("knots", [[0.0, 1.0], [-1.0, 2.0], [1.0, 0.0, -0.5, 3.0]])
def test_knots_on_or_outside_the_window_add_nothing(knots):
    _, chained, plain = _integrate_both(_jumps([0.3]), 0.0, 1.0, knots)
    assert chained == plain


def test_knot_chain_down_to_panels_too_narrow_to_split():
    # odd about the centre of an 8-ulp window: the loop bisects down to
    # one-ulp panels, whose mids round to an end, and drops their errors;
    # the chain toward a knot 3 ulps in ends where the knot is a mid
    ulp = math.ulp(1.0)
    f = lambda x: np.asarray(x, dtype=float) - (1.0 + 4 * ulp)
    got, chained, plain = _integrate_both(f, 1.0, 1.0 + 8 * ulp, [1.0 + 3 * ulp])
    assert got.converged
    # the window, its halves, and those of [1, 1 + 4 ulp] and [1 + 2 ulp, 1 + 4 ulp]
    assert chained[0] == 7 * quadrature.PANEL_EVALS
    assert len(chained) < len(plain)


@pytest.mark.parametrize("max_evals", [1000, 3001, 6000, 9990, 15000])
def test_knot_chain_stops_at_the_cap_where_the_panel_loop_stops(max_evals):
    density, n = _random_step(3)
    phi = radial_log_integrand(density, n)
    b = float(density.probe_points()[-1])
    f = lambda x: np.exp(phi(x))
    got, _, _ = _integrate_both(f, 0.0, b, density.probe_points(), max_evals=max_evals)
    assert not got.converged
    assert max_evals <= got.evaluations < max_evals + 2 * quadrature.PANEL_EVALS


def test_step_density_ball_in_at_most_three_calls(monkeypatch):
    # the refinement loop called this integrand 31 times, one bisection
    # level toward each jump per call
    sizes, inner = [], quadrature.integrate

    def counted(f, a, b, **kwargs):
        return inner(lambda x: sizes.append(np.size(x)) or f(x), a, b, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    density = TabulatedDecreasing([0.25, 0.67, 1.19, 1.45], [0.0, -0.5, -0.8, -1.7])
    assert measures.log_ball_measure(density, 7, 1.36).hex() == "0x1.3b2c7a84081eep+1"
    assert 1 <= len(sizes) <= 3
