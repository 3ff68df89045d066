import math

import numpy as np
import pytest

from radialmax.bounds import _annulus_exponent, _log_alpha, growth_parts
from radialmax.errors import BracketError
from radialmax.optimize import (_ENDPOINT_GAP, _JUMP_CAP, _ROOT_MAX_ITER,
                                EXPONENT_SEARCHES, LAMBDA_MAX, SupremumResult,
                                _jump_locator_general, critical_exponent, find_root,
                                growth_base_log, max_growth_base_log, maximize_scalar,
                                p0_gaussian, p0_general, p0_unitball, p1_gaussian)

# lam values across the search range, with the general family's first two
# jumps (annulus integer 5 -> 6 near lam = 0.00685, 6 -> 7 near 0.0394)
# bracketed, and the unit-ball maximizer near 0.0673
LAM_GRID = np.array([1e-6, 0.0068, 0.0069, 0.0394, 0.0395, 0.05, 0.0673, 0.08,
                     0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.414])

GROWTH_KINDS = list(EXPONENT_SEARCHES)

# reference exponents quoted to six digits; matched within 1e-3
P0_GENERAL = 1.005274
P0_GAUSSIAN = 1.011871
P1_GAUSSIAN = 1.049427
P0_UNITBALL = 1.03946


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_radius_equation_form(self):
        # same residual shape the radius solver bisects, unit-ball closed form
        from radialmax.bounds import _contact_angle
        lam, k, n = 0.2, 1.0 / 21.0, 7
        s = math.sin(_contact_angle(lam)[0])

        def g(R):
            return n * math.log(min(R * s, 1.0)) - n * math.log(min(R, 1.0)) \
                - n * k * math.log(s)

        got = find_root(g, 1.0, 2.0, tol=1e-13)
        assert got == pytest.approx(s ** (k - 1.0), rel=1e-10)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, 0.0, 1.0)


class TestMaximizeScalar:
    def test_quadratic(self):
        res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-13)
        assert res.argmax == pytest.approx(0.3, abs=1e-10)
        assert res.value == pytest.approx(0.0, abs=1e-18)
        assert res.bracket[0] <= res.argmax <= res.bracket[1]

    def test_step_function_left_limit(self):
        # drop at x = 0.5; the maximum is the left limit there
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, x, x - 10.0)

        def jumps(a, b):
            return [0.5] if a <= 0.5 <= b else []

        res = maximize_scalar(f, 0.0, 1.0, tol=1e-13, jump_locator=jumps)
        assert res.argmax == pytest.approx(0.5, abs=1e-9)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.value < 0.5  # strictly the left limit
        assert res.discontinuity_notes == [pytest.approx(0.5, abs=1e-9)]

    def test_scalar_only_callable(self):
        res = maximize_scalar(lambda x: -abs(x - 0.25), 0.0, 1.0)
        assert res.argmax == pytest.approx(0.25, abs=1e-9)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            maximize_scalar(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("pre_scan", [1, 0, -3])
    def test_rejects_pre_scan_below_two(self, pre_scan):
        # one grid point would give the degenerate bracket [lo, lo]
        with pytest.raises(ValueError, match="pre_scan must be at least 2"):
            maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, pre_scan=pre_scan)

    def test_two_point_pre_scan_refines(self):
        res = maximize_scalar(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, pre_scan=2)
        assert res.bracket == (0.0, 1.0)
        assert res.argmax == pytest.approx(0.3, abs=1e-9)


class TestExponents:
    def test_general_reference_value(self):
        res = p0_general()
        assert res.value == pytest.approx(P0_GENERAL, abs=1e-3)

    def test_gaussian_lower_reference_value(self):
        res = p0_gaussian()
        assert res.value == pytest.approx(P0_GAUSSIAN, abs=1e-3)

    def test_gaussian_upper_reference_value(self):
        res = p1_gaussian()
        assert res.value == pytest.approx(P1_GAUSSIAN, abs=1e-3)

    def test_unitball_reference_value(self):
        res = p0_unitball()
        assert res.value == pytest.approx(P0_UNITBALL, abs=1e-3)

    def test_ordering_between_families(self):
        vals = {name: fn().value for name, fn in EXPONENT_SEARCHES.items()}
        assert vals["gaussian-lower"] > vals["general"]
        assert vals["gaussian-upper"] > vals["gaussian-lower"]
        assert vals["unitball"] > vals["general"]

    def test_gaussian_dominates_general_pointwise(self):
        lam = np.linspace(0.01, LAMBDA_MAX - 0.01, 200)
        assert np.all(critical_exponent("gaussian-lower", lam)
                      > critical_exponent("general", lam))

    def test_general_objective_exceeds_one_inside(self):
        assert critical_exponent("general", 0.2) > 1.0

    def test_general_objective_limit_at_zero(self):
        assert critical_exponent("general", 1e-6) == pytest.approx(1.0, abs=5e-2)
        assert critical_exponent("general", 1e-6) > 1.0

    def test_gaussian_upper_well_defined(self):
        # e^((1-lam^2)/2) lam < sin b0 on the whole interval
        lam = np.linspace(1e-6, LAMBDA_MAX - 1e-9, 300)
        y = np.exp(0.5 * (1.0 - lam ** 2)) * lam
        s = np.sin(np.arccos(1.0 - (1.0 + lam) ** 2 / 2.0))
        assert np.all(y < s)
        res = p1_gaussian()
        assert res.discontinuity_notes == []

    @pytest.mark.parametrize("name", GROWTH_KINDS)
    def test_agrees_with_brute_grid(self, name):
        lam = np.linspace(1e-9, LAMBDA_MAX - 1e-9, 1_000_001)
        brute = float(np.max(critical_exponent(name, lam)))
        res = EXPONENT_SEARCHES[name]()
        assert res.value >= brute - 1e-12
        assert res.value - brute <= 1e-6

    def test_reproducible_bit_for_bit(self):
        a = p0_general()
        b = p0_general()
        assert (a.argmax, a.value, a.evaluations) == (b.argmax, b.value, b.evaluations)


class TestGrowthBase:
    @pytest.mark.parametrize("kind,search", list(EXPONENT_SEARCHES.items()))
    def test_criticality_sandwich(self, kind, search):
        p_star = search().value
        below = max_growth_base_log(kind, p_star - 1e-3)
        assert below.value > 0.0
        above = max_growth_base_log(kind, p_star + 1e-3)
        assert above.value <= math.log1p(1e-6)

    def test_unitball_alpha_crosses_one_at_p0(self):
        res = p0_unitball()
        lam_star = res.argmax

        def alpha_minus_one(p):
            return growth_base_log("unitball", p, lam_star)

        p_cross = find_root(alpha_minus_one, 1.0001, 1.2, tol=1e-12)
        assert p_cross == pytest.approx(res.value, abs=1e-6)

    def test_growth_base_matches_objective_equivalence(self):
        # alpha(p, lam) > 1 iff p < p*(lam), for each family, across the
        # lam range and on both sides of the general family's jumps; near
        # sqrt(2)-1 the general p* tends to 1, so the step shrinks with it
        for lam in LAM_GRID:
            for kind in GROWTH_KINDS:
                p_lam = critical_exponent(kind, lam)
                step = min(1e-4, 0.5 * (p_lam - 1.0))
                assert growth_base_log(kind, p_lam - step, lam) > 0.0, (kind, lam)
                assert growth_base_log(kind, p_lam + step, lam) < 0.0, (kind, lam)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            growth_base_log("cauchy", 1.01, 0.2)

    @pytest.mark.parametrize("kind", GROWTH_KINDS)
    @pytest.mark.parametrize("lam", [0.5, LAMBDA_MAX, 0.0, -0.1, math.nan, math.inf])
    def test_refuses_lambda_outside_domain(self, kind, lam):
        # no construction exists there: before, ("unitball", 1.01, 0.5) gave
        # alpha > 1 and ("general", 1.01, -0.1) a bare math domain error
        with pytest.raises(ValueError, match=r"lam must lie in \(0, sqrt\(2\)-1\)"):
            growth_base_log(kind, 1.01, lam)

    @pytest.mark.parametrize("kind", GROWTH_KINDS)
    @pytest.mark.parametrize("p", [0.9, math.nan, -math.inf])
    def test_refuses_p_not_at_least_one(self, kind, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            growth_base_log(kind, p, 0.2)
        with pytest.raises(ValueError, match="p must be >= 1"):
            max_growth_base_log(kind, p)

    @pytest.mark.parametrize("kind", GROWTH_KINDS)
    def test_scalar_entry_is_the_vectorized_table(self, kind):
        # the searches evaluate arrays, the constructions scalars: same
        # floats.  Seeded random lam catch what the grid alone missed: a
        # squared 0-d float64 once went through pow, off by an ulp at 1 to 5
        # of 5000 lam per family (e.g. 0.03719310380465034)
        rng = np.random.default_rng(11)
        lams = np.concatenate([LAM_GRID, [0.03719310380465034],
                               rng.uniform(0.0, LAMBDA_MAX, 10_000)[1:]])
        a, b = growth_parts(kind, lams)
        p_star = critical_exponent(kind, lams)
        q = (1.02 - 1.0) / 1.02
        for i, lam in enumerate(lams.tolist()):
            assert growth_parts(kind, lam) == (a[i], b[i]), lam
            assert growth_base_log(kind, 1.02, lam) == a[i] + q * b[i], lam
            assert critical_exponent(kind, lam) == p_star[i], lam

    def test_table_matches_closed_forms(self):
        # the growth bases as the paper writes them, evaluated independently
        lam = np.linspace(1e-6, LAMBDA_MAX - 1e-6, 2001)
        beta0 = np.arccos(1.0 - (1.0 + lam) ** 2 / 2.0)
        s, c = np.sin(beta0), np.cos(beta0) ** 2
        l = np.ceil(-np.log(2.0 + lam) / np.log(s))
        p = 1.013
        q = (p - 1.0) / p
        want = {
            "general": np.log(lam ** q / s ** (1.0 / (1.0 + l))),
            "gaussian-lower": np.log(np.exp(-0.5 * c * np.exp(-c))
                                     * (np.exp(0.5 * np.exp(-c) * (1.0 - lam ** 2)) * lam) ** q
                                     / s),
            "gaussian-upper": np.log((np.exp(0.5 * (1.0 - lam ** 2)) * lam) ** q / s),
            "unitball": np.log(lam ** q / s),
        }
        for kind, expected in want.items():
            a, b = growth_parts(kind, lam)
            np.testing.assert_allclose(a + q * b, expected, rtol=1e-12, atol=1e-15,
                                       err_msg=kind)


class TestSupremumResult:
    def test_as_dict(self):
        res = SupremumResult(argmax=0.25, value=1.5, bracket=(0.2, 0.3),
                             evaluations=100)
        d = res.as_dict()
        assert d == {"value": 1.5, "argmax": 0.25, "bracket": [0.2, 0.3],
                     "evaluations": 100, "discontinuities": []}

    def test_bracket_invariant(self):
        with pytest.raises(ValueError):
            SupremumResult(argmax=0.5, value=1.0, bracket=(0.6, 0.7), evaluations=3)


# --- the batched searches against the scalar loops they replaced ------------
#
# Test-local copies of the one-bracket bisection, the one-crossing-at-a-time
# jump locator and the piece-by-piece maximizer.  The batched searches must
# give the same floats (compared as float.hex) and the same counts.

def _scalar_find_root(g, lo, hi, tol=1e-12):
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    assert g_lo * g_hi < 0.0
    for _ in range(_ROOT_MAX_ITER):
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


def _scalar_jump_locator(a, b):
    nu_a = float(_annulus_exponent(np.asarray(a)))
    nu_b = float(_annulus_exponent(np.asarray(b)))
    if not math.isfinite(nu_a):
        return []
    lo_int = math.floor(nu_a) + 1
    hi_int = math.floor(nu_b) if math.isfinite(nu_b) else lo_int + _JUMP_CAP
    out = []
    for j in range(lo_int, hi_int + 1):
        if len(out) >= _JUMP_CAP:
            break
        out.append(_scalar_find_root(
            lambda x, jj=j: float(_annulus_exponent(np.asarray(x))) - jj, a, b, tol=1e-15))
    return out


def _scalar_golden_max(f, a, b, tol):
    x1 = b - (math.sqrt(5.0) - 1.0) / 2.0 * (b - a)
    x2 = a + (math.sqrt(5.0) - 1.0) / 2.0 * (b - a)
    f1, f2 = f(x1), f(x2)
    best = max((f1, x1), (f2, x2))
    evals = 2
    for _ in range(300):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + (math.sqrt(5.0) - 1.0) / 2.0 * (b - a)
            f2 = f(x2)
            best = max(best, (f2, x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - (math.sqrt(5.0) - 1.0) / 2.0 * (b - a)
            f1 = f(x1)
            best = max(best, (f1, x1))
        evals += 1
    return best[1], best[0], evals


def _scalar_maximize(f, lo, hi, tol=1e-12, *, pre_scan=2049, jump_locator=None,
                     grid_f=None):
    xs = np.linspace(lo, hi, pre_scan)
    vals = np.array([float(f(float(x))) for x in xs]) if grid_f is None else grid_f(xs)
    i = int(np.nanargmax(vals))
    evals = pre_scan
    cell_lo, cell_hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, pre_scan - 1)])
    best_x, best_v = float(xs[i]), float(vals[i])
    jumps = []
    if jump_locator is not None:
        jumps = sorted(j for j in jump_locator(cell_lo, cell_hi) if cell_lo <= j <= cell_hi)
    edges = [cell_lo, *jumps, cell_hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if not b > a:
            continue
        a_in, b_in = np.nextafter(a, b), np.nextafter(b, a)
        if b_in <= a_in:
            continue
        x, fx, n = _scalar_golden_max(f, a_in, b_in, tol)
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


def _hex(obj):
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return [_hex(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    return obj


def _scalar_search(kind, *, p=None, pre_scan=2049):
    def objective(lam):
        if p is None:
            return critical_exponent(kind, lam)
        return _log_alpha(*growth_parts(kind, lam), p)

    locator = _scalar_jump_locator if kind == "general" else None
    return _scalar_maximize(objective, _ENDPOINT_GAP, LAMBDA_MAX - _ENDPOINT_GAP,
                            pre_scan=pre_scan, jump_locator=locator, grid_f=objective)


class TestBatchedFindRoot:
    """Each element of a batched find_root is the scalar bisection's float."""

    @staticmethod
    def _family(c, sign):
        # sign * (x - c) (1 + x^2): +, -, * only, so array and scalar agree
        def g(x):
            return sign * ((x - c) * (1.0 + x * x))
        return g

    def _check(self, lo, hi, c, sign, tol=1e-12):
        got = find_root(self._family(c, sign), lo, hi, tol=tol)
        assert got.shape == lo.shape
        for i in range(lo.size):
            want = _scalar_find_root(self._family(c[i], sign[i]), float(lo[i]),
                                     float(hi[i]), tol=tol)
            assert float(got[i]).hex() == float(want).hex(), (i, lo[i], hi[i], c[i])
            alone = find_root(self._family(c[i], sign[i]), float(lo[i]), float(hi[i]),
                              tol=tol)
            assert type(alone) is float and alone.hex() == float(want).hex()
            one = find_root(self._family(c[i], sign[i]), lo[i:i + 1], hi[i:i + 1], tol=tol)
            assert one.shape == (1,) and float(one[0]).hex() == float(want).hex()

    @pytest.mark.parametrize("tol", [1e-12, 1e-15, 0.0])
    def test_random_brackets_both_orientations(self, tol):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-3.0, 1.0, 300)
        hi = lo + 10.0 ** rng.uniform(-14.0, 1.0, 300)
        c = lo + rng.uniform(0.0, 1.0, 300) * (hi - lo)
        sign = rng.choice([-1.0, 1.0], 300)
        self._check(lo, hi, c, sign, tol)

    def test_exact_zeros(self):
        # roots at lo, at hi, and at the first, second and fifth midpoints
        lo = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
        hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        c = np.array([0.0, 1.0, 0.5, 0.25, 0.40625, 0.3])
        sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        self._check(lo, hi, c, sign)
        assert find_root(self._family(c, sign), lo, hi)[:5].tolist() == c[:5].tolist()

    def test_brackets_of_a_few_ulps(self):
        base = np.array([0.3, 1.0, -2.5, 1e-300, 7.0, 0.1])
        ulps = np.array([1, 2, 3, 1, 2, 3])
        hi = base.copy()
        for _ in range(3):
            hi = np.where(ulps > 0, np.nextafter(hi, np.inf), hi)
            ulps = ulps - 1
        c = np.nextafter(base, np.inf)
        sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        self._check(base, hi, c, sign, tol=0.0)
        with pytest.raises(ValueError, match="need lo < hi"):  # a bracket of 0 ulps
            find_root(self._family(c, sign), base, np.where(np.arange(6) == 2, base, hi))

    def test_mixed_finishing_steps(self):
        # width, a midpoint that no longer splits, an exact zero, the step
        # cap (a root at 1e-300 from [0, 1] needs ~1000 halvings) and a
        # late stop, all in one batch
        lo = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -4.0])
        hi = np.array([1.0, 1.0, 1.0, 1.0, np.nextafter(1.0, 2.0), 1e9])
        c = np.array([0.1, 0.40625, 1e-300, 0.7, 1.0, 123.456])
        sign = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0])
        for tol in (0.0, 1e-9):
            self._check(lo, hi, c, sign, tol)

    def test_wrong_shape_refused(self):
        # a callable must be vectorized: a result of another shape is refused
        # by find_root and maximize_scalar alike, naming both shapes
        lo, hi = np.array([3.0, 6.0, -0.5]), np.array([3.5, 6.5, 0.3])
        with pytest.raises(ValueError, match=r"shape \(2,\) on an array of shape \(3,\)"):
            find_root(lambda x: np.zeros(2), lo, hi)
        with pytest.raises(ValueError, match=r"shape \(\) on an array of shape \(9,\)"):
            maximize_scalar(lambda x: 1.0, 0.0, 1.0, pre_scan=9)

    def test_no_bracket_in_one_element(self):
        with pytest.raises(BracketError, match=r"no sign change on \[2.0, 3.0\]"):
            find_root(lambda x: x - 1.0, np.array([0.0, 2.0]), np.array([2.0, 3.0]))


class TestBatchedJumpSearch:
    """The batched locator and lockstep refinement keep the scalar floats."""

    @pytest.mark.parametrize("a,b", [
        (0.0068, 0.0069), (0.0393, 0.0395), (0.005, 0.045), (0.0394, 0.0394000001),
        (LAMBDA_MAX - 2e-4, LAMBDA_MAX - 1e-9), (0.1, 0.11)])
    def test_locator_is_the_scalar_locator(self, a, b):
        got = _jump_locator_general(a, b)
        want = _scalar_jump_locator(a, b)
        assert _hex(got) == _hex(want)
        assert all(type(x) is float for x in got)

    def test_locator_finds_nothing_where_sin_b0_rounds_to_one(self):
        # the annulus exponent is +inf from the cell's start on, so no
        # integer crossing lies in it
        a = LAMBDA_MAX - 1e-9
        assert _annulus_exponent(a) == math.inf
        assert _jump_locator_general(a, LAMBDA_MAX) == []

    def test_locator_caps_the_crowded_cell(self):
        # next to sqrt(2)-1 the annulus exponent diverges: 128 crossings
        res = max_growth_base_log("general", 1.02)
        got = _jump_locator_general(*res.bracket)
        assert len(got) == _JUMP_CAP
        assert _hex(got) == _hex(_scalar_jump_locator(*res.bracket))

    @pytest.mark.parametrize("p", [1.0006, 1.001, 1.005, 1.01, 1.02, 1.05])
    def test_general_growth_search_is_the_scalar_search(self, p):
        got = max_growth_base_log("general", p).as_dict()
        assert _hex(got) == _hex(_scalar_search("general", p=p).as_dict())

    @pytest.mark.parametrize("kind", GROWTH_KINDS)
    @pytest.mark.parametrize("pre_scan", [2049, 257])
    def test_p0_search_is_the_scalar_search(self, kind, pre_scan):
        got = EXPONENT_SEARCHES[kind](pre_scan=pre_scan).as_dict()
        assert _hex(got) == _hex(_scalar_search(kind, pre_scan=pre_scan).as_dict())
