import math

import numpy as np
import pytest

from radialmax.bounds import growth_parts
from radialmax.errors import BracketError
from radialmax.optimize import (EXPONENT_SEARCHES, LAMBDA_MAX, SupremumResult,
                                critical_exponent, find_root, growth_base_log,
                                max_growth_base_log, maximize_scalar, p0_gaussian,
                                p0_general, p0_unitball, p1_gaussian)

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
        from radialmax.geometry import contact_angle
        lam, k, n = 0.2, 1.0 / 21.0, 7
        s = math.sin(contact_angle(lam))

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
        # the searches evaluate arrays, the constructions scalars: same floats
        a, b = growth_parts(kind, LAM_GRID)
        q = (1.02 - 1.0) / 1.02
        for i, lam in enumerate(LAM_GRID):
            assert growth_base_log(kind, 1.02, lam) == a[i] + q * b[i]
            assert critical_exponent(kind, lam) == critical_exponent(kind, LAM_GRID)[i]

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
