import math

import numpy as np
import pytest

from radialmax import special
from radialmax.logspace import LOG_ZERO
from radialmax.special import _log_gamma_p, lgamma


def test_gamma_half_is_sqrt_pi():
    assert lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("k", range(1, 21))
def test_integer_factorials(k):
    # Gamma(k) = (k-1)!
    expected = math.log(math.factorial(k - 1)) if k > 1 else 0.0
    assert lgamma(float(k)) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def _argument_sample(rng):
    """Uniform in [1e-3, 30], log-uniform in [1e-3, 6e5], and n/2 + 1 for n up
    to 10**6: the arguments the sphere areas take, and the rest of the range."""
    n = np.unique(np.exp(rng.uniform(0.0, math.log(1e6), 4000)).astype(int))
    return np.concatenate([rng.uniform(1e-3, 30.0, 4000),
                           np.exp(rng.uniform(math.log(1e-3), math.log(6e5), 4000)),
                           0.5 * n + 1.0, [0.5 * 1e6 + 1.0]]).tolist()


def test_against_mpmath_loggamma():
    # relative to max(1, |log Gamma|): absolute near the zeros at 1 and 2.
    # The standard library's worst here is 1.2e-15; a 9-term Lanczos sum's
    # was 2.8e-15
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in _argument_sample(np.random.default_rng(22)):
            ref = float(mpmath.loggamma(mpmath.mpf(z)))
            assert abs(lgamma(z) - ref) <= 2.5e-15 * max(1.0, abs(ref)), z


def test_returns_a_python_float():
    # integers, numpy scalars and 0-d arrays give the float of 3.0
    values = [lgamma(z) for z in (3.0, 3, np.float64(3.0), np.array(3.0))]
    assert all(type(v) is float for v in values)
    assert values == [lgamma(3.0)] * 4
    assert values[0] == pytest.approx(math.log(2.0), rel=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        lgamma(0.0)
    with pytest.raises(ValueError):
        lgamma(-1.5)
    with pytest.raises(ValueError):
        lgamma(float("nan"))


# --- log P(a, x), the regularized lower incomplete gamma -------------------

def _mp_log_gamma_p(a, x):
    """log P(a, x) as an mpmath number, at the caller's working precision.

    Above x = a it is log1p(-Q), Q from ``mpmath.gammainc``, which keeps Q's
    relative precision where P rounds to 1 (and takes milliseconds where the
    series below took 23 s, at n = 10**6, x = 1.5 a); where gammainc does not
    converge, and at and below x = a, it is the prefactor
    x^a e^-x / Gamma(a + 1) times 1F1(1; a + 1; x).
    """
    mpmath = pytest.importorskip("mpmath")
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    if x > a:
        try:
            return mpmath.log1p(-mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        except mpmath.libmp.NoConvergence:
            pass
    prefactor = a * mpmath.log(x) - x - mpmath.loggamma(a + 1)
    return prefactor + mpmath.log(mpmath.hyp1f1(1, a + 1, x, maxterms=10**7))


@pytest.mark.parametrize("n", [1, 2, 5, 37, 300, 5000, 10**5, 10**6])
def test_log_gamma_p_against_mpmath(n):
    # to 1e-12 relative to max(1, |log P|); log Gamma(a + 1) in the prefactor
    # was 7.4e-11 off at n = 10**5, x = a, and 5.7e-10 at n = 10**6, x = 0.99 a
    mpmath = pytest.importorskip("mpmath")
    a = 0.5 * n
    for ratio in (0.3, 0.6, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5):
        x = ratio * a
        with mpmath.workdps(50):
            want = float(_mp_log_gamma_p(a, x))
        assert abs(_log_gamma_p(a, x) - want) <= 1e-12 * max(1.0, abs(want)), (n, ratio)


@pytest.mark.parametrize("a,x", [(0.5, 40.0), (0.5, 700.0), (3.0, 745.0), (37.0, 60.0),
                                 (2500.0, 3750.0), (5e4, 5.5e4), (5e5, 5.04e5)])
def test_log_gamma_p_above_the_mode_keeps_q_precision(a, x):
    # above x = a + 1, log P = log1p(-Q) keeps Q's relative precision, also
    # where P rounds to 1, down to a subnormal Q: log(prefactor * series)
    # would give 0 or a rounding error there
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(mpmath.log1p(-mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
    got = _log_gamma_p(a, x)
    assert got < 0.0
    assert abs(got - want) <= 1e-12 * abs(want), (a, x)


def test_log_gamma_p_edges():
    assert _log_gamma_p(3.5, 0.0) == LOG_ZERO
    # a tiny x: the prefactor alone, with no overflow in a/x
    mpmath = pytest.importorskip("mpmath")
    for a, x in [(0.5, 5e-324), (5e5, 5e-324), (5e5, 1e-300), (0.5, 1e-300)]:
        with mpmath.workdps(50):
            want = float(_mp_log_gamma_p(a, x))
        assert abs(_log_gamma_p(a, x) - want) <= 1e-15 * abs(want), (a, x)
    # Stirling's series and lgamma meet at a = 15 (a half-integer and an
    # integer on each side), the series' depth changes at 35, 80 and 500
    for a in (14.5, 15.0, 15.5, 35.0, 35.5, 80.0, 80.5, 500.0, 500.5):
        with mpmath.workdps(50):
            want = float(_mp_log_gamma_p(a, a))
        assert abs(_log_gamma_p(a, a) - want) <= 1e-14, a


@pytest.mark.parametrize("a,x", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                 (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
def test_log_gamma_p_refuses_nan_infinite_and_negative_arguments(a, x):
    name = "a" if not (math.isfinite(a) and a > 0.0) else "x"
    with pytest.raises(ValueError, match=f"got {name} = "):
        _log_gamma_p(a, x)


@pytest.mark.parametrize("a,x", [(0.5, 1.2), (150.0, 149.0), (5e5, 5e5), (5e5, 4.99e5)])
def test_log_gamma_p_series_is_sequential(a, x, monkeypatch):
    # the series is summed left to right, so chunks of one size or another
    # give one float: the floats depend on no SIMD kernel or summation order
    want = _log_gamma_p(a, x)
    monkeypatch.setattr(special, "_SERIES_CHUNK", 7)
    got = _log_gamma_p(a, x)
    term, total, k = 1.0, 1.0, 1
    while True:  # the same sum, one term at a time
        term *= x / (a + k)
        grown = total + term
        if grown == total:
            break
        total, k = grown, k + 1
    loop = (-special._bd0(a, x) - 0.5 * math.log(2.0 * math.pi * a) - special._stirlerr(a)
            + math.log(total))
    assert got.hex() == want.hex() == loop.hex()
