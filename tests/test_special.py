import math

import numpy as np
import pytest

from radialmax.special import lgamma


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
