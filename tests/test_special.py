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


def test_against_stdlib_twelve_digits():
    zs = np.concatenate([np.linspace(0.05, 4.0, 80),
                         np.geomspace(4.0, 5.0e5, 60)])
    ours = lgamma(zs)
    ref = np.array([math.lgamma(z) for z in zs])
    # relative where ref is away from zero, absolute near the lgamma zeros
    err = np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)
    assert float(err.max()) < 1e-12


def test_array_and_scalar_shapes():
    assert isinstance(lgamma(3.0), float)
    out = lgamma(np.array([1.0, 2.0, 3.0]))
    assert out.shape == (3,)
    assert np.allclose(out, [0.0, 0.0, math.log(2.0)], atol=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        lgamma(0.0)
    with pytest.raises(ValueError):
        lgamma(-1.5)
    with pytest.raises(ValueError):
        lgamma(float("nan"))


def test_scalar_path_gives_the_array_floats():
    # a scalar runs on Python floats, with numpy only for the logs; it must
    # give the array path's float everywhere, on both sides of the 1/2 lift
    rng = np.random.default_rng(5)
    zs = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(1e7), 40000)),
                         0.5 * np.arange(1, 2001) + 1.0,
                         [np.nextafter(0.5, 0.0), 0.5, 1e-300, 1.0, 2.0]])
    want = [x.hex() for x in lgamma(zs).tolist()]
    assert [lgamma(z).hex() for z in zs.tolist()] == want
    # numpy scalars and 0-d arrays take the scalar path too
    assert lgamma(np.float64(zs[0])).hex() == want[0]
    assert lgamma(np.array(zs[1])).hex() == want[1]
    assert lgamma(3).hex() == lgamma(np.array([3.0]))[0].hex()
