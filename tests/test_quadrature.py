import math

import numpy as np
import pytest

from radialmax.logspace import LOG_ZERO
from radialmax.quadrature import LogIntegralResult, integrate, log_integral


def test_polynomial_is_exact():
    res = integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-14)
    assert res.converged


def test_oscillatory_to_tolerance():
    # int_0^10 sin^2(x) dx = 5 - sin(20)/4
    expected = 5.0 - math.sin(20.0) / 4.0
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, 10.0, rel_tol=1e-12)
    assert res.value == pytest.approx(expected, rel=1e-11)


def test_splits_handle_kinks():
    res = integrate(np.abs, -1.0, 1.0, splits=[0.0])
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_empty_interval():
    assert integrate(lambda x: x, 1.0, 1.0).value == 0.0
    assert log_integral(lambda x: np.zeros_like(x), 2.0, 2.0).log_value == LOG_ZERO


def test_eval_cap_flags_not_converged():
    res = integrate(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                    rel_tol=1e-15, max_evals=200)
    assert not res.converged
    assert res.evaluations >= 200
    assert res.value == pytest.approx(4.0 / 3.0, rel=1e-3)


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


def test_log_integral_skips_zero_plateau():
    # integrand vanishes on [2, 10]; window should confine to [0, 2]
    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 2.0, 0.0, LOG_ZERO)

    res = log_integral(phi, 0.0, 10.0, splits=[2.0])
    assert res.log_value == pytest.approx(math.log(2.0), rel=1e-10)
    assert isinstance(res, LogIntegralResult)
