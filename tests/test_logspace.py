import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from radialmax.logspace import LOG_ZERO, log_add, log_sub, log_sum

finite_logs = st.floats(min_value=-700.0, max_value=700.0,
                        allow_nan=False, allow_infinity=False)


def test_zero_element_is_exact():
    assert log_add(3.7, LOG_ZERO) == 3.7
    assert log_add(LOG_ZERO, -123.4) == -123.4
    assert log_add(LOG_ZERO, LOG_ZERO) == LOG_ZERO


@given(finite_logs, finite_logs)
def test_log_add_matches_linear(a, b):
    expected = np.logaddexp(a, b)
    assert log_add(a, b) == pytest.approx(expected, rel=1e-15)


@given(finite_logs, finite_logs)
def test_log_add_commutes(a, b):
    assert log_add(a, b) == log_add(b, a)


def test_log_sub_basic():
    # e^a - e^b with a = log 5, b = log 2 -> log 3
    assert log_sub(math.log(5.0), math.log(2.0)) == pytest.approx(math.log(3.0), rel=1e-14)
    assert log_sub(2.5, 2.5) == LOG_ZERO
    assert log_sub(1.0, LOG_ZERO) == 1.0
    with pytest.raises(ValueError):
        log_sub(1.0, 2.0)


@given(finite_logs, finite_logs)
def test_add_then_sub_roundtrip(a, b):
    total = log_add(a, b)
    back = log_sub(total, min(a, b))
    assert back == pytest.approx(max(a, b), rel=1e-9, abs=1e-9)


def test_log_sum():
    assert log_sum([]) == LOG_ZERO
    assert log_sum([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    vals = [0.1, -3.0, 2.2, LOG_ZERO]
    expected = math.log(sum(math.exp(v) for v in vals[:3]))
    assert log_sum(vals) == pytest.approx(expected, rel=1e-14)
    assert log_sum(np.array([1.0, 1.0])) == pytest.approx(1.0 + math.log(2.0), rel=1e-14)
