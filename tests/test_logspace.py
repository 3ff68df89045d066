import numpy as np
import pytest
from hypothesis import given, strategies as st

from radialmax.logspace import LOG_ZERO, log_add

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
