"""Log-gamma, from the standard library, and the log of the regularized
lower incomplete gamma function P(a, x).

The library needs log Gamma for sphere areas at dimensions up to 10**6.
``math.lgamma`` is more accurate there than a 9-term Lanczos sum: on the
tests' seeded arguments its worst error against 40-digit mpmath is 1.2e-15
relative to max(1, |log Gamma|), the Lanczos sum's 2.8e-15.  It is also
about 40 times faster, and the library already takes its other elementary
functions from ``math``, so its floats depend on the platform's libm
either way.  Every other module reaches log Gamma through this one name.

``_log_gamma_p`` is log P(a, x), which for the Gaussian exp(-pi s^2) is the
log of the centered ball's measure, P(n/2, pi rho^2).  Its prefactor
x^a e^-x / Gamma(a + 1) is written as in C. Loader, "Fast and accurate
computation of binomial probabilities" (2000): -bd0(a, x) - log(2 pi a)/2
- stirlerr(a), with no log Gamma of a large argument, whose ulp alone is
1e-10 at a = 5e5.  Below x = a + 1 the series sum_k x^k/((a+1)...(a+k))
multiplies it; above, Lentz's continued fraction gives Q = 1 - P.  The
series runs through ``np.multiply.accumulate`` and ``np.add.accumulate``
(cumprod and cumsum), which multiply and add left to right, so its floats
depend neither on numpy's SIMD kernels nor on how many terms a chunk holds.
Against 50-digit mpmath it is within 1e-12 relative to max(1, |log P|) up
to a = 5e5 (the tests' grid reads at most 4e-15).
"""

from __future__ import annotations

import math

import numpy as np

from .logspace import LOG_ZERO

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SERIES_CHUNK = 1 << 16  # the most terms of the series taken at once
_CF_TINY = 1e-300  # Lentz's guard against a zero denominator


def lgamma(z: float) -> float:
    """log Gamma(z) for one real z, finite and > 0."""
    z = float(z)
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError("lgamma requires finite z > 0")
    return math.lgamma(z)


def _stirlerr(a: float) -> float:
    """log Gamma(a + 1) - (a + 1/2) log a + a - log sqrt(2 pi), for a > 0.

    Above a = 15, Stirling's series to Loader's depth for each range (the
    first term left out is below 3e-14); at and below it, through lgamma,
    whose argument is then at most 16.
    """
    if a <= 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _HALF_LOG_2PI
    aa = a * a
    if a > 500.0:
        return (1.0 / 12 - 1.0 / 360 / aa) / a
    if a > 80.0:
        return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / aa) / aa) / a
    if a > 35.0:
        return (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - 1.0 / 1680 / aa) / aa) / aa) / a
    return (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - 1.0 / 1188 / aa) / aa)
                        / aa) / aa) / a


def _bd0(a: float, x: float) -> float:
    """a log(a/x) + x - a >= 0 for a, x > 0, without cancellation near x = a."""
    d = a - x
    if abs(d) < 0.1 * (a + x):
        # a log(a/x) + x - a = d v + 2a (v^3/3 + v^5/5 + ...), v = d/(a + x)
        v = d / (a + x)
        total, term, v2, j = d * v, 2.0 * a * v, v * v, 1
        while True:
            term *= v2
            grown = total + term / (2 * j + 1)
            if grown == total:
                return total
            total, j = grown, j + 1
    ratio = a / x
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(a) - math.log(x)
    return a * log_ratio + x - a


def _log_series(a: float, x: float) -> float:
    """log sum_{k>=0} x^k/((a+1)...(a+k)) for 0 < x < a + 1.

    Every ratio x/(a+j) is below 1, so the terms fall, and once a term leaves
    the sum unchanged every later one does: the chunk whose last term changes
    nothing holds the sum of the whole series, taken left to right.
    """
    total = term = 1.0
    first, size = 1, 256
    while True:
        terms = x / (a + np.arange(first, first + size, dtype=float))
        terms[0] *= term
        np.multiply.accumulate(terms, out=terms)
        term = float(terms[-1])
        terms[0] += total
        np.add.accumulate(terms, out=terms)
        total = float(terms[-1])
        if terms[-2] == total:
            return math.log(total)
        first, size = first + size, min(2 * size, _SERIES_CHUNK)


def _log_cf_upper(a: float, x: float) -> float:
    """log of Q's continued fraction 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...)))
    for x >= a + 1, evaluated by the modified Lentz method."""
    b = x + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    i = 1
    while True:
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) <= 2.2e-16:
            return math.log(h)
        i += 1


def _log_gamma_p(a: float, x: float) -> float:
    """log P(a, x), the regularized lower incomplete gamma, for finite a > 0
    and finite x >= 0; x = 0 gives LOG_ZERO.

    The series for x < a + 1; above, log1p(-Q) with Q from the continued
    fraction, so where P rounds to 1 the result keeps Q's relative precision.
    """
    a, x = float(a), float(x)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"log P(a, x) needs a finite a > 0, got a = {a!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"log P(a, x) needs a finite x >= 0, got x = {x!r}")
    if x == 0.0:
        return LOG_ZERO
    log_prefactor = -_bd0(a, x) - 0.5 * math.log(2.0 * math.pi * a) - _stirlerr(a)
    if x < a + 1.0:
        return log_prefactor + _log_series(a, x)
    # Q = x^a e^-x / Gamma(a) * fraction = a * prefactor * fraction
    return math.log1p(-math.exp(math.log(a) + log_prefactor + _log_cf_upper(a, x)))
