"""Log-gamma, from the standard library.

The library needs log Gamma for sphere areas at dimensions up to 10**6.
``math.lgamma`` is more accurate there than a 9-term Lanczos sum: on the
tests' seeded arguments its worst error against 40-digit mpmath is 1.2e-15
relative to max(1, |log Gamma|), the Lanczos sum's 2.8e-15.  It is also
about 40 times faster, and the library already takes its other elementary
functions from ``math``, so its floats depend on the platform's libm
either way.  Every caller reaches log Gamma through this one name.
"""

from __future__ import annotations

import math


def lgamma(z: float) -> float:
    """log Gamma(z) for one real z, finite and > 0."""
    z = float(z)
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError("lgamma requires finite z > 0")
    return math.lgamma(z)
