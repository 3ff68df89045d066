"""The log domain of nonnegative quantities, and its zero ``LOG_ZERO``.

Every measure value in this library is carried as ``log(value)`` with
``-inf`` standing for zero.  That representation survives dimensions up to
10**6 where the linear values under- or overflow hopelessly.  ``nan`` and
``+inf`` are never legal: the former is a bug, the latter would mean an
infinite measure, which callers must reject explicitly.
"""

from __future__ import annotations

LOG_ZERO = float("-inf")
