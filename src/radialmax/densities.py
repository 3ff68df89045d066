"""Radially decreasing densities: d(mu) = f(|x|) dx with f nonincreasing.

All evaluation happens through ``log_density``, which accepts numpy arrays
and returns -inf outside the support.  The three kinds, each a finite
measure in every dimension:

  gaussian   f(s) = exp(-pi s^2), the normalization with total mass 1 in
             every dimension
  unitball   f = 1 on [0, 1], 0 beyond: Lebesgue measure restricted to the
             closed unit ball
  tabulated  piecewise-constant, left-continuous log f from samples; zero
             beyond the last knot

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .logspace import LOG_ZERO


class RadialDensity:
    """A measure f(|x|) dx, finite in every dimension; subclasses fill in log_density."""

    kind: str = "?"
    support_upper_bound: float = math.inf

    def log_density(self, s):
        raise NotImplementedError

    @property
    def log_density_at_zero(self) -> float:
        return float(self.log_density(np.asarray([0.0]))[0])

    def peak_radius(self, n: int):
        """Interior maximizer of f(s) s^(n-1) when known analytically, else None."""
        return None

    def probe_points(self) -> tuple:
        """Radii the quadrature probe grid should always include."""
        return ()

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(RadialDensity):
    """f(s) = exp(-pi s^2); log f is exactly -pi s^2."""

    kind = "gaussian"

    def log_density(self, s):
        s = np.asarray(s, dtype=float)
        return -math.pi * s * s

    def peak_radius(self, n: int):
        # maximizer of exp(-pi s^2) s^(n-1)
        return math.sqrt(max(n - 1, 0) / (2.0 * math.pi))


class UnitBallIndicator(RadialDensity):
    kind = "unitball"
    support_upper_bound = 1.0

    def log_density(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 1.0, 0.0, LOG_ZERO)


class TabulatedDecreasing(RadialDensity):
    """Sampled log-density, evaluated as a left-continuous step function.

    f(s) = values[0] for s <= radii[0], values[i] on (radii[i-1], radii[i]],
    and 0 beyond the last knot.  Construction rejects any consecutive
    increase so the radially-decreasing contract holds by inspection.
    """

    kind = "tabulated"

    def __init__(self, radii, log_values):
        radii = np.asarray(radii, dtype=float)
        vals = np.asarray(log_values, dtype=float)
        if radii.ndim != 1 or radii.shape != vals.shape or radii.size == 0:
            raise ValueError("radii and log_values must be equal-length 1-D samples")
        if np.any(radii < 0) or np.any(~np.isfinite(radii)):
            raise ValueError("radii must be finite and nonnegative")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if np.any(np.isnan(vals)) or np.any(vals == math.inf):
            raise ValueError("log densities must be < +inf and not NaN")
        if np.any(vals[1:] > vals[:-1]):  # no subtraction: -inf - -inf would warn
            raise ValueError("log densities must be nonincreasing (radially decreasing f)")
        if vals[0] == LOG_ZERO:
            raise ValueError("density is identically zero")
        self._radii = radii
        # one table read per point: past the last knot, and at NaN, the
        # search lands on the appended zero
        self._table = np.append(vals, LOG_ZERO)
        self.support_upper_bound = float(radii[-1])

    def log_density(self, s):
        return self._table[np.searchsorted(self._radii, s, side="left")]

    def probe_points(self) -> tuple:
        return tuple(self._radii)

    @classmethod
    def from_file(cls, path):
        """Two-column text format: lines "s logf", '#' comments ignored.

        A line that is not two numbers is a ``ValueError`` naming ``path:line``.
        """
        radii, vals = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 's logf', got {raw!r}")
                try:
                    radii.append(float(parts[0]))
                    vals.append(float(parts[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(radii, vals)


MEASURE_KINDS = ("gaussian", "unitball", "tabulated")


def density_from_name(name: str, density_file=None) -> RadialDensity:
    """CLI-facing selector: one of MEASURE_KINDS (tabulated needs a file)."""
    key = name.lower()
    if key == "gaussian":
        return Gaussian()
    if key == "unitball":
        return UnitBallIndicator()
    if key == "tabulated":
        if density_file is None:
            raise ValueError("tabulated measure needs a density file")
        return TabulatedDecreasing.from_file(density_file)
    raise ValueError(f"unknown measure {name!r}")
