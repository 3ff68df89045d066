import math
import warnings

import numpy as np
import pytest

from radialmax.densities import (MEASURE_KINDS, Gaussian, TabulatedDecreasing,
                                 UnitBallIndicator, density_from_name)
from radialmax.logspace import LOG_ZERO


def test_gaussian_log_density_exact():
    g = Gaussian()
    s = np.array([0.0, 0.5, 2.0])
    assert np.allclose(g.log_density(s), -math.pi * s ** 2)
    assert g.log_density_at_zero == 0.0
    assert g.peak_radius(3) == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)))


def test_unitball_indicator():
    u = UnitBallIndicator()
    out = u.log_density(np.array([0.0, 1.0, 1.0 + 1e-12, 5.0]))
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == LOG_ZERO and out[3] == LOG_ZERO
    assert u.support_upper_bound == 1.0


def test_tabulated_two_zero_steps_in_a_row():
    # the monotonicity check subtracts nothing, so -inf - -inf cannot warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = TabulatedDecreasing([0.5, 1.0, 2.0], [0.0, -math.inf, -math.inf])
        out = t.log_density(np.array([0.0, 0.5, 0.5000001, 1.0, 1.5, 2.0, 3.0]))
    assert out[0] == 0.0 and out[1] == 0.0
    assert np.all(out[2:] == LOG_ZERO)


def test_tabulated_step_semantics():
    t = TabulatedDecreasing([0.5, 1.0, 2.0], [0.0, -1.0, -3.0])
    s = np.array([0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 2.1])
    out = t.log_density(s)
    assert out[0] == 0.0       # below first knot: first value
    assert out[1] == 0.0       # left-continuous at the knot
    assert out[2] == -1.0
    assert out[3] == -1.0
    assert out[4] == -3.0
    assert out[5] == -3.0
    assert out[6] == LOG_ZERO  # beyond support
    assert t.support_upper_bound == 2.0
    assert t.probe_points() == (0.5, 1.0, 2.0)



def _chained_log_density(radii, vals, s):
    """The tabulated lookup as four numpy calls, before it read one table."""
    s = np.asarray(s, dtype=float)
    idx = np.searchsorted(radii, s, side="left")
    return np.where(idx < radii.size, vals[np.minimum(idx, radii.size - 1)], LOG_ZERO)


@pytest.mark.parametrize("seed", range(6))
def test_tabulated_lookup_same_floats_as_chained_lookup(seed):
    rng = np.random.default_rng(seed)
    knots = int(rng.integers(1, 33))
    radii = np.sort(rng.uniform(0.0, 3.0, knots))
    vals = np.concatenate([[rng.uniform(-5.0, 5.0)], -rng.exponential(0.5, knots - 1)])
    vals = np.cumsum(vals)
    if seed % 2 and knots > 1:
        vals[-1] = LOG_ZERO  # zero on its last step, before the last knot
    if seed == 2:
        vals[0] = -0.0
    t = TabulatedDecreasing(radii, vals)
    between = 0.5 * (radii[:-1] + radii[1:])
    s = np.concatenate([
        radii, np.nextafter(radii, -np.inf), np.nextafter(radii, np.inf), between,
        rng.uniform(-1.0, 4.0, 200),
        [0.0, -0.0, -1.0, radii[-1] + 1.0, 1e300, math.nan, math.inf, -math.inf]])
    want = _chained_log_density(radii, vals, s)
    got = t.log_density(s)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
    # a 2-D batch, as the fixed rule passes its nodes
    grid = s[:len(s) // 4 * 4].reshape(-1, 4)
    assert t.log_density(grid).tobytes() == _chained_log_density(radii, vals, grid).tobytes()

def test_tabulated_monotonicity_is_enforced():
    with pytest.raises(ValueError):
        TabulatedDecreasing([0.0, 1.0], [-1.0, 0.0])  # increasing sample
    with pytest.raises(ValueError):
        TabulatedDecreasing([1.0, 1.0], [0.0, -1.0])  # radii not increasing
    with pytest.raises(ValueError):
        TabulatedDecreasing([0.0, 1.0], [0.0, float("nan")])
    with pytest.raises(ValueError):
        TabulatedDecreasing([0.0], [LOG_ZERO])  # identically zero


def test_tabulated_from_file(tmp_path):
    p = tmp_path / "density.txt"
    p.write_text(
        "# radius  log-density\n"
        "0.5   0.0\n"
        "1.0  -1.0   # step down\n"
        "\n"
        "2.0  -3.0\n",
        encoding="utf-8",
    )
    t = TabulatedDecreasing.from_file(p)
    assert t.support_upper_bound == 2.0
    assert t.log_density(np.array([0.9]))[0] == -1.0

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 0.0 extra\n", encoding="utf-8")
    with pytest.raises(ValueError):
        TabulatedDecreasing.from_file(bad)
    bad.write_text("0.5 0.0\n\n1.0 abc\n", encoding="utf-8")
    with pytest.raises(ValueError) as got:
        TabulatedDecreasing.from_file(bad)
    assert str(got.value) == f"{bad}:3: could not convert string to float: 'abc'"


def test_density_from_name(tmp_path):
    assert density_from_name("gaussian").kind == "gaussian"
    assert density_from_name("UNITBALL").kind == "unitball"
    p = tmp_path / "d.txt"
    p.write_text("1.0 0.0\n", encoding="utf-8")
    assert density_from_name("tabulated", p).kind == "tabulated"
    # the CLI's --measure choices are exactly the kinds the selector builds
    assert [density_from_name(k, p).kind for k in MEASURE_KINDS] == list(MEASURE_KINDS)
    with pytest.raises(ValueError):
        density_from_name("tabulated")
    for name in ("cauchy", "lebesgue"):  # every kind is a finite measure
        with pytest.raises(ValueError, match="unknown measure"):
            density_from_name(name)
