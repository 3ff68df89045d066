"""Brute-force ground truth at low dimension (n <= 6).

Evaluates the centered maximal function of the normalized indicator test
function g = chi(B_r)/mu(B_r) directly from its definition,

    Mg(rho) = sup_t  mu(B(rho xi, t) ∩ B_r) / (mu(B(rho xi, t)) mu(B_r)),

verifies the level-set inclusion that underpins the certified bound T,
produces empirical estimates of the operator constant, and cross-checks
the geometry quadrature by importance-sampled Monte Carlo.  Mg and the
estimates are returned as logs, which no scale of the density under- or
overflows.

Below r the sup is known: every t <= r - rho gives ratio 1, and no t
more, so Mg(rho) = 1/mu(B_r) for every rho < r.  From r on, the sup over
t runs on a 512-point log-spaced grid (the objective's scale spans
decades), zooms on the three best cells (the objective can be
multimodal: a ball swallowing B_r competes with one hugging it), and the
few surviving candidates are re-evaluated exactly, together with the
witness radius t = rho + r whose value already certifies the level-set
bound.  The exact pass calls ``geometry._log_measures`` for the numerator
and the denominator at once (the caps r and inf), the one exact route of
every off-center measure; the unit ball, a closed-form lens from n = 2 on,
goes through ``geometry``'s ``intersect_with_centered_ball`` and
``off_center_ball_measure``.  The scan integrates with
``quadrature.fixed_log_integral`` (24 panels of 8 nodes), in one call for
every t's numerator and denominator cap bands that are not empty and not
copies of each other (the three zooms share one scan); the rule runs the
rows in blocks, each with its own t, and the scan's integrand writes the
angle, the cap lookup and phi into work arrays its evaluator keeps, so a
warmed scan allocates no array the size of a block but the density's
log f, and takes no page faults.  At n = 1 a band radius holds one of
the two points +-s, with weight 1 and no cap
(``geometry._band_log_weight``), and the scan's band is half the ball
table's difference, taken in logs, at a sixth of the fixed rule's cost.  The
scan reads J_{n-2} from a table of 4097 angles, built once per dimension and
shared read-only, and the centered ball measure from a
``log_ball_measure_grid`` table: on these uniform grids a lookup finds a
point's cell by one multiplication and gives ``np.interp``'s float away from
a knot.  That table, the Monte Carlo inverse CDF and the cells of
``log_constant_estimate`` are ``measures._log_cells``, cut at the density's
knots.  Every cap integral here has exponent at most 6, so ``geometry``
gives it in elementary functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import _check_p
from .densities import RadialDensity, UnitBallIndicator
from .geometry import (_band_log_weight, _log_measures, intersect_with_centered_ball,
                       off_center_ball_measure)
from .logspace import LOG_ZERO
from .measures import (_log_cells, check_dimension, check_radius, log_ball_measure,
                       log_ball_measure_grid, log_sphere_area, radial_log_integrand, upper_cutoff)
from .quadrature import fixed_log_integral
from .serialize import csv_lines

MAX_ORACLE_DIMENSION = 6  # the dimensions its tests check
_SCAN_PANELS = 24
_SCAN_ORDER = 8
_TABLE_POINTS = 4097
_MC_KNOTS = 10_000
_MC_CHUNK = 1_000_000
_J_THETAS = np.linspace(0.0, math.pi, _TABLE_POINTS)
_J_THETAS.flags.writeable = False


@dataclass
class RadialProfile:
    """The log of a radial function sampled on an increasing grid, CSV-serializable."""

    radii: np.ndarray
    log_values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.log_values = np.asarray(self.log_values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.log_values.shape:
            raise ValueError("radii and log_values must be equal-length 1-D arrays")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")

    def to_csv(self) -> str:
        return csv_lines(self.meta, ["rho", "log_value"],
                         list(zip(self.radii.tolist(), self.log_values.tolist())))


@dataclass
class InclusionRow:
    rho: float
    log_mg: float
    log_threshold: float

    @property
    def margin(self) -> float:
        return self.log_mg - self.log_threshold


@dataclass
class InclusionReport:
    n: int
    R: float
    r: float
    kind: str
    rows: list
    log_threshold: float
    exact_fixed: int = 0     # exact candidates geometry's two-order fixed rule settled
    exact_geometry: int = 0  # the others: a row on the adaptive route, or the lens

    @property
    def min_margin(self) -> float:
        return min(row.margin for row in self.rows)

    @property
    def failures(self) -> list:
        return [row.rho for row in self.rows if row.margin <= 0.0]

    @property
    def passed(self) -> bool:
        return not self.failures


class _UniformLookup:
    """``np.interp(x, xp, fp)``'s formula on a ``np.linspace`` grid xp.

    A point's cell j is the integer part of (x - xp[0]) / h: the cell of x
    or, next to a knot, a neighbour.  Its value is numpy's own formula,
    slope[j] (x - xp[j]) + fp[j], with numpy's slopes: ``np.interp``'s
    float, except next to a knot, where it is the line of either piece that
    meets there.  ``np.interp`` itself takes the points outside [xp[0],
    xp[-1]], infinite x among them, and every result that is not finite: NaN
    x, a last knot read in its own cell (slope NaN) and the cells next to a
    -inf.  Read-only.

    ``out`` takes the values, and ``work`` is four arrays of x's shape: a
    float, an intp and two bools.  Given both, a lookup allocates nothing
    unless some point falls to ``np.interp``; missing ones are made, so an
    evaluator hands its own arrays to a lookup that evaluators share.
    """

    def __init__(self, xp: np.ndarray, fp: np.ndarray):
        self.xp, self.fp = xp, fp
        self._inv_h = (len(xp) - 1) / (xp[-1] - xp[0])
        self._offset = xp[0] * self._inv_h
        with np.errstate(invalid="ignore"):  # -inf - -inf
            slope = (fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1])
        self._slope = np.append(slope, np.nan)
        for table in (xp, fp, self._slope):
            table.flags.writeable = False

    def __call__(self, x, out=None, work=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        tmp, j, edge, beyond = work or (np.empty(x.shape), np.empty(x.shape, np.intp),
                                        np.empty(x.shape, bool), np.empty(x.shape, bool))
        out = np.multiply(x, self._inv_h, out=out)  # the cell coordinate first
        out -= self._offset
        # a NaN or infinite x casts to any index (astype's C cast); its value is np.interp's
        with np.errstate(invalid="ignore"):
            np.copyto(j, out, casting="unsafe")
            np.subtract(x, self.xp.take(j, mode="clip", out=tmp), out=out)
            out *= self._slope.take(j, mode="clip", out=tmp)
            out += self.fp.take(j, mode="clip", out=tmp)
        np.isfinite(out, out=edge)
        np.logical_not(edge, out=edge)
        edge |= np.less(x, self.xp[0], out=beyond)
        edge |= np.greater(x, self.xp[-1], out=beyond)
        if edge.any():
            out[edge] = np.interp(x[edge], self.xp, self.fp)
        return out


@lru_cache(maxsize=MAX_ORACLE_DIMENSION)
def _j_lookup(n: int) -> _UniformLookup:
    """The scan's lookup of log J_{n-2} (0 at n = 1) on its angle grid, once
    per dimension; read-only, and ``_j_lookup(n).fp`` is the table."""
    return _UniformLookup(_J_THETAS, _band_log_weight(n)[1](_J_THETAS))


def _check_count(name: str, value, least: int) -> int:
    """A grid size as an int; a bool, a non-integral value or one below ``least``
    is refused by a ValueError that names it (3.0 and ``np.int64(3)`` run as 3)."""
    if isinstance(value, (bool, np.bool_)) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


class _MaximalEvaluator:
    """Shared tables for repeated Mg evaluations at fixed (f, n, r).

    Scan-grade ratios come from ``fixed_log_integral`` with the cap integral
    and the radial mass read from ``_UniformLookup`` tables, and at n = 1 from
    the mass table alone; final values are exact (``geometry._log_measures``,
    or the unit ball's lens from n = 2 on).  ``exact_fixed`` counts the candidates
    whose four rows that rule's two orders settled, and ``exact_geometry`` the
    lens and the candidates with a row on the adaptive route.  The scan's work
    arrays are the evaluator's own, so one evaluator serves one thread.
    """

    def __init__(self, f: RadialDensity, n: int, r: float, *, max_rho: float,
                 t_points: int = 512):
        n = check_dimension(n, most=MAX_ORACLE_DIMENSION)
        check_radius("test-function radius r", r, positive=True)
        # before the tables: a NaN or infinite horizon fills them with -inf or NaN
        check_radius("max_rho", max_rho)
        self.t_points = _check_count("t_points", t_points, 1)
        self.f, self.n, self.r = f, n, r
        self.support = upper_cutoff(f, n)
        self.horizon = 2.0 * (max_rho + r) + self.support + 1.0
        if self.horizon == math.inf:
            raise ValueError(f"r = {r!r} and max_rho = {max_rho!r} overflow the table "
                             "horizon 2 (max_rho + r) + support + 1")
        self.log_mu_br = log_ball_measure(f, n, r)
        if self.log_mu_br == LOG_ZERO:
            raise ValueError("mu(B_r) vanishes; the test function is undefined")
        radii = np.linspace(0.0, self.horizon, _TABLE_POINTS)
        self._log_ball = _UniformLookup(radii, log_ball_measure_grid(f, n, radii))
        self._phi = radial_log_integrand(f, n)
        self.exact_fixed = self.exact_geometry = 0
        self._lens = n > 1 and isinstance(f, UnitBallIndicator)
        self._cap_j = _j_lookup(n)
        self._log_omega_sub = _band_log_weight(n)[0]
        self._work, self._work_views = None, (None, None)

    def _scan_work(self, shape):
        """The scan integrand's work arrays for one block of nodes: three floats,
        an intp and two bools of that shape, views of arrays this evaluator keeps
        and grows to the largest block so far, so that the blocks of every scan
        after the first allocate none."""
        if self._work_views[0] != shape:
            size = math.prod(shape)
            if self._work is None or self._work[1].size < size:
                self._work = (np.empty((3, size)), np.empty(size, np.intp),
                              np.empty((2, size), bool))
            floats, index, flags = self._work
            self._work_views = (shape, ([a[:size].reshape(shape) for a in floats],
                                        index[:size].reshape(shape),
                                        [a[:size].reshape(shape) for a in flags]))
        return self._work_views[1]

    def _scan_pair(self, rho: float, ts: np.ndarray):
        """(log numerator, log denominator) for all t at once, scan grade.

        The cap bands [|t - rho|, min(rho + t, H)] of the denominators, and
        the same cut at r of the numerators, are rows of one
        ``fixed_log_integral`` call, which reduces each row on its own.  A
        row with hi <= lo gives LOG_ZERO without it, and a numerator row
        equal to its denominator row (rho + t <= r) takes that row's value.
        Each block's integrand runs the operations of its formula, in its
        order, in ``_scan_work``'s arrays and the rule's nodes, so it gives
        the floats of fresh arrays.
        """
        inner = np.abs(ts - rho)
        if self.n == 1:
            # a band radius holds one of +-s: half the ball table's difference,
            # log((e^a - e^b) / 2) where a > b, read at rho + t (cut at r), not
            # at the support it interpolates across
            den_band, num_band = np.full((2,) + ts.shape, LOG_ZERO)
            for band, hi in zip((den_band, num_band), (ts + rho, np.minimum(ts + rho, self.r))):
                a, b = self._log_ball(hi), self._log_ball(np.minimum(inner, hi))
                more = a > b
                band[more] = a[more] + np.log(-np.expm1(b[more] - a[more])) - math.log(2.0)
        else:
            den_hi = np.minimum(ts + rho, self.support)
            num_hi = np.minimum(den_hi, self.r)
            den_lo, num_lo = np.minimum(inner, den_hi), np.minimum(inner, num_hi)
            den_rows = den_hi > den_lo
            num_rows = (num_hi > num_lo) & (num_hi < den_hi)
            t = np.concatenate([ts[den_rows], ts[num_rows]])[:, None, None]

            def log_f(s, t):
                (angle, value, cap), index, flags = self._scan_work(s.shape)
                # the law-of-cosines angle: it only ranks candidates, and costs
                # less than ``cap_angle``'s half-angle form on this many nodes
                np.multiply(s, s, out=angle)
                angle += rho * rho
                angle -= t * t
                angle /= np.maximum(np.multiply(2.0 * rho, s, out=value), 1e-300, out=value)
                np.arccos(np.clip(angle, -1.0, 1.0, out=angle), out=angle)
                self._cap_j(angle, out=cap, work=(value, index, *flags))
                value = self._phi(s, out=value)
                value += cap
                return value

            bands = fixed_log_integral(
                log_f, np.concatenate([den_lo[den_rows], num_lo[num_rows]]),
                np.concatenate([den_hi[den_rows], num_hi[num_rows]]),
                _SCAN_PANELS, _SCAN_ORDER, (t,))
            split = np.count_nonzero(den_rows)
            den_band = np.full(ts.shape, LOG_ZERO)
            den_band[den_rows] = bands[:split]
            num_band = np.where(num_hi < den_hi, LOG_ZERO, den_band)
            num_band[num_rows] = bands[split:]
        full = np.clip(ts - rho, 0.0, None)
        den = np.logaddexp(self._log_ball(full), den_band + self._log_omega_sub)
        num = np.logaddexp(self._log_ball(np.minimum(full, self.r)),
                           num_band + self._log_omega_sub)
        return num, den

    def _exact_ratio(self, rho: float, t: float) -> float:
        if self._lens:
            self.exact_geometry += 1
            num = intersect_with_centered_ball(self.f, self.n, rho, t, self.r)
            den = off_center_ball_measure(self.f, self.n, rho, t)
        else:
            (num, den), by_rule = _log_measures(self.f, self.n, rho, t, (self.r, math.inf))
            if by_rule:
                self.exact_fixed += 1
            else:
                self.exact_geometry += 1
        if den == LOG_ZERO:
            return LOG_ZERO
        return num - den

    def log_maximal_at(self, rho: float) -> float:
        """log Mg(rho): exact below r, certified from below by the witness t = rho + r."""
        check_radius("rho", rho)
        if rho < self.r:
            # every t <= r - rho gives ratio 1, and no t gives more
            return -self.log_mu_br
        t_lo = max(1e-6, rho - self.r) * (1.0 - 1e-9)
        t_hi = 2.0 * (rho + self.r) + self.support
        ts = np.geomspace(t_lo, t_hi, self.t_points)
        num, den = self._scan_pair(rho, ts)
        with np.errstate(invalid="ignore"):
            ratio = np.where(den > LOG_ZERO, num - den, -np.inf)
        order = np.argsort(ratio)[::-1]
        top = []
        for idx in order:
            if not np.isfinite(ratio[idx]):
                continue
            if all(abs(idx - j) > 1 for j in top):
                top.append(int(idx))
            if len(top) == 3:
                break
        candidates = [rho + self.r]
        if top:  # the zooms of all best cells in one scan
            zooms = np.array([np.linspace(ts[max(idx - 1, 0)], ts[min(idx + 1, len(ts) - 1)], 65)
                              for idx in top])
            z_num, z_den = self._scan_pair(rho, zooms.ravel())
            with np.errstate(invalid="ignore"):
                z_ratio = np.where(z_den > LOG_ZERO, z_num - z_den, -np.inf)
            pick = np.argmax(z_ratio.reshape(zooms.shape), axis=1)
            candidates += zooms[np.arange(len(top)), pick].tolist()
        best = max(self._exact_ratio(rho, t) for t in candidates)
        return best - self.log_mu_br


def log_maximal_function_at(f: RadialDensity, n: int, r: float, rho: float, *,
                            t_points: int = 512) -> float:
    """log Mg(rho) for the normalized indicator test function, from an
    evaluator built for this one radius."""
    check_radius("rho", rho)  # before the evaluator's tables are built
    ev = _MaximalEvaluator(f, n, r, max_rho=max(rho, r), t_points=t_points)
    return ev.log_maximal_at(rho)


def _log_profile(f: RadialDensity, n: int, r: float, points: int, t_points: int):
    """(rho_max, radii, log Mg, the evaluator) on ``maximal_profile``'s grid."""
    n = check_dimension(n, most=MAX_ORACLE_DIMENSION)
    rho_max = upper_cutoff(f, n)
    u = np.linspace(0.0, 1.0, points)
    radii = np.unique(rho_max * (3.0 * u ** 2 - 2.0 * u ** 3))
    ev = _MaximalEvaluator(f, n, r, max_rho=float(radii[-1]), t_points=t_points)
    return rho_max, radii, np.array([ev.log_maximal_at(float(rho)) for rho in radii]), ev


def maximal_profile(f: RadialDensity, n: int, r: float, *, points: int = 256,
                    t_points: int = 512) -> RadialProfile:
    """log Mg sampled on [0, upper_cutoff] on a grid graded toward both ends.

    The grading follows the smoothstep map (dense at both ends, where Mg
    is flat at 1/mu(B_r) and where the level-set boundary sits).
    """
    points = _check_count("points", points, 1)
    rho_max, radii, log_mg, ev = _log_profile(f, n, r, points, t_points)
    meta = {"kind": f.kind, "n": ev.n, "r": repr(r),
            "grid": f"smoothstep:{points}:0:{rho_max!r}", "seed": "none"}
    return RadialProfile(radii=radii, log_values=log_mg, meta=meta)


def verify_level_set_inclusion(f: RadialDensity, n: int, R: float, r: float, *,
                               n_points: int = 64, t_points: int = 512) -> InclusionReport:
    """Check B_R ⊂ {Mg > 1/mu(B~)} pointwise on a radial grid.

    Evaluates Mg at n_points radii up to R (1 - 1e-6) and compares against
    the level 1/mu(B(R xi, R + r)); the report carries the slack at every
    radius and lists any offenders.
    """
    check_radius("R", R, positive=True)
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    n_points = _check_count("n_points", n_points, 1)
    n = check_dimension(n, most=MAX_ORACLE_DIMENSION)
    log_mu_btilde = off_center_ball_measure(f, n, R, R + r)
    log_threshold = -log_mu_btilde
    ev = _MaximalEvaluator(f, n, r, max_rho=R, t_points=t_points)
    rows = []
    for rho in np.linspace(0.0, R * (1.0 - 1e-6), n_points):
        log_mg = ev.log_maximal_at(float(rho))
        rows.append(InclusionRow(rho=float(rho), log_mg=log_mg,
                                 log_threshold=log_threshold))
    return InclusionReport(n=n, R=R, r=r, kind=f.kind, rows=rows,
                           log_threshold=log_threshold, exact_fixed=ev.exact_fixed,
                           exact_geometry=ev.exact_geometry)


def log_constant_estimate(f: RadialDensity, n: int, r: float, p: float, *,
                          points: int = 256, t_points: int = 512) -> float:
    """log of an empirical estimate of the operator constant from the Mg profile.

    p > 1: ( int Mg^p dmu / int g^p dmu )^(1/p).  On B_r, Mg = 1/mu(B_r) = g,
    so that part of the numerator is the denominator mu(B_r)^(1 - p)
    exactly, and the estimate is (1 + rest / mu(B_r)^(1 - p))^(1/p), taken
    in log space by log1p of the share, so its log is never below 0, as
    Mg >= g demands.  The rest integrates log Mg, interpolated linearly from
    log Mg(r) through the profile radii past r, on ``_log_cells`` between them.
    It is an estimate, not a lower bound: nothing keeps the interpolation
    below the true Mg.  p = 1: the weak form sup_tau tau mu({Mg > tau}) over
    the profile levels and cells (int g dmu = 1, and the value is invariant
    under normalizing mu to mass 1).  log Mg is read from the evaluator and
    the p = 1 masses relative to the largest cell's, so no scale of f moves it.
    """
    _check_p(p)
    points = _check_count("points", points, 2)  # one radius bounds no cell to integrate over
    _, radii, log_mg, ev = _log_profile(f, n, r, points, t_points)
    with np.errstate(over="ignore"):
        if not np.isfinite(p * log_mg).all():
            raise ValueError(f"p = {p!r} overflows p log Mg")
    if p == 1.0:
        cells = _log_cells(f, n, radii)
        top = float(np.max(cells))
        cell_mass = np.exp(cells - top)  # no scale of f overflows it
        best = LOG_ZERO
        for tau in log_mg:
            mask = (log_mg[1:] > tau) & (log_mg[:-1] > tau)
            mass = float(cell_mass[mask].sum())
            if mass > 0.0:
                best = max(best, tau + math.log(mass))
        return float(best + top + log_sphere_area(n))
    # the jump of Mg at r is a knot of the interpolation, not a cell of it
    past = radii > r
    knots = np.concatenate([[r], radii[past]])
    log_knots = np.concatenate([[ev.log_maximal_at(r)], log_mg[past]])
    cells = _log_cells(f, n, knots, lambda s: p * np.interp(s, knots, log_knots))
    log_share = (log_sphere_area(n) + np.logaddexp.reduce(cells, initial=LOG_ZERO)
                 - (1.0 - p) * ev.log_mu_br)
    log_estimate = float(np.logaddexp(0.0, log_share)) / p  # log1p(e^share) / p
    if not math.isfinite(log_estimate):
        raise ValueError(f"the estimate at p = {p!r} is not finite")
    return log_estimate


def monte_carlo_ball_measure(f: RadialDensity, n: int, d: float, t: float,
                             samples: int, seed: int):
    """Importance-sampled mu(B(d xi, t)) / mu(total), with its standard error.

    Radii are drawn from the density f(s) s^(n-1) by inverse CDF on a
    10^4-knot table of ``log_ball_measure_grid``; directions are uniform via
    normalized standard normals.  Fixed seed (and the fixed chunk size)
    make the estimate bit-identical across runs.
    """
    n = check_dimension(n, least=2, most=MAX_ORACLE_DIMENSION)
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    check_radius("d", d)
    check_radius("t", t, positive=True)
    knots = np.linspace(0.0, upper_cutoff(f, n), _MC_KNOTS + 1)
    log_cdf = log_ball_measure_grid(f, n, knots)
    if log_cdf[-1] == LOG_ZERO:
        raise ValueError("density has zero mass on its support")
    cdf = np.exp(log_cdf - log_cdf[-1])
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        u = rng.random(m)
        s = np.interp(u, cdf, knots)
        z = rng.standard_normal((m, n))
        cos_th = z[:, 0] / np.linalg.norm(z, axis=1)
        hits += int(np.count_nonzero(s * s + d * d - 2.0 * s * d * cos_th < t * t))
        remaining -= m
    est = hits / samples
    stderr = math.sqrt(max(est * (1.0 - est), 0.0) / samples)
    return est, stderr
