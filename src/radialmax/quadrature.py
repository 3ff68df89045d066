"""Adaptive Gauss-Legendre quadrature, plain and log-domain.

The log-domain driver is the workhorse: every measure in the library is an
integral of ``exp(phi(s))`` where ``phi`` is a log-integrand that may span
thousands of log-units across its interval.  The recipe is

  1. probe ``phi`` on a grid (plus caller-supplied peak hints),
  2. shift by the probed maximum ``m``,
  3. truncate to the window where ``phi >= m - drop`` (drop = 46 log-units,
     about 20 decimal digits, located by bisection on ``phi`` from the
     probe-grid neighbours of each edge; each call of ``phi`` takes, for
     both window edges, the midpoints of the next few steps on every branch
     and those of the steps the secant between the current ends predicts,
     so a smooth edge settles in a few calls, and each edge ends where
     a one-point-per-call bisection would),
  4. run global adaptive Gauss-Legendre on ``exp(phi - m)`` inside the
     window.  The loop bisects one panel per step; one integrand call
     evaluates the halves of every panel it must bisect before it can stop,
     and the steps take them from there.  Given the jumps of a step
     density (``knots``), the same call also evaluates the halves of the
     panels a bisection toward each knot meets, KNOT_CHAIN levels down, so
     the loop reaches a jump in a few calls, not one call per level.

Truncation error is then below the quadrature tolerance, DEFAULT_REL_TOL,
which is the one tolerance of every measure in the library, and the shifted
integrand is O(1), so nothing ever under- or overflows.  Integrands must
accept numpy arrays and act on each point alone.  Batching changes no
result: each rule is one dot product per panel (``np.vecdot`` runs the
``ddot`` of a per-panel ``np.dot`` on every row), the steps and the panel
table are those of a loop that calls the integrand once per bisected
panel, and the panel sums run left to right in a fixed order, the same on
every Python version.  A panel's values depend only on its ends, so the
halves evaluated toward a knot, stored by their ends until the loop makes
the panel, are the floats a later call would give.  The evaluation
counts, and so the cap, count only the panels the loop uses.

A step that takes stored halves costs O(1) Python work and no numpy
call: O(log k) heap operations and a dozen float operations, for k panels.
The worst panel is the top of a heap keyed (-error, column): ties go to
the lower column, and a NaN error comes first, as ``argmax`` has them.
The stop test reads running sums of the values and errors and a bound on
their rounding.  They are summed again exactly, left to right, and the
test and the returned floats read those, only where the running test is
within that bound of firing, at the evaluation cap, and where a sum is
not finite, as before the first step: in practice twice per integral.
The steps that call the integrand also sort the panels' errors
(``_ahead``).

On evaluation-cap overrun the best estimate is returned flagged with the
achieved tolerance instead of raising; callers that care can inspect the
result object.

Bulk callers use ``fixed_log_integral`` instead: one composite fixed-order
Gauss-Legendre rule in log space over many rows [lo, hi] at once, with no
error estimate.  It is the library's one fixed rule: the cap integral J
above exponent 6, the ball-measure grid (and so the Monte Carlo CDF) and
the oracle's scan and exact pass all call it, each with its own panel
count and order.  It runs the rows in blocks of at most BLOCK_NODES
nodes (64 KiB per float64 array; a whole oracle scan in one block, 786
KB per temporary, took about 1,700 page faults), and builds each
block's panel centres with it.  One node array per call, sized to the
first block, takes every block's nodes and then its shifted values, and
the oracle's scan integrand writes into work arrays its evaluator keeps,
so a warmed scan allocates no block-sized array but the density's
``log_density`` values.  glibc hands the top of the heap back once
enough of it lies free: fresh temporaries in every block were faulted in
again by the next, about 800 minor faults per ``oracle-inclusion`` item,
and the workload ran at one of two speeds that followed the process
layout.  Blocks of 96 KiB were slower in the benchmark's workers, and
blocks of 32 KiB cost more in per-block calls than they save (both
measured with fresh temporaries).  Per-row data of the integrand travel
with each block (``args``).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logspace import LOG_ZERO

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_EVALS = 10 ** 6
WINDOW_DROP = 46.0
N_PROBES = 257
PANEL_EVALS = 37       # a 25- and a 12-point Gauss-Legendre rule per panel
BISECT_STEPS = 90      # evaluations charged per bisected window edge
BISECT_LEVELS = 3      # bisection steps per call of the integrand, at least
BISECT_PATH = 24       # predicted midpoints per window edge and call of the integrand
KNOT_CHAIN = 12        # bisection levels toward a knot per call of the integrand
BLOCK_NODES = 8192     # fixed-rule nodes per block: 64 KiB per float64 array


@lru_cache(maxsize=32)
def gauss_legendre_nodes(order: int):
    """Nodes and weights on [-1, 1]; cached and marked read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class LogIntegralResult:
    log_value: float
    rel_error: float
    evaluations: int
    converged: bool
    shift: float
    window: tuple


_X25, _W25 = gauss_legendre_nodes(25)
_X12, _W12 = gauss_legendre_nodes(12)
_PANEL_NODES = np.concatenate([_X25, _X12])
# the refinement loop's running sums drift by at most this much per operation
# and unit of magnitude: 8 units in the last place, 4 times the bound it
# needs (see ``integrate``)
_DRIFT = 2.0 ** -50


def _panels(f, a, b):
    """Both Gauss-Legendre rules on the panels [a_i, b_i], from one call of f.

    Returns the panels' 25-point values, and their distances from the
    12-point values, as two lists.  Each rule is one ``np.vecdot``, which
    sums each row by the same ``ddot`` call as a per-panel ``np.dot``, so
    every panel sums exactly as it would alone; the scaling and the
    distances are float operations, which warn of nothing.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f((mid[:, None] + h[:, None] * _PANEL_NODES).ravel()), dtype=float)
    y = y.reshape(len(h), -1)
    h = h.tolist()
    v = [hi * s for hi, s in zip(h, np.vecdot(_W25, y[:, :25]).tolist())]
    return v, [abs(vi - hi * s)
               for vi, hi, s in zip(v, h, np.vecdot(_W12, y[:, 25:]).tolist())]


def _sequential_sum(x):
    """Left-to-right sum of each row of x, the same on every Python version.

    A float for a 1-D x, a list of floats for a 2-D one.  The leading
    ``0.0 +`` turns an all-negative-zero sum into 0.0, as a sum started
    from 0 does.
    """
    return (0.0 + x.cumsum(axis=-1)[..., -1]).tolist()


def _ahead(lo, hi, err, k, worst, error, budget, splits_left, known):
    """The panels whose halves one call of f evaluates for the refinement loop.

    The worst panel, and every other panel the loop must bisect before it
    can stop.  The loop bisects the panels of today's table in order of
    falling error (ties: lower index first) and stops once the summed
    error is within DEFAULT_REL_TOL |total|, so the panels it leaves
    untouched are a tail of that order whose errors sum to at most that.
    While the total stays within its error estimate of today's total, the
    stop is within ``budget`` = DEFAULT_REL_TOL (|total| + error), and every
    panel ahead of the longest tail within it must be bisected, unless the
    evaluation cap ends the loop first: at most ``splits_left`` panels are
    taken.  Panels whose halves are ``known`` already, or that no longer
    split, are left out.
    """
    ahead = [worst]
    if error - err.item(worst) <= budget:
        return ahead
    order = np.argsort(-err[:k], kind="stable")
    # the tail sums, summed from the end: each one above budget starts at
    # a panel ahead of the longest tail within it
    for i in order[:np.count_nonzero(np.cumsum(err[order[::-1]]) > budget)].tolist():
        if i == worst or i in known:
            continue
        if len(ahead) == splits_left:
            break
        left, right = lo.item(i), hi.item(i)
        if left < 0.5 * (left + right) < right:
            ahead.append(i)
    return ahead


def _toward_knots(left, right, knots, out):
    """The panels a bisection of [left, right] toward each knot strictly inside meets.

    Adds to the dict ``out`` the ends of the half of [left, right] that holds
    the knot, of its half that holds it, and so on for KNOT_CHAIN levels:
    the panels whose halves the refinement loop takes next if it keeps
    bisecting toward a jump of the integrand at that knot.  The chain ends
    early where the knot is a midpoint, so that neither half holds it
    strictly inside.  A half that does hold it splits: a float lies
    strictly between its ends, and then so does their rounded midpoint.
    ``knots`` is sorted.
    """
    start = bisect.bisect_right(knots, left)
    for knot in knots[start:bisect.bisect_left(knots, right, start)]:
        x, y = left, right
        for _ in range(KNOT_CHAIN):
            mid = 0.5 * (x + y)
            if knot < mid:
                y = mid
            elif knot > mid:
                x = mid
            else:
                break
            out[x, y] = None


def _halves(f, pairs, whole=()):
    """The halves of every panel (left, right) in ``pairs``, from one call of f.

    Returns the values and errors of the panels ``whole`` (the whole window,
    on the first call), and for each of ``pairs`` its mid, its right end and
    its halves' values and errors, as the refinement loop stores them.
    """
    lefts, rights = [p[0] for p in pairs], [p[1] for p in pairs]
    mids = [0.5 * (x + y) for x, y in zip(lefts, rights)]
    n, m = len(pairs), len(whole)
    # the whole panels, the left halves, then the right ones
    values, errors = _panels(f, np.array([w[0] for w in whole] + lefts + mids),
                             np.array([w[1] for w in whole] + mids + rights))
    return list(zip(values[:m], errors[:m])), list(zip(
        mids, rights, values[m:m + n], errors[m:m + n], values[m + n:], errors[m + n:]))


def integrate(f, a: float, b: float, *, max_evals: int = DEFAULT_MAX_EVALS,
              knots=()) -> QuadratureResult:
    """Globally adaptive integral of a vectorized, finite integrand.

    Starting from the one panel [a, b], the panel with the worst error
    estimate is bisected until the summed error estimate meets
    DEFAULT_REL_TOL relative to the summed value, or the evaluation budget
    runs out.  An infinite sum of the values ends the loop at once, flagged
    unconverged; a NaN sum runs to the budget.  Every panel the loop uses
    costs ``PANEL_EVALS`` evaluations.  When the worst panel's halves are
    not known yet, one call evaluates them together with the halves of
    every panel the loop must bisect anyway (see ``_ahead``); the loop then
    takes the stored halves one bisection at a time, so its steps, and
    every float, are those of a loop that calls ``f`` once per bisected
    panel.

    ``knots`` are points where ``f`` may jump (a step density's radii).
    The first call, and every call for the panels ``_ahead`` selects, also
    evaluates the halves of each panel a bisection toward a knot strictly
    inside meets (see ``_toward_knots``), keyed by the panel's ends, since
    the loop has not made it yet; the step that makes such a panel files
    its halves under its column.  With no knot inside [a, b] the loop runs
    as it does without knots.

    The worst panel comes from a heap, and the stop test from running sums
    (see the module docstring).  A NaN error's key has a third entry,
    which puts it first.  The running sums are at most the rounding of
    their updates since the last exact sums, and of the left-to-right sums
    themselves, away from those: below ``_DRIFT`` times (panels + 2 steps
    since the exact sums) times a bound on the summed errors plus
    DEFAULT_REL_TOL times the summed absolute values.
    """
    if not b > a:
        return QuadratureResult(0.0, 0.0, 0, True)
    a, b = float(a), float(b)
    knots = sorted(c for c in map(float, knots) if a < c < b)
    # the panels the bisections toward the knots meet: their ends -> their
    # halves, moved to ``halves`` when the loop makes the panel
    split = {}
    if knots:
        split[a, b] = None
        _toward_knots(a, b, knots, split)
    ((v, e),), found = _halves(f, list(split), whole=[(a, b)])
    chain = dict(zip(split, found))
    halves = {0: chain.pop((a, b))} if chain else {}  # panel -> its halves, see _halves
    k = 1
    # the panel table, one column per panel with its ends, value and error;
    # a bisected panel keeps its column for its left half and appends its
    # right half, and the table doubles when full
    table = np.array([[a], [b], [v], [e]])
    lo, hi, val, err = table
    heap = [(-e, 0) if e == e else (-math.inf, -1, 0)]
    evals = PANEL_EVALS * k
    # not finite: the first stop test sums exactly
    total = error = scale = math.nan
    ops = 0
    while True:
        if not error - DEFAULT_REL_TOL * abs(total) > _DRIFT * ops * scale or evals >= max_evals:
            total, error = _sequential_sum(table[2:, :k])
            if math.isinf(total):  # inf <= inf would pass the stop test
                return QuadratureResult(total, error, evals, False)
            if error <= DEFAULT_REL_TOL * abs(total) or error == 0.0:
                return QuadratureResult(total, error, evals, True)
            if evals >= max_evals:
                return QuadratureResult(total, error, evals, False)
            # the drift bound's operations and magnitude, both only growing
            ops, scale = k, error + DEFAULT_REL_TOL * float(np.abs(val[:k]).sum())
        worst = heap[0][-1]
        if worst not in halves:
            left, right = lo.item(worst), hi.item(worst)
            mid = 0.5 * (left + right)
            if mid <= left or mid >= right:  # interval exhausted at machine precision
                error -= err.item(worst)
                err[worst] = 0.0
                heapq.heapreplace(heap, (-0.0, worst))
                ops += 2
                continue
            splits_left = -(-(max_evals - evals) // (2 * PANEL_EVALS))  # before the cap
            ahead = _ahead(lo, hi, err, k, worst, error,
                           DEFAULT_REL_TOL * (abs(total) + error), splits_left, halves)
            pairs = [(lo.item(i), hi.item(i)) for i in ahead]
            if knots:
                toward = {}
                for left, right in pairs:
                    _toward_knots(left, right, knots, toward)
                pairs += [p for p in toward if p not in chain]
            _, found = _halves(f, pairs)
            halves.update(zip(ahead, found))
            chain.update(zip(pairs[len(ahead):], found[len(ahead):]))
        mid, right, v1, e1, v2, e2 = halves.pop(worst)
        v, e = val.item(worst), err.item(worst)
        evals += 2 * PANEL_EVALS
        if k == table.shape[1]:
            table = np.concatenate([table, np.empty_like(table)], axis=1)
            lo, hi, val, err = table
        hi[worst], val[worst], err[worst] = mid, v1, e1
        lo[k], hi[k], val[k], err[k] = mid, right, v2, e2
        if chain:
            for column, ends in ((worst, (lo.item(worst), mid)), (k, (mid, right))):
                if ends in chain:
                    halves[column] = chain.pop(ends)
        total += v1 + v2 - v
        error += e1 + e2 - e
        ops += 3
        scale += e1 + e2 + DEFAULT_REL_TOL * (abs(v1) + abs(v2))
        heapq.heapreplace(heap, (-e1, worst) if e1 == e1 else (-math.inf, -1, worst))
        heapq.heappush(heap, (-e2, k) if e2 == e2 else (-math.inf, -1, k))
        k += 1


@lru_cache(maxsize=None)
def _level_tree(levels):
    """The next ``levels`` steps of a bisection, as a tree of brackets.

    Node i, in level order, is the midpoint of the points at the two
    indices ``pairs[i]`` of [below, above, node 0, node 1, ...], the
    bracket's below and above end; its halves are node 2i + 1 (its
    midpoint turned out super-threshold) and node 2i + 2.
    """
    pairs = [(0, 1)]
    for i in range(2 ** (levels - 1) - 1):
        below, above = pairs[i]
        pairs += [(below, 2 + i), (2 + i, above)]
    return tuple(pairs)


def _bisect_walk(tau, below, above, phi_below=math.nan, phi_above=math.nan):
    """Locate phi = tau between a sub- and a super-threshold point, as a coroutine.

    Works for either orientation; returns the sub-threshold endpoint so the
    window always contains the crossing.  This is a plain bisection of at
    most BISECT_STEPS steps: each step compares ``phi`` at the midpoint
    ``0.5 * (below + above)`` with ``tau``.  But each value of ``phi`` it
    asks for is an array of midpoints: it yields them, is sent ``phi``
    there, and takes steps as long as the next midpoint is among them.
    The array holds the midpoints of the next BISECT_LEVELS steps on every
    branch, so a call takes at least that many steps.  Once ``phi`` is
    known and finite at both ends (``phi_below`` and ``phi_above`` are its
    values there, NaN when unknown), the array also holds the midpoints of
    the first BISECT_PATH steps of the same bisection run against the
    secant root between the ends: the steps the walk will most likely
    take.  For a smooth ``phi`` the secant error shrinks quadratically, so
    each call settles about twice as many steps as the one before, up to
    BISECT_PATH.  At a jump of ``phi`` the prediction fails, and the trees
    carry the walk.
    """
    below, above, steps = float(below), float(above), 0
    phi_below, phi_above = float(phi_below), float(phi_above)
    rising = above > below
    while steps < BISECT_STEPS:
        levels = min(BISECT_LEVELS, BISECT_STEPS - steps)
        # the midpoints of every bracket the next steps can reach
        points = [below, above]
        for i, j in _level_tree(levels):
            points.append(0.5 * (points[i] + points[j]))
        mids = points[2:]
        # the predicted path: its midpoints, and whether each turned out
        # super-threshold; its first steps are in the tree already
        path, ups = [], []
        if -math.inf < phi_below < tau <= phi_above < math.inf:
            guess = below + (tau - phi_below) / (phi_above - phi_below) * (above - below)
            lo, hi = below, above
            for _ in range(min(BISECT_PATH, BISECT_STEPS - steps)):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                up = mid >= guess if rising else mid <= guess
                path.append(mid)
                ups.append(up)
                if up:
                    hi = mid
                else:
                    lo = mid
        vals = yield mids + path[levels:]
        # mids is in level order: node i has the halves 2i + 1, 2i + 2;
        # on_path: every step so far went as predicted, and the path goes on
        at, on_path = 0, bool(path)
        for depth in range(BISECT_STEPS - steps):
            mid = 0.5 * (below + above)
            if mid == below or mid == above:
                return below
            if depth < levels:
                val = vals[at]
            elif on_path:
                val = vals[len(mids) + depth - levels]
            else:
                break
            up = val >= tau
            if up:
                above, phi_above, at = mid, val, 2 * at + 1
            else:
                below, phi_below, at = mid, val, 2 * at + 2
            on_path = on_path and depth + 1 < len(path) and up == ups[depth]
            steps += 1
    return below


def _bisect_crossings(log_f, brackets, tau) -> list:
    """``_bisect_walk`` on every bracket, the walks in lockstep.

    A bracket is (below, above), or (below, above, phi(below), phi(above))
    when the caller holds ``log_f`` at its ends.  Each call of ``log_f``
    takes the asks of every walk still running, so each walk sees the
    values it would see alone.
    """
    walks = [_bisect_walk(tau, *bracket) for bracket in brackets]
    asks = [next(walk) for walk in walks]
    found = [None] * len(walks)
    running = list(range(len(walks)))
    while running:
        vals = np.asarray(log_f(np.array([x for i in running for x in asks[i]])),
                          dtype=float).tolist()
        still, at = [], 0
        for i in running:
            size = len(asks[i])
            try:
                asks[i] = walks[i].send(vals[at:at + size])
                still.append(i)
            except StopIteration as stop:
                found[i] = stop.value
            at += size
        running = still
    return found


def fixed_log_integral(log_f, lo, hi, panels: int, order: int, args=()):
    """log of the integral of exp(log_f) over [lo, hi], for every row at once.

    A composite fixed rule: ``panels`` equal panels of ``order``-point
    Gauss-Legendre, exact for polynomials of degree 2 order - 1 on each
    panel.  The rows run in blocks along the first axis of lo and hi, of
    at most BLOCK_NODES nodes where a row allows it, and each block builds
    its own panel centres and nodes: ``log_f`` receives a
    block's nodes, shaped block + lo.shape[1:] + (panels, order), followed
    by the block's slice of every array in ``args``, which hold one entry
    per row along that axis.  A ``log_f`` that needs per-row data takes it
    from ``args``: a closure over the whole batch would not match a
    block.  Each row is reduced on its own, so the blocks change no float.
    Each row is shifted by its largest value, where that is finite, before
    the exponential; a row holding +inf gives +inf and one holding NaN
    LOG_ZERO, whatever the shift.  A row with hi <= lo, or with no mass,
    gives LOG_ZERO.  The blocks share one node array, sized to the first
    block, which after ``log_f`` returns takes the block's shifted values:
    ``log_f`` may write into and return arrays of its own, which the rule
    only reads.  No error estimate: this is the bulk path, and
    ``log_integral`` the accuracy reference.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = np.atleast_1d(lo, hi)  # a 0-d batch is one row
    x, w = gauss_legendre_nodes(order)
    half = hi - lo
    half *= 0.5
    half /= panels
    odd = np.arange(1.0, 2.0 * panels, 2.0)
    shift, total = np.empty(lo.shape), np.empty(lo.shape)
    step = max(1, BLOCK_NODES // (panels * order * math.prod(lo.shape[1:])))
    # the first block's nodes, which no later block outgrows
    nodes = np.empty(lo[:step].shape + (panels, order))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(lo), step):
            block = slice(start, start + step)
            block_nodes = nodes[:min(step, len(lo) - start)]
            centers = lo[block, ..., None] + half[block, ..., None] * odd
            np.add(centers[..., None], half[block, ..., None, None] * x, out=block_nodes)
            vals = np.asarray(log_f(block_nodes, *(arg[block] for arg in args)), dtype=float)
            # a row whose largest value is +inf or NaN sums to +inf or NaN
            # whatever its shift
            top = vals.max(axis=(-2, -1))
            top = np.where(np.isfinite(top), top, 0.0)
            # the nodes are spent: shifted, exponentiated and weighted there,
            # so what log_f returned is left as it was
            shifted = np.subtract(vals, top[..., None, None], out=block_nodes)
            np.exp(shifted, out=shifted)
            shifted *= w
            shifted.sum(axis=(-2, -1), out=total[block])
            shift[block] = top
        total *= half
        empty = ~(total > 0.0)  # also where hi <= lo, and so half <= 0
        np.log(total, out=total)
        total += shift
        np.copyto(total, LOG_ZERO, where=empty)
    return total.reshape(shape)


def log_integral(log_f, a: float, b: float, *, probe_points=(),
                 knots=()) -> LogIntegralResult:
    """log of the integral of exp(log_f) over [a, b], to DEFAULT_REL_TOL.

    ``probe_points`` should include any interior maxima the caller knows
    about (density peaks, tabulation knots); the uniform probe grid alone
    only resolves peaks wider than (b - a) / N_PROBES.  A probed maximum m
    that is not finite, or positive and so large that m - WINDOW_DROP == m,
    is refused with a ValueError: no window below it can be formed.  A
    negative m that large keeps the whole interval as its window, where
    every value rounds to m.  A window that sums to 0 gives LOG_ZERO
    flagged unconverged, with ``rel_error`` inf: it holds the probed
    maximum, so its integral is positive.  ``knots``, the jumps of a step
    density, go to ``integrate``: they save calls of ``log_f`` and change
    no float.
    """
    if not b > a:
        return LogIntegralResult(LOG_ZERO, 0.0, 0, True, LOG_ZERO, (a, b))
    pts = {float(a), float(b)}
    pts.update(float(p) for p in probe_points if a <= p <= b)
    grid = np.unique(np.concatenate([np.linspace(a, b, N_PROBES),
                                     np.array(sorted(pts))]))
    vals = np.asarray(log_f(grid), dtype=float)
    evals = grid.size
    m = float(np.max(vals))
    if m == LOG_ZERO:
        return LogIntegralResult(LOG_ZERO, 0.0, evals, True, LOG_ZERO, (a, b))
    if not math.isfinite(m) or (m > 0.0 and m - WINDOW_DROP == m):
        raise ValueError(f"log-integrand maximum {m!r} leaves no window of {WINDOW_DROP} "
                         "log-units below it")
    tau = m - WINDOW_DROP
    above = vals >= tau
    i_lo = int(np.argmax(above))
    i_hi = int(len(above) - 1 - np.argmax(above[::-1]))
    # both window edges, each bisected between its grid neighbours when
    # the probe grid did not end there
    brackets = [(grid[i_lo - 1], grid[i_lo], vals[i_lo - 1], vals[i_lo])] if i_lo > 0 else []
    brackets += ([(grid[i_hi + 1], grid[i_hi], vals[i_hi + 1], vals[i_hi])]
                 if i_hi < len(grid) - 1 else [])
    found = _bisect_crossings(log_f, brackets, tau)
    lo = found.pop(0) if i_lo > 0 else grid[i_lo]
    hi = found.pop(0) if i_hi < len(grid) - 1 else grid[i_hi]
    evals += BISECT_STEPS * len(brackets)

    def shifted(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(log_f(x), dtype=float) - m)

    res = integrate(shifted, lo, hi, max_evals=max(DEFAULT_MAX_EVALS - evals, 10 ** 4),
                    knots=knots)
    evals += res.evaluations
    if res.value <= 0.0:
        # the window holds the probed maximum, where the shifted integrand
        # is 1: a zero sum over it underflowed (a subnormal width), and no
        # relative error bounds it
        return LogIntegralResult(LOG_ZERO, math.inf, evals, False, m, (lo, hi))
    return LogIntegralResult(m + math.log(res.value), res.error / res.value,
                             evals, res.converged, m, (lo, hi))
