"""A fixed CPU kernel that tells how fast the machine runs right now.

The benchmark's host is shared: its speed drifts by 10-40 % over minutes,
slower than one run, so the raw times of two runs of the same code differ
by more than any useful bound.  The drift is common to everything the
process runs.  The worker therefore times this kernel between items, and
every item time is scaled to a machine on which one kernel run takes
``NOMINAL_S`` seconds:

    scaled time = measured time / slowdown,
    slowdown    = mean of the kernel times just before and just after
                  the item / NOMINAL_S

Scaling each item by the samples around it, not by the run's mean, matters
where a few long items fill most of a run: the median item is then timed
in a small share of the run, at a speed of its own.

The kernel belongs to the benchmark and imports nothing from ``radialmax``,
so no change to the program moves it.  Its mix resembles the program's
hot loops: NumPy ufuncs on a few hundred points, a scalar bisection in
Python floats, and small dict and list work.  Interleaved with a
fixed ``bound`` item and a fixed ``sweep`` item on a 2-vCPU shared VM for
150 s, the standard deviation of the item time over 4 s windows fell from
15 % (raw) to 4 % (scaled); the item time moved with the kernel time at a
slope of 0.95 (log on log).
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.010  # one kernel run on the machine the bounds were set on
ROUNDS = 640
_GRID = np.linspace(0.0, 3.0, 257)


def kernel_seconds() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(ROUNDS):
        v = np.exp(-0.5 * (_GRID + i * 1e-3) ** 2)
        acc += float(np.sum(v[v > 1e-3]))
        a, b = 0.0, 3.0
        for _ in range(40):
            m = 0.5 * (a + b)
            if math.exp(-m * m) > 0.5:
                a = m
            else:
                b = m
        table = {k: k * 0.5 for k in range(20)}
        acc += a + sum(table.values())
    if not acc > 0.0:
        raise RuntimeError("speed probe kernel computed nothing")
    return time.perf_counter() - t0


def slowdown(samples: int = 9) -> float:
    """Median of ``samples`` kernel runs over ``NOMINAL_S``: > 1 is slower."""
    return sorted(kernel_seconds() for _ in range(samples))[samples // 2] / NOMINAL_S


class RunProbe:
    """Decides when to sample the kernel between the items of a run.

    A sample is due once ``interval`` seconds have passed since the last
    one.  After an item of ``LONG_ITEM_S`` or more a sample is the median
    of three kernel runs, because that one sample (with the one before the
    item) sets the speed of a large share of the run.
    """

    LONG_ITEM_S = 0.5

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.last = -float("inf")

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.interval

    def sample(self, after_s: float = 0.0) -> float:
        """Time the kernel now; return the slowdown it shows."""
        value = slowdown(3) if after_s >= self.LONG_ITEM_S else kernel_seconds() / NOMINAL_S
        self.last = time.perf_counter()
        return value


def scale_items(records: list) -> list:
    """Per-item slowdowns of a run's records, in the order they were written.

    ``records`` mixes item records (``{"s": ...}``) and probe records
    (``{"probe": slowdown}``); the run starts and ends with a probe.  Each
    item gets the mean of the probes just before and just after it.
    """
    out, pending, before = [], 0, None
    for rec in records:
        if "probe" in rec:
            if pending:
                out += [0.5 * (before + rec["probe"])] * pending
            before, pending = rec["probe"], 0
        else:
            if before is None:
                raise ValueError("item record before the first probe")
            pending += 1
    if pending:
        raise ValueError("item record after the last probe")
    return out
