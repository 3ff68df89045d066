"""The four benchmark workloads and their seeded inputs.

Every workload draws its items from a fixed catalogue.  The catalogue is
a grid of cells (one stratum of the input space each) times a number of
variants per cell; item ``(cell, variant)`` is a pure function of
``CATALOGUE_SEED``, the workload, the cell and the variant, so the
reference outputs in ``reference.json`` cover every item any run can
draw.  The run's ``--seed`` chooses, for every cell, which variant each
pass uses, and the order of the cells inside each pass.

One pass holds one item of every cell, so every pass has the same mix of
cheap and expensive inputs, and a run measures whole blocks of two passes
only (see ``passes``).  A run uses a different variant of every cell on
every pass; it repeats an item only after ``variants`` passes, more than
a run at the seed commit makes, so caching across items cannot inflate
the measurement until the program is several times faster.

The program itself only ever sees the generated argv lists and density
files; nothing is passed through the environment.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATALOGUE_SEED = 20240214

# The critical exponents quoted in the README; p0 searches are checked
# against these at 1e-3, the README's own comparison tolerance.
README_EXPONENTS = {
    "general": 1.005274,
    "gaussian-lower": 1.011871,
    "gaussian-upper": 1.049427,
    "unitball": 1.03946,
}
EXPONENT_TOL = 1e-3
GROWTH_FAMILIES = ("general", "gaussian-lower", "gaussian-upper", "unitball")

SWEEP_N_RANGE = (5, 10 ** 6)
SWEEP_KNOT_RANGE = (8, 32)
SWEEP_STRATA = 16
# Knot-count and lambda strata of each n stratum: fixed Latin pairings, so
# every marginal stays uniform but the cheap and the expensive corners of
# the (n, knots, lambda) cube appear in every pass in the same proportion.
SWEEP_KNOT_PAIRING = (5, 10, 1, 14, 7, 12, 3, 9, 0, 15, 6, 11, 2, 13, 4, 8)
SWEEP_LAMBDA_PAIRING = (9, 2, 13, 6, 11, 0, 15, 4, 8, 3, 12, 7, 14, 1, 10, 5)
BOUND_N_RANGE = (2, 10 ** 4)
BOUND_STRATA = 16
ORACLE_RADII = 4


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    cells: int
    variants: int
    trace_passes: int  # passes of one traced run (fixed, so counts repeat)


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-general", "CSV row", 2 * SWEEP_STRATA, 4, 1),
        Workload("bound-exact", "report", 2 * BOUND_STRATA, 64, 8),
        Workload("oracle-inclusion", "Mg evaluation", 12, 16, 2),
        Workload("exponents", "search", 4 + 3 * len(GROWTH_FAMILIES), 96, 8),
    )
}


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng([CATALOGUE_SEED, *keys])


def _log_uniform_int(u: float, lo: int, hi: int, stratum: int, strata: int) -> int:
    a, b = math.log(lo), math.log(hi)
    return int(round(math.exp(a + (stratum + u) * (b - a) / strata)))


def _sub_stratum(rng: np.random.Generator, variant: int, variants: int) -> float:
    """A uniform draw on [0, 1) confined to the variant's share of it.

    The variants of a cell thus spread evenly over the cell's range of n,
    and the cheap-dear pairs of ``passes`` pair low n with high n.
    """
    return ((variant % variants) + rng.uniform()) / variants


def _step_density(rng: np.random.Generator, knots: int) -> dict:
    """A radially decreasing step density with jittered, near-even knots.

    The knots sit one per jittered cell of the support and the log-density
    falls by a near-even share at each; uneven random shapes make the cost
    of an item swing by 3x at equal n and knot count, which no run of a
    few seconds averages out.
    """
    support = rng.uniform(1.8, 2.2)
    cells = (np.arange(knots - 1) + rng.uniform(0.05, 0.95, knots - 1)) / knots
    radii = np.append(support * cells, support)
    drops = rng.dirichlet(np.full(knots - 1, 20.0)) * rng.uniform(5.0, 7.0)
    logf = np.concatenate([[0.0], -np.cumsum(drops)])
    return {"radii": [float(x) for x in radii], "logf": [float(x) for x in logf]}


def _p_values(rng: np.random.Generator, count: int) -> list:
    return sorted(float(x) for x in rng.uniform(1.001, 1.05, count))


def _sweep_item(cell: int, variant: int) -> dict:
    rng = _rng(0, cell, variant)
    tabulated, stratum = divmod(cell, SWEEP_STRATA)
    u = _sub_stratum(rng, variant, WORKLOADS["sweep-general"].variants)
    n = _log_uniform_int(u, *SWEEP_N_RANGE, stratum, SWEEP_STRATA)
    lam = 0.05 + 0.35 * (SWEEP_LAMBDA_PAIRING[stratum] + rng.uniform()) / SWEEP_STRATA
    ps = _p_values(rng, 2 + stratum % 2)
    argv = ["sweep", "--construction", "general", "--n-range", str(n),
            "--lambda", repr(lam), "--p", ",".join(repr(p) for p in ps)]
    item = {"call": "cli", "units": len(ps)}
    if tabulated:
        lo, hi = SWEEP_KNOT_RANGE
        width = (hi - lo + 1) / SWEEP_STRATA
        knots = lo + int((SWEEP_KNOT_PAIRING[stratum] + rng.uniform()) * width)
        item["density"] = _step_density(rng, knots)
        argv[1:1] = ["--measure", "tabulated", "--density-file", "{density_file}"]
    else:
        argv[1:1] = ["--measure", "gaussian"]
    item["args"] = argv
    return item


def _bound_item(cell: int, variant: int) -> dict:
    rng = _rng(1, cell, variant)
    unitball, stratum = divmod(cell, BOUND_STRATA)
    u = _sub_stratum(rng, variant, WORKLOADS["bound-exact"].variants)
    n = _log_uniform_int(u, *BOUND_N_RANGE, stratum, BOUND_STRATA)
    lam = float(rng.uniform(0.05, 0.4))
    p = float(rng.uniform(1.001, 1.05))
    if unitball:
        # the unit-ball construction is documented at R = 1 only
        head = ["--measure", "unitball", "--construction", "unitball", "--R", "1"]
    else:
        head = ["--measure", "gaussian", "--construction", "gaussian"]
    argv = ["bound", *head, "--n", str(n), "--p", repr(p), "--lambda", repr(lam)]
    return {"call": "cli", "units": 1, "args": argv}


def _oracle_item(cell: int, variant: int) -> dict:
    rng = _rng(2, cell, variant)
    unitball, n_index = divmod(cell, 6)
    R = float(rng.uniform(0.5, 1.0 if unitball else 1.5))
    r = float(rng.uniform(0.1, 0.4)) * R
    args = {"kind": "unitball" if unitball else "gaussian", "n": n_index + 1,
            "R": R, "r": r, "n_points": ORACLE_RADII}
    return {"call": "inclusion", "units": ORACLE_RADII, "args": args}


def _exponent_item(cell: int, variant: int) -> dict:
    rng = _rng(3, cell, variant)
    variants = WORKLOADS["exponents"].variants
    if cell >= len(README_EXPONENTS):
        # three growth searches per family and one p0 search per target: the
        # median item is then a gaussian-lower or gaussian-upper growth search
        # (about 8 ms, six of the sixteen cells), in the middle of its
        # cluster; with more p0 items it would sit on the upper edge of the
        # p0 cluster (about 2 ms), where the few slow p0 items move it
        family = GROWTH_FAMILIES[(cell - len(README_EXPONENTS)) % len(GROWTH_FAMILIES)]
        p = 1.0005 + 0.05 * _sub_stratum(rng, variant, variants)
        return {"call": "growth", "units": 1, "args": {"family": family, "p": float(p)}}
    pre_scan = 257 + int(3584 * _sub_stratum(rng, variant, variants))
    return {"call": "cli", "units": 1,
            "args": ["p0", sorted(README_EXPONENTS)[cell], "--pre-scan", str(pre_scan)]}


_MAKERS = {
    "sweep-general": _sweep_item,
    "bound-exact": _bound_item,
    "oracle-inclusion": _oracle_item,
    "exponents": _exponent_item,
}


# Catalogue items replaced by the cell's next draw (variant + variants), each
# with the reason.  Only items whose cost alone would break the run's time
# limit belong here; the defect each one shows is reported, not hidden.
REPLACED = {
    # Four off-center integrals stop unconverged at the 10**6-evaluation cap
    # (about 20 s each); reproduce with verify_level_set_inclusion(
    # UnitBallIndicator(), 6, 0.7694758186220195, 0.2838297354945334, n_points=4).
    "oracle-inclusion/11/10": "quadrature unconverged at its evaluation cap, 80 s",
}


def catalogue_item(workload: str, cell: int, variant: int) -> dict:
    draw = variant
    if f"{workload}/{cell}/{variant}" in REPLACED:
        draw += WORKLOADS[workload].variants
    item = _MAKERS[workload](cell, draw)
    item["id"] = f"{workload}/{cell}/{variant}"
    item["digest"] = hashlib.sha1(json.dumps(
        [item["args"], item.get("density")], sort_keys=True).encode()).hexdigest()[:16]
    return item


def warmup_item(workload: str) -> dict:
    """A fixed item outside the catalogue, run once untimed by every worker."""
    return {
        "sweep-general": {"call": "cli", "units": 2, "args": [
            "sweep", "--measure", "gaussian", "--construction", "general",
            "--n-range", "100", "--lambda", "0.2", "--p", "1.01,1.02"]},
        "bound-exact": {"call": "cli", "units": 1, "args": [
            "bound", "--measure", "gaussian", "--construction", "gaussian",
            "--n", "100", "--p", "1.01", "--lambda", "0.2"]},
        "oracle-inclusion": {"call": "inclusion", "units": 2, "args": {
            "kind": "gaussian", "n": 2, "R": 1.0, "r": 0.2, "n_points": 2}},
        "exponents": {"call": "cli", "units": 1, "args": ["p0", "unitball"]},
    }[workload] | {"id": f"{workload}/warmup"}


def _pair_step(half: int) -> int:
    """The golden-ratio share of ``half``, made coprime with it.

    Consecutive multiples of it, mod ``half``, fill the range evenly, and
    ``half`` of them visit every residue once.
    """
    step = max(1, round(half * (math.sqrt(5.0) - 1.0) / 2.0))
    while math.gcd(step, half) != 1:
        step += 1
    return step


def passes(workload: str, seed: int, cost_order: list) -> list:
    """Every pass of one run, in blocks of two passes.

    ``cost_order[cell]`` lists the cell's variants from cheapest to
    dearest, as timed when the reference was made.  Block b pairs, in every
    cell, the i-th cheapest variant with the i-th dearest one, i = (offset
    + b * step) mod variants/2 with a seeded offset per cell, and runs one
    of them in each of its two passes.  Heavy inputs thus enter every block
    as a cheap-dear pair, so the cost of a block barely depends on the seed
    even where one item costs seconds.  ``step`` (see ``_pair_step``)
    spreads the first blocks of a run over the whole cost ranking: with a
    step of 1 a short run would use a run of neighbouring ranks, and where a
    cell's costs are lopsided (a few cheap variants, many dear ones) its
    cost would depend on where the seed put that run.  The blocks of a run
    together use every catalogue item exactly once.
    """
    w = WORKLOADS[workload]
    half = w.variants // 2
    step = _pair_step(half)
    rng = np.random.default_rng([seed, w.cells])
    offsets = rng.integers(0, half, w.cells)
    out = []
    for b in range(half):
        first, second = [], []
        for c in rng.permutation(w.cells):
            i = int((offsets[c] + b * step) % half)
            pair = [cost_order[c][i], cost_order[c][w.variants - 1 - i]]
            if rng.integers(2):
                pair.reverse()
            first.append(catalogue_item(workload, int(c), pair[0]))
            second.append(catalogue_item(workload, int(c), pair[1]))
        out += [first, second]
    return out


# Cells of the self-test's toy runs: the fewest that still reach every
# traced function of the workload, at their cheapest variant.
TOY_CELLS = {
    "sweep-general": (0, 2 * SWEEP_STRATA - 2),
    "bound-exact": (0, BOUND_STRATA),
    "oracle-inclusion": (0, 1, 7),
    "exponents": (0, 1, 4),
}


def toy_passes(workload: str, cost_order: list) -> list:
    """One block of two identical passes over the toy cells."""
    items = [catalogue_item(workload, c, cost_order[c][0]) for c in TOY_CELLS[workload]]
    return [items, items]


def write_density_files(items, directory: Path) -> list:
    """Write each item's density file and substitute its path into the argv."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for item in items:
        if "density" in item:
            path = directory / (item["id"].replace("/", "_") + ".txt")
            d = item["density"]
            if not path.exists():
                path.write_text("# s logf\n" + "".join(
                    f"{s!r} {v!r}\n" for s, v in zip(d["radii"], d["logf"])))
            item = dict(item, args=[str(path) if a == "{density_file}" else a
                                    for a in item["args"]])
        out.append(item)
    return out
