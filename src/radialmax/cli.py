"""Command-line front end.

Subcommands:

  p0      reproduce one of the four critical exponents
  bound   run a lower-bound construction and emit the full report as JSON
  sweep   tabulate constructions across dimensions as CSV
  verify  run a named invariant suite, exit 0 iff every check passes
  oracle  evaluate the brute-force maximal function as logs (log Mg at one
          radius or on a profile, or the log of an empirical constant estimate)

Exit codes: 0 success, 1 usage error or verification failure, 2 numerical
or domain failure.  Identical invocations (including --seed) produce
byte-identical output; no configuration is read from the environment
except NO_COLOR, which disables the PASS/FAIL coloring of `verify`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import bounds, optimize
from .densities import MEASURE_KINDS, density_from_name
from .errors import NoBalancedRadiusError
from .geometry import off_center_ball_measure
from .measures import log_mass, log_sphere_area, sphere_ratio_bounds
from .oracle import (log_constant_estimate, log_maximal_function_at, maximal_profile,
                     monte_carlo_ball_measure, verify_level_set_inclusion)
from .serialize import csv_lines, to_json

USAGE_EXIT = 1
NUMERIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    numerical failures, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


class _UsageError(Exception):
    """A malformed option value that argparse passed through as a string."""


def _parse_int_range(spec: str):
    """'a:b:step' (inclusive) or comma-separated integers."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {spec!r}; expected start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {spec!r}")
        return list(range(start, stop + 1, step))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


def _parse_floats(spec: str):
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _check_points(option: str, value: int, least: int, unit: str = "point"):
    """A count option below ``least`` is a usage error."""
    if value < least:
        unit += "" if least == 1 else "s"
        raise _UsageError(f"argument {option}: needs at least {least} {unit}, got {value}")


def _parse_list(option: str, parse, spec: str):
    """``parse(spec)``, with a malformed or empty list made a usage error."""
    try:
        values = parse(spec)
    except ValueError as exc:
        raise _UsageError(f"argument {option}: {exc}") from None
    if not values:
        raise _UsageError(f"argument {option}: no values in {spec!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="radialmax", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p0 = sub.add_parser("p0", help="reproduce a critical exponent")
    p0.add_argument("target", choices=sorted(optimize.EXPONENT_SEARCHES))
    p0.add_argument("--pre-scan", type=int, default=2049,
                    help="pre-scan grid points, at least 2 (default 2049)")
    p0.add_argument("--tol", type=float, default=1e-12,
                    help="argument tolerance of the refinement, positive (default 1e-12)")
    p0.add_argument("--output", default=None)
    p0.set_defaults(run=_cmd_p0)

    measure = argparse.ArgumentParser(add_help=False)  # bound, sweep and oracle
    measure.add_argument("--measure", required=True, choices=MEASURE_KINDS)
    measure.add_argument("--density-file", default=None)

    shared = argparse.ArgumentParser(add_help=False)  # bound and sweep
    shared.add_argument("--construction", default=None,
                        choices=["general", "gaussian", "unitball"],
                        help="default: gaussian/unitball for those measures, else general")
    shared.add_argument("--R", type=float, default=1.0,
                        help="ball radius for the unitball construction (default 1)")
    shared.add_argument("--output", default=None)

    # no abbreviations: argparse would otherwise expand a unique prefix, and
    # read `sweep --n 10` as `--n-range 10`
    bd = sub.add_parser("bound", parents=[measure, shared], allow_abbrev=False,
                        help="run one lower-bound construction")
    bd.add_argument("--n", type=int, required=True)
    bd.add_argument("--p", type=float, required=True)
    bd.add_argument("--lambda", dest="lam", type=float, required=True)
    bd.set_defaults(run=_cmd_bound)

    sw = sub.add_parser("sweep", parents=[measure, shared], allow_abbrev=False,
                        help="tabulate constructions across dimensions")
    sw.add_argument("--n-range", required=True,
                    help="'a:b:step' inclusive, or comma-separated values")
    sw.add_argument("--lambda", dest="lam", default="0.2",
                    help="comma-separated values (default 0.2)")
    sw.add_argument("--p", default="1.005", help="comma-separated values")
    sw.set_defaults(run=_cmd_sweep)

    vf = sub.add_parser("verify", help="run an invariant suite")
    vf.add_argument("suite", choices=["spheres", "gaussian-lemmas", "remark",
                                      "inclusion", "montecarlo", "all"])
    vf.add_argument("--samples", type=int, default=10_000_000,
                    help="Monte Carlo samples, at least 1e4 (default 1e7)")
    vf.add_argument("--seed", type=int, default=20240214)
    vf.add_argument("--inclusion-points", type=int, default=64,
                    help="radii per inclusion configuration (default 64)")
    vf.add_argument("--output", default=None)
    vf.set_defaults(run=_cmd_verify)

    orc = sub.add_parser("oracle", parents=[measure], help="brute-force maximal function")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--r", type=float, required=True)
    mode = orc.add_mutually_exclusive_group()  # neither: the profile (CSV)
    mode.add_argument("--rho", type=float, default=None,
                      help="evaluate log Mg at one radius (JSON)")
    mode.add_argument("--p", type=float, default=None,
                      help="emit the log of the empirical estimate of the operator "
                           "constant (JSON)")
    orc.add_argument("--profile-points", type=int, default=256)
    orc.add_argument("--t-points", type=int, default=512)
    orc.add_argument("--output", default=None)
    orc.set_defaults(run=_cmd_oracle)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser ``main`` uses, built once per process: ``parse_args``
    does not change it, its prog is fixed and no default is mutable."""
    return build_parser()


def _cmd_p0(args) -> int:
    _check_points("--pre-scan", args.pre_scan, 2)
    if not args.tol > 0.0:  # NaN too: every search would run to its step cap
        raise _UsageError(f"argument --tol: needs a positive value, got {args.tol}")
    fn = optimize.EXPONENT_SEARCHES[args.target]
    res = fn(tol=args.tol, pre_scan=args.pre_scan)
    payload = {"target": args.target, **res.as_dict(),
               "method": {"pre_scan": args.pre_scan, "tol": args.tol,
                          "note": ("deterministic grid + golden-section search; "
                                   "reference values are quoted to six digits and "
                                   "matched at 1e-3")}}
    _emit(to_json(payload) + "\n", args.output)
    return 0


def _density(args):
    """The --measure density; every fault of --density-file is a usage error."""
    needs_file = args.measure == "tabulated"
    if needs_file != (args.density_file is not None):
        raise _UsageError("argument --density-file: " + (
            "--measure tabulated needs a density file" if needs_file else
            f"only --measure tabulated reads a density file, got --measure {args.measure}"))
    try:
        return density_from_name(args.measure, args.density_file)
    except (OSError, ValueError) as exc:  # unreadable, or refused by TabulatedDecreasing
        raise _UsageError(f"argument --density-file: {exc}") from None


def _pick_construction(args) -> str:
    if args.construction is not None:
        return args.construction
    if args.measure in ("gaussian", "unitball"):
        return args.measure
    return "general"


def _construct(args, f, construction: str, n: int, p: float, lam: float):
    """Run ``construction`` at (n, p, lam) after checking the measure fits it.

    ``BoundReport`` refuses an exact T below its certified lower bound, so
    ``bound`` exits 2 and ``sweep`` records the row's error.
    """
    if construction != "general" and args.measure != construction:
        raise ValueError(f"the {construction} construction needs --measure {construction}")
    if construction == "gaussian":
        return bounds.gaussian_construction(n, p, lam)
    if construction == "unitball":
        return bounds.unitball_construction(n, p, args.R, lam)
    return bounds.general_construction(f, n, p, lam)


def _cmd_bound(args) -> int:
    f = _density(args)
    construction = _pick_construction(args)
    rep = _construct(args, f, construction, args.n, args.p, args.lam)
    payload = {"construction": construction, **rep.as_dict()}
    _emit(to_json(payload) + "\n", args.output)
    return 0


_ROW_ERRORS = (NoBalancedRadiusError, ValueError)


def _cmd_sweep(args) -> int:
    ns = _parse_list("--n-range", _parse_int_range, args.n_range)
    lams = _parse_list("--lambda", _parse_floats, args.lam)
    ps = _parse_list("--p", _parse_floats, args.p)
    f = _density(args)
    construction = _pick_construction(args)
    header = ["n", "lambda", "p", "alpha", "logT_lower", "logT_exact",
              "logT_upper", "dlogT_dn", "error"]
    rows = []
    prev = {}
    for n in ns:
        for lam in lams:
            for p in ps:  # innermost, so the rows of one (n, lam) share a stage
                key = (lam, p)
                try:
                    rep = _construct(args, f, construction, n, p, lam)
                    slope = None
                    if key in prev:
                        n0, v0 = prev[key]
                        if n != n0:
                            slope = (rep.log_t_lower - v0) / (n - n0)
                    prev[key] = (n, rep.log_t_lower)
                    upper = rep.terms.get("sandwich_upper",
                                          rep.terms.get("decay_upper_bound"))
                    rows.append([n, lam, p, rep.alpha, rep.log_t_lower,
                                 rep.log_t_exact, upper, slope, None])
                except _ROW_ERRORS as exc:
                    rows.append([n, lam, p, None, None, None, None, None,
                                 f"{type(exc).__name__}: {exc}"])
    meta = {"command": "sweep", "measure": args.measure,
            "construction": construction, "n_range": args.n_range,
            "lambda": args.lam, "p": args.p,
            "texact_max_n": bounds.T_EXACT_MAX_N}
    _emit(csv_lines(meta, header, rows), args.output)
    return 0


def _color(ok: bool, text: str) -> str:
    if os.environ.get("NO_COLOR") is not None or not sys.stdout.isatty():
        return text
    code = "32" if ok else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


class _Suite:
    def __init__(self):
        self.lines = []
        self.all_ok = True

    def check(self, ok: bool, name: str, detail: str):
        self.all_ok &= ok
        status = "PASS" if ok else "FAIL"
        self.lines.append(f"{_color(ok, status)} {name}: {detail}")

    def text(self) -> str:
        verdict = "all checks passed" if self.all_ok else "FAILURES present"
        return "\n".join(self.lines + [verdict]) + "\n"


def _verify_spheres(suite: _Suite):
    n = np.arange(2, 10_001)
    lo, hi = sphere_ratio_bounds(n)
    true = np.exp(log_sphere_area(n - 1) - log_sphere_area(n))
    bad = np.nonzero(~((lo < true) & (true < hi)))[0]
    ok = bad.size == 0
    detail = "ratio bracket holds for n in 2..10^4"
    if not ok:
        detail = f"first violation at n={int(n[bad[0]])}"
    suite.check(ok, "sphere-ratio-bracket", detail)


def _verify_gaussian_lemmas(suite: _Suite):
    ns = sorted(set(np.geomspace(2, 200, 20).astype(int)))
    fracs = np.linspace(0.05, 0.95, 20)
    worst = None
    ok = True
    for n in ns:
        R_n = bounds.gaussian_mode_radius(int(n))
        for frac in fracs:
            lo, mid, hi = bounds.gaussian_ball_sandwich(int(n), float(frac) * R_n)
            if not lo - 1e-9 <= mid <= hi + 1e-9:
                ok = False
                worst = (int(n), float(frac))
    suite.check(ok, "gaussian-ball-sandwich",
                "holds on the 20x20 (n, rho) grid" if ok
                else f"violated at n={worst[0]}, rho={worst[1]}*R_n")
    bad = None
    for n in range(2, 201):
        log_mass, floor = bounds.gaussian_mass_concentration(n)
        if math.exp(log_mass) < floor:
            bad = (n, math.exp(log_mass), floor)
            break
    suite.check(bad is None, "gaussian-mass-concentration",
                "mass floor holds for n in 2..200" if bad is None else
                f"claimed floor fails: reproduce with n={bad[0]}: "
                f"mass={bad[1]:.6f} < floor={bad[2]:.6f} "
                "(the radial mass mode sits at the bracket radius, so the "
                "ball holds just under half the mass)")


def _verify_remark(suite: _Suite):
    rep = bounds.radius_growth_report(density_from_name("gaussian"), [20, 40, 80, 160], 0.2)
    radii = [row.R for row in rep.rows]
    ok = all(b > a for a, b in zip(radii, radii[1:]))
    suite.check(ok, "balanced-radius-growth",
                f"gaussian radii {', '.join(f'{r:.4f}' for r in radii)} increase"
                if ok else "radii not increasing")
    suite.check(rep.decay_holds, "density-decay-at-balanced-radius",
                "f(R_n) <= f(0) sin(b0)^(n(1-k)) on the tested dimensions"
                if rep.decay_holds else "decay bound violated")
    rep_ub = bounds.radius_growth_report(density_from_name("unitball"), [10, 40], 0.2)
    ok_ub = all(row.R >= 1.0 - 1e-9 for row in rep_ub.rows)
    suite.check(ok_ub, "balanced-radius-support-floor",
                "unit-ball radii stay above the support" if ok_ub
                else "radius fell below the support")


def _verify_inclusion(suite: _Suite, points: int):
    configs = [("unitball", 2, 1.0, 0.15), ("unitball", 3, 0.9, 0.25),
               ("gaussian", 2, 0.8, 0.2), ("gaussian", 3, 1.0, 0.2)]
    for kind, n, R, r in configs:
        rep = verify_level_set_inclusion(density_from_name(kind), n, R, r,
                                         n_points=points)
        name = f"level-set-inclusion[{kind},n={n}]"
        exact = (f"exact candidates: {rep.exact_fixed} fixed-rule, "
                 f"{rep.exact_geometry} geometry")
        if rep.passed:
            suite.check(True, name, f"{len(rep.rows)} radii pass, min margin "
                        f"{rep.min_margin:.3e}; {exact}")
        else:
            suite.check(False, name, "offending rho: "
                        f"{', '.join(f'{x:.6f}' for x in rep.failures[:4])}; {exact}")


def _verify_montecarlo(suite: _Suite, samples: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    fails = []
    for i in range(10):
        kind = "gaussian" if i % 2 == 0 else "unitball"
        f = density_from_name(kind)
        d = float(rng.uniform(0.1, 1.2))
        t = float(rng.uniform(0.2, 1.5))
        est, err = monte_carlo_ball_measure(f, 3, d, t, samples, seed + i)
        truth = math.exp(off_center_ball_measure(f, 3, d, t) - log_mass(f, 3))
        if abs(est - truth) > 3.0 * max(err, 1e-12):
            fails.append((kind, d, t, est, truth, err))
    suite.check(not fails, "montecarlo-vs-quadrature",
                f"10 random configurations at n=3 agree within 3 stderr "
                f"({samples} samples)" if not fails else
                f"first disagreement: {fails[0]!r}")


def _cmd_verify(args) -> int:
    _check_points("--inclusion-points", args.inclusion_points, 1)
    _check_points("--samples", args.samples, 10_000, "sample")
    if args.seed < 0:  # numpy's generators take only nonnegative seeds
        raise _UsageError(f"argument --seed: must be nonnegative, got {args.seed}")
    suite = _Suite()
    if args.suite in ("spheres", "all"):
        _verify_spheres(suite)
    if args.suite in ("gaussian-lemmas", "all"):
        _verify_gaussian_lemmas(suite)
    if args.suite in ("remark", "all"):
        _verify_remark(suite)
    if args.suite in ("inclusion", "all"):
        _verify_inclusion(suite, args.inclusion_points)
    if args.suite in ("montecarlo", "all"):
        _verify_montecarlo(suite, args.samples, args.seed)
    _emit(suite.text(), args.output)
    return 0 if suite.all_ok else USAGE_EXIT


def _cmd_oracle(args) -> int:
    _check_points("--profile-points", args.profile_points, 2)
    _check_points("--t-points", args.t_points, 1)
    f = _density(args)
    if args.rho is not None:
        log_value = log_maximal_function_at(f, args.n, args.r, args.rho,
                                            t_points=args.t_points)
        payload = {"measure": args.measure, "n": args.n, "r": args.r,
                   "rho": args.rho, "log_value": log_value}
        _emit(to_json(payload) + "\n", args.output)
        return 0
    if args.p is not None:
        log_estimate = log_constant_estimate(f, args.n, args.r, args.p,
                                             points=args.profile_points,
                                             t_points=args.t_points)
        payload = {"measure": args.measure, "n": args.n, "r": args.r,
                   "p": args.p, "log_constant_estimate": log_estimate,
                   "profile_points": args.profile_points}
        _emit(to_json(payload) + "\n", args.output)
        return 0
    prof = maximal_profile(f, args.n, args.r, points=args.profile_points,
                           t_points=args.t_points)
    _emit(prof.to_csv(), args.output)
    return 0


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        bounds.clear_stage_caches()
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NoBalancedRadiusError, ValueError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
