"""Per-layer tracing of radialmax from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``radialmax`` namespace that holds it (``log_integral`` is bound in
``quadrature``, ``measures``, ``geometry`` and ``oracle``, for example),
and wraps the ``_MaximalEvaluator`` methods on the class.  Each call
becomes a span: item id, parent span, name, start, end, and the time its
child spans covered, so self time is the span minus its children.  Spans
stay in memory and are written out once, when the run ends.

``densities`` and ``logspace`` get no spans: their functions run inside
integrands, where a wrapper would distort the timing, so their cost lands
in the caller's self time.  A function that calls itself (``to_json``)
records one span for the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

SWEEP, BOUND, ORACLE, EXPONENTS = ("sweep-general", "bound-exact",
                                   "oracle-inclusion", "exponents")
NUMERIC = (SWEEP, BOUND, ORACLE)

# span name -> (module, attribute, workloads on which it must fire).
# A span that fails to fire where listed fails the traced run, so a
# namespace the wrapper missed cannot read as zero.
SPANS = {
    "cli.main": ("cli", "main", (SWEEP, BOUND, EXPONENTS)),
    "serialize.to_json": ("serialize", "to_json", (BOUND, EXPONENTS)),
    "serialize.csv_lines": ("serialize", "csv_lines", (SWEEP,)),
    "bounds.general_construction": ("bounds", "general_construction", (SWEEP,)),
    "bounds.gaussian_construction": ("bounds", "gaussian_construction", (BOUND,)),
    "bounds.unitball_construction": ("bounds", "unitball_construction", (BOUND,)),
    "bounds.solve_radius_equation": ("bounds", "solve_radius_equation", (SWEEP,)),
    "optimize.maximize_scalar": ("optimize", "maximize_scalar", (EXPONENTS,)),
    "optimize.find_root": ("optimize", "find_root", (EXPONENTS,)),
    "oracle.evaluator_init": ("oracle", "_MaximalEvaluator.__init__", (ORACLE,)),
    "oracle.log_maximal_at": ("oracle", "_MaximalEvaluator.log_maximal_at", (ORACLE,)),
    "oracle.scan_pair": ("oracle", "_MaximalEvaluator._scan_pair", (ORACLE,)),
    "oracle.exact_ratio": ("oracle", "_MaximalEvaluator._exact_ratio", (ORACLE,)),
    "geometry.off_center_ball_measure": ("geometry", "off_center_ball_measure", NUMERIC),
    "geometry.intersect_with_centered_ball": ("geometry", "intersect_with_centered_ball",
                                              (ORACLE,)),
    "geometry._cap_j_log": ("geometry", "_cap_j_log", NUMERIC),
    "measures.log_ball_measure": ("measures", "log_ball_measure", NUMERIC),
    "measures.log_ball_measure_grid": ("measures", "log_ball_measure_grid", (SWEEP, ORACLE)),
    "measures.upper_cutoff": ("measures", "upper_cutoff", NUMERIC),
    "measures.log_sphere_area": ("measures", "log_sphere_area", NUMERIC),
    "quadrature.log_integral": ("quadrature", "log_integral", NUMERIC),
    "quadrature.integrate": ("quadrature", "integrate", NUMERIC),
    "special.lgamma": ("special", "lgamma", NUMERIC),
}
MODULES = ("cli", "serialize", "bounds", "optimize", "oracle", "geometry",
           "measures", "quadrature", "special", "densities", "logspace", "errors")

# (span, stats, end-to-end metric it should move, on which workloads).
# Every per-layer metric is "<span>.<stat>"; a stat named alone is not
# tied to one span.  The last two columns are predictions, written down
# before any change is measured against them.
_ORACLE = "units_per_s (peak_rss_mb must not rise)"
LAYER_TABLE = (
    ("quadrature.log_integral", ("calls", "self_s", "evals", "unconverged"), "units_per_s",
     "bound-exact, sweep-general, oracle-inclusion; not exponents"),
    ("quadrature.integrate", ("calls", "self_s", "evals"), "item_ms_p90, units_per_s",
     "sweep-general (tabulated tail); not bound-exact"),
    ("bounds.solve_radius_equation",
     ("calls", "self_s", "ball_measures_per_call", "repeat_ratio"), "units_per_s",
     "sweep-general only"),
    ("measures.log_ball_measure", ("calls", "self_s"), "units_per_s", "sweep-general"),
    ("measures.log_ball_measure_grid", ("calls", "self_s", "radii"), "units_per_s",
     "sweep-general"),
    ("measures.upper_cutoff", ("calls", "self_s"), "units_per_s", "sweep-general"),
    ("geometry.off_center_ball_measure", ("calls", "self_s"), "item_ms_p50",
     "bound-exact; units_per_s on oracle-inclusion"),
    ("geometry.intersect_with_centered_ball", ("calls", "self_s"), "item_ms_p50",
     "bound-exact; units_per_s on oracle-inclusion"),
    ("geometry._cap_j_log", ("calls", "self_s", "thetas"), "item_ms_p50",
     "bound-exact; units_per_s on oracle-inclusion"),
    ("oracle.evaluator_init", ("calls", "self_s"), _ORACLE, "oracle-inclusion only"),
    ("oracle.log_maximal_at", ("calls", "self_s"), _ORACLE, "oracle-inclusion only"),
    ("oracle.scan_pair", ("calls", "self_s"), _ORACLE, "oracle-inclusion only"),
    ("oracle.exact_ratio", ("calls", "self_s", "useful_ratio"), _ORACLE,
     "oracle-inclusion only"),
    ("oracle", ("exact_per_mg",), _ORACLE, "oracle-inclusion only"),
    ("bounds.general_construction", ("calls", "self_s"), "item_ms_p50",
     "bound-exact, sweep-general"),
    ("bounds.gaussian_construction", ("calls", "self_s"), "item_ms_p50",
     "bound-exact, sweep-general"),
    ("bounds.unitball_construction", ("calls", "self_s"), "item_ms_p50",
     "bound-exact, sweep-general"),
    ("optimize.maximize_scalar", ("calls", "self_s", "evaluations"), "item_ms_p50",
     "exponents only"),
    ("optimize.find_root", ("calls",), "item_ms_p50", "exponents only"),
    ("measures.log_sphere_area", ("calls", "self_s"), "item_ms_p50", "bound-exact"),
    ("special.lgamma", ("calls", "self_s"), "item_ms_p50", "bound-exact"),
    ("cli.main", ("calls", "self_s"),
     "item_ms_p50", "bound-exact; units_per_s on exponents"),
    ("serialize.to_json", ("self_s", "bytes"),
     "item_ms_p50", "bound-exact; units_per_s on exponents"),
    ("serialize.csv_lines", ("self_s", "bytes"), "item_ms_p50", "sweep-general"),
    ("", ("trace_overhead",), "none: the cost of tracing itself", "every workload"),
)
_UNITS = {"self_s": "s", "ball_measures_per_call": "ratio", "repeat_ratio": "ratio",
          "useful_ratio": "ratio", "exact_per_mg": "ratio", "trace_overhead": "ratio"}
# metric -> (unit, better, should move, on)
METRICS = {
    f"{span}.{stat}" if span else stat:
        (_UNITS.get(stat, "count"), "higher" if stat == "useful_ratio" else "lower", moves, on)
    for span, stats, moves, on in LAYER_TABLE for stat in stats
}


def _density_key(f):
    return (type(f).__name__, tuple(sorted(
        (k, np.asarray(v).tobytes()) for k, v in vars(f).items())))


def _extra(name, args, kwargs, out):
    """The one number a span records besides its times."""
    if name in ("quadrature.log_integral", "quadrature.integrate"):
        # the sign carries the converged flag
        return out.evaluations if out.converged else -out.evaluations
    if name == "optimize.maximize_scalar":
        return out.evaluations
    if name in ("serialize.to_json", "serialize.csv_lines"):
        return len(out.encode("utf-8"))
    if name == "geometry._cap_j_log":
        return int(np.size(args[1] if len(args) > 1 else kwargs["theta"]))
    if name == "measures.log_ball_measure_grid":
        return int(np.size(args[2] if len(args) > 2 else kwargs["radii"]))
    if name == "oracle.exact_ratio":
        return out
    return 0


class Tracer:
    def __init__(self):
        self.names = ["item", *SPANS]
        self.spans = []  # (id, parent, item, name index, start, end, child time, extra)
        self.stack = []
        self.item = ""
        self.next_id = 1
        self.solve_keys = set()
        self._undo = []

    def begin_item(self, item_id: str):
        self.item = item_id
        self.stack.append([self.next_id, 0, 0.0, time.perf_counter()])
        self.next_id += 1

    def end_item(self):
        sid, idx, child, t0 = self.stack.pop()
        self.spans.append((sid, 0, self.item, idx, t0, time.perf_counter(), child, 0))

    def _wrap(self, name, fn):
        idx = self.names.index(name)
        tracer = self
        solve = name == "bounds.solve_radius_equation"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == idx:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, idx, 0.0, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
            if solve:
                tracer.solve_keys.add((_density_key(args[0]), *args[1:4]))
            tracer.spans.append((sid, parent, tracer.item, idx, t0, t1, frame[2],
                                 _extra(name, args, kwargs, out)))
            return out

        return wrapper

    def install(self):
        """Wrap every traced function in every radialmax namespace holding it."""
        modules = [importlib.import_module("radialmax")]
        modules += [importlib.import_module(f"radialmax.{m}") for m in MODULES]
        for name, (mod_name, attr, _) in SPANS.items():
            home = importlib.import_module(f"radialmax.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        """Every per-layer metric (except trace_overhead) from the spans."""
        calls, self_s, extra, unconverged = {}, {}, {}, {}
        exact_by_parent = {}
        solve_ids = set()
        for sid, parent, _item, idx, t0, t1, child, x in self.spans:
            name = self.names[idx]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child)
            if name in ("quadrature.log_integral", "quadrature.integrate"):
                extra[name] = extra.get(name, 0) + abs(x)
                unconverged[name] = unconverged.get(name, 0) + (x < 0)
            elif name == "oracle.exact_ratio":
                exact_by_parent.setdefault(parent, []).append(x)
            elif name == "bounds.solve_radius_equation":
                solve_ids.add(sid)
            else:
                extra[name] = extra.get(name, 0) + x
        ball_in_solve = sum(1 for s in self.spans if s[1] in solve_ids
                            and self.names[s[3]] == "measures.log_ball_measure")
        useful = sum(sum(1 for v in vals if v == max(vals))
                     for vals in exact_by_parent.values())

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric in METRICS:
            if metric == "trace_overhead":
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif stat == "unconverged":
                out[metric] = unconverged.get(span, 0)
            elif stat in ("evals", "radii", "thetas", "bytes", "evaluations"):
                out[metric] = extra.get(span, 0)
        solves = calls.get("bounds.solve_radius_equation", 0)
        exact = calls.get("oracle.exact_ratio", 0)
        out["bounds.solve_radius_equation.ball_measures_per_call"] = ratio(ball_in_solve, solves)
        out["bounds.solve_radius_equation.repeat_ratio"] = ratio(solves, len(self.solve_keys))
        out["oracle.exact_ratio.useful_ratio"] = ratio(useful, exact)
        out["oracle.exact_per_mg"] = ratio(exact, calls.get("oracle.log_maximal_at", 0))
        out["calls_by_span"] = {name: calls.get(name, 0) for name in SPANS}
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\tchild_s\textra\n")
            for sid, parent, item, idx, t0, t1, child, x in self.spans:
                fh.write(f"{sid}\t{parent}\t{item}\t{self.names[idx]}\t"
                         f"{t0:.9f}\t{t1:.9f}\t{child:.9f}\t{x!r}\n")
