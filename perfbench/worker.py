"""One benchmark worker: a fresh, single-threaded process running one workload.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py JOB.json PASSES.json RESULT.json

The job names the source tree, the warm-up item and the time budget; the
passes file, read only after set-up, holds the items.  The worker imports
``radialmax``, runs the warm-up item untimed, prints ``ready`` (run.py
times set-up up to that line), then times the speed probe and prints
``slowdown X`` (see ``speedprobe.py``).  Unless the job is set-up only, it
then runs whole blocks of two passes as one closed-loop client until the
budget is spent: an item starts only when the previous one has returned,
and the speed probe runs between items every 0.1 s.  A fixed
job runs its passes once, whatever the budget, so its counts repeat
exactly; a traced job runs each pass untraced and traced, to time the
tracing overhead.  The result file holds one JSON
line per item and a last line with the run's summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def _load_program(src: str):
    sys.path.insert(0, src)
    from radialmax import cli, optimize, oracle
    from radialmax.densities import density_from_name
    return {"cli": cli, "optimize": optimize, "oracle": oracle,
            "density_from_name": density_from_name}


def run_item(program: dict, item: dict):
    """Run one item; return (exit code, raw output, stderr text).

    A raised exception counts as a failed item; the run goes on.
    """
    call, args = item["call"], item["args"]
    try:
        if call == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = program["cli"].main(list(args))
            return rc, out.getvalue(), err.getvalue()
        if call == "inclusion":
            f = program["density_from_name"](args["kind"])
            rep = program["oracle"].verify_level_set_inclusion(
                f, args["n"], args["R"], args["r"], n_points=args["n_points"])
            return 0, [row.margin for row in rep.rows], ""
        if call == "growth":
            res = program["optimize"].max_growth_base_log(args["family"], args["p"])
            return 0, res.value, ""
    except Exception as exc:
        return 1, None, f"{type(exc).__name__}: {exc}"
    raise ValueError(f"unknown call {call!r}")


def _timed_loop(program, passes, seconds, tracer, sink, probe=None):
    """Run passes; write one record per item to ``sink`` as it completes.

    Records go straight to the file, so the worker's peak memory does not
    grow with the number of items a faster program gets through.  With a
    ``probe``, probe records (``{"probe": slowdown}``) are written between
    the items, and one before the first item and after the last.
    """
    if probe is not None:
        sink.write(json.dumps({"probe": probe.sample()}) + "\n")
    start = time.perf_counter()
    k = 0
    while True:
        for item in passes[k % len(passes)]:
            if tracer is not None:
                tracer.begin_item(item["id"])
            t0 = time.perf_counter()
            rc, out, err = run_item(program, item)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_item()
            sink.write(json.dumps({"id": item["id"], "digest": item["digest"],
                                   "call": item["call"], "args": item["args"],
                                   "units": item["units"], "s": dt, "rc": rc,
                                   "out": out, "err": err}) + "\n")
            if probe is not None and probe.due():
                sink.write(json.dumps({"probe": probe.sample(dt)}) + "\n")
        k += 1
        elapsed = time.perf_counter() - start
        if seconds is None:
            done = k >= len(passes)
        else:
            done = k % 2 == 0 and elapsed >= seconds  # whole blocks of two passes only
        if done:
            if probe is not None:
                sink.write(json.dumps({"probe": probe.sample()}) + "\n")
            return elapsed, k


def _traced_passes(program, passes, job, sink) -> dict:
    """Run every pass twice, untraced and traced, in alternating order.

    The two timings of a pass are taken seconds apart, so the ratio of
    their sums (the tracing overhead) holds even where the machine's speed
    drifts between runs.  Only the traced passes produce spans.
    """
    import layertrace
    tracer = layertrace.Tracer()
    wall = {False: 0.0, True: 0.0}
    for k, one in enumerate(passes):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            wall[traced] += _timed_loop(program, [one], None,
                                        tracer if traced else None, sink)[0]
            if traced:
                tracer.uninstall()
    tracer.write_spans(job["spans_path"])
    return {"wall_s": wall[True], "untraced_wall_s": wall[False], "passes": len(passes),
            "layers": tracer.metrics()}


def main(job_path: str, passes_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    program = _load_program(job["src"])
    run_item(program, job["warmup"])
    print("ready", flush=True)
    sys.path.insert(0, job["bench_dir"])
    import speedprobe
    print(f"slowdown {speedprobe.slowdown()!r}", flush=True)
    if job["setup_only"]:
        return 0
    with open(passes_path, encoding="utf-8") as fh:
        passes = json.load(fh)
    import numpy
    with open(result_path, "w", encoding="utf-8") as sink:
        summary = {"python": sys.version.split()[0], "numpy": numpy.__version__}
        if job["trace"]:
            summary.update(_traced_passes(program, passes, job, sink))
        else:
            summary["wall_s"], summary["passes"] = _timed_loop(
                program, passes, None if job["fixed"] else job["seconds"], None, sink,
                speedprobe.RunProbe())
        summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sink.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
