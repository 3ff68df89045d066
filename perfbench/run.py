"""The radialmax benchmark: four seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``radialmax`` from ``src/``
there and writes only under ``.perfbench_work/``.  ``--workload all``
runs the four workloads in turn.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
is timed on five fresh workers, from process start to the end of one
untimed warm-up item, and reported as the median (``setup_s``).  The
last of them then runs the workload as a closed loop with one client for
at least ``--seconds`` seconds, in whole blocks of two passes:
``units_per_s``, ``item_ms_p50`` and the worker's ``peak_rss_mb``.
``item_ms_p90`` (with its sample count) and the failed ratio are printed
above the JSON line, the p90 only where a run has 100 items or more.

Every time is scaled by the worker's speed probe (``speedprobe.py``) to
the machine the bounds were set on, because the host's own speed drifts
by more than the bounds between runs: each item by the probes just before
and after it, each set-up by the probe that follows it.  The measured
(unscaled) times and the run's mean slowdown are printed too, as ``#``
lines.

``--trace 1`` runs a fixed number of passes, each pass untraced and then
traced (the order alternates), and reports every per-layer metric of
``layertrace.METRICS`` plus the tracing overhead (traced over untraced
wall time of the same passes).  Counts from the
traced run are exact and repeat between runs of the same seed.

Every item's output is checked (see ``checks.py``); a failed item counts
in ``failed``.  Each worker is a fresh single-threaded process
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` are
1 in its environment only), and at most one worker runs at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layertrace  # noqa: E402
import speedprobe  # noqa: E402
from workloads import (WORKLOADS, passes, toy_passes, warmup_item,  # noqa: E402
                       write_density_files)

SETUP_WORKERS = 5
WORKER_TIMEOUT = 170.0
P90_MIN_ITEMS = 100
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "units_per_s": "1/s",
    "item_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _run_worker(job: dict, tag: str):
    """Start one worker, time its set-up, wait for it.

    Returns (setup_s, slowdown at set-up, result).
    """
    job_path = WORK / f"{tag}.job.json"
    passes_path = WORK / f"{tag}.passes.json"
    result_path = WORK / f"{tag}.result.json"
    log_path = WORK / f"{tag}.stderr.txt"
    job = dict(job)
    passes_path.write_text(json.dumps(job.pop("passes")))
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(job_path),
                                 str(passes_path), str(result_path)],
                                stdout=subprocess.PIPE, stderr=log,
                                env=_worker_env(), cwd=str(ROOT))
        try:
            line = probe = b""
            if select.select([proc.stdout], [], [], WORKER_TIMEOUT)[0]:
                line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if select.select([proc.stdout], [], [], WORKER_TIMEOUT)[0]:
                probe = proc.stdout.readline()
            rc = proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or not probe.startswith(b"slowdown ") or rc != 0:
        raise BenchError(f"worker {tag} failed (exit {rc}): "
                         f"{log_path.read_text(errors='replace')[-2000:]}")
    result = None
    if not job["setup_only"]:
        *lines, last = result_path.read_text().splitlines()
        records = [json.loads(ln) for ln in lines]
        result = dict(json.loads(last)["summary"],
                      items=[rec for rec in records if "probe" not in rec],
                      probes=sum("probe" in rec for rec in records))
        if result["probes"]:
            result["slowdowns"] = speedprobe.scale_items(records)
    return setup, float(probe.split()[1]), result


def _job(workload: str, seed: int, seconds: float, n_passes, reference: dict,
         toy: bool = False) -> dict:
    cost_order = reference["cost_order"][workload]
    if toy:
        all_passes = toy_passes(workload, cost_order)
        n_passes = len(all_passes)
    else:
        all_passes = passes(workload, seed, cost_order)
    if n_passes is not None:
        all_passes = all_passes[:n_passes]
    density_dir = WORK / "densities"
    return {
        "src": str(ROOT / "src"),
        "bench_dir": str(BENCH),
        "warmup": dict(warmup_item(workload), digest=""),
        "passes": [write_density_files(p, density_dir) for p in all_passes],
        "seconds": seconds,
        "fixed": n_passes is not None,
        "trace": False,
        "setup_only": False,
        "spans_path": str(WORK / f"spans-{workload}-seed{seed}.tsv"),
    }


def _check(result: dict, reference: dict):
    failures = []
    for rec in result["items"]:
        reason = checks.check_item(rec, reference["items"])
        if reason is not None:
            failures.append(f"{rec['id']}: {reason}")
    return failures


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _source_digest() -> str:
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_untraced(workload: str, seed: int, seconds: float, reference: dict,
                 toy: bool = False):
    """End-to-end metrics with tracing off; returns (record, failures)."""
    job = _job(workload, seed, seconds, None, reference, toy)
    setups = []  # (measured set-up, slowdown)
    for i in range(SETUP_WORKERS - 1):
        setups.append(_run_worker(dict(job, setup_only=True, passes=[]),
                                  f"{workload}-setup{i}")[:2])
    setup, setup_slowdown, result = _run_worker(job, f"{workload}-run")
    setups.append((setup, setup_slowdown))
    failures = _check(result, reference)
    measured_ms = [rec["s"] * 1e3 for rec in result["items"]]
    latencies = [ms / k for ms, k in zip(measured_ms, result["slowdowns"])]
    units = sum(rec["units"] for rec in result["items"])
    busy_s = sum(measured_ms) / 1e3
    scaled_busy_s = sum(latencies) / 1e3
    metrics = {
        "setup_s": statistics.median(s / k for s, k in setups),
        "units_per_s": units / scaled_busy_s,
        "item_ms_p50": statistics.median(latencies),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    info = {
        "unit": WORKLOADS[workload].unit,
        "items": len(latencies),
        "units": units,
        "passes": result["passes"],
        "wall_s": result["wall_s"],
        "busy_s": busy_s,
        "slowdown": busy_s / scaled_busy_s,
        "probe_samples": result["probes"],
        "measured_units_per_s": units / busy_s,
        "measured_item_ms_p50": statistics.median(measured_ms),
        "measured_setup_s": statistics.median(s for s, _ in setups),
        "setup_runs_s": [s for s, _ in setups],
        "setup_slowdowns": [k for _, k in setups],
        "failed_ratio": len(failures) / len(latencies),
        "python": result["python"],
        "numpy": result["numpy"],
    }
    if len(latencies) >= P90_MIN_ITEMS:
        info["item_ms_p90"] = _percentile(latencies, 90)
        info["item_ms_p90_samples_beyond"] = sum(x > info["item_ms_p90"] for x in latencies)
    return {"metrics": metrics, "info": info, "attempted": len(latencies)}, failures


def run_traced(workload: str, seed: int, reference: dict, toy: bool = False):
    """Per-layer metrics of a fixed item list; returns (record, failures)."""
    job = _job(workload, seed, 0.0, WORKLOADS[workload].trace_passes, reference, toy)
    _, _, traced = _run_worker(dict(job, trace=True), f"{workload}-traced")
    failures = _check(traced, reference)
    layers = traced["layers"]
    calls = layers.pop("calls_by_span")
    silent = [name for name, (_, _, on) in layertrace.SPANS.items()
              if workload in on and calls[name] == 0]
    if silent:
        raise BenchError(f"traced {workload}: no calls recorded for {', '.join(silent)}; "
                         "a wrapper missed a namespace")
    layers["trace_overhead"] = traced["wall_s"] / traced["untraced_wall_s"]
    info = {"items": len(traced["items"]), "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": traced["untraced_wall_s"], "spans_file": job["spans_path"],
            "python": traced["python"], "numpy": traced["numpy"]}
    return {"metrics": layers, "info": info, "attempted": len(traced["items"])}, failures


def _metric_units(trace: bool) -> dict:
    if trace:
        return {name: spec[0] for name, spec in layertrace.METRICS.items()}
    return END_TO_END


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict, toy: bool = False) -> dict:
    if trace:
        record, failures = run_traced(workload, seed, reference, toy)
    else:
        record, failures = run_untraced(workload, seed, seconds, reference, toy)
    units = _metric_units(trace)
    print(f"== {workload} seed={seed} trace={int(trace)} "
          f"unit={WORKLOADS[workload].unit!r}")
    for name, unit in units.items():
        print(f"{name} = {record['metrics'][name]!r} {unit}")
    for key, val in record["info"].items():
        print(f"# {key} = {val}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    provenance = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "git_revision": _git_revision(),
                  "source_digest": _source_digest(), "nproc": os.cpu_count(),
                  "machine": platform.machine(), "info": record["info"],
                  "failures": failures, "result": result}
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(provenance, indent=1) + "\n")
    print(f"# record = {out.relative_to(ROOT)} (revision {provenance['git_revision']}, "
          f"source {provenance['source_digest']}, nproc {provenance['nproc']})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a few cheap items per workload (for selftest.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "radialmax").is_dir():
        print(f"error: no radialmax source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    reference = json.loads((BENCH / "reference.json").read_text())
    shutil.rmtree(WORK / "densities", ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), reference,
                                args.toy)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}.{m}": v for name, r in zip(names, results)
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
