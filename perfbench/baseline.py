"""Record a baseline: repeated runs of every workload, summarised per metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out FILE
    python3 perfbench/baseline.py --compare OLD.json NEW.json

Runs ``run.py`` exactly as BENCHMARK.json's command does, once per seed
and workload with tracing off, and twice with tracing on (same seed) to
check that every count repeats exactly.  For every end-to-end metric it
stores the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and the run count; for the traced
run, every per-layer value.  ``--compare`` checks that no median of NEW is
worse than OLD's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from selftest import COUNT_STATS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} failed items")
    print(f"{workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if trace == 0), flush=True)
    return result


def _summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def record(runs: int, first_seed: int, workloads) -> dict:
    spec = _spec()
    out = {"run_seconds": spec["run_seconds"], "seeds": [first_seed, first_seed + runs - 1],
           "nproc": os.cpu_count(), "workloads": {}}
    for wl in workloads or [w["name"] for w in spec["workloads"]]:
        results = [_run(spec, wl, first_seed + i, 0) for i in range(runs)]
        e2e = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in results])
               for m in spec["end_to_end"]}
        traced = [_run(spec, wl, first_seed, 1)["metrics"] for _ in range(2)]
        layers = {name: v["value"] for name, v in traced[0].items()}
        drift = [name for name in layers if name.rpartition(".")[2] in COUNT_STATS
                 and traced[1][name]["value"] != layers[name]]
        if drift:
            raise SystemExit(f"{wl}: counts differ between two traced runs: {drift}")
        out["workloads"][wl] = {"end_to_end": e2e, "per_layer": layers,
                                "per_layer_self_s_second_run": {
                                    k: v["value"] for k, v in traced[1].items()
                                    if k.endswith(".self_s")}}
    info = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys, numpy; print(json.dumps("
         "{'python': sys.version.split()[0], 'numpy': numpy.__version__}))"],
        capture_output=True, text=True, check=True).stdout)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                         capture_output=True, text=True)
    out.update(info, git_revision=rev.stdout.strip() or "unknown")
    return out


def compare(old: dict, new: dict) -> int:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    bad = 0
    for wl, entry in old["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            m = bounds[name]
            a, b = stats["median"], new["workloads"][wl]["end_to_end"][name]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            bad += verdict != "ok"
            print(f"{wl:17s} {name:12s} {a:12.6g} -> {b:12.6g}  worse by {worse:+.3f} "
                  f"(bound {m['bound']})  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(old, new)
    result = record(args.runs, args.first_seed, args.workload)
    for wl, entry in result["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            print(f"{wl:17s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} over {stats['runs']} runs")
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
