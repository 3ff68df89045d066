"""Self-test of the benchmark at toy size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and prints every metric by name and
unit, untraced and traced; that a reference value perturbed by 1e-6 is
caught as a failed item; and that two traced runs of the same items give
identical counts.  Exits 0 only when all of this holds.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_STATS = ("calls", "evals", "unconverged", "radii", "thetas", "bytes", "evaluations",
               "ball_measures_per_call", "repeat_ratio", "useful_ratio", "exact_per_mg")


def _run_cli(workload: str, trace: int):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--toy"],
                          cwd=str(run.ROOT), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    units = run._metric_units(bool(trace))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: {result['failed']} failed items")
    for name, unit in units.items():
        if not any(re.fullmatch(rf"{re.escape(name)} = \S+ {re.escape(unit)}", ln)
                   for ln in lines):
            problems.append(f"{workload} trace={trace}: no line for {name} [{unit}]")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{workload} trace={trace}: {name} missing from the JSON line")
    return problems


def _perturbed_reference_is_caught(reference: dict):
    workload = "bound-exact"
    job = run._job(workload, 0, 0.0, None, reference, toy=True)
    target = job["passes"][0][0]["id"]
    bad = copy.deepcopy(reference)
    digest, values = bad["items"][target]
    values[1] *= 1.0 + 1e-6
    _, failures = run.run_untraced(workload, 0, 0.0, bad, toy=True)
    if not any(f.startswith(target + ":") for f in failures):
        return [f"a reference value of {target} perturbed by 1e-6 was not caught"]
    return []


def _traced_counts_repeat(reference: dict):
    problems = []
    for workload in WORKLOADS:
        first, second = (run.run_traced(workload, 3, reference, toy=True)[0]["metrics"]
                         for _ in range(2))
        for name in layertrace.METRICS:
            if name.rpartition(".")[2] in COUNT_STATS and first[name] != second[name]:
                problems.append(f"{workload}: {name} {first[name]} != {second[name]}")
    return problems


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    reference = json.loads((BENCH / "reference.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += _run_cli(workload, trace)
    problems += _perturbed_reference_is_caught(reference)
    problems += _traced_counts_repeat(reference)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
