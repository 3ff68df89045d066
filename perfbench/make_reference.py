"""Regenerate reference.json: the outputs of every catalogue item.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every item of the named workloads (default: all) once, in this
process, against ``src/`` of the checkout it sits in, and rewrites their
entries in ``reference.json``; entries of other workloads are kept.  The
same pass records, per cell, the order of the variants by their time,
which pairs cheap with dear items in every block of a run (see
``workloads.passes``).  Make
the reference only at a commit whose outputs are known to be right: the
benchmark counts every later difference beyond 1e-9 as a failed item.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import CATALOGUE_SEED, WORKLOADS, catalogue_item, write_density_files  # noqa: E402

REFERENCE = BENCH / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    program = worker._load_program(str(BENCH.parent / "src"))
    ref = {"catalogue_seed": CATALOGUE_SEED, "cost_order": {}, "items": {}}
    if REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text())
    bad = 0
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name in args.workload or list(WORKLOADS):
            w = WORKLOADS[name]
            ref["items"] = {k: v for k, v in ref["items"].items()
                            if not k.startswith(name + "/")}
            times = []
            order = []
            for cell in range(w.cells):
                cell_times = []
                for variant in range(w.variants):
                    item, = write_density_files([catalogue_item(name, cell, variant)],
                                                Path(tmp))
                    t0 = time.perf_counter()
                    rc, out, err = worker.run_item(program, item)
                    cell_times.append(time.perf_counter() - t0)
                    values, reason = checks.item_values(item, rc, out, err)
                    if reason is not None:
                        print(f"{item['id']}: {reason}", file=sys.stderr)
                        bad += 1
                    elif values:
                        # 13 digits keep 1e-13 of the 1e-9 check and a third of the size
                        ref["items"][item["id"]] = [
                            item["digest"], [v if v is None else float(f"{v:.13g}")
                                             for v in values]]
                order.append(sorted(range(w.variants), key=cell_times.__getitem__))
                times += cell_times
            ref["cost_order"][name] = order
            print(f"{name}: {len(times)} items, {sum(times):.1f} s, "
                  f"median {statistics.median(times) * 1e3:.1f} ms, "
                  f"max {max(times) * 1e3:.0f} ms", file=sys.stderr)
    ref["items"] = dict(sorted(ref["items"].items()))
    ref["cost_order"] = dict(sorted(ref["cost_order"].items()))
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
