"""Check every benchmark catalogue item against perfbench/reference.json.

    python3 tools/check_catalogue.py [--workload NAME ...] [--dump PATH]

Runs each item of the named workloads (default: all) once, in this
process, against ``src/`` of this checkout, through the benchmark's own
``worker.run_item`` and ``checks.check_item``; density files go to a
temporary directory, and nothing under ``perfbench/`` is written.  Prints,
per workload, the item count, the failures, the largest relative gap to
the reference and a SHA-256 over every item's id, exit code, output (the
margins and growth values as ``float.hex``) and stderr, which is equal on
two trees exactly when their outputs are byte-identical.  Next to the hash
it prints the minor page faults per item, from ``getrusage`` of this
process over the workload's items: a reading, not a check.  ``--dump PATH``
also writes those four fields of every item to PATH, one JSON object a
line ({"id", "rc", "out", "err"}, in catalogue order), so that two trees
whose hashes differ can be diffed item by item; PATH may not lie under
``perfbench/``.  Exits 1 when an item fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or src/

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, catalogue_item, write_density_files  # noqa: E402


def _hashable(out):
    if isinstance(out, list):
        return [float(x).hex() for x in out]
    return float(out).hex() if isinstance(out, float) else out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--dump", type=Path, metavar="PATH",
                        help="write every item's id, exit code, output and stderr as JSON lines")
    args = parser.parse_args(argv)
    if args.dump and (ROOT / "perfbench") in args.dump.resolve().parents:
        parser.error("--dump may not write under perfbench/")
    program = worker._load_program(str(ROOT / "src"))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["items"]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp, \
            (open(args.dump, "w") if args.dump else contextlib.nullcontext()) as dump:
        for name in args.workload or list(WORKLOADS):
            digest, worst, bad, count = hashlib.sha256(), 0.0, 0, 0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for cell in range(WORKLOADS[name].cells):
                for variant in range(WORKLOADS[name].variants):
                    item, = write_density_files([catalogue_item(name, cell, variant)],
                                                Path(tmp))
                    rc, out, err = worker.run_item(program, item)
                    count += 1
                    fields = [item["id"], rc, _hashable(out), err]
                    digest.update(json.dumps(fields).encode())
                    if dump:
                        dump.write(json.dumps(dict(zip(("id", "rc", "out", "err"), fields))) + "\n")
                    reason = checks.check_item(dict(item, rc=rc, out=out, err=err), reference)
                    if reason is not None:
                        print(f"FAIL {item['id']}: {reason}")
                        bad += 1
                        continue
                    values, _ = checks.item_values(item, rc, out, err)
                    for got, want in zip(values, reference.get(item["id"], [None, []])[1]):
                        if got is not None and want is not None:
                            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            print(f"{name}: {count} items, {bad} failed, worst relative gap {worst:.2g}, "
                  f"sha256 {digest.hexdigest()}, {faults / count:.1f} minor faults per item")
            failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
