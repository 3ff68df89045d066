"""Turn an item's raw output into the values checked against the reference.

An item fails when it exits nonzero or raises (this includes a violated
certified chain, on which ``bound`` exits 2), when a ``sweep`` row has a
non-empty ``error`` column, when a ``p0`` value is more than 1e-3 from the
README's quoted exponent, or when a value differs from ``reference.json``
by more than ``REL_TOL`` (relative to the reference, and absolute below 1).
Inclusion rows are compared by margin, never by verdict: at n = 1 on the
unit ball the margins are exactly 0.0 or -0.0, and a verdict would flip
on rounding.
"""

from __future__ import annotations

import json
import math

from workloads import EXPONENT_TOL, README_EXPONENTS

REL_TOL = 1e-9
SWEEP_COLUMNS = ("alpha", "logT_lower", "logT_exact", "logT_upper", "dlogT_dn")


def _num(x):
    return None if x in (None, "") else float(x)


def _sweep_values(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    values = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",", len(header) - 1)))
        if row.get("error"):
            return None, f"sweep row error: {row['error']}"
        values += [_num(row[c]) for c in SWEEP_COLUMNS]
    if not values:
        return None, "sweep printed no rows"
    return values, None


def _bound_values(text: str):
    rep = json.loads(text)
    terms = rep["terms"]
    return [_num(rep["alpha"]), _num(rep["logT_lower"]), _num(rep["logT_exact"]),
            *(_num(terms[k]) for k in sorted(terms))], None


def _p0_values(text: str):
    rep = json.loads(text)
    target, value = rep["target"], float(rep["value"])
    if not abs(value - README_EXPONENTS[target]) <= EXPONENT_TOL:
        return None, f"p0 {target} = {value!r}, README quotes {README_EXPONENTS[target]}"
    return [], None


def item_values(item: dict, rc: int, out, err: str):
    """(values, None) for a good run, (None, reason) for a failed one."""
    if rc != 0:
        return None, f"exit {rc}: {err.strip()[-300:]}"
    call = item["call"]
    if call == "inclusion":
        return [float(m) for m in out], None
    if call == "growth":
        return [float(out)], None
    command = item["args"][0]
    try:
        if command == "sweep":
            return _sweep_values(out)
        if command == "bound":
            return _bound_values(out)
        if command == "p0":
            return _p0_values(out)
    except (ValueError, KeyError, IndexError) as exc:
        return None, f"unparseable {command} output: {exc}"
    return None, f"no check for {command!r}"


def compare(values: list, expected: list):
    """None when every value matches the reference, else the first mismatch."""
    if len(values) != len(expected):
        return f"{len(values)} values, reference has {len(expected)}"
    for i, (got, want) in enumerate(zip(values, expected)):
        if got is None or want is None:
            if got is not want:
                return f"value {i}: {got!r} != reference {want!r}"
        elif not (got == want or abs(got - want) <= REL_TOL * max(1.0, abs(want))):
            if not (math.isnan(got) and math.isnan(want)):
                return f"value {i}: {got!r} != reference {want!r}"
    return None


def check_item(item_result: dict, reference: dict):
    """Failure reason for one recorded item, or None when it is correct.

    ``reference`` maps item ids to ``[digest, values]``, as in the
    ``items`` of reference.json.
    """
    values, reason = item_values(item_result, item_result["rc"], item_result["out"],
                                 item_result["err"])
    if reason is not None:
        return reason
    if not values:  # p0: checked against the README above
        return None
    entry = reference.get(item_result["id"])
    if entry is None:
        return "no reference for this item"
    digest, expected = entry
    if digest != item_result["digest"]:
        return "item inputs differ from the ones the reference was made with"
    return compare(values, expected)
