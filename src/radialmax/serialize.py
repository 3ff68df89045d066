"""Deterministic JSON/CSV emission with 17-significant-digit floats.

The standard json module cannot format floats and emits bare Infinity
(invalid JSON), so a small emitter is used instead: every float is
rendered with %.17g (enough digits to round-trip a double) and non-finite
values become the strings "inf", "-inf", "nan", which strict parsers
accept.  Key order is the insertion order of the dict, so identical
configurations serialize byte-identically.
"""

from __future__ import annotations

import math


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def csv_float(x: float) -> str:
    return fmt_float(x).strip('"')


# a quote or backslash gets a backslash, a control character 0-31 its \u00xx
_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\",
                 **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _json_escape(s: str) -> str:
    return s.translate(_JSON_ESCAPES)


def to_json(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars; floats at 17 significant digits."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return f'"{_json_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{_json_escape(str(k))}": {to_json(v, indent + 2)}'
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(to_json(v, indent) for v in obj)
        return "[" + inner + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_lines(meta: dict, header: list, rows: list) -> str:
    """CSV with '#'-prefixed metadata lines, then header, then rows.

    Cells may be str, int, float or None (rendered empty); the decimal
    separator is '.', the delimiter ','.
    """
    out = []
    for key, val in meta.items():
        out.append(f"# {key}={val}")
    out.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, float):
                cells.append(csv_float(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
