import json
import math

import pytest

from radialmax.serialize import _json_escape, csv_float, csv_lines, fmt_float, to_json


def test_floats_carry_seventeen_significant_digits():
    x = 1.0 / 3.0
    assert fmt_float(x) == "0.33333333333333331"
    assert float(fmt_float(x)) == x  # round-trips exactly


def test_non_finite_floats_become_strings():
    assert fmt_float(float("inf")) == '"inf"'
    assert fmt_float(float("-inf")) == '"-inf"'
    assert fmt_float(float("nan")) == '"nan"'
    assert csv_float(float("-inf")) == "-inf"


def test_to_json_is_strictly_parseable():
    payload = {"a": 1, "b": [1.5, None, True], "c": {"nested": "x\"y"},
               "d": float("-inf")}
    text = to_json(payload)
    back = json.loads(text)
    assert back["a"] == 1
    assert back["b"] == [1.5, None, True]
    assert back["c"]["nested"] == 'x"y'
    assert back["d"] == "-inf"


def _loop_json_escape(s: str) -> str:
    """The per-character escape loop that the translate table replaced."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def test_json_escape_matches_the_loop():
    # every code point 0-127, alone and in one string, and non-ASCII text
    texts = [chr(c) for c in range(128)] + ["".join(chr(c) for c in range(128)),
                                            "λ = 0.3, ‖x‖ ≤ r\x7f\x80\u2028\U0001d53c", ""]
    for text in texts:
        assert _json_escape(text) == _loop_json_escape(text), repr(text)
    assert json.loads(f'"{_json_escape(texts[128])}"') == texts[128]


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": object()})


def test_csv_lines_format():
    text = csv_lines({"run": "demo"}, ["a", "b"], [[1, 0.5], [None, math.pi]])
    lines = text.splitlines()
    assert lines[0] == "# run=demo"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3].startswith(",3.14159265358979")
