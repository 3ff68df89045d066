import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import radialmax
from radialmax import bounds
from radialmax.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    """The data rows of a sweep's CSV, without its comment lines and header."""
    return [l for l in out.splitlines() if l and not l.startswith("#")][1:]


class TestP0Command:
    @pytest.mark.parametrize("target,expected", [
        ("general", 1.005274),
        ("gaussian-lower", 1.011871),
        ("gaussian-upper", 1.049427),
        ("unitball", 1.03946),
    ])
    def test_targets(self, capsys, target, expected):
        code, out, _ = run(capsys, "p0", target)
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == target
        assert payload["value"] == pytest.approx(expected, abs=1e-3)
        assert payload["bracket"][0] <= payload["argmax"] <= payload["bracket"][1]
        assert payload["evaluations"] > 2000

    def test_bad_target_is_usage_error(self, capsys):
        code, _, err = run(capsys, "p0", "cauchy")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("pre_scan", ["1", "0", "-3"])
    def test_pre_scan_below_two_is_usage_error(self, capsys, pre_scan):
        # one point used to print the degenerate bracket [lo, lo] and exit 0
        code, out, err = run(capsys, "p0", "unitball", "--pre-scan", pre_scan)
        assert code == 1
        assert out == ""
        assert (f"radialmax p0: error: argument --pre-scan: needs at least 2 points, "
                f"got {pre_scan}") in err

    def test_two_point_pre_scan_runs(self, capsys):
        code, out, _ = run(capsys, "p0", "unitball", "--pre-scan", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.03946, abs=1e-3)


class TestCountOptions:
    """The oracle's and verify's counts below their minimum are usage errors,
    as p0's --pre-scan below 2 is."""

    ORACLE = ["oracle", "--measure", "gaussian", "--n", "2", "--r", "0.3"]

    @pytest.mark.parametrize("argv,option,value,needs", [
        # an IndexError traceback in maximal_profile
        (ORACLE, "--profile-points", "0", "2 points"),
        # "constant_lower_bound": 0 from a profile with no cell to integrate
        (ORACLE + ["--p", "2"], "--profile-points", "1", "2 points"),
        # a silently skipped t scan, and numpy's negative sample count
        (ORACLE + ["--rho", "0.5"], "--t-points", "0", "1 point"),
        (ORACLE + ["--rho", "0.5"], "--t-points", "-3", "1 point"),
        # min() of an empty sequence, exit 2
        (["verify", "inclusion"], "--inclusion-points", "0", "1 point"),
        # "ValueError: need at least 1e4 samples", exit 2
        (["verify", "montecarlo"], "--samples", "9999", "10000 samples"),
        (["verify", "spheres"], "--samples", "0", "10000 samples"),
    ], ids=["profile-points=0", "profile-points=1-p", "t-points=0", "t-points=-3",
            "inclusion-points=0", "samples=9999", "samples=0-spheres"])
    def test_count_below_minimum_is_usage_error(self, capsys, argv, option, value, needs):
        code, out, err = run(capsys, *argv, option, value)
        assert code == 1
        assert out == ""
        assert (f"radialmax {argv[0]}: error: argument {option}: needs at least "
                f"{needs}, got {value}") in err

    @pytest.mark.parametrize("tol,shown", [("nan", "nan"), ("0", "0.0"), ("-0.5", "-0.5")])
    def test_p0_tol_must_be_positive(self, capsys, tol, shown):
        # a NaN or nonpositive tolerance ran every golden search to its step cap
        code, out, err = run(capsys, "p0", "unitball", "--tol", tol)
        assert code == 1
        assert out == ""
        assert f"radialmax p0: error: argument --tol: needs a positive value, got {shown}" in err


class TestMeasureOption:
    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "10", "--p", "1.01", "--lambda", "0.2"],
        ["sweep", "--n-range", "5,10", "--p", "1.01"],
        ["oracle", "--n", "2", "--r", "0.3", "--rho", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_lebesgue_is_usage_error(self, capsys, argv):
        # only finite measures are offered
        code, out, err = run(capsys, argv[0], "--measure", "lebesgue", *argv[1:])
        assert code == 1
        assert out == ""
        assert "argument --measure: invalid choice: 'lebesgue'" in err


FOUR_KNOTS = "# s logf\n0.25 0.0\n0.67 -0.5\n1.19 -0.8\n1.45 -1.7\n"

MEASURE_COMMANDS = [
    ["bound", "--n", "7", "--p", "1.01", "--lambda", "0.2"],
    ["sweep", "--n-range", "7", "--p", "1.01"],
    ["oracle", "--n", "2", "--r", "0.3", "--rho", "0.5"],
]


class TestDensityFileOption:
    """``--measure tabulated`` reads ``--density-file``; every fault of that
    option is a usage error that names it."""

    @pytest.mark.parametrize("argv", MEASURE_COMMANDS, ids=lambda argv: argv[0])
    def test_missing_option(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--measure", "tabulated", *argv[1:])
        assert (code, out) == (1, "")
        assert (f"radialmax {argv[0]}: error: argument --density-file: "
                "--measure tabulated needs a density file") in err

    @pytest.mark.parametrize("argv", MEASURE_COMMANDS, ids=lambda argv: argv[0])
    def test_missing_file(self, capsys, tmp_path, argv):
        path = str(tmp_path / "absent.txt")
        code, out, err = run(capsys, argv[0], "--measure", "tabulated",
                             "--density-file", path, *argv[1:])
        assert (code, out) == (1, "")
        assert f"radialmax {argv[0]}: error: argument --density-file: " in err
        assert "No such file or directory" in err and path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,message", [
        ("# s logf\n0.5 0.0\n1.0 abc\n", "{path}:3: could not convert string to float: 'abc'"),
        ("0.5 0.0\n1.0 0.5\n", "log densities must be nonincreasing (radially decreasing f)"),
    ], ids=["non-numeric", "increasing"])
    def test_malformed_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "bound", "--measure", "tabulated", "--density-file",
                             str(path), "--n", "7", "--p", "1.01", "--lambda", "0.2")
        assert (code, out) == (1, "")
        assert ("radialmax bound: error: argument --density-file: "
                + message.format(path=path)) in err

    def test_the_general_construction_by_default(self, capsys, tmp_path):
        path = tmp_path / "density.txt"
        path.write_text(FOUR_KNOTS, encoding="utf-8")
        argv = ["bound", "--measure", "tabulated", "--density-file", str(path),
                "--n", "7", "--p", "1.01", "--lambda", "0.2"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["construction"] == "general"
        assert run(capsys, *argv, "--construction", "general") == (0, out, "")

    def test_two_zero_steps_in_a_row_load(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0.5 0\n1.0 -inf\n2.0 -inf\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bound", "--measure", "tabulated", "--density-file",
                                 str(path), "--construction", "general", "--n", "10",
                                 "--p", "1.01", "--lambda", "0.2")
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 10

    @pytest.mark.parametrize("measure", ["gaussian", "unitball"])
    @pytest.mark.parametrize("argv", MEASURE_COMMANDS, ids=lambda argv: argv[0])
    def test_file_with_other_measure(self, capsys, tmp_path, measure, argv):
        path = tmp_path / "density.txt"
        path.write_text(FOUR_KNOTS, encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--measure", measure,
                             "--density-file", str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert (f"radialmax {argv[0]}: error: argument --density-file: only --measure "
                f"tabulated reads a density file, got --measure {measure}") in err


class TestExactThreshold:
    """Exact T is computed up to bounds.T_EXACT_MAX_N, and no option moves it."""

    def test_texact_max_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "--measure", "gaussian", "--n", "10",
                             "--p", "1.01", "--lambda", "0.2", "--texact-max-n", "5")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --texact-max-n 5" in err

    def test_sweep_exact_column_ends_at_threshold(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "gaussian",
                           "--n-range", "10000,10001", "--p", "1.01")
        assert code == 0
        assert "# texact_max_n=10000\n" in out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        assert [row["n"] for row in rows] == ["10000", "10001"]
        assert float(rows[0]["logT_exact"]) > float(rows[0]["logT_lower"])
        assert rows[1]["logT_exact"] == ""


class TestBoundCommand:
    def test_gaussian_construction_chain(self, capsys):
        code, out, _ = run(capsys, "bound", "--measure", "gaussian", "--n", "100",
                           "--p", "1.005", "--lambda", "0.2",
                           "--construction", "gaussian")
        assert code == 0
        payload = json.loads(out)
        assert payload["logT_exact"] >= payload["logT_lower"]
        assert payload["R"] < math.sqrt(99.0 / (2.0 * math.pi))
        assert payload["terms"]["dominance_margin"] > 0.0

    def test_general_construction_reports_l_k(self, capsys):
        code, out, _ = run(capsys, "bound", "--measure", "gaussian", "--n", "30",
                           "--p", "1.003", "--lambda", "0.2",
                           "--construction", "general")
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == 20
        assert payload["k"] == pytest.approx(1.0 / 21.0)
        assert payload["logT_exact"] >= payload["logT_lower"]

    def test_unitball_sandwich(self, capsys):
        code, out, _ = run(capsys, "bound", "--measure", "unitball", "--n", "20",
                           "--p", "1.02", "--R", "1", "--lambda", "0.15")
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"]["sandwich_lower"] - 1e-9 <= payload["logT_exact"]
        assert payload["logT_exact"] <= payload["terms"]["sandwich_upper"] + 1e-9

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run(capsys, "bound", "--measure", "gaussian", "--n", "10",
                           "--p", "1.01", "--lambda", "0.9")
        assert code == 2
        assert "error" in err

    def test_infinite_p_exits_two(self, capsys):
        # "alpha must be positive" from the report, after the construction ran
        code, out, err = run(capsys, "bound", "--measure", "gaussian", "--n", "10",
                             "--p", "inf", "--lambda", "0.2")
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: p must be finite\n"

    def test_unitball_radius_zero_exits_two(self, capsys):
        code, out, err = run(capsys, "bound", "--measure", "unitball",
                             "--construction", "unitball", "--R", "0", "--n", "20",
                             "--p", "1.02", "--lambda", "0.15")
        assert code == 2
        assert out == ""
        assert "R must lie in (0, 1]" in err

    def test_unitball_radius_below_one_exits_two(self, capsys):
        code, out, err = run(capsys, "bound", "--measure", "unitball", "--n", "100",
                             "--p", "1.02", "--R", "0.8", "--lambda", "0.2")
        assert code == 2
        assert out == ""
        assert "only certified at R = 1" in err

    @pytest.mark.parametrize("lam", ["-1", "nan"])
    def test_unitball_nonpositive_lambda_exits_two(self, capsys, lam):
        # at -1 the sandwich's sqrt(2)/(1 + lam) would divide by zero
        code, out, err = run(capsys, "bound", "--measure", "unitball", "--n", "10",
                             f"--lambda={lam}", "--p", "1.01")
        assert code == 2
        assert out == ""
        assert err == "error: ValueError: lam must be positive\n"

    def test_unitball_measure_defaults_to_unitball_construction(self, capsys):
        code, out, _ = run(capsys, "bound", "--measure", "unitball", "--n", "20",
                           "--p", "1.02", "--lambda", "0.15")
        assert code == 0
        payload = json.loads(out)
        assert payload["construction"] == "unitball"
        assert payload["R"] == 1

    def test_missing_lambda_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "--measure", "gaussian", "--n", "10",
                             "--p", "1.01")
        assert code == 1
        assert out == ""
        assert "--lambda" in err

    def test_lowercase_r_is_usage_error(self, capsys):
        # bound has no --r, and takes no abbreviated options
        code, out, err = run(capsys, "bound", "--measure", "gaussian", "--n", "10",
                             "--p", "1.01", "--lambda", "0.2", "--r", "123")
        assert code == 1
        assert out == ""
        assert "--r" in err


class TestSweepCommand:
    def test_abbreviated_option_is_usage_error(self, capsys):
        # --n is bound's option; sweep must not expand it to --n-range
        code, out, err = run(capsys, "sweep", "--measure", "gaussian", "--n", "10",
                             "--lambda", "0.2", "--p", "1.01")
        assert code == 1
        assert out == ""
        assert "--n" in err

    def test_general_sweep_slope_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "gaussian",
                           "--n-range", "50:150:50", "--lambda", "0.2",
                           "--p", "1.004", "--construction", "general")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [l.split(",") for l in lines[1:]]
        assert header[:3] == ["n", "lambda", "p"]
        assert len(rows) == 3
        alpha = float(rows[0][header.index("alpha")])
        for row in rows[1:]:
            slope = float(row[header.index("dlogT_dn")])
            assert slope == pytest.approx(math.log(alpha), rel=1e-8)
        assert all(row[header.index("error")] == "" for row in rows)

    def test_unitball_upper_column_decreases_above_critical_p(self, capsys):
        # p = 1.05 sits above the unit-ball critical exponent, so the
        # closed-form upper bound shrinks with the dimension
        code, out, _ = run(capsys, "sweep", "--measure", "unitball",
                           "--n-range", "50:150:50", "--lambda", "0.15",
                           "--p", "1.05", "--construction", "unitball")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        uppers = [float(row.split(",")[header.index("logT_upper")])
                  for row in lines[1:]]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_row_errors_recorded_and_run_continues(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball", "--R", "0.5",
                           "--n-range", "5,10", "--lambda", "0.2", "--p", "1.01")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 2
        assert all("only certified at R = 1" in row for row in rows)

    def test_construction_measure_mismatch_recorded_per_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball",
                           "--construction", "gaussian", "--n-range", "10",
                           "--lambda", "0.2", "--p", "1.01")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header = lines[0].split(",")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[header.index("error")] == (
            "ValueError: the gaussian construction needs --measure gaussian")
        assert row[header.index("alpha")] == ""

    def test_empty_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--measure", "gaussian",
                         "--n-range", "", "--lambda", "0.2", "--p", "1.01")
        assert code == 1

    @pytest.mark.parametrize("option,spec,message", [
        ("--n-range", "5:3", "bad range '5:3'"),
        ("--n-range", "1:9:2:1", "bad range '1:9:2:1'; expected start:stop[:step]"),
        ("--n-range", "5,q", "'q'"),
        ("--lambda", "x", "'x'"),
        ("--p", "abc", "'abc'"),
    ])
    def test_malformed_spec_is_usage_error(self, capsys, option, spec, message):
        specs = {"--n-range": "5", "--lambda": "0.2", "--p": "1.01", option: spec}
        code, out, err = run(capsys, "sweep", "--measure", "gaussian",
                             *[tok for item in specs.items() for tok in item])
        assert code == 1
        assert out == ""
        assert f"error: argument {option}: " in err
        assert message in err

    @pytest.mark.parametrize("option", ["--n-range", "--lambda", "--p"])
    def test_empty_list_is_usage_error_with_message(self, capsys, option):
        specs = {"--n-range": "5", "--lambda": "0.2", "--p": "1.01", option: ","}
        code, out, err = run(capsys, "sweep", "--measure", "gaussian",
                             *[tok for item in specs.items() for tok in item])
        assert code == 1
        assert out == ""
        assert f"error: argument {option}: no values in ','" in err


class TestSweepBatchedRowErrors:
    """Each p row of a (n, lambda) batch carries the error a lone call would give.

    The expected rows are those printed when every row ran its own
    construction.
    """

    def test_mixed_p(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "gaussian",
                           "--construction", "general", "--n-range", "10",
                           "--lambda", "0.2", "--p", "0.5,1.01")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == "10,0.20000000000000001,0.5,,,,,,ValueError: p must be >= 1"
        assert rows[1].startswith("10,0.20000000000000001,1.01,0.98")
        assert rows[1].endswith(",,")

    def test_infinite_p_is_a_row_error(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "gaussian", "--n-range", "10",
                           "--lambda", "0.2", "--p", "1.01,inf")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0].startswith("10,0.20000000000000001,1.01,0.99")
        assert rows[1] == "10,0.20000000000000001,inf,,,,,,ValueError: p must be finite"

    def test_invalid_lambda_next_to_valid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "gaussian",
                           "--construction", "general", "--n-range", "10",
                           "--lambda", "0.5,0.2", "--p", "1.01,0.9")
        assert code == 0
        rows = csv_rows(out)
        lam_error = "ValueError: lam must lie in (0, sqrt(2)-1), got 0.5"
        assert rows[0] == f"10,0.5,1.01,,,,,,{lam_error}"
        assert rows[1] == f"10,0.5,0.90000000000000002,,,,,,{lam_error}"
        assert rows[2].endswith(",,")
        assert rows[3] == ("10,0.20000000000000001,0.90000000000000002,,,,,,"
                           "ValueError: p must be >= 1")

    def test_unitball_checks_p_before_lambda(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball",
                           "--n-range", "10", "--lambda", "0.5,-0.1",
                           "--p", "1.01,0.9")
        assert code == 0
        assert csv_rows(out) == [
            "10,0.5,1.01,,,,,,ValueError: sandwich needs R < sqrt(2)/(1+lam)",
            "10,0.5,0.90000000000000002,,,,,,ValueError: p must be >= 1",
            "10,-0.10000000000000001,1.01,,,,,,ValueError: lam must be positive",
            "10,-0.10000000000000001,0.90000000000000002,,,,,,"
            "ValueError: p must be >= 1",
        ]

    def test_unitball_lambda_minus_one_is_a_row_error(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball",
                           "--n-range", "10", "--lambda=-1,nan,0.2", "--p", "1.01")
        assert code == 0
        rows = csv_rows(out)
        assert rows[:2] == ["10,-1,1.01,,,,,,ValueError: lam must be positive",
                            "10,nan,1.01,,,,,,ValueError: lam must be positive"]
        assert rows[2].startswith("10,0.20000000000000001,1.01,1.02")
        assert rows[2].endswith(",,")

    def test_stage_error_on_every_valid_p_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball", "--R", "0.5",
                           "--n-range", "5,10", "--lambda", "0.2", "--p", "1.01,0.7,1.02")
        assert code == 0
        error = "ValueError: the unit-ball lower bound is only certified at R = 1"
        rows = []
        for n in (5, 10):
            rows += [f"{n},0.20000000000000001,1.01,,,,,,{error}",
                     f"{n},0.20000000000000001,0.69999999999999996,,,,,,"
                     "ValueError: p must be >= 1",
                     f"{n},0.20000000000000001,1.02,,,,,,{error}"]
        assert csv_rows(out) == rows

    def test_measure_mismatch_on_every_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--measure", "unitball",
                           "--construction", "gaussian", "--n-range", "10,20",
                           "--lambda", "0.2,0.3", "--p", "1.01,0.5")
        assert code == 0
        error = "ValueError: the gaussian construction needs --measure gaussian"
        assert csv_rows(out) == [
            f"{n},{lam},{p},,,,,,{error}"
            for n in (10, 20)
            for lam in ("0.20000000000000001", "0.29999999999999999")
            for p in ("1.01", "0.5")]


class TestBoundSweepAgree:
    """bound and sweep run a construction through the same dispatch."""

    @pytest.mark.parametrize("measure,construction,n,p,lam,upper_key", [
        ("gaussian", "gaussian", 50, "1.005", "0.2", "decay_upper_bound"),
        ("gaussian", "general", 30, "1.003", "0.2", None),
        ("unitball", "unitball", 20, "1.02", "0.15", "sandwich_upper"),
        ("tabulated", "general", 7, "1.01", "0.2", None),
    ])
    def test_sweep_row_matches_bound_json(self, capsys, tmp_path, measure, construction,
                                          n, p, lam, upper_key):
        common = ["--measure", measure, "--construction", construction,
                  "--R", "1", "--lambda", lam, "--p", p]
        if measure == "tabulated":
            (tmp_path / "density.txt").write_text(FOUR_KNOTS, encoding="utf-8")
            common += ["--density-file", str(tmp_path / "density.txt")]
        code, bound_out, _ = run(capsys, "bound", *common, "--n", str(n))
        assert code == 0
        report = json.loads(bound_out)
        assert report["logT_exact"] >= report["logT_lower"]
        code, sweep_out, _ = run(capsys, "sweep", *common, "--n-range", str(n))
        assert code == 0
        lines = [l for l in sweep_out.splitlines() if l and not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))

        def printed(key):
            found = re.search(rf'^ *"{key}": (.+?),?$', bound_out, re.MULTILINE)
            assert found, key
            return found.group(1)

        for key in ("alpha", "logT_lower", "logT_exact"):
            assert row[key] == printed(key)
        assert row["logT_upper"] == (printed(upper_key) if upper_key else "")

    @pytest.mark.parametrize("measure,construction,n,upper_key", [
        ("gaussian", "gaussian", 40, "decay_upper_bound"),
        ("gaussian", "general", 12, None),
        ("unitball", "unitball", 20, "sandwich_upper"),
    ])
    def test_multi_p_rows_match_bound_json(self, capsys, measure, construction,
                                           n, upper_key):
        lams, ps = ["0.1", "0.3"], ["1.003", "1.02", "1.04"]
        common = ["--measure", measure, "--construction", construction, "--R", "1"]
        code, sweep_out, _ = run(capsys, "sweep", *common, "--n-range", str(n),
                                 "--lambda", ",".join(lams), "--p", ",".join(ps))
        assert code == 0
        lines = [l for l in sweep_out.splitlines() if l and not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        points = [(lam, p) for lam in lams for p in ps]
        assert len(rows) == len(points)
        for row, (lam, p) in zip(rows, points):
            code, bound_out, _ = run(capsys, "bound", *common, "--n", str(n),
                                     "--lambda", lam, "--p", p)
            assert code == 0
            report = json.loads(bound_out)
            assert float(row["lambda"]) == report["lambda"]
            assert float(row["p"]) == report["p"]

            def printed(key):
                return re.search(rf'^ *"{key}": (.+?),?$', bound_out,
                                 re.MULTILINE).group(1)

            for key in ("alpha", "logT_lower", "logT_exact"):
                assert row[key] == printed(key)
            assert row["logT_upper"] == (printed(upper_key) if upper_key else "")


class TestSweepSharesPFreeStage:
    """sweep computes the radius and the exact measures once per (n, lambda)."""

    @pytest.mark.parametrize("measure,construction,solves", [
        ("gaussian", "general", 4),
        ("gaussian", "gaussian", 0),
        ("unitball", "unitball", 0),
    ])
    def test_calls_once_per_n_lambda(self, capsys, monkeypatch, measure,
                                     construction, solves):
        calls = {"solve_radius_equation": 0, "off_center_ball_measure": 0}

        def counted(name):
            inner = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        # patched where bounds looks them up
        for name in calls:
            monkeypatch.setattr(bounds, name, counted(name))
        code, out, _ = run(capsys, "sweep", "--measure", measure,
                           "--construction", construction, "--n-range", "6,9",
                           "--lambda", "0.1,0.3", "--p", "1.003,1.02,1.04")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2 * 2 * 3
        assert all(row.endswith(",") for row in rows)  # no row has an error
        assert calls == {"solve_radius_equation": solves,
                         "off_center_ball_measure": 2 * 2}


class TestChainViolation:
    """A report whose exact T falls more than 1e-9 below its certified lower
    bound is an error: bound exits 2, and sweep records it on the row."""

    @pytest.fixture
    def below_by(self, monkeypatch):
        real = bounds.gaussian_construction
        gap = {}

        def construct(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, log_t_exact=rep.log_t_lower - gap["value"])

        monkeypatch.setattr(bounds, "gaussian_construction", construct)
        return gap

    GAUSSIAN = ["--measure", "gaussian", "--lambda", "0.2", "--p", "1.01"]

    def test_bound_exits_two(self, capsys, below_by):
        below_by["value"] = 1e-6
        code, out, err = run(capsys, "bound", *self.GAUSSIAN, "--n", "20")
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: ValueError: certified chain violated: "
                            r"logT_exact=\S+ < logT_lower=\S+\n", err)

    def test_sweep_row_records_the_error(self, capsys, below_by):
        below_by["value"] = 1e-6
        code, out, _ = run(capsys, "sweep", *self.GAUSSIAN, "--n-range", "20,30")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2
        for n, row in zip((20, 30), rows):
            assert row.startswith(f"{n},0.20000000000000001,1.01,,,,,,ValueError: "
                                  "certified chain violated: logT_exact=")

    def test_gap_within_tolerance_passes(self, capsys, below_by):
        below_by["value"] = 1e-10
        code, out, _ = run(capsys, "bound", *self.GAUSSIAN, "--n", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["logT_exact"] < payload["logT_lower"]
        code, out, _ = run(capsys, "sweep", *self.GAUSSIAN, "--n-range", "20")
        assert code == 0
        assert csv_rows(out)[0].endswith(",,")


class TestVerifyCommand:
    def test_spheres_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "spheres")
        assert code == 0
        assert "PASS sphere-ratio-bracket" in out

    def test_remark_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "remark")
        assert code == 0
        assert "PASS balanced-radius-growth" in out

    def test_gaussian_lemmas_reports_false_mass_claim(self, capsys):
        # the quoted mass floor is genuinely false from n = 6 on; the suite
        # must say so and exit 1 with a reproducer
        code, out, _ = run(capsys, "verify", "gaussian-lemmas")
        assert code == 1
        assert "PASS gaussian-ball-sandwich" in out
        assert "FAIL gaussian-mass-concentration" in out
        assert "n=6" in out

    def test_inclusion_reports_exact_candidates(self, capsys):
        # the Gaussian's candidates are settled by the fixed rule, the unit
        # ball's closed-form lens takes geometry's route
        code, out, _ = run(capsys, "verify", "inclusion", "--inclusion-points", "4")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "level-set-inclusion" in ln]
        assert len(lines) == 4
        for line in lines:
            fixed, geometry = map(int, re.search(
                r"exact candidates: (\d+) fixed-rule, (\d+) geometry$", line).groups())
            if "gaussian" in line:
                assert fixed >= 3 and geometry == 0
            else:
                assert fixed == 0 and geometry >= 3

    def test_montecarlo_small(self, capsys):
        code, out, _ = run(capsys, "verify", "montecarlo", "--samples", "50000")
        assert code == 0
        assert "montecarlo-vs-quadrature" in out

    def test_negative_seed_is_usage_error(self, capsys):
        # numpy's "expected non-negative integer", exit 2
        code, out, err = run(capsys, "verify", "montecarlo", "--seed", "-1",
                             "--samples", "10000")
        assert code == 1
        assert out == ""
        assert "radialmax verify: error: argument --seed: must be nonnegative, got -1" in err


class TestOracleCommand:
    def test_point_value_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--measure", "gaussian", "--n", "3",
                           "--r", "0.2", "--rho", "0.0")
        assert code == 0
        payload = json.loads(out)
        from radialmax.densities import Gaussian
        from radialmax.measures import log_ball_measure
        assert sorted(payload) == ["log_value", "measure", "n", "r", "rho"]
        assert payload["log_value"] == -log_ball_measure(Gaussian(), 3, 0.2)

    def test_point_value_of_a_rescaled_density(self, capsys, tmp_path):
        # log Mg comes from the evaluator, so f e^(+-800) moves every log Mg by
        # -+800 and leaves the log of the estimate as it is; e^+-800 printed a
        # profile of 0s or exited 2 with an OverflowError, and at n = 1 the
        # scan's band overflowed in exp
        modes = {"--rho": ["--rho", "0.5"], "profile": ["--profile-points", "16"],
                 "--p": ["--p", "1.5", "--profile-points", "16"]}
        for n in (1, 2):
            logs = {}
            for scale in (0, 800, -800):
                path = tmp_path / f"flat{scale}.txt"
                path.write_text(f"0.5 {scale}\n1.0 {scale}\n", encoding="utf-8")
                for mode, argv in modes.items():
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code, out, err = run(capsys, "oracle", "--measure", "tabulated",
                                             "--density-file", str(path), "--n", str(n),
                                             "--r", "0.2", "--t-points", "64", *argv)
                    assert (code, err) == (0, ""), (n, scale, mode)
                    if mode == "profile":
                        logs[scale, mode] = np.array([float(row.split(",")[1])
                                                      for row in csv_rows(out)])
                    else:
                        payload = json.loads(out)
                        logs[scale, mode] = payload[{"--rho": "log_value",
                                                     "--p": "log_constant_estimate"}[mode]]
            for scale in (800, -800):
                for mode, shift in (("--rho", scale), ("profile", scale), ("--p", 0)):
                    got, want = logs[scale, mode], logs[0, mode] - shift
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (n, scale, mode)

    def test_profile_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "--measure", "unitball", "--n", "2",
                           "--r", "0.3", "--profile-points", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# kind=unitball")
        assert "rho,log_value" in lines
        assert any("seed=none" in l for l in lines[:6])

    def test_empirical_bound_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--measure", "unitball", "--n", "2",
                           "--r", "0.2", "--p", "1.5", "--profile-points", "48")
        assert code == 0
        payload = json.loads(out)
        assert "constant_lower_bound" not in payload
        assert payload["log_constant_estimate"] >= 0.0

    def test_rho_and_p_are_exclusive(self, capsys):
        # --p was silently ignored next to --rho, which printed log Mg and exited 0
        code, out, err = run(capsys, "oracle", "--measure", "gaussian", "--n", "2",
                             "--r", "0.3", "--rho", "0.5", "--p", "2")
        assert code == 1
        assert out == ""
        assert "radialmax oracle: error: argument --p: not allowed with argument --rho" in err

    @pytest.mark.parametrize("flag,message", [
        (["--r", "0.3", "--p", "nan"], "p must be >= 1"),
        (["--r", "0.3", "--rho", "nan"], "rho must be nonnegative"),
        (["--r", "nan", "--rho", "0.5"], "test-function radius r must be positive"),
        # a "nan" estimate, and values of 1 or a math domain error from
        # tables built out to an infinite horizon
        (["--r", "0.3", "--p", "inf"], "p must be finite"),
        (["--r", "0.2", "--p", "1e308", "--profile-points", "16", "--t-points", "16"],
         "p = 1e+308 overflows p log Mg"),
        (["--r", "inf", "--rho", "0.5"], "test-function radius r must be finite"),
        (["--r", "1e308", "--rho", "0.5"], "r = 1e+308 and max_rho = 1e+308 overflow "
         "the table horizon 2 (max_rho + r) + support + 1"),
        (["--r", "0.3", "--rho", "inf"], "rho must be finite"),
    ])
    def test_nan_inputs_refused(self, capsys, flag, message):
        # refused by the domain checks: exit 2 and nothing on stdout
        code, out, err = run(capsys, "oracle", "--measure", "gaussian", "--n", "2", *flag)
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_dimension_guard_exits_two(self, capsys):
        code, _, err = run(capsys, "oracle", "--measure", "gaussian", "--n", "9",
                           "--r", "0.2", "--rho", "0.5")
        assert code == 2
        assert "error" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cases = [
            ["p0", "unitball"],
            ["bound", "--measure", "gaussian", "--n", "40", "--p", "1.004",
             "--lambda", "0.2", "--construction", "gaussian"],
            ["sweep", "--measure", "gaussian", "--n-range", "20,40",
             "--lambda", "0.2", "--p", "1.004", "--construction", "gaussian"],
            ["verify", "montecarlo", "--samples", "50000", "--seed", "99"],
            ["oracle", "--measure", "unitball", "--n", "2", "--r", "0.3",
             "--profile-points", "12"],
        ]
        for i, argv in enumerate(cases):
            a = tmp_path / f"a{i}.out"
            b = tmp_path / f"b{i}.out"
            code_a = main(argv + ["--output", str(a)])
            code_b = main(argv + ["--output", str(b)])
            capsys.readouterr()
            assert code_a == code_b
            assert a.read_bytes() == b.read_bytes(), argv


@pytest.mark.parametrize("command", [
    ["bound", "--measure", "gaussian", "--n", "10", "--p", "1.01", "--lambda", "0.2"],
    ["sweep", "--measure", "gaussian", "--n-range", "10"],
    ["oracle", "--measure", "gaussian", "--n", "3", "--r", "0.2", "--rho", "0.5"],
])
def test_rel_tol_flag_is_gone(capsys, command):
    # the quadrature tolerance is one library constant, not an option
    code, out, err = run(capsys, *command, "--rel-tol", "1e-12")
    assert code == 1
    assert out == ""
    assert "--rel-tol" in err


def test_star_import_resolves_every_export():
    # a name left in __all__ after its function is deleted fails the import
    namespace = {}
    exec("from radialmax import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(radialmax.__all__)
    assert len(set(radialmax.__all__)) == len(radialmax.__all__)


def test_python_m_radialmax_runs():
    src = str(Path(radialmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "radialmax", "p0", "unitball"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["target"] == "unitball"


class TestParserBuiltOnce:
    """``main`` builds its parser once per process, and a reused parser
    answers every call as a fresh one does."""

    CALLS = [
        ["p0", "unitball", "--pre-scan", "2"],
        ["bound", "--measure", "gaussian", "--n", "10", "--p", "1.01", "--lambda", "0.2"],
        ["bound", "--measure", "gaussian", "--n", "10", "--p", "1.01"],  # usage error
        ["sweep", "--measure", "unitball", "--n-range", "5,9", "--p", "1.01,1.05"],
        ["p0", "cauchy"],  # usage error
        ["oracle", "--measure", "gaussian", "--n", "2", "--r", "0.2", "--rho", "0.0"],
        ["bound", "--measure", "unitball", "--n", "8", "--p", "1.02", "--lambda", "0.1"],
        ["verify", "spheres"],
        ["p0", "--help"],
    ]

    def _run_all(self, capsys):
        return [run(capsys, *argv) for argv in self.CALLS]

    def test_built_once_across_calls(self, capsys, monkeypatch):
        import radialmax.cli as cli
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        try:
            reused = self._run_all(capsys)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 1, 0, 0, 0, 0]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
        assert self._run_all(capsys) == reused

    def test_build_parser_stays_fresh(self):
        from radialmax.cli import build_parser
        assert build_parser() is not build_parser()
