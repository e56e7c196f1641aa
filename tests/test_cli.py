import argparse
import base64
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pvarpath
from pvarpath import ValidationError, cli, serialize
from pvarpath.cli import build_parser, run


def read_json(path):
    return json.loads(path.read_text())


def f8le(values):
    """The ``f8le`` form of ``values``, encoded here, not by the writer."""
    return {"f8le": base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()}


def f8le_text(values, edit):
    return {"f8le": edit(f8le(values)["f8le"])}


# array fields the reader refuses, each made from the valid list ``v``: a bad
# last item of the list form, or a bad f8le object
MALFORMED_ARRAYS = {
    "string": lambda v: v[:-1] + ["1"],
    "bool": lambda v: v[:-1] + [True],
    "null": lambda v: v[:-1] + [None],
    "nested": lambda v: v[:-1] + [[1.0]],
    "huge-int": lambda v: v[:-1] + [10 ** 400],
    "f8le-list": lambda v: {"f8le": v},
    "f8le-number": lambda v: {"f8le": 0},
    "f8le-extra-key": lambda v: {**f8le(v), "dtype": "<f8"},
    "f8le-empty-object": lambda v: {},
    "f8le-bad-character": lambda v: f8le_text(v, lambda t: "*" + t[1:]),
    "f8le-whitespace": lambda v: f8le_text(v, lambda t: t[:8] + "\n" + t[8:]),
    "f8le-non-ascii": lambda v: f8le_text(v, lambda t: "\u00e9" + t[1:]),
    "f8le-bad-padding": lambda v: f8le_text(v, lambda t: t.rstrip("=")),
    "f8le-12-bytes": lambda v: {"f8le": base64.b64encode(bytes(12)).decode()},
}
ARRAY_MESSAGE = ('must be a flat list of numbers '
                 'or {"f8le": <base64 of little-endian float64 bytes>}')


def table_path_doc():
    """A valid level-2 path document on a "table" grid."""
    return {"q": 2, "level": 2, "values": [0.0, 1.0, 0.0, 1.0, 0.0],
            "meta": {"grid_generator": "table", "grid_points": [0.0, 0.1, 0.5, 0.75, 1.0]}}


def assert_rejected(tmp_path, capsys, command, doc, message):
    """``command`` run on the path document ``doc`` exits 2, prints one line
    holding ``message`` and writes no output."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert run([*command, str(path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert list(tmp_path.iterdir()) == [path]


def assert_table_rejected(tmp_path, capsys, doc, message):
    """A recipe run on the table document ``doc`` exits 2, prints one line
    holding ``message`` and writes no output."""
    tbl = tmp_path / "table.json"
    tbl.write_text(json.dumps(doc))
    out = tmp_path / "y.json"
    assert run(["timechange", "--mode", "recipe", "--levels", "1", "--table", str(tbl),
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not out.exists()


class TestBuild:
    def test_build_writes_path_with_manifest(self, tmp_path):
        out = tmp_path / "ref.json"
        code = run(["build", "--q", "2", "--p", "2", "--levels", "8",
                    "--signs", "plus", "-o", str(out)])
        assert code == 0
        doc = read_json(out)
        assert doc["q"] == 2 and doc["level"] == 8
        assert serialize.path_from_dict(doc).values.shape == (2 ** 8 + 1,)
        assert "config_hash" in doc["manifest"]

    def test_q2_branch_weight(self, tmp_path):
        unit, double = tmp_path / "unit.json", tmp_path / "double.json"
        argv = ["build", "--q", "2", "--levels", "8", "--signs", "random", "--seed", "4"]
        assert run(argv + ["-o", str(unit)]) == 0
        assert run(argv + ["--a", "2", "-o", str(double)]) == 0
        np.testing.assert_array_equal(serialize.path_from_dict(read_json(double)).values,
                                      2.0 * serialize.path_from_dict(read_json(unit)).values)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["build", "--q", "2", "--p", "3", "--levels", "10",
                "--signs", "random", "--seed", "7"]
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budget_exceeded_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "100")
        out = tmp_path / "big.json"
        assert run(["build", "--levels", "10", "-o", str(out)]) == 3


class TestAnalyze:
    def test_profile_terminal_row(self, tmp_path):
        ref = tmp_path / "ref.json"
        prof = tmp_path / "prof.csv"
        assert run(["build", "--levels", "12", "-o", str(ref)]) == 0
        assert run(["analyze", str(ref), "--p", "2", "--levels", "12",
                    "-o", str(prof)]) == 0
        rows = [line.split(",") for line in prof.read_text().strip().split("\n")[1:]]
        terminal = {int(r[0]): float(r[2]) for r in rows if float(r[1]) == 1.0}
        for n in range(13):
            assert abs(terminal[n] - (1 - 2.0 ** -n)) <= 1e-12
        assert (tmp_path / "prof.csv.manifest.json").exists()

    def test_mismatched_q_rejected(self, tmp_path):
        ref = tmp_path / "ref.json"
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["analyze", str(ref), "--q", "3", "-o", str(tmp_path / "x.csv")]) == 2

    def test_too_deep_rejected(self, tmp_path):
        ref = tmp_path / "ref.json"
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["analyze", str(ref), "--levels", "9",
                    "-o", str(tmp_path / "x.csv")]) == 2

    def test_unreadable_input(self, tmp_path):
        assert run(["analyze", str(tmp_path / "missing.json"),
                    "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"q": 2.9, "level": 2.7, "values": [0, 1, 0, 1, 0]}, "'q' must be an integer, got 2.9"),
        ({"q": 2, "level": 2.0, "values": [0, 1, 0, 1, 0]}, "'level' must be an integer, got 2.0"),
        ({"q": "2", "level": 2, "values": [0, 1, 0, 1, 0]}, "'q' must be an integer, got '2'"),
        ({"q": 2, "level": True, "values": [0, 1, 0]}, "'level' must be an integer, got True"),
    ], ids=["float-q-and-level", "float-level", "string-q", "bool-level"])
    def test_non_integer_q_or_level_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "prof.csv"
        assert run(["analyze", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("malform", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS)
    @pytest.mark.parametrize("field", ["values", "meta.grid_points"])
    def test_malformed_path_array_exit_2(self, tmp_path, capsys, field, malform):
        doc = table_path_doc()
        owner = doc if field == "values" else doc["meta"]
        key = field.split(".")[-1]
        owner[key] = malform(owner[key])
        assert_rejected(tmp_path, capsys, ["analyze"], doc,
                        f"malformed path document: {field!r} {ARRAY_MESSAGE}")

    # well-formed f8le bytes whose values the path or its grid refuses
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field, message", [
        ("values", "path values must be finite"),
        ("meta.grid_points", "grid points must be strictly increasing"),
    ], ids=["values", "meta.grid_points"])
    def test_nonfinite_f8le_path_array_exit_2(self, tmp_path, capsys, field, message, bad):
        doc = table_path_doc()
        owner = doc if field == "values" else doc["meta"]
        key = field.split(".")[-1]
        owner[key] = f8le([owner[key][0], bad, *owner[key][2:]])
        assert_rejected(tmp_path, capsys, ["analyze"], doc, message)

    # a path is its values: any offset, a finite one too, would be dropped
    @pytest.mark.parametrize("offset", ["2", True, float("inf"), 10 ** 400, 3.0],
                             ids=["string", "bool", "infinity", "huge-int", "finite"])
    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["ito", "--f", "0,0,1"],
        ["timechange", "--mode", "pullback", "--make-table", "qadic", "--levels", "2",
         "--path"],
    ], ids=["analyze", "ito", "pullback"])
    def test_malformed_path_offset_exit_2(self, tmp_path, capsys, command, offset):
        doc = {**table_path_doc(), "meta": {"offset": offset}}  # pullback needs a q-adic grid
        assert_rejected(tmp_path, capsys, command, doc,
                        "malformed path document: 'meta.offset' is not supported")

    def test_meta_not_an_object_exit_2(self, tmp_path, capsys):
        doc = {**table_path_doc(), "meta": "ab"}
        assert_rejected(tmp_path, capsys, ["analyze"], doc,
                        "malformed path document: 'meta' must be an object")

    @pytest.mark.parametrize("flags, message", [
        (["--levels", "-1"], "--levels"),
        (["--eval-level", "-3"], "eval_level"),
    ], ids=["levels", "eval-level"])
    def test_negative_level_rejected(self, tmp_path, capsys, flags, message):
        ref, out = tmp_path / "ref.json", tmp_path / "x.csv"
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["analyze", str(ref), *flags, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()


# a path document written when a path still carried provenance in its meta;
# readers take the grid layout from meta and ignore every other key
_PROVENANCE_META = {
    "source": "recipe", "level": 6, "coefficient_levels": 6, "truncation_level": 6,
    "spec": {"a": None, "c_rule": "default", "levels": 6, "p": 2.0, "q": 2, "signs": "plus"},
    "spec_digest": "0d655b3e741906c9", "hprime_rule": "central-differences",
    "timechange": {"N": 6, "table_hash": "96b725ec48da5291"},
}


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["ito", "--f", "0,0,1"],
    ["timechange", "--mode", "check", "--levels", "6", "--path"],
    ["timechange", "--mode", "pullback", "--levels", "6", "--path"],
], ids=["analyze", "ito", "check", "pullback"])
def test_provenance_meta_keys_are_ignored(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--levels", "6", "-o", "x.json"]) == 0
    doc = read_json(tmp_path / "x.json")
    assert doc["meta"] == {"grid_generator": "q-adic"}
    Path("old.json").write_text(json.dumps({**doc, "meta": {**doc["meta"], **_PROVENANCE_META}}))
    assert run([*command, "x.json", "-o", "new.out"]) == 0
    assert run([*command, "old.json", "-o", "old.out"]) == 0
    if command[0] == "timechange":
        new, old = read_json(tmp_path / "new.out"), read_json(tmp_path / "old.out")
        assert new.pop("manifest") != old.pop("manifest")  # the input digests differ
        assert new == old
    else:
        assert Path("new.out").read_bytes() == Path("old.out").read_bytes()


def test_outputs_are_written_to_binary_streams(tmp_path, monkeypatch):
    # bytes reach the file as written: no newline translation on any platform
    monkeypatch.chdir(tmp_path)
    modes = []

    def recording_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr("pvarpath.cli.open", recording_open, raising=False)
    for argv in (["build", "--levels", "6", "-o", "x.json"],
                 ["analyze", "x.json", "-o", "prof.csv"],
                 ["ito", "x.json", "--f", "0,0,1", "-o", "ito.csv"],
                 ["recipe", "--levels", "6", "--profile-csv", "r.csv", "-o", "r.json"],
                 ["timechange", "--mode", "recipe", "--levels", "4", "--make-table", "random",
                  "--table-out", "t.json", "-o", "tr.json"]):
        assert run(argv) == 0, argv
    written = sorted(tmp_path.iterdir())
    assert len(modes) == len(written) == 9 and set(modes) == {"wb"}
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


class TestConstant:
    def test_exact_with_pinned_depth(self, tmp_path, capsys):
        assert run(["constant", "--p", "2", "--q", "2", "--method", "exact",
                    "--J", "25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - 1.0) <= 1e-6
        assert doc["error_bound"] < 1e-6

    def test_budget_exit_3(self):
        assert run(["constant", "--p", "2", "--method", "exact", "--J", "40"]) == 3

    # a bound that is not below the value still exits 0, and says so
    @pytest.mark.parametrize("argv, value, bound", [
        (["--p", "1.2", "--J", "12"], 1.776, 3.42),
        (["--q", "5", "--p", "800"], 4.55e-111, 1.47e-28),
    ])
    def test_bound_not_below_value_is_flagged(self, capsys, argv, value, bound):
        assert run(["constant", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(value, rel=1e-3)
        assert doc["error_bound"] == pytest.approx(bound, rel=1e-2)
        assert doc["details"]["bound_not_below_value"] is True
        assert run(["constant", "--p", "2.5"]) == 0
        assert "bound_not_below_value" not in json.loads(capsys.readouterr().out)["details"]

    def test_output_file(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["constant", "--p", "4", "--method", "closed",
                    "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["method"] == "closed-form"

    def test_unknown_flag(self):
        assert run(["constant", "--p", "2", "--frobnicate"]) == 2

    def test_one_spelling_per_method(self):
        # "closed-form" is the reported label, not a second name for "closed"
        assert run(["constant", "--p", "4", "--method", "closed-form"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--J", "-3"], "truncation depth J must be >= 1, got -3"),
        (["--J", "0"], "truncation depth J must be >= 1, got 0"),
        (["--q", "1"], "q must be an integer >= 2, got 1"),
        (["--method", "mc", "--N", "1"], "needs N >= 2 samples, got 1"),
    ], ids=["J-negative", "J-zero", "q-1", "mc-N-1"])
    def test_degenerate_oracle_inputs_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["constant", "--p", "2", *argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()


class TestRecipe:
    @pytest.mark.parametrize("levels, verdict", [("8", "vanishing"), ("3", None)])
    def test_multiplier_trend_in_manifest(self, tmp_path, capsys, levels, verdict):
        # a constant multiplier has slope -inf; only its verdict is recorded,
        # and below level 4 there is none
        out = tmp_path / "y.json"
        assert run(["recipe", "--target", "linear", "--levels", levels, "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_json(out)["manifest"]["config"]["multiplier_trend"] == verdict

    def test_exp_target(self, tmp_path):
        out = tmp_path / "y.json"
        csv = tmp_path / "prof.csv"
        assert run(["recipe", "--target", "exp", "--levels", "12",
                    "--profile-csv", str(csv), "-o", str(out)]) == 0
        doc = read_json(out)
        gap = doc["manifest"]["config"]["target_sup_gap"]
        assert gap <= 0.02 * (1 + (np.e - 1))
        assert csv.read_text().startswith("level,t,value\n")

    def test_q2_branch_weight_exp_target(self, tmp_path):
        out = tmp_path / "y.json"
        assert run(["recipe", "--q", "2", "--a", "2", "--target", "exp", "--levels", "12",
                    "-o", str(out)]) == 0
        assert read_json(out)["manifest"]["config"]["target_sup_gap"] <= 0.02 * (1 + (np.e - 1))

    def test_negative_eval_level_rejected(self, tmp_path, capsys):
        # it used to profile t = 0 alone and record a target_sup_gap of 0.0
        out, csv = tmp_path / "y.json", tmp_path / "prof.csv"
        assert run(["recipe", "--levels", "6", "--eval-level", "-1",
                    "--profile-csv", str(csv), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eval_level" in err
        assert not out.exists() and not csv.exists()

    # a rate outside a target's range used to print a RuntimeWarning or a
    # message about the path or the target variation instead of the rate
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, rate, target", [
        (["recipe", "--target", "exp", "--rate", "1000", "--levels", "4"], "1000", "exp"),
        (["recipe", "--target", "exp", "--rate", "nan", "--levels", "4"], "nan", "exp"),
        (["recipe", "--target", "linear", "--rate", "-1", "--levels", "4"], "-1", "linear"),
        (["timechange", "--mode", "recipe", "--target", "log", "--rate", "-5", "--levels", "4"],
         "-5", "log"),
        (["timechange", "--mode", "recipe", "--target", "exp", "--rate", "inf", "--levels", "4"],
         "inf", "exp"),
    ], ids=["exp-1000", "exp-nan", "linear-negative", "timechange-log-negative",
           "timechange-exp-inf"])
    def test_rate_out_of_range_exit_2(self, tmp_path, capsys, argv, rate, target):
        out = tmp_path / "y.json"
        assert run([*argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert f"--rate {rate} is out of range for --target {target}" in err
        assert not out.exists()


class TestIto:
    def test_square_residual_is_tiny(self, tmp_path):
        ref = tmp_path / "ref.json"
        res = tmp_path / "resid.json"
        assert run(["build", "--levels", "10", "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,1", "--p", "2",
                    "-o", str(res)]) == 0
        manifest = read_json(tmp_path / "resid.json.manifest.json")
        assert manifest["config"]["sup_residual"] <= 1e-12
        resid = serialize.path_from_dict(read_json(res))
        assert (resid.q, resid.level, resid.grid.generator) == (2, 10, "q-adic")
        assert resid.sup_norm() == manifest["config"]["sup_residual"]

    def test_residual_document_is_analyzed(self, tmp_path):
        ref, res, prof = tmp_path / "ref.json", tmp_path / "resid.json", tmp_path / "prof.csv"
        assert run(["build", "--levels", "8", "--signs", "random", "--seed", "3",
                    "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,0,0,1", "--p", "4", "-o", str(res)]) == 0
        assert run(["analyze", str(res), "--p", "2", "-o", str(prof)]) == 0
        assert prof.read_text().startswith("level,t,value\n")

    @pytest.mark.parametrize("f, p", [("0,0,1", "2"), ("0,0,0,0,1", "4"), ("1,-2,0.5", "4")],
                             ids=["square", "fourth", "quadratic-p4"])
    def test_residual_values_are_the_report_bit_for_bit(self, tmp_path, f, p):
        ref, res = tmp_path / "ref.json", tmp_path / "resid.json"
        assert run(["build", "--levels", "9", "--signs", "random", "--seed", "5",
                    "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", f, "--p", p, "-o", str(res)]) == 0
        path = serialize.path_from_dict(read_json(ref))
        report = pvarpath.change_of_variable_residual(
            pvarpath.FunctionWithDerivatives.polynomial([float(c) for c in f.split(",")]),
            path, float(p))
        resid = serialize.path_from_dict(read_json(res))
        assert resid.values.tobytes() == report.residuals.tobytes()
        assert resid.grid.points.tobytes() == path.grid.points.tobytes()
        assert read_json(tmp_path / "resid.json.manifest.json")["config"]["sup_residual"] \
            == report.sup

    def test_level_flag_writes_that_level(self, tmp_path):
        ref, res = tmp_path / "ref.json", tmp_path / "resid.json"
        assert run(["build", "--levels", "9", "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,1", "--level", "6", "-o", str(res)]) == 0
        doc = read_json(res)
        assert (doc["q"], doc["level"]) == (2, 6)
        assert serialize.path_from_dict(doc).values.size == 2 ** 6 + 1

    def test_pulled_path_residual_keeps_the_table_grid(self, tmp_path):
        ref, table = tmp_path / "ref.json", tmp_path / "table.json"
        pulled, res = tmp_path / "pulled.json", tmp_path / "resid.json"
        assert run(["build", "--q", "3", "--levels", "5", "-o", str(ref)]) == 0
        assert run(["timechange", "--mode", "pullback", "--q", "3", "--levels", "5",
                    "--make-table", "random", "--seed", "2", "--table-out", str(table),
                    "--path", str(ref), "-o", str(pulled)]) == 0
        for level, stride in ((None, 1), ("3", 9)):
            flags = [] if level is None else ["--level", level]
            assert run(["ito", str(pulled), "--f", "0,0,1", *flags, "-o", str(res)]) == 0
            doc = read_json(res)
            assert doc["meta"]["grid_generator"] == "table"
            points = serialize.table_from_dict(read_json(table)).points[::stride]
            grid_points = serialize.path_from_dict(doc).grid.points
            assert grid_points.tobytes() == np.ascontiguousarray(points).tobytes()

    @pytest.mark.parametrize("p, reason", [
        ("3", "an odd p needs the signed p-th variation, which is not implemented"),
        ("1.5", "noninteger orders are out of scope"),
    ], ids=["odd", "noninteger"])
    def test_odd_order_rejected(self, tmp_path, capsys, p, reason):
        ref = tmp_path / "ref.json"
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,1", "--p", p,
                    "-o", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: compensated sums are defined for even integer p, "
                       f"got {float(p)}; {reason}\n"), err


class TestTimechange:
    def test_check_mode_gap_zero(self, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "check.json"
        assert run(["build", "--levels", "10", "-o", str(ref)]) == 0
        assert run(["timechange", "--mode", "check", "--make-table", "power",
                    "--levels", "10", "--path", str(ref), "-o", str(out)]) == 0
        assert read_json(out)["identity_gap"] == 0.0

    def test_pullback_mode(self, tmp_path):
        ref = tmp_path / "ref.json"
        out = tmp_path / "pulled.json"
        tbl = tmp_path / "table.json"
        assert run(["build", "--levels", "8", "-o", str(ref)]) == 0
        assert run(["timechange", "--mode", "pullback", "--make-table", "random",
                    "--levels", "8", "--seed", "3", "--table-out", str(tbl),
                    "--path", str(ref), "-o", str(out)]) == 0
        doc = read_json(out)
        pulled = serialize.path_from_dict(doc)
        src = serialize.path_from_dict(read_json(ref))
        np.testing.assert_array_equal(pulled.values, src.values)
        assert doc["meta"]["grid_generator"] == "table"
        table = read_json(tbl)
        assert set(table) == {"q", "points"} and table["q"] == 2
        points = serialize.table_from_dict(table).points
        assert points.shape == (2 ** 8 + 1,)
        np.testing.assert_array_equal(pulled.grid.points, points)

    def test_recipe_mode(self, tmp_path):
        out = tmp_path / "ty.json"
        assert run(["timechange", "--mode", "recipe", "--make-table", "power",
                    "--levels", "12", "--target", "linear",
                    "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["manifest"]["config"]["target_sup_gap"] <= 0.04
        assert doc["manifest"]["config"]["hprime_rule"] == "central-differences"
        assert set(doc["meta"]) == {"grid_generator", "grid_points"}

    def test_recipe_mode_records_rough_multiplier(self, tmp_path, capsys):
        # a random table makes the multiplier rough; the verdict goes into
        # the manifest and nothing is printed
        out = tmp_path / "ty.json"
        assert run(["timechange", "--mode", "recipe", "--make-table", "random",
                    "--levels", "4", "--seed", "0", "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_json(out)["manifest"]["config"]["multiplier_trend"] == "growing"

    # a table document lists only its finest level, as "points"; documents
    # in the layout that listed every level as "levels" are rejected
    @pytest.mark.parametrize("doc, message", [
        ({"q": 2, "levels": 5}, "missing 'points'"),
        ({"q": 2, "levels": []}, "missing 'points'"),
        ({"q": 2, "levels": [[0.0, 1.0], [0.0, 0.5, 1.0]]}, "missing 'points'"),
        ({"q": 2, "points": [0.0, 0.25, 0.5, 1.0]}, "point count 4 is not q**n + 1"),
        ({"q": 2, "points": []}, "point count 0 is not q**n + 1"),
        ({"q": 1, "points": [0.0, 1.0]}, "q must be an integer >= 2"),
        ({"q": 2, "points": 5}, "flat list of numbers"),
        ({"q": 2, "points": None}, "flat list of numbers"),
        ({"q": 2, "points": [[0.0, 1.0], [0.0, 1.0]]}, "flat list of numbers"),
        ({"q": 2, "points": [[0.0, 0.5, 1.0], [0.0, 1.0]]}, "flat list of numbers"),
        ({"q": 2, "points": ["0", "0.5", "1"]}, "flat list of numbers"),
        ({"q": 2, "points": [False, True]}, "flat list of numbers"),
        ({"q": 2, "points": [0, 0.25, 0.5, 0.75, True]}, "flat list of numbers"),
        ({"q": 2, "points": [0.0, 0.25, 0.5, 0.75, 10 ** 400]}, "flat list of numbers"),
        ({"q": 2, "points": [0.0, float("nan"), 0.5, 0.75, 1.0]}, "strictly increasing"),
        ({"q": 2, "points": [0.0, 0.5, 0.25, 0.75, 1.0]}, "strictly increasing"),
        ({"q": 2, "points": [0.0, 0.5, 0.5, 0.75, 1.0]}, "strictly increasing"),
        ({"q": 2, "points": f8le([0.0, math.nan, 0.5, 0.75, 1.0])}, "strictly increasing"),
        ({"q": 2, "points": f8le([0.0, math.inf, 0.5, 0.75, 1.0])}, "strictly increasing"),
        ({"q": 2, "points": [0.1, 0.25, 0.5, 0.75, 1.0]}, "start at 0 and end at 1"),
        ({"q": 2, "points": [0.0, 0.25, 0.5, 0.75, 2.0]}, "start at 0 and end at 1"),
        ({"q": 2.0, "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got 2.0"),
        ({"q": "2", "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got '2'"),
        ({"q": True, "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got True"),
        ([0.0, 0.5, 1.0], "malformed table document"),
    ], ids=["levels-not-list", "levels-empty", "old-layout", "finest-wrong-length",
           "points-empty", "q-1", "points-number", "points-null", "points-nested",
           "points-ragged", "points-strings", "points-bools", "points-mixed-bool",
           "points-huge-int", "nan", "decreasing", "repeated", "f8le-nan", "f8le-inf",
           "start-not-0", "end-not-1", "q-float", "q-string", "q-bool", "not-an-object"])
    def test_malformed_table_exit_2(self, tmp_path, capsys, doc, message):
        assert_table_rejected(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("malform", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS)
    def test_malformed_table_points_exit_2(self, tmp_path, capsys, malform):
        doc = {"q": 2, "points": malform([0.0, 0.25, 0.5, 0.75, 1.0])}
        assert_table_rejected(tmp_path, capsys, doc,
                              f"malformed table document: 'points' {ARRAY_MESSAGE}")

    @pytest.mark.parametrize("argv", [
        ["--mode", "recipe", "--levels", "6"],
        ["--mode", "pullback", "--path", "x.json"],
        ["--mode", "check", "--path", "x.json"],
    ], ids=["recipe", "pullback", "check"])
    def test_level_finer_than_table_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(["build", "--q", "3", "--levels", "6", "-o", "x.json"]) == 0
        assert run(["timechange", "--mode", "recipe", "--q", "3", "--levels", "4",
                    "--table-out", "t.json", "-o", "y.json"]) == 0
        capsys.readouterr()
        assert run(["timechange", "--q", "3", *argv, "--table", "t.json", "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "a level-4 grid has no level 6; it holds levels 0..4" in err, err
        assert not (tmp_path / "out").exists()

    def test_reads_persisted_table(self, tmp_path):
        tbl = tmp_path / "table.json"
        ref = tmp_path / "ref.json"
        out = tmp_path / "check.json"
        assert run(["timechange", "--mode", "recipe", "--make-table", "qadic",
                    "--levels", "6", "--table-out", str(tbl),
                    "-o", str(tmp_path / "tmp.json")]) == 0
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["timechange", "--mode", "check", "--table", str(tbl),
                    "--path", str(ref), "-o", str(out)]) == 0
        assert read_json(out)["identity_gap"] == 0.0


class TestSelftest:
    def test_single_criterion(self, capsys):
        assert run(["selftest", "--criteria", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "1/1 criteria passed" in out

    def test_json_lines(self, capsys):
        assert run(["selftest", "--json", "--criteria", "1"]) == 0
        criterion, summary = [json.loads(line)
                              for line in capsys.readouterr().out.splitlines()]
        assert set(criterion) == {"index", "name", "passed", "runtime_s",
                                  "runtime_limit_s", "detail"}
        assert criterion["index"] == 1 and criterion["passed"] is True
        assert summary == {"passed": 1, "total": 1}

    @pytest.mark.parametrize("index", ["13", "0", "-1", "a", "1,x"])
    def test_index_out_of_range_exit_2(self, capsys, index):
        assert run(["selftest", "--criteria", f"1,{index}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: pvarpath selftest: argument --criteria: criterion "
                                f"index must be in 1..12, got {index.split(',')[-1]}\n")

    # an empty or blank item is quoted, or the line would end at "got"
    @pytest.mark.parametrize("criteria, shown", [("1,,2", "''"), ("1,", "''"), ("1, ,2", "' '")])
    def test_empty_index_is_shown(self, capsys, criteria, shown):
        assert run(["selftest", "--criteria", criteria]) == 2
        assert capsys.readouterr().err == ("error: pvarpath selftest: argument --criteria: "
                                           f"criterion index must be in 1..12, got {shown}\n")


class TestUsageErrors:
    def test_every_argument_has_help(self):
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        missing = [f"{name} {'/'.join(action.option_strings) or action.dest}"
                   for name, command in commands.items()
                   for action in command._actions if not action.help]
        assert missing == []

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert run([]) == 2

    def test_check_without_path(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        for mode in ("check", "pullback"):
            assert run(["timechange", "--mode", mode, "--levels", "4", "-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--path" in err
        assert not out.exists()

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "ref.json"
        assert run(["build", "--levels", "4", "-o", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_csv_under_missing_directory(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        assert run(["build", "--levels", "4", "-o", str(ref)]) == 0
        out = str(tmp_path / "missing" / "out.csv")
        for argv in (["analyze", str(ref), "-o", out],
                     ["ito", str(ref), "--f", "0,0,1", "-o", out],
                     ["recipe", "--levels", "4", "--profile-csv", out,
                      "-o", str(tmp_path / "y.json")]):
            capsys.readouterr()
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "missing" in err, argv


    def test_failed_recipe_leaves_no_outputs(self, tmp_path, capsys):
        good_json, good_csv = tmp_path / "y.json", tmp_path / "p.csv"
        bad_json, bad_csv = tmp_path / "missing" / "y.json", tmp_path / "missing" / "p.csv"
        for out, csv in ((good_json, bad_csv), (bad_json, good_csv)):
            assert run(["recipe", "--levels", "4", "--profile-csv", str(csv),
                        "-o", str(out)]) == 2
            assert capsys.readouterr().err.count("\n") == 1
            assert not out.exists() and not csv.exists()

    def test_table_out_with_table_rejected(self, tmp_path, capsys):
        tbl, copy, out = tmp_path / "t.json", tmp_path / "t2.json", tmp_path / "y.json"
        assert run(["timechange", "--mode", "recipe", "--levels", "4", "--table-out", str(tbl),
                    "-o", str(tmp_path / "first.json")]) == 0
        capsys.readouterr()
        assert run(["timechange", "--mode", "recipe", "--levels", "4", "--table", str(tbl),
                    "--table-out", str(copy), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--table-out" in err
        assert not copy.exists() and not out.exists()

    def test_failed_timechange_leaves_no_table(self, tmp_path, capsys):
        tbl = tmp_path / "t.json"
        assert run(["timechange", "--mode", "recipe", "--make-table", "power",
                    "--levels", "4", "--table-out", str(tbl),
                    "-o", str(tmp_path / "missing" / "y.json")]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not tbl.exists()

    def test_nan_grid_point_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "q": 2, "level": 2, "values": [0.0, 1.0, 0.0, 1.0, 0.0],
            "meta": {"grid_generator": "table",
                     "grid_points": [0.0, float("nan"), 0.5, 0.75, 1.0]}}))
        out = tmp_path / "prof.csv"
        assert run(["analyze", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "strictly increasing" in err
        assert not out.exists()

    def test_unknown_grid_generator_rejected(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({
            "q": 2, "level": 2, "values": [0.0, 1.0, 0.0, 1.0, 0.0],
            "meta": {"grid_generator": "bogus",
                     "grid_points": [0.0, 0.25, 0.5, 0.75, 1.0]}}))
        out = tmp_path / "out.csv"
        for argv in (["analyze", str(path), "-o", str(out)],
                     ["ito", str(path), "--f", "0,0,1", "-o", str(out)]):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "bogus" in err, argv
            assert list(tmp_path.iterdir()) == [path], argv

    def test_table_path_without_grid_points_rejected(self, tmp_path, capsys):
        path = tmp_path / "nopoints.json"
        path.write_text(json.dumps({
            "q": 2, "level": 2, "values": [0.0, 1.0, 0.0, 1.0, 0.0],
            "meta": {"grid_generator": "table"}}))
        out = tmp_path / "prof.csv"
        assert run(["analyze", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "malformed path document" in err and "meta.grid_points" in err
        assert not out.exists()

    # NaN passes the test p <= 1; each case used to exit 0 (or 3 for tol -1)
    @pytest.mark.parametrize("argv", [
        ["constant", "--p", "nan"],
        ["analyze", "x.json", "--p", "nan"],
        ["analyze", "x.json", "--p", "inf"],
        ["build", "--p", "inf", "--levels", "2"],
        ["constant", "--p", "2", "--tol", "nan"],
        ["constant", "--p", "2", "--tol", "-1"],
    ], ids=["constant-p-nan", "analyze-p-nan", "analyze-p-inf", "build-p-inf",
           "constant-tol-nan", "constant-tol-negative"])
    def test_nonfinite_exponent_or_tolerance_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(["build", "--levels", "2", "-o", "x.json"]) == 0
        assert run([*argv, "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite and > " in err, err
        assert list(tmp_path.iterdir()) == [tmp_path / "x.json"]

    @pytest.mark.parametrize("argv, message", [
        (["constant", "--q", "3", "--a", "nan,1", "--p", "2"], "branch weights must be finite"),
        (["constant", "--q", "3", "--a", "inf,1", "--p", "2"], "branch weights must be finite"),
        (["build", "--q", "3", "--a", "nan,1", "--levels", "2"], "branch weights must be finite"),
        (["recipe", "--q", "3", "--a", "1,inf", "--levels", "4"], "branch weights must be finite"),
        (["constant", "--q", "3", "--a", "1e308,1e308", "--p", "2"],
         "branch weights must be finite"),
        (["timechange", "--mode", "recipe", "--exponent", "nan", "--levels", "4"],
         "exponent must be finite and > 0"),
        (["timechange", "--mode", "recipe", "--exponent", "inf", "--levels", "4"],
         "exponent must be finite and > 0"),
        (["ito", "x.json", "--f", "0,nan"], "coefficients must be finite"),
        (["ito", "x.json", "--f", "0,inf,1"], "coefficients must be finite"),
    ], ids=["constant-a-nan", "constant-a-inf", "build-a-nan", "recipe-a-inf", "constant-a-huge",
           "power-exponent-nan", "power-exponent-inf", "ito-f-nan", "ito-f-inf"])
    def test_nonfinite_weight_exponent_or_coefficient_exit_2(self, tmp_path, capsys,
                                                             monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(["build", "--levels", "2", "-o", "x.json"]) == 0
        assert run([*argv, "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert list(tmp_path.iterdir()) == [tmp_path / "x.json"]

    # a number list that holds an item which is not a number, or no item at
    # all, is refused with the flag's name; an empty --a used to mean the
    # default weights
    @pytest.mark.parametrize("argv, message", [
        (["ito", "x.json", "--f", ""], "error: --f takes comma-separated numbers, got ''"),
        (["ito", "x.json", "--f", "1,,2"], "error: --f takes comma-separated numbers, got ''"),
        (["constant", "--q", "3", "--a", "1,x", "--p", "2"],
         "error: --a takes comma-separated numbers, got x"),
        (["build", "--q", "3", "--a", "", "--levels", "2"],
         "error: --a takes comma-separated numbers, got ''"),
    ], ids=["ito-f-empty", "ito-f-empty-item", "constant-a-word", "build-a-empty"])
    def test_number_list_errors_name_the_flag(self, tmp_path, capsys, monkeypatch, argv,
                                              message):
        monkeypatch.chdir(tmp_path)
        assert run(["build", "--levels", "2", "-o", "x.json"]) == 0
        assert run([*argv, "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err == message + "\n", err
        assert list(tmp_path.iterdir()) == [tmp_path / "x.json"]

    # a float64 overflow is refused with one line naming its cause (the
    # exponent, the polynomial or the function) and no RuntimeWarning,
    # whichever form the input documents give their values in
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", [list, f8le], ids=["list", "f8le"])
    @pytest.mark.parametrize("argv, message", [
        (["analyze", "huge.json"], "the p=2.0 variation of this path overflows float64"),
        (["analyze", "wide.json", "--p", "4"], "the p=4.0 variation of this path overflows"),
        (["ito", "x.json", "--f", "0,1e308,1e308"],
         "derivatives of the degree-2 polynomial overflow float64"),
        (["ito", "wide.json", "--f", "0,0,0,0,1"],
         "the function f or one of its derivatives overflows float64"),
        (["timechange", "--mode", "recipe", "--exponent", "2000", "--levels", "4"],
         "power-table exponent 2000.0 makes neighbouring level-4 points equal"),
    ], ids=["analyze-value-1e200", "analyze-p4-values-1e100", "ito-f-chain",
           "ito-f-evaluation", "power-exponent-2000"])
    def test_float_overflow_exit_2(self, tmp_path, capsys, monkeypatch, argv, message, form):
        monkeypatch.chdir(tmp_path)
        assert run(["build", "--levels", "4", "-o", "x.json"]) == 0
        doc = read_json(tmp_path / "x.json")
        values = serialize.path_from_dict(doc).values.tolist()
        (tmp_path / "huge.json").write_text(json.dumps({**doc, "values": form(
            [1e200 if i == 5 else v for i, v in enumerate(values)])}))
        (tmp_path / "wide.json").write_text(json.dumps({**doc, "values": form(
            [1e100 * v for v in values])}))
        inputs = sorted(tmp_path.iterdir())
        assert run([*argv, "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert sorted(tmp_path.iterdir()) == inputs

    def test_sign_table_budget_exit_3(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["constant", "--q", "100000", "--p", "2", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sign table for q=100000" in err
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["q-adic", "table"])
    def test_path_artifact_obeys_interval_budget(self, tmp_path, capsys, monkeypatch,
                                                 generator):
        meta = {"grid_generator": generator}
        if generator == "table":
            meta["grid_points"] = ((np.arange(9) / 8.0) ** 2).tolist()
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"q": 2, "level": 3, "values": [0.0] * 9, "meta": meta}))
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "4")
        out = tmp_path / "prof.csv"
        assert run(["analyze", str(path), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "budget" in err
        assert not out.exists()

    def test_failed_block_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # at --eval-level 17 the profile CSV of a level-17 path holds its
        # level-17 profile, many blocks long; the second block fails
        path = tmp_path / "x.json"
        assert run(["build", "--levels", "17", "-o", str(path)]) == 0
        format_block, calls = serialize._format_block, []

        def failing_on_second_call(*args):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return format_block(*args)

        monkeypatch.setattr(serialize, "_format_block", failing_on_second_call)
        assert run(["analyze", str(path), "--eval-level", "17",
                    "-o", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "disk full" in err, err
        assert list(tmp_path.iterdir()) == [path]


def _refuse_nonfinite(token):
    raise AssertionError(f"non-finite number {token} in a JSON output")


# extreme sizes and exponents end in a bounded time: a budget check compares
# the level (or J) with the largest one the budget holds and never forms
# q**level; a bound, a constant or a density that overflows or underflows
# float64 is refused; past a polynomial's degree the Ito correction is zero.
# The slowest cases are `constant --p 3000` and the two recipes at p = 3000
# that need its constant: the exact oracle sums 2**23 digit strings by the
# binomial series, pairing 2.3% of them (about 33 ms in-process on a 2-vCPU
# Xeon)
EDGE_CASES = [
    (["constant", "--p", "3000"], 0, None),
    (["recipe", "--p", "3000", "--levels", "4"], 0, None),
    (["timechange", "--mode", "recipe", "--p", "3000", "--levels", "4"], 0, None),
    (["constant", "--a", "1e308", "--p", "3"], 2, "the p=3.0 truncation bound overflows float64"),
    (["constant", "--p", "1e308"], 2, "truncation bound overflows float64"),
    (["recipe", "--q", "3", "--p", "3000", "--levels", "4"], 2,
     "the p=3000.0 moment by exact-enumeration underflows float64 to 0.0"),
    (["constant", "--q", "3", "--p", "3000"], 2,
     "the p=3000.0 moment by exact-enumeration underflows float64 to 0.0"),
    (["constant", "--p", "3000.5", "--q", "3", "--a", "1,-0.5", "--J", "13"], 2,
     "the p=3000.5 moment by exact-enumeration underflows float64 to a subnormal 2.13"),
    *[([*command, "--q", "5", "--p", "200", "--levels", "8", "--target", "linear"], 3,
       "the p=200 constant for q=5 is 7.26e-11 with error bound 6.27e-08")
      for command in (["recipe"], ["timechange", "--mode", "recipe"])],
    (["constant", "--method", "closed", "--p", "200"], 0, None),
    (["constant", "--method", "closed", "--p", "1100"], 2,
     "so p <= 1028; got p=1100"),
    (["constant", "--method", "mc", "--q", "3", "--a", "1e60,1", "--p", "3", "--N", "1000"], 2,
     "the p=3.0 Monte Carlo standard error overflows float64"),
    (["timechange", "--mode", "recipe", "--levels", "4", "--seed", "inf"], 2,
     "error: pvarpath timechange: argument --seed: invalid int value: 'inf'"),
    (["timechange", "--mode", "recipe", "--make-table", "random", "--q", "1", "--levels", "4"],
     2, "branching factor q must be an integer >= 2, got 1"),
    (["constant", "--q", "3", "--a", "-1,1", "--p", "2"], 2,
     "error: pvarpath constant: argument --a: expected one argument"),
    *[([*command, "--levels", levels], 3,
       f"grid with q=2, level={levels} exceeds the budget of 16777216 intervals; "
       "the largest level allowed is 24")
      for command in (["build"], ["recipe"], ["timechange", "--mode", "recipe"])
      for levels in ("100000", "99999999999999999999")],
    *[(["constant", "--p", "2", "--J", J], 3,
       f"J={J} exceeds the enumeration budget of 67108864 digit strings for q=2; "
       "the largest J allowed is 26")
      for J in ("100000", "99999999999999999999")],
    (["recipe", "--levels", "6", "--rate", "1e308"], 0, None),
    (["timechange", "--mode", "recipe", "--levels", "6", "--rate", "1e308"], 2,
     "hprime samples must be finite and nonnegative"),
    *[(["ito", "x.json", "--f", "0,0,1", "--p", p], 0, None) for p in ("3000", "1e20", "1e308")],
    # a document nested deeper than the parser recurses
    *[(command, 2, "cannot read deep.json: maximum recursion depth exceeded")
      for command in (["analyze", "deep.json"],
                      ["timechange", "--mode", "pullback", "--table", "deep.json",
                       "--path", "x.json"])],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, message", EDGE_CASES,
                         ids=[" ".join(argv) for argv, _, _ in EDGE_CASES])
def test_edge_values_end_at_once(tmp_path, capsys, monkeypatch, argv, code, message):
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--levels", "6", "-o", "x.json"]) == 0
    Path("deep.json").write_text("[" * 200_000)
    assert run([*argv, "-o", "out"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1 and message in err, err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "deep.json", tmp_path / "x.json"]
        return
    assert err == ""
    doc = json.loads(Path("out.manifest.json" if argv[0] == "ito" else "out").read_text(),
                     parse_constant=_refuse_nonfinite)
    if argv[0] == "constant":
        assert doc["error_bound"] <= doc["manifest"]["config"]["tol"]


# a sweep of every numeric flag of every command, one edge value at a time,
# for the way each case ends: in exit 0, 2 or 3 with no exception and no
# warning; a failure prints one stderr line and writes nothing, and a success
# writes only finite numbers
_SWEEP_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1.0000001", "3000", "1e20", "1e308",
                 "99999999999999999999")
_SWEEP_LISTS = ("nan,1", "1e308,1", "1,-1", "-1,1")
# each command's base argv and its numeric flags, with the flags each needs
# beside it to act: weights go with q = 3, where the two-item lists fit, and
# a seed with random signs or a random table
_Q3, _SIGNS, _TABLE = ["--q", "3"], ["--signs", "random"], ["--make-table", "random"]
_SPEC_FLAGS = {"--q": [], "--p": [], "--levels": [], "--seed": _SIGNS, "--a": _Q3}
_SWEEP_COMMANDS = [
    (["build", "--levels", "4"], _SPEC_FLAGS),
    (["recipe", "--levels", "4"], {**_SPEC_FLAGS, "--rate": [], "--eval-level": []}),
    *[(["constant", "--method", method, "--p", "2", "--N", "1000"],
       {"--p": [], "--q": [], "--a": _Q3, "--J": [], "--N": [], "--seed": [], "--tol": []})
      for method in ("exact", "mc", "closed")],
    (["analyze", "x.json"], {"--p": [], "--q": [], "--levels": [], "--eval-level": []}),
    (["ito", "x.json", "--f", "0,0,1"], {"--f": [], "--p": [], "--level": []}),
    *[(["timechange", "--mode", mode, "--levels", "6", "--path", "x.json"],
       {"--q": [], "--p": [], "--levels": [], "--seed": _TABLE, "--exponent": []})
      for mode in ("check", "pullback")],
    (["timechange", "--mode", "recipe", "--levels", "4"],
     {**_SPEC_FLAGS, "--seed": _TABLE, "--exponent": [], "--rate": []}),
]
_SWEEP = [[*base, *context, flag, value]
          for base, flags in _SWEEP_COMMANDS for flag, context in flags.items()
          for value in _SWEEP_VALUES + (_SWEEP_LISTS if flag in ("--a", "--f") else ())]


def _assert_finite_output(path):
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_refuse_nonfinite)
    else:
        assert all(math.isfinite(float(v)) for row in text.splitlines()[1:]
                   for v in row.split(","))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", _SWEEP, ids=[" ".join(argv) for argv in _SWEEP])
def test_sweep_every_numeric_flag(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if "x.json" in argv:
        assert run(["build", "--levels", "6", "-o", "x.json"]) == 0
    code = run([*argv, "-o", "out.csv" if argv[0] in ("analyze", "ito") else "out.json"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    written = sorted(set(tmp_path.iterdir()) - {tmp_path / "x.json"})
    if code:
        assert err.count("\n") == 1, err
        assert written == []
        return
    assert err == ""
    for path in written:
        _assert_finite_output(path)


def _python_dash_m(*argv, cwd=None):
    src = str(Path(pvarpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "pvarpath", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = _python_dash_m("selftest", "--criteria", "1")
        assert proc.returncode == 0, proc.stderr
        assert "1/1 criteria passed" in proc.stdout


# every run in a process parses with one parser, built on the first call; a
# flag given to one run, or a run that ends in a usage error, leaves nothing
# for the next
class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_runs_leave_no_state(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["constant", "--p", "3", "--J", "10", "-o", "a.json"]) == 0
        assert run(["constant", "--p"]) == 2
        assert "argument --p: expected one argument" in capsys.readouterr().err
        assert run(["constant", "--p", "3", "-o", "b.json"]) == 0
        assert read_json(Path("a.json"))["manifest"]["config"]["J"] == 10
        assert read_json(Path("b.json"))["manifest"]["config"]["J"] is None
        proc = _python_dash_m("constant", "--p", "3", "-o", "fresh.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert Path("b.json").read_bytes() == Path("fresh.json").read_bytes()


# hand-written documents around the f8le objects that ``serialize.read_json``
# decodes from the file's bytes: each reads as ``json.loads`` reads it
_B64_V = f8le([0.0, 1.0, 0.0, 1.0, 0.0])["f8le"]
_B64_G = f8le([0.0, 0.1, 0.5, 0.75, 1.0])["f8le"]


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _path_text(values=_compact(f8le([0.0, 1.0, 0.0, 1.0, 0.0])), q="2", meta=""):
    """A level-2 path document on a "table" grid, laid out as ``write_json``
    lays it out, with the texts given for ``values``, ``q`` and more meta."""
    return (f'{{"level":2,"meta":{{"grid_generator":"table",'
            f'"grid_points":{{"f8le":"{_B64_G}"}}{meta}}},"q":{q},"values":{values}}}\n')


HAND_WRITTEN = {
    "canonical": (_path_text().encode(), 0),
    "spaced": (_path_text(values=f'{{ "f8le" : "{_B64_V}" }}').encode(), 0),
    "list-form": (_path_text(values="[0.0, 1, 0.0, 1.0, 0]").encode(), 0),
    "nul-string-in-meta": (_path_text(meta=',"note":"a\\u0000b"').encode(), 0),
    "marker-in-meta": (_path_text(meta=',"m":{"\\u0000":0}').encode(), 0),
    "marker-after-the-arrays": (
        _path_text(values="[0, 1, 0, 1, 0]", meta=',"m":{"\\u0000":0}').encode(), 0),
    "f8le-text-in-string": (_path_text(meta=f',"note":"{{\\"f8le\\":\\"{_B64_V}\\"}}"').encode(), 0),
    "utf-16": (_path_text().encode("utf-16"), 0),
    "utf-16-be": (_path_text().encode("utf-16-be"), 0),
    "utf-32": (_path_text().encode("utf-32"), 0),
    # a string whose UTF-16 bytes hold two f8le objects: spliced, it would still parse
    "utf-16-f8le-bytes-in-string": (_path_text(meta=',"note":' + json.dumps(
        (2 * b'{"f8le":"AAAAAAAAAAA="}x').decode("utf-16-le"), ensure_ascii=False)
    ).encode("utf-16-le"), 0),
    "utf-8-bom": (b"\xef\xbb\xbf" + _path_text().encode(), 0),
    "escaped-newline-in-base64": (
        _path_text(values=f'{{"f8le":"{_B64_V[:8]}\\n{_B64_V[8:]}"}}').encode(), 2),
    "newline-in-base64": (_path_text(values=f'{{"f8le":"{_B64_V[:8]}\n{_B64_V[8:]}"}}').encode(), 2),
    "bad-padding": (_path_text(values=f'{{"f8le":"{_B64_V.rstrip("=")}"}}').encode(), 2),
    "12-bytes": (_path_text(values=f'{{"f8le":"{"A" * 16}"}}').encode(), 2),
    "duplicate-key": (_path_text(values=f'{{"f8le":"{_B64_G}","f8le":"{_B64_V}"}}').encode(), 0),
    "duplicate-key-last-bad": (_path_text(values=f'{{"f8le":"{_B64_V}","f8le":"*"}}').encode(), 2),
    "f8le-object-closed-by-a-bracket": (
        _path_text(meta=f',"m":[{{"f8le":"{_B64_V}"],1]').encode(), 2),
    "f8le-as-a-key": (_path_text(meta=f',"m":{{{{"f8le":"{_B64_V}"}}:1}}').encode(), 2),
    "truncated": (_path_text().encode()[:-30], 2),
    "trailing-text": (_path_text().encode() + b"x", 2),
    "q-f8le": (_path_text(q=f'{{"f8le":"{_B64_V}"}}').encode(), 2),
    "q-f8le-3000-values": (_path_text(q=_compact(f8le(np.arange(3000.0)))).encode(), 2),
    "grid-generator-f8le": (_path_text().replace('"table"', _compact(f8le([1.5]))).encode(), 2),
}
# where a field holds an f8le object that is not an array field, the message
# shows the decoded array, on one line, where it showed the base64 text
SHOWN_ARRAYS = {
    "q-f8le": "'q' must be an integer, got {'f8le': array([0., 1., 0., 1., 0.])}",
    "q-f8le-3000-values": "'q' must be an integer, got {'f8le': array([0.000e+00, 1.000e+00, ",
    "grid-generator-f8le": "grid generator {'f8le': array([1.5])} is not 'q-adic' or 'table'",
}


def _read_arrays(doc):
    """``doc`` with each f8le object that reads as an array as its bytes."""
    if type(doc) is dict:
        try:
            return serialize._json_floats(doc, "", "").tobytes()
        except ValidationError:
            return {k: _read_arrays(v) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_documents_read_as_json_reads_them(tmp_path, capsys, monkeypatch, name):
    raw, code = HAND_WRITTEN[name]
    try:
        want = json.loads(raw)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            serialize.read_json(raw)
        assert str(got.value) == str(exc)
    else:
        assert _read_arrays(serialize.read_json(raw)) == _read_arrays(want)
    monkeypatch.chdir(tmp_path)
    Path("x.json").write_bytes(raw)
    outcomes = []
    for reader in (serialize.read_json, json.loads):
        monkeypatch.setattr(serialize, "read_json", reader)
        outcomes.append((run(["analyze", "x.json", "-o", "out.csv"]), capsys.readouterr().err,
                         Path("out.csv").read_bytes() if code == 0 else None))
    new, old = outcomes
    assert new[0] == code and (new[1] == "" if code == 0 else new[1].count("\n") == 1), new[1]
    if name in SHOWN_ARRAYS:
        assert "{'f8le': '" in old[1] and SHOWN_ARRAYS[name] in new[1], new[1]
        assert new[0] == old[0]
    else:
        assert new == old


class TestLoad:
    def test_digest_and_object_of_a_load(self, tmp_path):
        good, bad = tmp_path / "x.json", tmp_path / "truncated.json"
        assert run(["build", "--levels", "12", "-o", str(good)]) == 0
        bad.write_bytes(good.read_bytes()[:-100])
        path, digest = cli._load(str(good), serialize.path_from_dict)
        assert digest == hashlib.sha256(good.read_bytes()).hexdigest()[:16]
        assert path.values.tobytes() == serialize.path_from_dict(read_json(good)).values.tobytes()
        with pytest.raises(ValidationError, match="cannot read .*truncated.json"):
            cli._load(str(bad), serialize.path_from_dict)
        with pytest.raises(ValidationError, match="cannot read .*missing.json"):
            cli._load(str(tmp_path / "missing.json"), serialize.path_from_dict)

    def test_peak_is_at_most_twice_the_file(self, tmp_path):
        # the bytes and the decoded arrays, not the arrays' text as well
        x = tmp_path / "x.json"
        assert run(["build", "--levels", "18", "-o", str(x)]) == 0
        tracemalloc.start()
        try:
            path, _ = cli._load(str(x), serialize.path_from_dict)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.values.size == 2 ** 18 + 1
        assert peak <= 2.0 * x.stat().st_size, peak / x.stat().st_size
