import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvarpath
from pvarpath.cli import run


def read_json(path):
    return json.loads(path.read_text())


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


class TestBuild:
    def test_build_writes_path_with_manifest(self, tmp_path):
        out = tmp_path / "ref.json"
        code = run(["build", "--q", "2", "--p", "2", "--levels", "8",
                    "--signs", "plus", "-o", str(out)])
        assert code == 0
        doc = read_json(out)
        assert doc["q"] == 2 and doc["level"] == 8
        assert len(doc["values"]) == 2 ** 8 + 1
        assert "config_hash" in doc["manifest"]

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

    # each bad item replaces the last entry, where a 1 would be valid
    @pytest.mark.parametrize("item", ["1", True, None, [1.0], 10 ** 400],
                             ids=["string", "bool", "null", "nested", "huge-int"])
    @pytest.mark.parametrize("field", ["values", "meta.grid_points"])
    def test_malformed_path_array_exit_2(self, tmp_path, capsys, field, item):
        doc = table_path_doc()
        (doc["values"] if field == "values" else doc["meta"]["grid_points"])[-1] = item
        assert_rejected(tmp_path, capsys, ["analyze"], doc,
                        f"malformed path document: {field!r} must be a flat list of numbers")

    @pytest.mark.parametrize("offset", ["2", True, float("inf"), 10 ** 400],
                             ids=["string", "bool", "infinity", "huge-int"])
    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["timechange", "--mode", "pullback", "--make-table", "qadic", "--levels", "2",
         "--path"],
    ], ids=["analyze", "pullback"])
    def test_malformed_path_offset_exit_2(self, tmp_path, capsys, command, offset):
        doc = {**table_path_doc(), "meta": {"offset": offset}}  # pullback needs a q-adic grid
        assert_rejected(tmp_path, capsys, command, doc,
                        "malformed path document: 'meta.offset' must be a finite number")

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


class TestConstant:
    def test_exact_with_pinned_depth(self, tmp_path, capsys):
        assert run(["constant", "--p", "2", "--q", "2", "--method", "exact",
                    "--J", "25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - 1.0) <= 1e-6
        assert doc["error_bound"] < 1e-6

    def test_budget_exit_3(self):
        assert run(["constant", "--p", "2", "--method", "exact", "--J", "40"]) == 3

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
        (["--q", "1"], "q must be >= 2, got 1"),
        (["--method", "mc", "--N", "1"], "needs N >= 2 samples, got 1"),
    ], ids=["J-negative", "J-zero", "q-1", "mc-N-1"])
    def test_degenerate_oracle_inputs_exit_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["constant", "--p", "2", *argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()


class TestRecipe:
    def test_exp_target(self, tmp_path):
        out = tmp_path / "y.json"
        csv = tmp_path / "prof.csv"
        assert run(["recipe", "--target", "exp", "--levels", "12",
                    "--profile-csv", str(csv), "-o", str(out)]) == 0
        doc = read_json(out)
        gap = doc["manifest"]["config"]["target_sup_gap"]
        assert gap <= 0.02 * (1 + (np.e - 1))
        assert csv.read_text().startswith("level,t,value\n")

    def test_negative_eval_level_rejected(self, tmp_path, capsys):
        # it used to profile t = 0 alone and record a target_sup_gap of 0.0
        out, csv = tmp_path / "y.json", tmp_path / "prof.csv"
        assert run(["recipe", "--levels", "6", "--eval-level", "-1",
                    "--profile-csv", str(csv), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eval_level" in err
        assert not out.exists() and not csv.exists()


class TestIto:
    def test_square_residual_is_tiny(self, tmp_path):
        ref = tmp_path / "ref.json"
        res = tmp_path / "resid.csv"
        assert run(["build", "--levels", "10", "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,1", "--p", "2",
                    "-o", str(res)]) == 0
        manifest = read_json(tmp_path / "resid.csv.manifest.json")
        assert manifest["config"]["sup_residual"] <= 1e-12
        assert res.read_text().startswith("t,residual\n")

    def test_odd_order_rejected(self, tmp_path):
        ref = tmp_path / "ref.json"
        assert run(["build", "--levels", "6", "-o", str(ref)]) == 0
        assert run(["ito", str(ref), "--f", "0,0,1", "--p", "3",
                    "-o", str(tmp_path / "r.csv")]) == 2


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
        src = read_json(ref)
        assert doc["values"] == src["values"]
        assert doc["meta"]["grid_generator"] == "table"
        table = read_json(tbl)
        assert set(table) == {"q", "points"} and table["q"] == 2
        assert len(table["points"]) == 2 ** 8 + 1
        assert doc["meta"]["grid_points"] == table["points"]

    def test_recipe_mode(self, tmp_path):
        out = tmp_path / "ty.json"
        assert run(["timechange", "--mode", "recipe", "--make-table", "power",
                    "--levels", "12", "--target", "linear",
                    "-o", str(out)]) == 0
        doc = read_json(out)
        assert doc["manifest"]["config"]["target_sup_gap"] <= 0.04

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
        ({"q": 2, "points": [0.1, 0.25, 0.5, 0.75, 1.0]}, "start at 0 and end at 1"),
        ({"q": 2, "points": [0.0, 0.25, 0.5, 0.75, 2.0]}, "start at 0 and end at 1"),
        ({"q": 2.0, "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got 2.0"),
        ({"q": "2", "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got '2'"),
        ({"q": True, "points": [0.0, 0.5, 1.0]}, "'q' must be an integer, got True"),
        ([0.0, 0.5, 1.0], "malformed table document"),
    ], ids=["levels-not-list", "levels-empty", "old-layout", "finest-wrong-length",
           "points-empty", "q-1", "points-number", "points-null", "points-nested",
           "points-ragged", "points-strings", "points-bools", "points-mixed-bool",
           "points-huge-int", "nan", "decreasing",
           "repeated", "start-not-0", "end-not-1", "q-float", "q-string", "q-bool",
           "not-an-object"])
    def test_malformed_table_exit_2(self, tmp_path, capsys, doc, message):
        tbl = tmp_path / "table.json"
        tbl.write_text(json.dumps(doc))
        out = tmp_path / "y.json"
        assert run(["timechange", "--mode", "recipe", "--levels", "1", "--table", str(tbl),
                    "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

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


class TestUsageErrors:
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

    def test_failed_chunk_worker_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        from pvarpath import serialize

        write_chunks, parent = serialize._write_chunks, os.getpid()

        def failing_in_worker(stream, n, fmt):
            def fmt_or_fail(lo, hi):
                if os.getpid() != parent:
                    raise RuntimeError("worker fails")
                return fmt(lo, hi)
            write_chunks(stream, n, fmt_or_fail)

        monkeypatch.setattr(serialize, "_cpu_count", lambda: 2)
        monkeypatch.setattr(serialize, "_write_chunks", failing_in_worker)
        out = tmp_path / "x.json"
        assert run(["build", "--levels", "17", "-o", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = str(Path(pvarpath.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "pvarpath", "selftest", "--criteria", "1"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "1/1 criteria passed" in proc.stdout
