"""The benchmark's fixed workloads: one pass of pvarpath CLI commands each.

A workload maps the seed to the command list of one pass.  The seed reaches
the program only through ``--seed`` flags.  File names are relative to the
run's working directory.  Sizes follow the fixed sizes in ROADMAP.md.

Each command may carry an output check.  A check returns ``(reason, seen)``:
``reason`` is ``None`` when the output is correct, and ``seen`` holds values
the report aggregates (``target_sup_gap``).  The tolerances are those of
``pvarpath.acceptance``; none is loosened.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

IDENTITY_TOL = 1e-12      # criteria 8 (y^2 residual) and 9 (transport gap)
TARGET_REL_TOL = 0.02     # criterion 6: sup gap <= 0.02 * (1 + h(1))
ORACLE_DIFF_CAP = 1e-3    # criterion 3: every pairwise difference is also <= 1e-3


@dataclass(frozen=True)
class Command:
    argv: tuple
    outputs: tuple                      # files the command writes
    check: Callable | None = None       # (workdir) -> (reason | None, seen)

    @property
    def kind(self) -> str:
        return self.argv[0]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _residual_check(csv_name: str):
    def check(wd: Path):
        sup = _read_json(wd / f"{csv_name}.manifest.json")["config"]["sup_residual"]
        if sup <= IDENTITY_TOL:
            return None, {}
        return f"residual sup {sup:.3e} > {IDENTITY_TOL:g} (criterion 8)", {}
    return check


def _identity_check(name: str):
    def check(wd: Path):
        gap = _read_json(wd / name)["identity_gap"]
        if gap <= IDENTITY_TOL:
            return None, {}
        return f"identity gap {gap:.3e} > {IDENTITY_TOL:g} (criterion 9)", {}
    return check


def _gap_check(name: str, target: str, rate: float = 1.0):
    def check(wd: Path):
        from pvarpath.cli import TARGET_DENSITIES

        gap = _read_json(wd / name)["manifest"]["config"]["target_sup_gap"]
        h_at_1 = float(TARGET_DENSITIES[target][1](1.0, rate))
        tol = TARGET_REL_TOL * (1.0 + h_at_1)
        seen = {"target_sup_gap": gap}
        if gap <= tol:
            return None, seen
        return f"target sup gap {gap:.3e} > {tol:.4f} (criterion 6)", seen
    return check


def _oracle_check(first: str, second: str):
    def check(wd: Path):
        a, b = _read_json(wd / first), _read_json(wd / second)
        diff = abs(a["value"] - b["value"])
        stat = (3.0 * (a.get("stderr", 0.0) + b.get("stderr", 0.0))
                + a["error_bound"] + b["error_bound"])
        if diff <= max(stat, 1e-12) and diff <= ORACLE_DIFF_CAP:
            return None, {}
        return f"{first} and {second} differ by {diff:.3e} > bound {stat:.3e} (criterion 3)", {}
    return check


def dyadic_large(seed: int) -> list:
    """q=2, n=20: array- and serialization-bound; writes beside reads of one artifact."""
    spec = ("--q", "2", "--p", "2", "--levels", "20", "--signs", "random", "--seed", str(seed))
    return [
        Command(("build", *spec, "-o", "x.json"), ("x.json",)),
        Command(("analyze", "x.json", "-o", "prof.csv"),
                ("prof.csv", "prof.csv.manifest.json")),
        Command(("ito", "x.json", "--f", "0,0,1", "-o", "ito2.csv"),
                ("ito2.csv", "ito2.csv.manifest.json"), _residual_check("ito2.csv")),
        Command(("ito", "x.json", "--f", "0,0,0,0,1", "--p", "4", "-o", "ito4.csv"),
                ("ito4.csv", "ito4.csv.manifest.json")),
        Command(("recipe", *spec, "--target", "exp", "--profile-csv", "recipe.csv",
                 "-o", "recipe.json"),
                ("recipe.json", "recipe.csv"), _gap_check("recipe.json", "exp")),
        Command(("timechange", "--mode", "check", *spec, "--path", "x.json", "-o", "check.json"),
                ("check.json",), _identity_check("check.json")),
    ]


def triadic_timechange(seed: int) -> list:
    """q=3, n=12: the q >= 3 branches, refining tables and table-grid artifacts."""
    spec = ("--q", "3", "--p", "2", "--levels", "12")
    return [
        Command(("build", *spec, "-o", "x3.json"), ("x3.json",)),
        Command(("timechange", "--mode", "check", *spec, "--make-table", "random",
                 "--seed", str(seed), "--table-out", "table.json", "--path", "x3.json",
                 "-o", "check.json"),
                ("table.json", "check.json"), _identity_check("check.json")),
        Command(("timechange", "--mode", "pullback", *spec, "--table", "table.json",
                 "--path", "x3.json", "-o", "pulled.json"), ("pulled.json",)),
        Command(("timechange", "--mode", "recipe", *spec, "--target", "exp",
                 "-o", "trecipe.json"),
                ("trecipe.json",), _gap_check("trecipe.json", "exp")),
        Command(("analyze", "pulled.json", "--q", "3", "-o", "pulled.csv"),
                ("pulled.csv", "pulled.csv.manifest.json")),
    ]


def constant_sweep(seed: int) -> list:
    """Small grids, oracle-bound: bypasses synthesis and serialization work."""
    cmds = [
        Command(("constant", "--p", p, "--q", q, "-o", f"c-p{p}-q{q}.json"), (f"c-p{p}-q{q}.json",))
        for p in ("2", "2.5", "3", "4") for q in ("2", "3")
    ]
    cmds += [
        Command(("constant", "--p", "3", "--tol", "1e-8", "-o", "c-tol.json"), ("c-tol.json",)),
        Command(("constant", "--p", "1.5", "--method", "mc", "--seed", str(seed),
                 "-o", "c-mc.json"), ("c-mc.json",)),
        Command(("constant", "--p", "4", "--method", "closed", "-o", "c-closed.json"),
                ("c-closed.json",), _oracle_check("c-p4-q2.json", "c-closed.json")),
    ]
    # p=1.5 exits 3 (BudgetError) at the seed commit; it stays and counts as failed
    cmds += [
        Command(("recipe", "--levels", "12", "--p", p, "--target", "log", "-o", f"r-p{p}.json"),
                (f"r-p{p}.json",), _gap_check(f"r-p{p}.json", "log"))
        for p in ("2", "2.5", "3", "1.5")
    ]
    cmds.append(Command(("recipe", "--q", "3", "--p", "2.5", "--levels", "8", "-o", "r-q3.json"),
                        ("r-q3.json",), _gap_check("r-q3.json", "linear")))
    return cmds


WORKLOADS = {
    "dyadic-large": dyadic_large,
    "triadic-timechange": triadic_timechange,
    "constant-sweep": constant_sweep,
}
