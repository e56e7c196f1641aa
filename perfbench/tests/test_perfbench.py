"""Tests for the benchmark's own code: span arithmetic, metrics, wrapper removal."""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
from spans import Span, Tracer, metric_names, self_times, summarize  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [Span("root", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0),
             Span("c", 2.0, 3.0, 1), Span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.outer.run calls inner.work through a from-import alias."""
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def work(n):
        return list(range(n))

    def run(n):
        return len(outer.work(n)) + len(outer.work(n))

    inner.work, outer.work, outer.run, pkg.work = work, work, run, work
    for name, module in (("fakepkg", pkg), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg, inner, outer


def test_tracer_records_nested_spans_and_self_time(fake_package):
    pkg, inner, outer = fake_package
    boundaries = {"outer.run": ("cli", None),
                  "inner.work": ("schauder", lambda a, k, r: {"schauder.analyze.points": len(r)})}
    ticks = itertools.count()
    tracer = Tracer("fakepkg", boundaries, clock=lambda: float(next(ticks)))
    with tracer:
        assert outer.run(3) == 6
    # clock reads: run 0, work 1-2, work 3-4, run 5
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer.run", 0.0, 5.0, None), ("inner.work", 1.0, 2.0, 0), ("inner.work", 3.0, 4.0, 0)]
    m = summarize(tracer.spans, wall_s=5.0, boundaries=boundaries)
    assert m["outer.run.self_s"] == 3.0 and m["inner.work.self_s"] == 2.0
    assert m["inner.work.calls"] == 2 and m["schauder.analyze.points"] == 6
    assert m["cli.share"] + m["schauder.share"] == 1.0


def test_tracer_counts_errors_and_restores_on_exit(fake_package):
    pkg, inner, outer = fake_package
    original = inner.work
    tracer = Tracer("fakepkg", {"inner.work": ("schauder", None)})
    with tracer:
        assert outer.work is not original and pkg.work is not original
        with pytest.raises(TypeError):
            outer.work("x")
    assert inner.work is original and outer.work is original and pkg.work is original
    m = summarize(tracer.spans, wall_s=1.0, boundaries={"inner.work": ("schauder", None)})
    assert m["inner.work.errors"] == 1 and m["schauder.errors"] == 1


def _pvarpath_namespaces():
    import pvarpath.acceptance  # noqa: F401  (loads every module that imports boundaries)
    import pvarpath.cli  # noqa: F401

    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "pvarpath" or name.startswith("pvarpath.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _pvarpath_namespaces()
    from pvarpath import cli, construct

    original = construct.variation_constant
    tracer = Tracer()
    with tracer:
        assert cli.variation_constant is not original
        assert cli.run(["constant", "--p", "4", "--method", "closed",
                        "-o", str(tmp_path / "c.json")]) == 0
    after = _pvarpath_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert cli.variation_constant is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.run" and "construct.variation_constant" in names
    assert all(s.parent == 0 for s in tracer.spans[1:])


def _command(kind, seconds, exit_code=0, failure=None, seen=None):
    return {"kind": kind, "argv": [kind], "seconds": seconds, "exit": exit_code,
            "failure": failure, "seen": seen or {}}


def _pass(commands, warm=False):
    return {"warm": warm, "traced": False, "wall_s": sum(c["seconds"] for c in commands),
            "commands": commands, "artifact_bytes": 2_000_000, "layers": None}


def test_failed_command_counts_in_error_rate_not_in_latency():
    timed = [
        _command("build", 1.0),
        _command("recipe", 50.0, exit_code=3, failure="exit 3"),
        _command("recipe", 2.0, seen={"target_sup_gap": 0.01}),
        _command("recipe", 70.0, failure="target sup gap too large",
                 seen={"target_sup_gap": 0.5}),
    ]
    result = {"peak_rss_kb": 1000, "setup_s": [0.3, 0.1, 0.2],
              "passes": [_pass([_command("build", 9.0)], warm=True), _pass(timed), _pass(timed)]}
    m = bench_run.end_to_end(result)
    assert m["error_rate"]["value"] == 0.5 and m["error_rate"]["samples"] == 8
    assert m["recipe_s"]["value"] == 2.0 and m["recipe_s"]["samples"] == 2
    assert m["build_s"]["value"] == 1.0
    assert m["ops_per_s"]["value"] == 4 / (2 * 123.0)
    assert m["target_gap"]["value"] == 0.01
    assert m["setup_s"]["value"] == 0.2
    assert m["constant_s"]["value"] is None and m["constant_s"]["samples"] == 0
    assert m["artifact_mb"]["value"] == 2.0


def test_tail_needs_ten_samples_beyond():
    assert bench_run.tail(list(range(19))) is None
    assert bench_run.tail(list(range(20)))["percentile"] == 50.0
    top = bench_run.tail([float(i) for i in range(200)])
    assert top["percentile"] == 95.0 and top["beyond"] == 10 and top["value"] == 189.0


def test_declared_metrics_are_produced():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"]:
        assert bench_run.UNITS[metric["name"]] == metric["unit"]
    layer_names = set(metric_names()) | {"trace.overhead_s", "trace.coverage"}
    for metric in declared["per_layer"]:
        assert metric["name"] in layer_names
        assert bench_run._layer_unit(metric["name"]) == metric["unit"]
