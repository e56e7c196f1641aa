"""pvarpath benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload dyadic-large --seed 1 --seconds 25 --trace 0

One run starts one child process (``child.py``) that imports
``pvarpath.cli`` and calls ``cli.run`` for each command of the workload,
pass after pass, as a closed loop with one client; between passes it times
fresh interpreters importing ``pvarpath.cli`` (set-up).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the layer boundaries
(``spans.py``) and reports the per-layer metrics.

The report goes to standard output, followed by one JSON line with the
metrics ``BENCHMARK.json`` lists; the full record is written to
``.perfbench/results/``.  Everything the run writes stays under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import COUNTS, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
KINDS = ("build", "analyze", "ito", "recipe", "timechange", "constant")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MB = 1e6

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "error_rate": "ratio",
    **{f"{kind}_s": "s" for kind in KINDS},
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "target_gap": "abs",
}


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": pct, "value": ordered[rank - 1], "beyond": n - rank}
    return None


def _stat(value, samples, values=None):
    return {"value": value, "samples": samples, "tail": tail(values) if values else None}


def _median_or_none(values):
    return statistics.median(values) if values else None


def timed_passes(result, traced=False):
    return [p for p in result["passes"] if not p["warm"] and p["traced"] == traced]


def end_to_end(result):
    """End-to-end metrics of one untraced run from the child's pass records.

    A command that failed (non-zero exit or failed output check) counts in
    ``error_rate`` and completes nothing: it is left out of the latency
    medians and of ``ops_per_s``, but its time stays in the pass wall time.
    """
    passes = timed_passes(result)
    cmds = [c for p in passes for c in p["commands"]]
    ok = [c for c in cmds if c["failure"] is None]
    setup = result["setup_s"]
    m = {
        "setup_s": _stat(_median_or_none(setup), len(setup), setup),
        "ops_per_s": _stat(len(ok) / sum(p["wall_s"] for p in passes), len(passes)),
        "error_rate": _stat((len(cmds) - len(ok)) / len(cmds), len(cmds)),
    }
    for kind in KINDS:
        xs = [c["seconds"] for c in ok if c["kind"] == kind]
        m[f"{kind}_s"] = _stat(_median_or_none(xs), len(xs), xs)
    m["peak_rss_mb"] = _stat(result["peak_rss_kb"] * 1024 / MB, 1)
    m["artifact_mb"] = _stat(statistics.median(p["artifact_bytes"] for p in passes) / MB,
                             len(passes))
    gaps = [c["seen"]["target_sup_gap"] for c in ok if "target_sup_gap" in c["seen"]]
    m["target_gap"] = _stat(max(gaps) if gaps else None, len(gaps))
    for name, stat in m.items():
        stat["unit"] = UNITS[name]
    return m


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", ".coverage")):
        return "ratio"
    return "B" if name.endswith("_bytes") else "count"


def per_layer(result):
    """Medians over the traced passes, plus tracing overhead and coverage."""
    traced, plain = timed_passes(result, traced=True), timed_passes(result)
    m = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        m[name] = {"value": statistics.median(values), "samples": len(values)}
    m["trace.overhead_s"] = {
        "value": (statistics.median(p["wall_s"] for p in traced)
                  - statistics.median(p["wall_s"] for p in plain)),
        "samples": len(traced) + len(plain),
    }
    m["trace.coverage"] = {
        "value": statistics.median(sum(p["layers"][f"{layer}.share"] for layer in LAYERS)
                                   for p in traced),
        "samples": len(traced),
    }
    for name, stat in m.items():
        stat["unit"] = _layer_unit(name)
    return m


def counts_repeat(result):
    """True when every count is identical across the traced passes."""
    traced = timed_passes(result, traced=True)
    keys = [k for k in traced[0]["layers"]
            if k in COUNTS or k.endswith((".calls", ".errors"))]
    return all(p["layers"][k] == traced[0]["layers"][k] for p in traced for k in keys)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(record, metrics):
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"  passes: 1 warm + {record['timed_passes']} timed; commands attempted "
          f"{record['attempted']}, failed {record['failed']}")
    for reason, count in sorted(record["failures"].items()):
        print(f"  failed x{count}: {reason}")
    print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'samples':>8s}  tail")
    for name, stat in metrics.items():
        if record["trace"] and stat["value"] == 0 and not name.startswith("trace."):
            continue
        t = stat.get("tail")
        tail_text = f"p{t['percentile']:g}={_fmt(t['value'])}" if t else ""
        print(f"  {name:44s} {stat['unit']:6s} {_fmt(stat['value']):>12s} "
              f"{stat['samples']:>8d}  {tail_text}")
    env = record["environment"]
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "pvarpath" / "cli.py").is_file():
        print(f"perfbench: no pvarpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        (run_dir / "work").mkdir()
        job = {"src": str(ROOT / "src"), "workdir": str(run_dir / "work"),
               "result": str(run_dir / "result.json"), "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        (run_dir / "job.json").write_text(json.dumps(job))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(run_dir / "job.json")],
                env=env, stdout=sys.stderr,
                timeout=TIME_LIMIT_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("perfbench: the run exceeded its time limit", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: the run exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((run_dir / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = [p for p in result["passes"] if not p["warm"]]
    cmds = [c for p in passes for c in p["commands"]]
    every_cmd = [c for p in result["passes"] for c in p["commands"]]
    failures = {}
    for c in cmds:
        if c["failure"] is not None:
            key = f"{' '.join(c['argv'])}: {c['failure']}"
            failures[key] = failures.get(key, 0) + 1
    if args.trace:
        metrics = per_layer(result)
        declared_names = [m["name"] for m in declared["per_layer"]]
        repeat = counts_repeat(result)
    else:
        metrics = end_to_end(result)
        declared_names = [m["name"] for m in declared["end_to_end"]]
        repeat = True
    # correct: every command that exited 0 produced checked, reproducible output
    correct = repeat and all(c["failure"] is None for c in every_cmd if c["exit"] == 0)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timed_passes": len(passes), "attempted": len(cmds),
        "failed": sum(c["failure"] is not None for c in cmds), "failures": failures,
        "correct": correct, "counts_repeat": repeat,
        "environment": {
            "python": result["python"], "numpy": result["numpy"], "nproc": nproc,
            "blas_threads": {var: env[var] for var in THREAD_VARS},
            "commit": git_commit(ROOT), "seed": args.seed,
        },
    }
    print_report(record, metrics)
    results_dir = out_dir / "results"
    results_dir.mkdir(exist_ok=True)
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, "metrics": metrics, "digests": result["digests"],
                                    "passes": result["passes"]}, indent=1))
    print(f"  results: {out_file.relative_to(ROOT)}")

    missing = [name for name in declared_names if metrics.get(name, {}).get("value") is None]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in declared_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
