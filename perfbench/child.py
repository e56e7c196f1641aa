"""One benchmark run inside a fresh interpreter.

``run.py`` starts this script with the path of a JSON job file and reads the
raw pass records it writes back.  Each command runs in-process through
``pvarpath.cli.run``, one after another, in the job's working directory.
The first pass warms the process and is the byte-identity reference; the
passes after it are timed until the job's seconds are spent.  In a traced
job, timed passes alternate untraced and traced, so one process yields both
sides of the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, summarize
from workloads import WORKLOADS

CHECK_ERRORS = (OSError, KeyError, TypeError, ValueError)
SETUP_SAMPLES = 9


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until ``import pvarpath.cli`` ends.

    The new interpreter reads the system-wide monotonic clock itself when the
    import is done, so neither its exit nor the wait for it is counted.
    """
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import pvarpath.cli; import time; print(time.monotonic())"],
        check=True, timeout=60, capture_output=True, text=True).stdout
    return float(out) - start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _verify(cmd, code, wd: Path, reference: dict):
    """Failure reason for one command of a finished pass (None if correct)."""
    if code != 0:
        return f"exit {code}", {}
    for name in cmd.outputs:
        if not (wd / name).is_file():
            return f"missing output {name}", {}
        digest = _digest(wd / name)
        if reference.setdefault(name, digest) != digest:
            return f"{name} bytes differ from the first pass", {}
    if cmd.check is None:
        return None, {}
    try:
        return cmd.check(wd)
    except CHECK_ERRORS as exc:
        return f"check failed: {type(exc).__name__}: {exc}", {}


def run_pass(cli, commands, wd: Path, reference: dict, tracer=None, warm=False) -> dict:
    for f in wd.iterdir():
        f.unlink()
    codes, seconds = [], []
    if tracer is not None:
        tracer.spans.clear()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for cmd in commands:
            t0 = time.perf_counter()
            try:
                code = cli.run(list(cmd.argv))
            except Exception as exc:  # an uncaught error is a failed command, not a crash
                code = f"{type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - t0)
            codes.append(code)
        wall = time.perf_counter() - start
    records = []
    for cmd, code, secs in zip(commands, codes, seconds):
        failure, seen = _verify(cmd, code, wd, reference)
        records.append({"kind": cmd.kind, "argv": list(cmd.argv), "seconds": secs,
                        "exit": code, "failure": failure, "seen": seen})
    return {
        "warm": warm,
        "traced": tracer is not None,
        "wall_s": wall,
        "commands": records,
        "artifact_bytes": sum(f.stat().st_size for f in wd.iterdir()),
        "layers": summarize(tracer.spans, wall) if tracer is not None else None,
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from pvarpath import cli
    import numpy

    wd = Path(job["workdir"])
    os.chdir(wd)
    commands = WORKLOADS[job["workload"]](job["seed"])
    reference = {}
    tracer = Tracer() if job["trace"] else None
    # set-up samples are taken between passes, spread over the whole run,
    # so they see the same machine conditions as the passes
    setup = []
    wanted = 0 if tracer is not None else SETUP_SAMPLES
    passes = [run_pass(cli, commands, wd, reference, warm=True)]
    start = time.perf_counter()
    traced_next = False
    while True:
        passes.append(run_pass(cli, commands, wd, reference,
                               tracer=tracer if traced_next else None))
        traced_next = tracer is not None and not traced_next
        elapsed = time.perf_counter() - start
        done = elapsed >= job["seconds"] and (tracer is None or any(p["traced"] for p in passes))
        while len(setup) < wanted * (1.0 if done else min(1.0, elapsed / job["seconds"])):
            setup.append(measure_setup())
        if done:
            break
    for f in wd.iterdir():
        f.unlink()
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup,
        "digests": reference,
        "passes": passes,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
