"""JSON and CSV interchange for paths, tables and reports.

A refining table is its level-N grid with generator "table"; its document
is ``{"q": q, "points": [...]}``, the level-N points, whose count fixes N.

Every number a path or table document carries is read by one rule, here:
``q`` and a path's ``level`` must be JSON integers (``_json_int``); a path's
``values`` and ``meta.grid_points`` and a table's ``points`` must be flat
lists of JSON numbers, ``int`` or ``float`` items only (``_json_floats``);
a path's ``meta`` must be an object.  Bools, strings, ``null``, nested
lists and integers beyond float range are refused with one line naming the
document kind and the field; a valid document reads back bit for bit.  A
path's numbers are its ``values`` alone: a ``meta.offset`` shift is refused,
not read and dropped.

A path document's ``meta`` is its grid's layout only: ``grid_generator``,
plus ``grid_points`` for a grid that is not q-adic.  Any other key is
ignored, so documents that still carry provenance keys read as before; how
an artifact was made is recorded in its manifest.

JSON artifacts are written with sorted keys and compact separators, so a
fixed input produces byte-identical output; arrays enter them through
``ndarray.tolist()``.  CSV floats are written in one format, ``_CSV_FLOAT``
(``%.17g``: 17 significant digits, enough for any float64 to read back
exactly).

Both formats are streamed to the caller's text stream: a long JSON list and
every CSV are cut into ranges of ``_CSV_CHUNK_ROWS`` items, and the ranges
are formatted round-robin by this process and forked workers, one per CPU
it may run on, then written in order (``_write_chunks``).  No process holds
much more than one range of text, no whole-file string is ever built, and
the bytes do not depend on how many CPUs there are.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import IO, Callable

import numpy as np

from .oracle import VariationConstant
from .errors import ValidationError
from .partition import PartitionGrid, build_homeomorphism, qadic_grid
from .schauder import SampledPath
from .variation import VariationProfile


_CSV_CHUNK_ROWS = 1 << 16
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _cpu_count() -> int:
    """Processes ``_write_chunks`` may use: the CPUs this process may run on,
    where the platform reports them (and so can fork), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe: IO[bytes]) -> str:
    """The next length-prefixed range a worker sent."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little") if len(head) == 8 else -1
    data = pipe.read(size) if size >= 0 else b""
    if len(data) != size:
        raise OSError("a formatting worker stopped before sending all its ranges")
    return data.decode()


def _write_chunks(stream: IO[str], n: int, fmt: Callable[[int, int], str]) -> None:
    """Write ``fmt(lo, hi)`` for the consecutive ``_CSV_CHUNK_ROWS``-item
    ranges ``[lo, hi)`` of ``[0, n)`` to ``stream``, in order.

    Range i is formatted by process ``i % P``: this process, or one of
    ``P - 1`` forked workers, P being the CPU count capped at the number of
    ranges.  A worker sends its ranges, length-prefixed, through its own
    pipe and blocks until this process has taken the previous one, so every
    process holds about one range of text at a time.  The bytes written are
    those of the serial loop whatever P is.  A worker runs only ``fmt`` and
    ``os.write`` and always leaves by ``os._exit``; one that stops early
    makes this function raise ``OSError``.  Every worker is reaped before it
    returns or raises.
    """
    starts = range(0, n, _CSV_CHUNK_ROWS)
    procs = max(1, min(_cpu_count(), len(starts)))
    workers = []  # (pid, read end of its pipe)
    try:
        for w in range(1, procs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    # hold no other pipe's read end, so each worker sees a
                    # broken pipe as soon as this process closes its end
                    os.close(read_fd)
                    for _, pipe in workers:
                        pipe.close()
                    for lo in starts[w::procs]:
                        data = fmt(lo, min(lo + _CSV_CHUNK_ROWS, n)).encode()
                        _send(write_fd, len(data).to_bytes(8, "little") + data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            workers.append((pid, os.fdopen(read_fd, "rb")))
        for i, lo in enumerate(starts):
            if i % procs == 0:
                stream.write(fmt(lo, min(lo + _CSV_CHUNK_ROWS, n)))
            else:
                stream.write(_receive(workers[i % procs - 1][1]))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)


def _holds_containers(values) -> bool:
    return any(isinstance(v, (dict, list)) for v in values)


def _write_value(obj, stream: IO[str]) -> None:
    if isinstance(obj, list) and len(obj) > _CSV_CHUNK_ROWS:
        stream.write("[")
        _write_chunks(stream, len(obj), lambda lo, hi: ("," if lo else "")
                      + _encode_json(obj[lo:hi])[1:-1])
        stream.write("]")
    elif (isinstance(obj, dict) and all(isinstance(k, str) for k in obj)
          and _holds_containers(obj.values())):
        stream.write("{")
        for i, key in enumerate(sorted(obj)):
            stream.write(("," if i else "") + _encode_json(key) + ":")
            _write_value(obj[key], stream)
        stream.write("}")
    else:
        stream.write(_encode_json(obj))


def write_json(obj, stream: IO[str]) -> None:
    """The canonical JSON of ``obj`` (sorted keys, compact separators, one
    closing newline), streamed to ``stream``: a list of two or more chunks
    goes through ``_write_chunks``, dicts holding containers are walked, and
    every other value is encoded in one call.  The bytes are those of
    ``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``."""
    _write_value(obj, stream)
    stream.write("\n")


def canonical_dumps(obj) -> str:
    """``write_json`` of ``obj`` as one string."""
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# SampledPath <-> JSON
# ---------------------------------------------------------------------------


def path_to_dict(path: SampledPath) -> dict:
    meta = {"grid_generator": path.grid.generator}
    if path.grid.generator != "q-adic":
        meta["grid_points"] = path.grid.points.tolist()
    return {
        "q": int(path.q),
        "level": int(path.level),
        "values": path.values.tolist(),
        "meta": meta,
    }


def _json_int(value, name: str, kind: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ValidationError(
            f"malformed {kind} document: {name!r} must be an integer, got {value!r}")
    return value


def _json_floats(value, name: str, kind: str) -> np.ndarray:
    """``value`` as a float64 array if it is a flat list of JSON numbers."""
    if type(value) is list and set(map(type, value)) <= {int, float}:
        try:
            return np.asarray(value, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond float range
    raise ValidationError(
        f"malformed {kind} document: {name!r} must be a flat list of numbers")


def path_from_dict(d: dict) -> SampledPath:
    try:
        q, level = _json_int(d["q"], "q", "path"), _json_int(d["level"], "level", "path")
        values, meta = _json_floats(d["values"], "values", "path"), d.get("meta", {})
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed path document: {exc}") from exc
    if type(meta) is not dict:
        raise ValidationError("malformed path document: 'meta' must be an object")
    if "offset" in meta:
        raise ValidationError(
            "malformed path document: 'meta.offset' is not supported; "
            "'values' must hold the shifted values")
    generator = meta.get("grid_generator", "q-adic")
    if generator == "q-adic":
        grid = qadic_grid(q, level)
    else:
        if "grid_points" not in meta:
            raise ValidationError(
                f"malformed path document: a {generator!r} grid needs meta.grid_points"
            )
        pts = _json_floats(meta["grid_points"], "meta.grid_points", "path")
        grid = PartitionGrid(q=q, level=level, points=pts, generator=generator)
    return SampledPath(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Refining table (its finest "table" grid) <-> JSON
# ---------------------------------------------------------------------------


def table_to_dict(table: PartitionGrid) -> dict:
    """The finest level's points; the coarser levels are its strides."""
    return {"q": int(table.q), "points": table.points.tolist()}


def table_from_dict(d: dict) -> PartitionGrid:
    try:
        q = _json_int(d["q"], "q", "table")
        points = _json_floats(d["points"], "points", "table")
    except KeyError as exc:
        raise ValidationError(f"malformed table document: missing {exc}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed table document: {exc}") from exc
    return build_homeomorphism(q, points)


# ---------------------------------------------------------------------------
# Constant reports
# ---------------------------------------------------------------------------


def constant_to_dict(report: VariationConstant) -> dict:
    out = {
        "value": float(report.value),
        "method": report.method,
        "error_bound": float(report.error_bound),
    }
    if report.stderr is not None:
        out["stderr"] = float(report.stderr)
    if report.details:
        out["details"] = report.details
    return out


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


_CSV_FLOAT = "%.17g"


def _write_rows(stream: IO[str], prefix: str, *columns) -> None:
    """One line per row: ``prefix``, then the columns' values in ``_CSV_FLOAT``,
    comma-separated.  ``prefix`` is a literal (no ``%``)."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    row_fmt = prefix + ",".join([_CSV_FLOAT] * len(cols)) + "\n"

    def fmt(lo: int, hi: int) -> str:
        block = np.column_stack([c[lo:hi] for c in cols])
        return (row_fmt * (hi - lo)) % tuple(block.ravel().tolist())

    _write_chunks(stream, cols[0].size, fmt)


def write_profiles_csv(profiles, stream: IO[str]) -> None:
    """Rows "level,t,value" across one or more profiles."""
    stream.write("level,t,value\n")
    for prof in profiles:
        _write_rows(stream, f"{prof.level},", prof.eval_points, prof.values)


def write_residual_csv(eval_points, residuals, stream: IO[str]) -> None:
    """Rows "t,residual"."""
    stream.write("t,residual\n")
    _write_rows(stream, "", eval_points, residuals)
