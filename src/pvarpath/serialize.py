"""JSON and CSV interchange for paths, coefficients, tables and reports.

JSON artifacts are written with sorted keys and compact separators, so a
fixed input produces byte-identical output; arrays enter them through
``ndarray.tolist()``.  CSV floats are written in one format, ``_CSV_FLOAT``
(``%.17g``: 17 significant digits, enough for any float64 to read back
exactly).  CSVs are streamed to the caller's file object in blocks of
``_CSV_CHUNK_ROWS`` rows, each formatted by a single ``%`` operation, so no
whole-file string is ever held in memory.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO

import numpy as np

from .construct import UniformMagnitudeSpec, VariationConstant
from .errors import ValidationError
from .partition import HomeomorphismTable, PartitionGrid, build_homeomorphism, qadic_grid
from .schauder import CoefficientArray, SampledPath
from .variation import VariationProfile


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# SampledPath <-> JSON
# ---------------------------------------------------------------------------


def path_to_dict(path: SampledPath) -> dict:
    meta = dict(path.meta)
    if path.offset != 0.0:
        meta["offset"] = float(path.offset)
    meta["grid_generator"] = path.grid.generator
    if path.grid.generator != "q-adic":
        meta["grid_points"] = path.grid.points.tolist()
    return {
        "q": int(path.q),
        "level": int(path.level),
        "values": path.values.tolist(),
        "meta": meta,
    }


def path_from_dict(d: dict) -> SampledPath:
    try:
        q, level = int(d["q"]), int(d["level"])
        values = np.asarray(d["values"], dtype=np.float64)
        meta = dict(d.get("meta", {}))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed path document: {exc}") from exc
    offset = float(meta.pop("offset", 0.0))
    generator = meta.pop("grid_generator", "q-adic")
    if generator == "q-adic":
        grid = qadic_grid(q, level)
    else:
        pts = np.asarray(meta.pop("grid_points"), dtype=np.float64)
        grid = PartitionGrid(q=q, level=level, points=pts, generator=generator)
    return SampledPath(grid=grid, values=values, offset=offset, meta=meta)


# ---------------------------------------------------------------------------
# CoefficientArray <-> JSON
# ---------------------------------------------------------------------------


def coeffs_to_dict(coeffs: CoefficientArray) -> dict:
    return {
        "q": int(coeffs.q),
        "boundary": [float(coeffs.boundary[0]), float(coeffs.boundary[1])],
        "levels": [np.asarray(lv).tolist() for lv in coeffs.levels],
    }


def coeffs_from_dict(d: dict) -> CoefficientArray:
    try:
        q = int(d["q"])
        boundary = (float(d["boundary"][0]), float(d["boundary"][1]))
        levels = tuple(np.asarray(lv, dtype=np.float64) for lv in d["levels"])
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed coefficient document: {exc}") from exc
    return CoefficientArray(q=q, boundary=boundary, levels=levels)


# ---------------------------------------------------------------------------
# HomeomorphismTable <-> JSON
# ---------------------------------------------------------------------------


def table_to_dict(table: HomeomorphismTable) -> dict:
    """Every level 0..N, each a stride of the finest one."""
    return {
        "q": int(table.q),
        "levels": [table.level_points(n).tolist() for n in range(table.depth + 1)],
    }


def table_from_dict(d: dict) -> HomeomorphismTable:
    try:
        q = int(d["q"])
        raw_levels = d["levels"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed table document: {exc}") from exc
    return build_homeomorphism(q, raw_levels)


# ---------------------------------------------------------------------------
# Spec and constant reports
# ---------------------------------------------------------------------------


def spec_to_dict(spec: UniformMagnitudeSpec) -> dict:
    return spec.to_config()


def spec_from_dict(d: dict) -> UniformMagnitudeSpec:
    try:
        signs = d.get("signs", "plus")
        if isinstance(signs, dict):
            signs = int(signs["seed"])
        elif isinstance(signs, list):
            signs = tuple(tuple(row) for row in signs)
        c_rule = d.get("c_rule", "default")
        if isinstance(c_rule, list):
            c_rule = tuple(c_rule)
        a = d.get("a")
        return UniformMagnitudeSpec(
            q=int(d.get("q", 2)),
            p=float(d.get("p", 2.0)),
            levels=int(d.get("levels", 16)),
            c_rule=c_rule,
            signs=signs,
            a=None if a is None else tuple(a),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed spec document: {exc}") from exc


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
_CSV_CHUNK_ROWS = 1 << 16


def _write_rows(stream: IO[str], prefix: str, *columns) -> None:
    """One line per row: ``prefix``, then the columns' values in ``_CSV_FLOAT``,
    comma-separated.  ``prefix`` is a literal (no ``%``)."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    row_fmt = prefix + ",".join([_CSV_FLOAT] * len(cols)) + "\n"
    rows = cols[0].size
    for start in range(0, rows, _CSV_CHUNK_ROWS):
        block = np.column_stack([c[start:start + _CSV_CHUNK_ROWS] for c in cols])
        stream.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_profiles_csv(profiles, stream: IO[str]) -> None:
    """Rows "level,t,value" across one or more profiles."""
    stream.write("level,t,value\n")
    for prof in profiles:
        _write_rows(stream, f"{prof.level},", prof.eval_points, prof.values)


def write_residual_csv(eval_points, residuals, stream: IO[str]) -> None:
    """Rows "t,residual"."""
    stream.write("t,residual\n")
    _write_rows(stream, "", eval_points, residuals)
