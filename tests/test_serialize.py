import contextlib
import hashlib
import io
import json
import math
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from pvarpath import (
    UniformMagnitudeSpec,
    ValidationError,
    power_table,
    pullback_path,
    pvar_profile,
    qadic_grid,
    qadic_path,
    qadic_table,
    random_refining_table,
    reference_path,
    shifted_reference,
)
from pvarpath import serialize


class TestPathRoundTrip:
    def test_basic(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 6)
        back = serialize.path_from_dict(serialize.path_to_dict(x))
        np.testing.assert_array_equal(back.values, x.values)
        assert back.q == 2 and back.level == 6

    def test_shifted_path_is_its_values(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 5)
        xb = shifted_reference(x, x.sup_norm() + 1.0)
        doc = serialize.path_to_dict(xb)
        assert "offset" not in doc["meta"]
        np.testing.assert_array_equal(serialize.path_from_dict(doc).values, xb.values)

    def test_table_grid_survives(self):
        from pvarpath import pullback_path

        table = power_table(2, 6, 2.0)
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 6)
        pulled = pullback_path(x, table)
        back = serialize.path_from_dict(serialize.path_to_dict(pulled))
        np.testing.assert_array_equal(back.grid.points, pulled.grid.points)
        assert back.grid.generator == "table"

    def test_signed_zero_and_subnormal_read_back_bit_for_bit(self):
        x = qadic_path([0.0, -0.0, 5e-324, -5e-324, 1.0])
        back = serialize.path_from_dict(json.loads(serialize.canonical_dumps(
            serialize.path_to_dict(x))))
        assert back.values.tobytes() == x.values.tobytes()
        assert math.copysign(1.0, back.values[1]) == -1.0

    def test_malformed(self):
        with pytest.raises(ValidationError):
            serialize.path_from_dict({"q": 2})


class TestTableRoundTrip:
    def test_qadic_round_trip_is_identity(self):
        back = serialize.table_from_dict(serialize.table_to_dict(qadic_table(2, 4)))
        np.testing.assert_array_equal(back.points, qadic_grid(2, 4).points)

    def test_power_round_trip(self):
        table = power_table(3, 3, 2.0)
        back = serialize.table_from_dict(serialize.table_to_dict(table))
        assert (back.q, back.level) == (3, 3)
        np.testing.assert_array_equal(back.points, table.points)

    # sha256[:16] of the canonical document, which lists the finest level
    # only, and of that level's float64 bytes: the second digests are those of
    # the finest level in the earlier format that listed every level, so the
    # table content is unchanged
    @pytest.mark.parametrize("make, digest, points_digest", [
        (lambda: qadic_table(2, 6), "a185bb05b9a8b27b", "932f4d3c831e88a5"),
        (lambda: power_table(3, 5, 2.0), "4942262fdc2e5535", "0b7321ea7a3a6ae3"),
        (lambda: power_table(2, 8, 1.5), "3f4acc1b7a069187", "815a7c449e9a0ab9"),
        (lambda: random_refining_table(3, 6, seed=9), "0fa1c3cce0533aab", "47c37013f4c969cf"),
    ], ids=["qadic-2-6", "power-3-5", "power-2-8", "random-3-6"])
    def test_writer_bytes(self, make, digest, points_digest):
        table = make()
        text = serialize.canonical_dumps(serialize.table_to_dict(table))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        points = np.asarray(json.loads(text)["points"], dtype=np.float64)
        assert hashlib.sha256(points.tobytes()).hexdigest()[:16] == points_digest
        back = serialize.table_from_dict(json.loads(text))
        assert (back.q, back.level) == (table.q, table.level)
        np.testing.assert_array_equal(back.points, table.points)


class TestCanonicalOutput:
    def test_dumps_sorted_and_newline_terminated(self):
        out = serialize.canonical_dumps({"b": 1, "a": [1.5, 2]})
        assert out == '{"a":[1.5,2],"b":1}\n'

    def test_hash_stable(self):
        h1 = serialize.config_hash({"x": 1, "y": "z"})
        h2 = serialize.config_hash({"y": "z", "x": 1})
        assert h1 == h2 and len(h1) == 16

    def test_float_format_round_trips(self):
        vals = [1 / 3, 2.0 ** -52, 1 - 2.0 ** -16, 0.1 + 0.2]
        buf = io.StringIO()
        serialize.write_residual_csv(vals, vals[::-1], buf)
        rows = [line.split(",") for line in buf.getvalue().split("\n")[1:-1]]
        assert [float(t) for t, _ in rows] == vals
        assert [float(r) for _, r in rows] == vals[::-1]


class TestCsvWriters:
    def test_profile_rows(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 4)
        prof = pvar_profile(x, 2.0)
        buf = io.StringIO()
        serialize.write_profiles_csv([prof], buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "level,t,value"
        assert len(lines) == 1 + prof.eval_points.size
        level, t, value = lines[-1].split(",")
        assert level == "4" and float(t) == 1.0
        assert float(value) == prof.terminal

    def test_residual_csv(self):
        buf = io.StringIO()
        serialize.write_residual_csv([0.0, 1.0], [0.5, -0.25], buf)
        assert buf.getvalue() == "t,residual\n0,0.5\n1,-0.25\n"


def _row(*xs):
    """The per-row CSV formula the chunked writers must reproduce byte for byte."""
    return ",".join(f"{float(x):.17g}" for x in xs) + "\n"


SPECIALS = [0.0, -0.0, 5e-324, 2.0 ** -52, 1 / 3, 1e300, -1e-14, 1.0, -7.0, 12345678.0]


def _columns(rows):
    """Two columns of ``rows`` values: the special values, then distinct
    random values (so any reordering of rows shows)."""
    rng = np.random.default_rng(rows)
    t = np.resize(np.array(SPECIALS[::-1]), rows)
    r = np.concatenate([SPECIALS, rng.standard_normal(rows)])[:rows]
    return t, r


CHUNK = serialize._CSV_CHUNK_ROWS
ROW_COUNTS = [0, 1, len(SPECIALS), CHUNK - 1, CHUNK, CHUNK + 3, 2 * CHUNK + 3]
CPU_COUNTS = (1, 2, 3)


def _written(monkeypatch, cpus, write):
    """What ``write(stream)`` writes when the chunked writer sees ``cpus`` CPUs."""
    monkeypatch.setattr(serialize, "_cpu_count", lambda: cpus)
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


class TestCsvByteIdentity:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_residual_csv(self, rows, monkeypatch):
        t, r = _columns(rows)
        expected = "t,residual\n" + "".join(map(_row, t, r))
        for cpus in CPU_COUNTS:
            out = _written(monkeypatch, cpus, lambda buf: serialize.write_residual_csv(t, r, buf))
            assert out == expected, cpus

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_profiles_csv(self, rows, monkeypatch):
        t, r = _columns(rows)
        profiles = [SimpleNamespace(level=3, eval_points=t, values=r),
                    SimpleNamespace(level=17, eval_points=r[::-1], values=t[::-1])]
        expected = "level,t,value\n" + "".join(
            f"{prof.level}," + _row(a, b)
            for prof in profiles for a, b in zip(prof.eval_points, prof.values))
        for cpus in CPU_COUNTS:
            out = _written(monkeypatch, cpus,
                           lambda buf: serialize.write_profiles_csv(profiles, buf))
            assert out == expected, cpus


def _path_document():
    """A level-17 path document (three chunks of values) holding NaN, +-inf,
    -0.0 and the smallest subnormal, and a manifest with nested containers
    and integer keys."""
    doc = serialize.path_to_dict(reference_path(UniformMagnitudeSpec(q=2, p=2.0), 17))
    doc["values"][1:6] = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    doc["manifest"] = {"config": {"b": [1, 2.5], "a": None}, "config_hash": "0123",
                       "rows": [{"y": [3], "x": {}}, []], "by_level": {10: [1.5], 2: None}}
    return doc


def _pulled_document():
    """A pulled-back path: its grid_points list is chunked as well."""
    x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 17)
    return serialize.path_to_dict(pullback_path(x, power_table(2, 17, 2.0)))


def _table_document():
    """A table's 3**11 + 1 points span three chunks."""
    return serialize.table_to_dict(power_table(3, 11, 2.0))


class TestJsonByteIdentity:
    @pytest.mark.parametrize("make", [_path_document, _pulled_document, _table_document],
                             ids=["path", "pulled", "table"])
    def test_matches_json_dumps(self, make, monkeypatch):
        doc = make()
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        for cpus in CPU_COUNTS:
            assert _written(monkeypatch, cpus, lambda buf: serialize.write_json(doc, buf)) \
                == expected, cpus
            assert serialize.canonical_dumps(doc) == expected, cpus


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a test that blocks for longer than ``seconds`` instead of hanging."""
    def expire(signum, frame):
        pytest.fail(f"still blocked after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChunkWorkers:
    def test_worker_failure_raises_and_reaps(self, monkeypatch):
        monkeypatch.setattr(serialize, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def fmt(lo, hi):
            # the worker formats ranges 1, 3, 5, ...; it fails on its second
            if os.getpid() != parent and lo >= 3 * CHUNK:
                raise RuntimeError("worker fails")
            return f"{lo}-{hi};"

        with _deadline(60), pytest.raises(OSError, match="worker"):
            serialize._write_chunks(io.StringIO(), 6 * CHUNK, fmt)
        _assert_no_children()

    def test_failed_fork_closes_pipes_and_reaps(self, monkeypatch):
        monkeypatch.setattr(serialize, "_cpu_count", lambda: 3)
        real_fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise OSError("no more processes")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        open_fds = len(os.listdir("/proc/self/fd"))
        with _deadline(60), pytest.raises(OSError, match="no more processes"):
            serialize._write_chunks(io.StringIO(), 6 * CHUNK, lambda lo, hi: "x" * (1 << 20))
        assert len(os.listdir("/proc/self/fd")) == open_fds
        _assert_no_children()

    def test_failed_stream_reaps_blocked_workers(self, monkeypatch):
        # ranges larger than a pipe's buffer keep every worker blocked in a
        # write when the stream fails
        monkeypatch.setattr(serialize, "_cpu_count", lambda: 3)

        class FailingStream:
            def write(self, text):
                raise OSError("disk full")

        with _deadline(60), pytest.raises(OSError, match="disk full"):
            serialize._write_chunks(FailingStream(), 9 * CHUNK, lambda lo, hi: "x" * (1 << 20))
        _assert_no_children()
