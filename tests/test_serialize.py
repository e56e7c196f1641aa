import base64
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
from hypothesis import given, settings, strategies as st

from pvarpath import (
    FunctionWithDerivatives,
    UniformMagnitudeSpec,
    ValidationError,
    change_of_variable_residual,
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

    # sha256[:16] of the canonical document, which holds the finest level
    # only, as f8le, and of that level's float64 bytes: the second digests are
    # those the earlier formats that listed the points as JSON numbers gave,
    # so the table content is unchanged
    @pytest.mark.parametrize("make, digest, points_digest", [
        (lambda: qadic_table(2, 6), "35b21ad44329fc11", "932f4d3c831e88a5"),
        (lambda: power_table(3, 5, 2.0), "0005801701b9a2a4", "0b7321ea7a3a6ae3"),
        (lambda: power_table(2, 8, 1.5), "55cd5f2404317882", "815a7c449e9a0ab9"),
        (lambda: random_refining_table(3, 6, seed=9), "3e41dd2a15175c65", "47c37013f4c969cf"),
    ], ids=["qadic-2-6", "power-3-5", "power-2-8", "random-3-6"])
    def test_writer_bytes(self, make, digest, points_digest):
        table = make()
        text = serialize.canonical_dumps(serialize.table_to_dict(table))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        raw = base64.b64decode(json.loads(text)["points"]["f8le"], validate=True)
        assert hashlib.sha256(raw).hexdigest()[:16] == points_digest
        back = serialize.table_from_dict(json.loads(text))
        assert (back.q, back.level) == (table.q, table.level)
        np.testing.assert_array_equal(back.points, table.points)


def _as_lists(doc):
    """``doc`` with every f8le array (values, meta.grid_points, points) in
    the list form of older and hand-written documents."""
    def lists(value):
        return np.frombuffer(base64.b64decode(value["f8le"]), dtype="<f8").tolist()
    out = {k: lists(v) if k in ("values", "points") else v for k, v in doc.items()}
    if "grid_points" in doc.get("meta", {}):
        out["meta"] = {**doc["meta"], "grid_points": lists(doc["meta"]["grid_points"])}
    return out


def _pulled_path():
    x = reference_path(UniformMagnitudeSpec(q=3, p=2.0), 5)
    return pullback_path(x, random_refining_table(3, 5, seed=4))


class TestListDocuments:
    """Documents that give their arrays as lists of JSON numbers still read,
    bit for bit as their f8le form."""

    @pytest.mark.parametrize("make", [
        lambda: reference_path(UniformMagnitudeSpec(q=2, p=2.0), 9),
        _pulled_path,
        lambda: qadic_path([0.0, -0.0, 5e-324, -5e-324, 1.0]),
    ], ids=["qadic", "pulled", "signed-zero-subnormal"])
    def test_path(self, make):
        doc = json.loads(serialize.canonical_dumps(serialize.path_to_dict(make())))
        a, b = serialize.path_from_dict(doc), serialize.path_from_dict(_as_lists(doc))
        assert a.values.tobytes() == b.values.tobytes()
        assert a.grid.points.tobytes() == b.grid.points.tobytes()

    def test_table(self):
        doc = json.loads(serialize.canonical_dumps(
            serialize.table_to_dict(random_refining_table(3, 6, seed=9))))
        a, b = serialize.table_from_dict(doc), serialize.table_from_dict(_as_lists(doc))
        assert a.points.tobytes() == b.points.tobytes()

    def test_mixed_forms(self):
        pulled = _pulled_path()
        doc = serialize.path_to_dict(pulled)
        for mixed in ({**_as_lists(doc), "values": doc["values"]},
                      {**doc, "values": _as_lists(doc)["values"]}):
            back = serialize.path_from_dict(mixed)
            assert back.values.tobytes() == pulled.values.tobytes()
            assert back.grid.points.tobytes() == pulled.grid.points.tobytes()


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
        buf = io.BytesIO()
        serialize.write_residual_csv(vals, vals[::-1], buf)
        rows = [line.split(",") for line in buf.getvalue().decode().split("\n")[1:-1]]
        assert [float(t) for t, _ in rows] == vals
        assert [float(r) for _, r in rows] == vals[::-1]


class TestCsvWriters:
    def test_profile_rows(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 4)
        prof = pvar_profile(x, 2.0)
        buf = io.BytesIO()
        serialize.write_profiles_csv([prof], buf)
        lines = buf.getvalue().decode().strip().split("\n")
        assert lines[0] == "level,t,value"
        assert len(lines) == 1 + prof.eval_points.size
        level, t, value = lines[-1].split(",")
        assert level == "4" and float(t) == 1.0
        assert float(value) == prof.terminal

    def test_rows_are_bytes(self):
        # the kernel's bytes go out as they are, and the row holding NaN,
        # which ``%`` formats, is encoded once and spliced in
        x = np.array([0.5, math.nan, -2.0])
        assert serialize._format_rows("3,", x, x[::-1]) == "".join(
            "3," + _row(a, b) for a, b in zip(x, x[::-1])).encode()

    def test_residual_csv(self):
        buf = io.BytesIO()
        serialize.write_residual_csv([0.0, 1.0], [0.5, -0.25], buf)
        assert buf.getvalue() == b"t,residual\n0,0.5\n1,-0.25\n"


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
    """What ``write(stream)`` writes when the chunked writer sees ``cpus`` CPUs,
    as text."""
    monkeypatch.setattr(serialize, "_cpu_count", lambda: cpus)
    buf = io.BytesIO()
    write(buf)
    return buf.getvalue().decode()


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


def _floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# bit patterns: NaNs with payloads and sign, +-inf, +-0, subnormals, the
# largest float, and the ends of the binades the kernel formats
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0x7FF4DEADBEEF0001, 0xFFFFFFFFFFFFFFFF, 0x7FF0000000000000,
                0xFFF0000000000000, 0x0, 0x8000000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
                0x03C0000000000000, 0x03BFFFFFFFFFFFFF, 0x7E0FFFFFFFFFFFFF, 0x7E10000000000000]
BITS = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS),
                 st.floats().map(lambda v: int(np.float64(v).view(np.uint64))))


class TestFormatKernel:
    """``_format_rows`` is the ``%.17g`` row formula, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(BITS, BITS), max_size=40))
    def test_any_bit_pattern(self, pairs):
        a, b = _floats([p[0] for p in pairs]), _floats([p[1] for p in pairs])
        assert serialize._format_rows("", a, b) == "".join(map(_row, a, b)).encode()
        assert serialize._format_rows("7,", a, b) == "".join(
            "7," + _row(x, y) for x, y in zip(a, b)).encode()

    def test_boundaries(self):
        near = []
        for v in (1e-5, 1e-4, 1e16, 1e17):  # where %.17g switches notation
            for d in (0.0, np.inf):
                near += [v, np.nextafter(v, d), np.nextafter(np.nextafter(v, d), d)]
        # 3-digit exponents; then nearest doubles to 10^k just below it,
        # whose 17-digit rounding carries into the next decade
        wide = [1e-100, 1e300, 5e-324, np.finfo(np.float64).max, 1e-243, 1e-14, 1e98, 1e220]
        x = np.array(near + wide)
        x = np.concatenate([x, -x])
        assert serialize._format_rows("", x, x[::-1]) == "".join(map(_row, x, x[::-1])).encode()
        n, e, decided = serialize._decimal(np.array([1e-14, 1e98]))
        assert decided.all() and (n == 10 ** 16).all() and list(e) == [-14, 98]

    def test_dyadic_ties_are_decided_exactly(self):
        # m / 2^20 with m = 4 mod 8 above 0.1 is a tie at 17 digits
        t = np.arange(2 ** 20 + 1) / 2 ** 20
        assert serialize._decimal(t)[2].all()
        assert serialize._format_rows("", t) == "".join(map(_row, t)).encode()

    def test_fallback_share(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 16)
        report = change_of_variable_residual(FunctionWithDerivatives.polynomial([0, 0, 1]), x, 2.0)
        prof = pvar_profile(x, 2.0)
        values = np.concatenate([report.eval_points, report.residuals,
                                 prof.eval_points, prof.values])
        undecided = np.count_nonzero(~serialize._decimal(values)[2])
        assert undecided <= 1e-3 * values.size


def _path_document():
    """A path document whose manifest holds nested containers, integer keys,
    NaN, +-inf, -0.0 and the smallest subnormal."""
    doc = serialize.path_to_dict(reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8))
    doc["manifest"] = {"config": {"b": [1, 2.5], "a": None}, "config_hash": "0123",
                       "rows": [{"y": [3], "x": {}}, []], "by_level": {10: [1.5], 2: None},
                       "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324]}
    return doc


def _pulled_document():
    """A pulled-back path: its meta holds grid_points as well."""
    x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
    return serialize.path_to_dict(pullback_path(x, power_table(2, 8, 2.0)))


def _table_document():
    return serialize.table_to_dict(power_table(3, 5, 2.0))


class TestJsonByteIdentity:
    @pytest.mark.parametrize("make", [_path_document, _pulled_document, _table_document],
                             ids=["path", "pulled", "table"])
    def test_matches_json_dumps(self, make):
        doc = make()
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        buf = io.BytesIO()
        serialize.write_json(doc, buf)
        assert buf.getvalue() == expected.encode()
        assert serialize.canonical_dumps(doc) == expected


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
            return f"{lo}-{hi};".encode()

        with _deadline(60), pytest.raises(OSError, match="worker"):
            serialize._write_chunks(io.BytesIO(), 6 * CHUNK, fmt)
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
            serialize._write_chunks(io.BytesIO(), 6 * CHUNK, lambda lo, hi: b"x" * (1 << 20))
        assert len(os.listdir("/proc/self/fd")) == open_fds
        _assert_no_children()

    def test_failed_stream_reaps_blocked_workers(self, monkeypatch):
        # ranges larger than a pipe's buffer keep every worker blocked in a
        # write when the stream fails
        monkeypatch.setattr(serialize, "_cpu_count", lambda: 3)

        class FailingStream:
            def write(self, data):
                raise OSError("disk full")

        with _deadline(60), pytest.raises(OSError, match="disk full"):
            serialize._write_chunks(FailingStream(), 9 * CHUNK, lambda lo, hi: b"x" * (1 << 20))
        _assert_no_children()
