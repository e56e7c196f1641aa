import base64
import binascii
import hashlib
import io
import json
import math
import tracemalloc
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


def _b64(values) -> str:
    """The base64 text of ``values`` as little-endian float64, encoded here,
    not by the writer."""
    return base64.b64encode(np.asarray(values).astype("<f8").tobytes()).decode()


def _as_text(obj):
    """``obj`` with every array ``_f8le`` put in it as the base64 text a
    written document holds, so that ``json`` can write it."""
    if serialize._is_payload(obj):
        return _b64(obj)
    if isinstance(obj, dict):
        return {k: _as_text(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_text(v) for v in obj]
    return obj


def _as_lists(doc):
    """``doc`` with every f8le array (values, meta.grid_points, points) in
    the list form of older and hand-written documents."""
    def lists(value):
        return np.frombuffer(base64.b64decode(_as_text(value["f8le"])), dtype="<f8").tolist()
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
        assert _formatted("3,", x, x[::-1]) == "".join(
            "3," + _row(a, b) for a, b in zip(x, x[::-1])).encode()

    def test_residual_csv(self):
        buf = io.BytesIO()
        serialize.write_residual_csv([0.0, 1.0], [0.5, -0.25], buf)
        assert buf.getvalue() == b"t,residual\n0,0.5\n1,-0.25\n"


def _row(*xs):
    """The per-row CSV formula the block writer must reproduce byte for byte."""
    return ",".join(f"{float(x):.17g}" for x in xs) + "\n"


def _formatted(prefix, *cols) -> bytes:
    """What ``_write_rows`` writes for ``cols``."""
    buf = io.BytesIO()
    serialize._write_rows(buf, prefix, *cols)
    return buf.getvalue()


SPECIALS = [0.0, -0.0, 5e-324, 2.0 ** -52, 1 / 3, 1e300, -1e-14, 1.0, -7.0, 12345678.0]


def _columns(rows):
    """Two columns of ``rows`` values: the special values, then distinct
    random values (so any reordering of rows shows)."""
    rng = np.random.default_rng(rows)
    t = np.resize(np.array(SPECIALS[::-1]), rows)
    r = np.concatenate([SPECIALS, rng.standard_normal(rows)])[:rows]
    return t, r


BLOCK = serialize._BLOCK_ROWS
ROW_COUNTS = [0, 1, len(SPECIALS), BLOCK - 1, BLOCK, BLOCK + 3, 2 * BLOCK + 3, 2 ** 16 + 3]


class TestCsvByteIdentity:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_residual_csv(self, rows):
        t, r = _columns(rows)
        buf = io.BytesIO()
        serialize.write_residual_csv(t, r, buf)
        assert buf.getvalue().decode() == "t,residual\n" + "".join(map(_row, t, r))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_profiles_csv(self, rows):
        t, r = _columns(rows)
        profiles = [SimpleNamespace(level=3, eval_points=t, values=r),
                    SimpleNamespace(level=17, eval_points=r[::-1], values=t[::-1])]
        buf = io.BytesIO()
        serialize.write_profiles_csv(profiles, buf)
        assert buf.getvalue().decode() == "level,t,value\n" + "".join(
            f"{prof.level}," + _row(a, b)
            for prof in profiles for a, b in zip(prof.eval_points, prof.values))

    def test_rows_written_by_percent_splice_across_a_block_seam(self):
        # the last row of block 1 and the first of block 2 are undecided
        t, r = _columns(2 * BLOCK + 3)
        r[BLOCK - 1] = r[BLOCK] = math.nan
        assert _formatted("5,", t, r) == "".join("5," + _row(a, b) for a, b in zip(t, r)).encode()

    def test_writing_a_profile_holds_one_block(self):
        t, r = _columns(2 ** 18 + 1)
        profile = SimpleNamespace(level=18, eval_points=t, values=r)
        sink = _CountingSink()
        tracemalloc.start()
        try:
            serialize.write_profiles_csv([profile], sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 2 ** 18 * 30
        assert peak < 2 << 20, peak


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
    """``_write_rows`` writes the ``%.17g`` row formula, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(BITS, BITS), max_size=40))
    def test_any_bit_pattern(self, pairs):
        a, b = _floats([p[0] for p in pairs]), _floats([p[1] for p in pairs])
        assert _formatted("", a, b) == "".join(map(_row, a, b)).encode()
        assert _formatted("7,", a, b) == "".join(
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
        assert _formatted("", x, x[::-1]) == "".join(map(_row, x, x[::-1])).encode()
        n, e, decided = serialize._decimal(np.array([1e-14, 1e98]))
        assert decided.all() and (n == 10 ** 16).all() and list(e) == [-14, 98]

    def test_dyadic_ties_are_decided_exactly(self):
        # m / 2^20 with m = 4 mod 8 above 0.1 is a tie at 17 digits
        t = np.arange(2 ** 20 + 1) / 2 ** 20
        assert serialize._decimal(t)[2].all()
        assert _formatted("", t) == "".join(map(_row, t)).encode()

    def test_fallback_share(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 16)
        report = change_of_variable_residual(FunctionWithDerivatives.polynomial([0, 0, 1]), x, 2.0)
        prof = pvar_profile(x, 2.0)
        values = np.concatenate([x.grid.points, report.residuals,
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


def _hand_written_f8le_document():
    """Plain strings under "f8le" that need escaping (a quote, a backslash,
    a newline, a non-ASCII character), one of them put into a dict ``_f8le``
    made, beside texts ``_f8le`` made: only the latter are written without
    the escapes."""
    changed = serialize._f8le(np.array([1.0]))
    changed["f8le"] = "\\\u00e9"
    return {"values": {"f8le": 'a"b\\c\nd\u00e9'}, "changed": changed,
            "meta": {"grid_points": serialize._f8le(np.array([0.0, 0.5, 1.0])),
                     "more": [{"f8le": "\u2603\n"}, serialize._f8le(np.array([-0.0]))]},
            "points": {"f8le": "\"\\\n\u00e9"}}


def _payload(*values):
    return serialize._f8le(np.array(values, dtype=float))["f8le"]


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestJsonByteIdentity:
    @pytest.mark.parametrize("make", [
        _path_document, _pulled_document, _table_document, _hand_written_f8le_document,
        lambda: {"a": "", "b": _payload(1.0), "c": ""},
        lambda: [_payload(1.0), _payload(2.0, 3.0), "", _payload(4.0)],
        lambda: _payload(0.5, -0.0, 5e-324),
        lambda: {7: _payload(1.0), 2.5: _payload(2.0), True: _payload(3.0), -1: ""},
        lambda: {"\u0000": "\u0000", "values": _payload(1.0), "z": ["\u0000"]},
        lambda: [{"a": [_payload(1.0)]}],
    ], ids=["path", "pulled", "table", "hand-written-f8le", "empty-strings-beside",
            "payloads-in-a-row", "bare-payload", "number-keys", "nul", "nested"])
    def test_matches_json_dumps(self, make):
        doc = make()
        expected = _dumps(_as_text(doc))
        buf = io.BytesIO()
        serialize.write_json(doc, buf)
        assert buf.getvalue() == expected.encode()
        assert serialize.canonical_dumps(doc) == expected

    @pytest.mark.parametrize("doc, message", [
        *[({"values": {"f8le": value}, "other": _payload(1.0)}, "is not JSON serializable")
          for value in (np.zeros((2, 2)), np.zeros(3, dtype=np.float32),
                        np.zeros(3, dtype=">f8"), np.int64(3), np.bool_(True))],
        ({1: _payload(1.0), None: 2}, "not supported between instances"),
    ], ids=["2-d", "float32", "big-endian", "int64", "bool_", "int-and-none-keys"])
    def test_refuses_what_json_dumps_refuses(self, doc, message):
        with pytest.raises(TypeError, match=message) as refused:
            _dumps(_as_text(doc))
        for write in (lambda: serialize.write_json(doc, io.BytesIO()),
                      lambda: serialize.canonical_dumps(doc)):
            with pytest.raises(TypeError) as exc:
                write()
            assert str(exc.value) == str(refused.value)


class _RecordingStream(io.BytesIO):
    """A binary stream that keeps every object handed to ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        return super().write(data)


class TestJsonPayloadWrites:
    @pytest.mark.parametrize("make", [_pulled_document, _table_document],
                             ids=["pulled", "table"])
    def test_payload_bytes_never_pass_through_the_escaper(self, monkeypatch, make):
        doc = make()
        payloads = [doc[k]["f8le"] for k in ("values", "points") if k in doc]
        payloads += [doc["meta"]["grid_points"]["f8le"]] if "meta" in doc else []
        texts = [_b64(values) for values in payloads]
        escaped = []

        def escape(text):
            escaped.append(text)
            return encode_basestring_ascii(text)

        encode_basestring_ascii = json.encoder.encode_basestring_ascii
        monkeypatch.setattr(json.encoder, "encode_basestring_ascii", escape)
        stream = _RecordingStream()
        serialize.write_json(doc, stream)
        assert all(type(w) is bytes for w in stream.writes)
        for text in texts:
            raw = text.encode("ascii")
            assert len(raw) > 1000
            # the text is its own writes, apart from the quotes around it
            assert stream.writes.count(raw) == 1
            assert all(w == raw or raw not in w for w in stream.writes)
            assert all(text not in e for e in escaped)
        assert max(map(len, escaped)) < 100
        monkeypatch.undo()
        assert stream.getvalue() == (
            json.dumps(_as_text(doc), sort_keys=True, separators=(",", ":")) + "\n").encode()


# value counts whose byte counts (8 per value) lie just below, on and just
# above one and two base64 slices, and leave 0, 1 or 2 bytes over a multiple of 3
_SLICE_VALUES = serialize._F8LE_CHUNK // 8
_CHUNK_SIZES = [0, 1, 2, 3, _SLICE_VALUES - 1, _SLICE_VALUES, _SLICE_VALUES + 1,
                2 * _SLICE_VALUES - 2, 2 * _SLICE_VALUES, 2 * _SLICE_VALUES + 2]


class _CountingSink:
    """A binary stream that keeps only the number of bytes written."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)
        return len(data)


class TestChunkedPayloads:
    def test_sizes_cover_every_remainder(self):
        assert serialize._F8LE_CHUNK % 3 == 0
        assert {8 * n % 3 for n in _CHUNK_SIZES} == {0, 1, 2}
        assert {8 * n % serialize._F8LE_CHUNK for n in _CHUNK_SIZES} >= {
            0, 8, serialize._F8LE_CHUNK - 8}

    @pytest.mark.parametrize("n", _CHUNK_SIZES)
    def test_text_is_the_whole_array_encoded_at_once(self, n):
        values = np.random.default_rng(n).standard_normal(n)
        expected = b'{"f8le":"' + base64.b64encode(values.astype("<f8").tobytes()) + b'"}\n'
        for form in (values, values.astype(">f8"), np.repeat(values, 2)[::2]):
            stream = _RecordingStream()
            serialize.write_json(serialize._f8le(form), stream)
            assert stream.getvalue() == expected
            assert max(map(len, stream.writes)) <= 4 * serialize._F8LE_CHUNK // 3
        assert serialize.canonical_dumps(serialize._f8le(values)) == expected.decode()

    def test_writing_a_path_holds_one_slice(self):
        x = qadic_path(np.random.default_rng(2).standard_normal(2 ** 18 + 1))
        sink = _CountingSink()
        tracemalloc.start()
        try:
            serialize.write_json(serialize.path_to_dict(x), sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 8 * 2 ** 18 * 4 // 3
        assert peak < 1 << 20, peak


def _restricted_path():
    return reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 10).restrict(6)


class TestInMemoryRoundTrip:
    """Documents that were never written read back bit for bit, strided
    arrays too."""

    @pytest.mark.parametrize("make", [
        lambda: reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 9),
        lambda: reference_path(UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, -0.5)), 6),
        _pulled_path,
        _restricted_path,
        lambda: pullback_path(reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8),
                              power_table(2, 8, 1.5)).restrict(5),
    ], ids=["q2", "q3", "pulled-q3", "restricted", "restricted-pulled"])
    def test_path(self, make):
        x = make()
        back = serialize.path_from_dict(serialize.path_to_dict(x))
        assert (back.q, back.level, back.grid.generator) == (x.q, x.level, x.grid.generator)
        assert back.values.tobytes() == x.values.tobytes()
        assert back.grid.points.tobytes() == x.grid.points.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: power_table(2, 8, 1.5),
        lambda: random_refining_table(3, 6, seed=9),
        lambda: power_table(2, 8, 2.0).restrict(5),
    ], ids=["q2", "q3", "restricted"])
    def test_table(self, make):
        table = make()
        back = serialize.table_from_dict(serialize.table_to_dict(table))
        assert (back.q, back.level) == (table.q, table.level)
        assert back.points.tobytes() == table.points.tobytes()


def _decoded(doc):
    """``doc`` with each f8le object that ``_json_floats`` reads as the
    bytes it reads from it."""
    if type(doc) is dict:
        try:
            return serialize._json_floats(doc, "", "").tobytes()
        except ValidationError:
            return {k: _decoded(v) for k, v in doc.items()}
    return doc


def _written(doc) -> bytes:
    buf = io.BytesIO()
    serialize.write_json(doc, buf)
    return buf.getvalue()


# manifest text that reaches the reader's guards: NUL characters, the marker's
# key, and the text of an f8le object inside a string
_TEXT = st.one_of(st.text(), st.sampled_from(["\0", "\0\0", '{"f8le":"AAAAAAAAAAA="}']))


@st.composite
def _written_documents(draw):
    """A path (on a q-adic or a table grid) or a table document as
    ``write_json`` writes it, its arrays of any float64 bits."""
    q, level = draw(st.integers(2, 4)), draw(st.integers(0, 3))
    grid = random_refining_table(q, level, seed=draw(st.integers(0, 99)))
    kind = draw(st.sampled_from(["q-adic", "table", "refining-table"]))
    if kind == "refining-table":
        doc = serialize.table_to_dict(grid)
    else:
        bits = draw(st.lists(BITS, min_size=grid.points.size, max_size=grid.points.size))
        doc = {"q": q, "level": level, "values": serialize._f8le(_floats(bits)),
               "meta": {"grid_generator": kind}}
        if kind == "table":
            doc["meta"]["grid_points"] = serialize._f8le(grid.points)
    for key in ("manifest", "~"):  # text before the arrays and after them
        doc[key] = draw(st.dictionaries(_TEXT, st.one_of(_TEXT, st.integers()), max_size=3))
    return doc


class TestReadJson:
    """``read_json`` gives what ``json.loads`` and ``_json_floats`` give."""

    @settings(max_examples=200, deadline=None)
    @given(_written_documents())
    def test_written_documents_read_as_json_reads_them(self, doc):
        raw = _written(doc)
        assert _decoded(serialize.read_json(raw)) == _decoded(json.loads(raw))

    @pytest.mark.parametrize("make, to_dict, from_dict, arrays", [
        (lambda: reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 9),
         serialize.path_to_dict, serialize.path_from_dict, lambda x: (x.values, x.grid.points)),
        (_pulled_path, serialize.path_to_dict, serialize.path_from_dict,
         lambda x: (x.values, x.grid.points)),
        (lambda: power_table(2, 8, 1.5), serialize.table_to_dict, serialize.table_from_dict,
         lambda t: (t.points,)),
    ], ids=["q-adic", "pulled", "table"])
    def test_artifacts_read_back_bit_for_bit(self, make, to_dict, from_dict, arrays):
        obj = make()
        raw = _written(to_dict(obj))
        for back in (from_dict(serialize.read_json(raw)), from_dict(json.loads(raw))):
            assert [a.tobytes() for a in arrays(back)] == [a.tobytes() for a in arrays(obj)]

    def test_arrays_are_decoded_from_the_bytes(self, monkeypatch):
        # the one base64 decode each array gets is of a buffer of the bytes,
        # never of a str, and the path keeps the decoded buffer
        doc = serialize.path_to_dict(_pulled_path())
        raw = _written(doc)
        decoded = []
        b64decode = serialize._b64decode

        def spy(text):
            decoded.append(type(text))
            return b64decode(text)

        monkeypatch.setattr(serialize, "_b64decode", spy)
        parsed = serialize.read_json(raw)
        back = serialize.path_from_dict(parsed)
        assert decoded == [memoryview, memoryview]
        assert back.values.tobytes() == doc["values"]["f8le"].tobytes()
        assert back.values is parsed["values"]["f8le"]
        assert back.grid.points is parsed["meta"]["grid_points"]["f8le"]


# the base64 alphabet, padding, and characters strict base64 refuses
_B64_TEXT = st.text(
    alphabet=st.sampled_from(list(serialize._B64_ALPHABET.decode() + "=\n\\\"\0\u00e9\u20ac")),
    max_size=40)


class TestB64Decode:
    """``_b64decode`` is ``binascii.a2b_base64(text, strict_mode=True)``."""

    @staticmethod
    def _agree(text):
        try:
            want = binascii.a2b_base64(text, strict_mode=True)
        except ValueError:
            want = None
        try:
            got = serialize._b64decode(text)
        except ValueError:
            assert want is None, text
            return
        assert want is not None, text
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert got.tobytes() == want

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        _B64_TEXT,
        # valid text, then a mutation at any place: every length mod 4 and
        # every block seam is reached with the rest of it valid
        st.tuples(st.binary(max_size=40), st.integers(0, 60), _B64_TEXT).map(
            lambda t: (lambda v: v[:t[1]] + t[2] + v[t[1]:])(base64.b64encode(t[0]).decode())),
        st.tuples(st.binary(max_size=40), _B64_TEXT).map(
            lambda t: base64.b64encode(t[0]).decode() + t[1]),
        # runs of padding, which strict binascii accepts after a whole quad
        st.tuples(st.binary(max_size=40), st.integers(0, 12)).map(
            lambda t: base64.b64encode(t[0]).decode() + "=" * t[1])))
    def test_agrees_with_strict_binascii(self, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_B64_BLOCK", 2)  # so that texts cross block seams
            for form in (text, text.encode("utf-8"), memoryview(text.encode("utf-8"))):
                self._agree(form)

    @pytest.mark.parametrize("text", [
        "", "QUFB", "QUFBQQ==", "QUFBQUE=", "QUFB====", "QUFB========", "QUFBQQ======",
        "QUFB=QUF", "====", "QR==", "QUFBQR==", "QUFBQ===", "QUFBQUF", "QUF", "Q",
        "QUFB\nQUFB", "QU\0B", "QUFBQUFB\"", "QUFBQUF\u00e9", "QUFB\\UFB",
    ])
    def test_edge_texts(self, monkeypatch, text):
        monkeypatch.setattr(serialize, "_B64_BLOCK", 1)
        for form in (text, text.encode("utf-8")):
            self._agree(form)

    def test_str_payload_reads_through_json_floats(self):
        values = np.array([0.0, -1.5, 2.0 ** -1074, np.pi, 1e308])
        text = base64.b64encode(values.astype("<f8").tobytes()).decode()
        got = serialize._json_floats({"f8le": text}, "values", "path")
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tobytes() == values.tobytes()
        for bad in (text[:-1], text + "====x", text.replace("A", "\u00e9", 1)):
            with pytest.raises(ValidationError, match="'values' must be"):
                serialize._json_floats({"f8le": bad}, "values", "path")
