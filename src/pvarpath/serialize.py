"""JSON and CSV interchange for paths, tables and reports.

A refining table is its level-N grid, which stores its points; its document
is ``{"q": q, "points": <array>}``, the level-N points, whose count fixes N.

A document's number arrays (a path's ``values`` and ``meta.grid_points``,
a table's ``points``) are written as ``{"f8le": "<base64 of the
little-endian float64 bytes>"}`` (``_f8le``): exact to the bit, and the
same text on every host.

Every number a document carries is read by one rule, here: ``q`` and a
path's ``level`` must be JSON integers (``_json_int``); an array must be an
``f8le`` object (that one key, a ``str`` of strict base64 that decodes to a
multiple of 8 bytes) or, as older and hand-written documents give it, a
flat list of JSON numbers, ``int`` or ``float`` items only
(``_json_floats``); a path's ``meta`` must be an object.  Anything else is
refused with one line naming the document kind and the field; a valid
document reads back bit for bit, and non-finite values are refused by the
path or grid they would build.  A path's numbers are its ``values`` alone:
a ``meta.offset`` shift is refused, not read and dropped.

A path document's ``meta`` is its grid's layout only: ``grid_generator``,
"q-adic" for a grid fixed by q and level or "table" for one that stores its
points, plus those ``grid_points`` for a "table" grid.  Any other key is
ignored, so documents that still carry provenance keys read as before; how
an artifact was made is recorded in its manifest.

JSON artifacts are written by one encoder, with sorted keys and compact
separators, so a fixed input produces byte-identical output.  CSV floats
are written in one format, ``_CSV_FLOAT`` (``%.17g``: 17 significant
digits, enough for any float64 to read back exactly), and the contract is
the text of Python's ``"%.17g" %``, byte for byte.  A numpy kernel
(``_format_rows``) meets it: it rounds each value to 17 digits exactly in
float64 arithmetic (``_decimal``), turns the digits into text through
lookup tables and lays them out by a byte mask.  A row holding a value the
kernel does not decide (a non-finite value, a subnormal, |x| beyond the
kernel's range, or a rounding too close to a tie to call) is written by
``%`` itself and spliced in.

Writers take a binary stream, and text stays bytes from the kernel to the
file: no newline translation, and no decode or encode between them.  A CSV
is streamed to the caller's stream: its rows are cut into ranges of
``_CSV_CHUNK_ROWS``, and the ranges are formatted round-robin by this
process and forked workers, one per CPU it may run on, then written in
order (``_write_chunks``).  No process holds much more than one range of
text, no whole-file string is ever built, and the bytes do not depend on
how many CPUs there are.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
from typing import IO, Callable

import numpy as np

from .oracle import VariationConstant
from .errors import ValidationError
from .partition import PartitionGrid, build_homeomorphism, qadic_grid
from .schauder import SampledPath
from .variation import VariationProfile


_CSV_CHUNK_ROWS = 1 << 16
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _cpu_count() -> int:
    """Processes ``_write_chunks`` may use: the CPUs this process may run on,
    where the platform reports them (and so can fork), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe: IO[bytes]) -> bytes:
    """The next length-prefixed range a worker sent."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little") if len(head) == 8 else -1
    data = pipe.read(size) if size >= 0 else b""
    if len(data) != size:
        raise OSError("a formatting worker stopped before sending all its ranges")
    return data


def _write_chunks(stream: IO[bytes], n: int, fmt: Callable[[int, int], bytes]) -> None:
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
                        data = fmt(lo, min(lo + _CSV_CHUNK_ROWS, n))
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


def write_json(obj, stream: IO[bytes]) -> None:
    """The canonical JSON of ``obj`` (sorted keys, compact separators, one
    closing newline) written to the binary ``stream``: the bytes of
    ``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``.
    It is written piece by piece, so the document is never held whole: the
    largest piece is one ``f8le`` string."""
    for piece in _JSON_ENCODER.iterencode(obj):
        stream.write(piece.encode())
    stream.write(b"\n")


def canonical_dumps(obj) -> str:
    """The text whose bytes ``write_json`` writes, as one string (ASCII:
    the encoder escapes every other character), for a text stream such as
    ``sys.stdout`` and for hashing."""
    return _JSON_ENCODER.encode(obj) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# SampledPath <-> JSON
# ---------------------------------------------------------------------------


def _f8le(values: np.ndarray) -> dict:
    """``values`` as ``{"f8le": <base64 of their little-endian float64
    bytes>}``, the same text whatever the host's byte order."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return {"f8le": base64.b64encode(raw).decode("ascii")}


def path_to_dict(path: SampledPath) -> dict:
    meta = {"grid_generator": path.grid.generator}
    if path.grid.generator != "q-adic":
        meta["grid_points"] = _f8le(path.grid.points)
    return {
        "q": int(path.q),
        "level": int(path.level),
        "values": _f8le(path.values),
        "meta": meta,
    }


def _json_int(value, name: str, kind: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ValidationError(
            f"malformed {kind} document: {name!r} must be an integer, got {value!r}")
    return value


def _json_floats(value, name: str, kind: str) -> np.ndarray:
    """``value`` as a float64 array if it is an ``_f8le`` object or a flat
    list of JSON numbers."""
    if type(value) is dict and value.keys() == {"f8le"} and type(value["f8le"]) is str:
        try:
            raw = base64.b64decode(value["f8le"], validate=True)
            if len(raw) % 8 == 0:
                return np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
        except ValueError:  # binascii.Error too: not ASCII, not base64, bad padding
            pass
    elif type(value) is list and set(map(type, value)) <= {int, float}:
        try:
            return np.asarray(value, dtype=np.float64)
        except OverflowError:
            pass  # an integer beyond float range
    raise ValidationError(
        f"malformed {kind} document: {name!r} must be a flat list of numbers "
        'or {"f8le": <base64 of little-endian float64 bytes>}')


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
    elif generator != "table":
        raise ValidationError(f"grid generator {generator!r} is not 'q-adic' or 'table'")
    elif "grid_points" not in meta:
        raise ValidationError("malformed path document: a 'table' grid needs meta.grid_points")
    else:
        pts = _json_floats(meta["grid_points"], "meta.grid_points", "path")
        grid = PartitionGrid(q=q, level=level, table_points=pts)
    return SampledPath(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Refining table (its finest "table" grid) <-> JSON
# ---------------------------------------------------------------------------


def table_to_dict(table: PartitionGrid) -> dict:
    """The finest level's points; the coarser levels are its strides."""
    return {"q": int(table.q), "points": _f8le(table.points)}


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
_BLOCK_ROWS = 1 << 12  # rows at once: 8192 ran no faster and peaked 6 MB higher

# The kernel writes a value into six 8-byte words, masks the bytes that
# ``%.17g`` keeps and deletes the NUL bytes.  The words hold its sign and
# "0.000", its 17 digits each followed by a ".", then "e", the exponent's
# sign and three digits, and the separator.
_WORDS = 6
_DIGIT = 6 + 2 * np.arange(17)  # the byte of each digit
_EXP = 40
# The decimal exponents E the kernel formats; |x| is scaled by 10^(16 - E).
_E_MIN, _E_MAX = -290, 299
# Where 10^(16 - E) is not a float64 the scaled value is known to about
# 1e-14, and a fraction this close to 1/2 is left to ``%``.
_TIE_MARGIN = 2.0 ** -30
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_LAYOUTS = 23 * 17  # per sign: (E in [-4, 16] or a 2- or 3-digit exponent) x digits
_LEAD_AT = 10000  # where the lead-digit words follow the 4-digit group words


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo, hi and lo each correctly rounded."""
    if k >= 0:
        hi = float(10 ** k)
        return hi, float(10 ** k - int(hi))
    d = 10 ** -k
    hi = 1 / d  # int / int true division is correctly rounded
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _layout(e: int, nsig: int) -> np.ndarray:
    """The bytes ``%.17g`` keeps of a positive value with decimal exponent
    ``e`` and ``nsig`` significant digits."""
    keep = np.zeros(8 * _WORDS, dtype=bool)
    if -4 <= e < 0:
        keep[1:2 - e] = True  # "0." and -e - 1 zeros
        keep[_DIGIT[:nsig]] = True
    elif 0 <= e <= 16:
        keep[_DIGIT[:max(e + 1, nsig)]] = True
        keep[_DIGIT[e] + 1] = nsig > e + 1
    else:
        keep[_DIGIT[:nsig]] = True
        keep[_DIGIT[0] + 1] = nsig > 1
        keep[_EXP:_EXP + 5] = True
        keep[_EXP + 2] = abs(e) >= 100  # the hundreds digit
    keep[_EXP + 5] = True  # the separator
    return keep


def _words(table: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as native 8-byte words, so that storing a word stores
    its bytes in order on any host."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64).ravel()


@functools.cache
def _kernel_tables() -> dict:
    """The tables ``_format_rows`` reads, built on first use from integer
    arithmetic, so that importing this module does not pay for them.

    Indexed by the biased binary exponent b of |x|: ``live`` (E of every
    value in the binade lies in [_E_MIN, _E_MAX]), ``e0`` (E of its least
    value) and ``ceil`` (the least float64 >= 10^(e0 + 1)).  Indexed by
    E - _E_MIN: ``hi`` + ``lo`` = 10^(16 - E), ``hi`` split into ``hi_hi``
    + ``hi_lo``, ``tie`` (a scaled value is decided if |fraction - rint| is
    below it: 1 where the product is exact) and ``key`` (where the layouts
    of E start, less 1).  ``nsig[j][g]`` is the number
    of significant digits if g is the last nonzero one of the four groups
    of 4 digits after the lead digit (1 if g is 0).
    """
    live = np.zeros(2048, dtype=bool)
    e0 = np.zeros(2048, dtype=np.int64)
    ceil = np.full(2048, np.inf)
    for b in range(1, 2047):
        # u log10(2) stays 4e-4 or more from an integer for 0 < |u| < 1075
        e = math.floor((b - 1023) * math.log10(2))
        if _E_MIN <= e < _E_MAX:
            hi, lo = _pow10(e + 1)
            live[b], e0[b], ceil[b] = True, e, np.nextafter(hi, np.inf) if lo > 0 else hi
    exps = range(_E_MIN, _E_MAX + 2)
    hi, lo = np.array([_pow10(16 - e) for e in exps]).T
    mant, exp = np.frexp(hi)  # split the mantissa: hi * _SPLIT may overflow
    mant_hi, mant_lo = _split(mant)
    g = np.arange(10000)
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, ::2] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    lead = np.tile(np.frombuffer(b"-0.000", dtype=np.uint8), (10, 1))
    e = np.array(exps)
    expo = np.zeros((2, e.size, 8), dtype=np.uint8)
    expo[:, :, 0] = ord("e")
    expo[:, :, 1] = np.where(e < 0, ord("-"), ord("+"))
    expo[:, :, 2:5] = pairs[np.abs(e), 2::2]
    expo[:, :, 5] = np.array([[ord(",")], [ord("\n")]])
    cls = np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100))
    layouts = np.array([_layout(c, n) for c in list(range(-4, 17)) + [17, 100]
                        for n in range(1, 18)])
    layouts = np.concatenate([layouts, layouts])
    layouts[_LAYOUTS:, 0] = True  # the sign
    sig = np.where(g == 0, 0, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0))
    return {
        "live": live, "e0": e0, "ceil": ceil,
        "hi": hi, "lo": lo,
        "hi_hi": np.ldexp(mant_hi, exp), "hi_lo": np.ldexp(mant_lo, exp),
        "tie": np.where(lo == 0, 1.0, 0.5 - _TIE_MARGIN),
        "key": cls * 17 - 1,
        "nsig": np.stack([np.where(sig > 0, 4 * j + 1 + sig, 1) for j in range(4)]).astype(np.uint8),
        # 4-digit groups, then lead digits, then exponents (, or \n after)
        "text": np.concatenate([_words(pairs), _words(np.column_stack([lead, pairs[:10, 6:]])),
                                _words(expo[0]), _words(expo[1])]),
        "expo_at": (_LEAD_AT + 10 - _E_MIN, _LEAD_AT + 10 - _E_MIN + e.size),
        "layouts": _words(np.where(layouts, 0xFF, 0)).reshape(-1, _WORDS),
        "lengths": layouts.sum(axis=1),
    }


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(N, E, decided)``: where ``decided``, ``x`` rounded to 17
    significant digits is ``+-N * 10^(E - 16)`` with N in [10^16, 10^17),
    or N = E = 0 for a zero; elsewhere N = E = 0.

    E is floor(log10|x|), read from the binade of |x| and one comparison.
    ``|x| * 10^(16 - E)`` is formed as a double-double in float64 alone
    (Dekker's product) and rounded half to even; the carry into 10^17 bumps
    E.  A value is undecided if its binade lies outside the tables (zeros,
    subnormals, non-finite values, |x| outside about [1.3e-290, 1.7e299)),
    or if 10^(16 - E) is not a float64 and its fraction is within
    ``_TIE_MARGIN`` of 1/2.  Where 10^(16 - E) is a float64 (E in [-6, 16]) the product is
    exact, so a tie is decided exactly.
    """
    t = _kernel_tables()
    a = np.abs(x)
    binade = a.view(np.int64) >> 52
    live = t["live"].take(binade)
    a = np.where(live, a, 0.0)
    e = t["e0"].take(binade) + (a >= t["ceil"].take(binade))
    i = e - _E_MIN
    s1, s2 = t["hi_hi"].take(i), t["hi_lo"].take(i)
    a1, a2 = _split(a)
    p = a * t["hi"].take(i)
    frac = a2 * s2 - (((p - a1 * s1) - a2 * s1) - a1 * s2) + a * t["lo"].take(i)
    whole = np.rint(frac)
    n = p.astype(np.int64) + whole.astype(np.int64)  # p is even, so half to even holds
    decided = (live & (np.abs(frac - whole) < t["tie"].take(i))) | (x == 0)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    return n, e, decided


def _format_block(words: np.ndarray, head: bytes, cols: list) -> tuple[np.ndarray, np.ndarray]:
    """Write the rows of ``cols`` into the first rows of ``words`` as the
    kernel lays them out, NUL bytes to be deleted, and return which rows it
    decided and the text's length up to the end of each row.  An undecided
    row is left all NUL."""
    t = _kernel_tables()
    rows, first = cols[0].size, -(-len(head) // 8)
    words[:rows, :first] = np.frombuffer(head.ljust(8 * first, b"\0"), dtype=np.uint64)
    words[rows:] = 0  # rows a longer block left, so that they delete
    decided = np.ones(rows, dtype=bool)
    length = np.full(rows, len(head))
    index = np.empty((rows, _WORDS), dtype=np.int64)  # into t["text"]
    for c, x in enumerate(cols):
        n, e, ok = _decimal(x)
        decided &= ok
        lead = n // 10 ** 16
        index[:, 0] = lead + _LEAD_AT
        n -= lead * 10 ** 16
        nsig = np.ones(rows, dtype=np.uint8)
        for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
            group = n // scale
            n -= group * scale
            index[:, 1 + j] = group
            np.maximum(nsig, t["nsig"][j].take(group), out=nsig)
        index[:, 5] = e + t["expo_at"][c == len(cols) - 1]
        key = t["key"].take(e - _E_MIN) + nsig + np.signbit(x) * _LAYOUTS
        np.bitwise_and(t["text"].take(index), t["layouts"].take(key, axis=0),
                       out=words[:rows, first + _WORDS * c:first + _WORDS * (c + 1)])
        length += t["lengths"].take(key)
    if not decided.all():
        words[:rows][~decided] = 0
        length[~decided] = 0
    return decided, np.cumsum(length)


def _format_rows(prefix: str, *cols) -> bytes:
    """``"".join(prefix + ",".join("%.17g" % v for v in row) + "\n")`` over
    the rows of the columns ``cols``, as UTF-8 bytes, built in numpy.
    ``prefix`` holds no NUL character.

    Each value goes through ``_decimal`` and is laid out by a byte mask
    keyed by its sign, its decimal exponent and its number of significant
    digits; a row holding a value ``_decimal`` leaves undecided is written
    by ``%`` and spliced in.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    head = prefix.encode()
    width = -(-len(head) // 8) + _WORDS * len(cols)
    rows = min(cols[0].size, _BLOCK_ROWS)
    buf = bytearray(8 * width * rows)  # reused: fresh pages for each block cost more
    words = np.frombuffer(buf, dtype=np.uint64).reshape(rows, width)
    out = []
    for lo in range(0, cols[0].size, _BLOCK_ROWS):
        block = [c[lo:lo + _BLOCK_ROWS] for c in cols]
        decided, ends = _format_block(words, head, block)
        text = buf.translate(None, b"\0")
        pos = 0
        for i in np.flatnonzero(~decided):
            out.append(text[pos:ends[i]])
            out.append((prefix + ",".join([_CSV_FLOAT % c[i] for c in block]) + "\n").encode())
            pos = ends[i]
        out.append(text[pos:])
    return b"".join(out)


def _write_rows(stream: IO[bytes], prefix: str, *columns) -> None:
    """One line per row: ``prefix``, then the columns' values in ``_CSV_FLOAT``,
    comma-separated.  ``prefix`` holds no NUL character.

    ``%.17g`` is the contract; ``_format_rows`` meets it with a numpy kernel
    and ``%`` for the values the kernel leaves undecided."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    _kernel_tables()  # built once, before the workers fork

    def fmt(lo: int, hi: int) -> bytes:
        return _format_rows(prefix, *(c[lo:hi] for c in cols))

    _write_chunks(stream, cols[0].size, fmt)


def write_profiles_csv(profiles, stream: IO[bytes]) -> None:
    """Rows "level,t,value" across one or more profiles."""
    stream.write(b"level,t,value\n")
    for prof in profiles:
        _write_rows(stream, f"{prof.level},", prof.eval_points, prof.values)


def write_residual_csv(eval_points, residuals, stream: IO[bytes]) -> None:
    """Rows "t,residual"."""
    stream.write(b"t,residual\n")
    _write_rows(stream, "", eval_points, residuals)
