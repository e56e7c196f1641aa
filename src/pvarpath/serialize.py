"""JSON and CSV interchange for paths, tables and reports.

A refining table is its level-N grid, which stores its points; its document
is ``{"q": q, "points": <array>}``, the level-N points, whose count fixes N.

A document's number arrays (a path's ``values`` and ``meta.grid_points``,
a table's ``points``) are written as ``{"f8le": "<base64 of the
little-endian float64 bytes>"}``: exact to the bit, and the same text on
every host.  In memory, before it is written, the document holds the
contiguous ``"<f8"`` array itself under ``"f8le"`` (``_f8le``); no text is
made until the document is written.

Every number a document carries is read by one rule, here: ``q`` and a
path's ``level`` must be JSON integers (``_json_int``); an array must be an
``f8le`` object (that one key, holding a ``str`` of strict base64 that
decodes to a multiple of 8 bytes, or the array that text decodes to, as
``read_json`` puts it there, or, in a document that was never written, the
array ``_f8le`` put there) or, as older and hand-written documents give
it, a flat list of JSON numbers, ``int`` or ``float`` items only
(``_json_floats``); a path's ``meta`` must be an object.  Anything else is
refused with one line naming the document kind and the field; a valid
document reads back bit for bit, and non-finite values are refused by the
path or grid they would build.  A path's numbers are its ``values`` alone:
a ``meta.offset`` shift is refused, not read and dropped.

A file is read by ``read_json``, the reading side of ``write_json``.  Each
f8le object laid out as ``write_json`` lays it out is decoded straight from
the file's bytes, so its text never becomes a ``str``, and ``json`` parses
only the rest, a few hundred bytes for an artifact.  The document it gives,
or the error it raises, is the one ``json.loads`` gives, with each such
object holding its decoded array.

Every base64 text, in a file or in a ``str``, is decoded by one numpy
kernel (``_b64decode``).  It reads the text as little-endian 2-character
words, maps each word to its 12 bits through a 65,536-entry table
(``_b64_words``, built on first use) and packs two words into three bytes,
one block of ``_B64_BLOCK`` 4-character quads at a time, into one buffer
that it hands over read-only.  It accepts exactly the texts
``binascii.a2b_base64(text, strict_mode=True)`` accepts and gives the same
bytes: a word with a character outside the base64 alphabet raises
``ValueError``, and ``binascii`` itself decodes the last quad, the one that
may carry ``=``, and any text it is not sure to decode as the kernel does
(empty, of a length not a multiple of 4, or whose last quad starts with
``=``).

A path document's ``meta`` is its grid's layout only: ``grid_generator``,
"q-adic" for a grid fixed by q and level or "table" for one that stores its
points, plus those ``grid_points`` for a "table" grid.  Any other key is
ignored, so documents that still carry provenance keys read as before; how
an artifact was made is recorded in its manifest.

JSON artifacts are written by ``json``'s own encoder, with sorted keys and
compact separators, so a fixed input produces byte-identical output: the
bytes of ``json.dumps`` (``sort_keys=True, separators=(",", ":")``) of the
document with each array in its base64 text form, and a newline.  ``json``
writes every dict, list, key and scalar; the writer adds one rule, the
payload rule.  An array ``_f8le`` put in the document reaches the encoder's
``default``, which records it and returns ``""``, and the chunk ``'""'``
that follows is replaced by the array's text between quotes:
``binascii.b2a_base64`` of consecutive ``_F8LE_CHUNK``-byte slices of its
bytes.  The slices are a multiple of 3 bytes long, so their texts join into
the text of the whole array, and base64 never needs escaping, so that text
is neither scanned nor quoted.  No more than one slice's text is held at a
time.  Any string, a hand-written ``"f8le"`` one or an empty one included,
is escaped as ``json`` escapes it, and any other value ``json`` cannot
write is refused with ``json``'s own ``TypeError``.  ``canonical_dumps`` is
the same text as one string.

CSV holds the variation profiles (``write_profiles_csv``).  CSV floats are
written in one format, ``_CSV_FLOAT`` (``%.17g``: 17 significant digits,
enough for any float64 to read back exactly), and the contract is the text
of Python's ``"%.17g" %``, byte for byte.  A numpy kernel (``_write_rows``)
meets it: it rounds each value to 17 digits exactly in float64 arithmetic
(``_decimal``), turns the digits into text through lookup tables and lays
them out by a byte mask.  A row holding a value the kernel does not decide
(a non-finite value, a subnormal, |x| beyond the kernel's range, or a
rounding too close to a tie to call) is written by ``%`` itself and spliced
in.

Writers take a binary stream, and text stays bytes from the kernel or the
base64 encoder to the file: no newline translation, and no decode or encode
between them.  A CSV is written block by block in the writing process: the
text of each ``_BLOCK_ROWS`` rows goes to the caller's stream as soon as it
is formatted, so no more than one block's text is held and no whole-file
string is ever built.
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import json
import math
import sys
from typing import IO

import numpy as np

from .oracle import VariationConstant
from .errors import ValidationError
from .partition import PartitionGrid, build_homeomorphism, qadic_grid
from .schauder import SampledPath


_F8LE_CHUNK = 3 << 16  # bytes per base64 slice of a payload: a multiple of 3
_F8LE = np.dtype("<f8")
_F8LE_OPEN = b'{"f8le":"'  # an f8le object as write_json writes it, up to its text
_NUL_ESCAPE = b"\\u0000"  # the key of read_json's marker, as JSON text


def _is_payload(obj) -> bool:
    """Whether ``obj`` is an array as ``_f8le`` puts it in a document."""
    return type(obj) is np.ndarray and obj.dtype == _F8LE and obj.ndim == 1


def _json_pieces(obj):
    """The bytes of ``json.dumps(obj, sort_keys=True, separators=(",",
    ":")) + "\\n"``, each payload array as its base64 text, in pieces: each
    slice of a payload is one piece, and the text between payloads is one
    piece each.

    ``json``'s pure-Python encoder (``iterencode``) writes the document.
    Its ``default`` takes a payload only, records it and returns ``""``;
    the encoder yields that string's text ``'""'`` as its next chunk, and
    that chunk, and no other, is replaced by the payload's quoted text."""
    payloads = []

    def default(value):
        if not _is_payload(value):
            return json.JSONEncoder.default(None, value)  # json's own TypeError
        payloads.append(value)
        return ""

    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=default)
    pending = []
    for chunk in encoder.iterencode(obj):
        if payloads:
            yield ("".join(pending) + '"').encode()
            raw = np.ascontiguousarray(payloads.pop()).view(np.uint8)
            for lo in range(0, raw.size, _F8LE_CHUNK):
                yield binascii.b2a_base64(raw[lo:lo + _F8LE_CHUNK], newline=False)
            pending = ['"']
        else:
            pending.append(chunk)
    pending.append("\n")
    yield "".join(pending).encode()


def write_json(obj, stream: IO[bytes]) -> None:
    """The canonical JSON of ``obj`` (sorted keys, compact separators, one
    closing newline) written to the binary ``stream``: the bytes of
    ``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``,
    with each array ``_f8le`` put in ``obj`` written as its base64 text.

    ``json``'s encoder writes the text around the arrays; each array's
    text is encoded here, one ``write`` per ``_F8LE_CHUNK``-byte slice of
    the array, between quotes written with the text around it: base64 never
    needs escaping, so it is not scanned, quoted or re-encoded.  Every
    string, a hand-written ``"f8le"`` one too, goes through ``json``'s
    escapes.  Neither the document nor a whole payload's text is ever held:
    the largest piece is one slice's text."""
    for piece in _json_pieces(obj):
        stream.write(piece)


def canonical_dumps(obj) -> str:
    """The text whose bytes ``write_json`` writes, as one string (ASCII:
    the encoder escapes every other character), for a text stream such as
    ``sys.stdout`` and for hashing."""
    return b"".join(_json_pieces(obj)).decode("ascii")


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


_B64_BLOCK = 1 << 14  # quads per block of _b64decode: a q=2, n=18 load peaks at 1.89x its file, 1.99x at 2^15
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@functools.cache
def _b64_words() -> np.ndarray:
    """The ``_b64decode`` table, built on first use: for each little-endian
    2-character word of base64 text, the 12 bits its characters stand for,
    or 0xFFFF if either character is outside the alphabet."""
    sextet = np.full(256, 0xFFFF, dtype=np.uint16)
    sextet[np.frombuffer(_B64_ALPHABET, dtype=np.uint8)] = np.arange(64, dtype=np.uint16)
    word = np.arange(1 << 16, dtype=np.uint16)
    first, second = sextet[word & 0xFF], sextet[word >> 8]
    table = (first << 6) | second
    table[(first | second) > 63] = 0xFFFF
    table.setflags(write=False)  # every caller shares it
    return table


def _b64decode(text) -> np.ndarray:
    """The bytes ``binascii.a2b_base64(text, strict_mode=True)`` gives, as a
    read-only uint8 array, or the ``ValueError`` it raises for a text it
    refuses.  ``text`` is a ``str`` or a bytes-like object.

    Every quad but the last is decoded by the kernel, ``_B64_BLOCK`` quads
    at a time; a character outside the alphabet, ``=`` included, refuses the
    text.  ``binascii`` decodes the last quad, the one padding may end, and
    the whole of a text that is empty, whose length is not a multiple of 4
    or whose last quad starts with ``=``: only there can ``binascii`` accept
    a text with ``=`` before its last quad, or refuse a last quad that it
    accepts after the rest."""
    if isinstance(text, str):
        text = text.encode("ascii")  # UnicodeEncodeError is a ValueError, as binascii raises
    size = len(text)
    if size % 4 or not size or text[size - 4] == ord("="):
        return np.frombuffer(binascii.a2b_base64(text, strict_mode=True), dtype=np.uint8)
    tail = binascii.a2b_base64(text[size - 4:], strict_mode=True)
    quads = size // 4 - 1
    words, table = np.frombuffer(text, dtype="<u2", count=2 * quads), _b64_words()
    out = np.empty(3 * quads + len(tail), dtype=np.uint8)
    out[3 * quads:] = np.frombuffer(tail, dtype=np.uint8)
    # a quad's 24 bits are the 12 of its first word, a, then the 12 of its
    # second, b; they are looked up into separate buffers, so that the
    # arithmetic on them runs on contiguous arrays
    a_buf, b_buf, spare = (np.empty(min(quads, _B64_BLOCK), dtype=np.uint16) for _ in range(3))
    for lo in range(0, quads, _B64_BLOCK):
        hi = min(lo + _B64_BLOCK, quads)
        a, b, m = a_buf[:hi - lo], b_buf[:hi - lo], spare[:hi - lo]
        table.take(words[2 * lo:2 * hi:2], out=a)
        table.take(words[2 * lo + 1:2 * hi:2], out=b)
        if a.max() > 0xFFF or b.max() > 0xFFF:
            raise binascii.Error("Only base64 data is allowed")
        o = out[3 * lo:3 * hi].reshape(-1, 3)
        np.right_shift(a, 4, out=o[:, 0], casting="unsafe")
        a <<= 4
        np.right_shift(b, 8, out=m)
        np.bitwise_or(a, m, out=o[:, 1], casting="unsafe")  # its low 8 bits
        o[:, 2] = b  # its low 8 bits
    out.setflags(write=False)  # handed over, not copied
    return out


def _payloads(raw: bytes):
    """Yield ``(start, end, array)`` for each span ``{"f8le":"<text>"}`` of
    ``raw``, laid out as ``write_json`` lays it out, whose text is strict
    base64 of a multiple of 8 bytes, decoded by ``_b64decode`` from a view
    of ``raw``.  The text runs to the next quote, so an escaped quote puts a
    backslash in it, which base64 refuses."""
    view, at = memoryview(raw), raw.find(_F8LE_OPEN)
    while at >= 0:
        lo = at + len(_F8LE_OPEN)
        hi = raw.find(b'"', lo)
        if hi < 0:
            return
        if raw[hi + 1:hi + 2] == b"}":
            try:
                data = _b64decode(view[lo:hi])
            except ValueError:  # binascii.Error too: not strict base64
                data = None
            if data is not None and data.size % 8 == 0:
                yield at, hi + 2, data.view(_F8LE)
                at = raw.find(_F8LE_OPEN, hi + 2)
                continue
        at = raw.find(_F8LE_OPEN, at + 1)


def read_json(raw: bytes):
    """The document ``json.loads(raw)`` gives, with each f8le object that
    ``_payloads`` finds holding its decoded ``"<f8"`` array instead of its
    text, and the error ``json.loads(raw)`` raises for a document it
    refuses.

    Only a skeleton is parsed: ``raw`` with each such object replaced by
    the marker ``{"\\u0000": k}``, which an ``object_hook`` turns back into
    ``{"f8le": <array k>}``.  Where the object's ``{`` is not in a string,
    the object and its marker are each one JSON object; where it is, the
    quote after it ends the string and neither text is valid.  So the
    skeleton is valid exactly where ``raw`` is.  The arrays are spliced
    only in UTF-8 (in UTF-16 or UTF-32 the pattern's bytes are other
    characters), and only where no text outside them holds the escape
    ``\\u0000``, which could name a marker.  Otherwise, or if the skeleton
    is refused, ``raw`` is parsed as it is."""
    if json.detect_encoding(raw) in ("utf-8", "utf-8-sig"):
        arrays, pieces, start = [], [], 0
        for at, end, array in _payloads(raw):
            if raw.find(_NUL_ESCAPE, start, at) >= 0:
                break
            pieces += [raw[start:at], b'{"\\u0000":%d}' % len(arrays)]
            arrays.append(array)
            start = end
        else:
            if arrays and raw.find(_NUL_ESCAPE, start) < 0:
                pieces.append(raw[start:])
                try:
                    return json.loads(b"".join(pieces), object_hook=lambda obj: (
                        {"f8le": arrays[obj["\0"]]} if "\0" in obj else obj))
                except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError
                    pass  # raised again below, as raw gives it
    return json.loads(raw)


# ---------------------------------------------------------------------------
# SampledPath <-> JSON
# ---------------------------------------------------------------------------


def _f8le(values: np.ndarray) -> dict:
    """``values`` as ``{"f8le": <their contiguous little-endian float64
    array>}``: the array as it is, or a copy of a strided or big-endian one.
    ``write_json`` writes it as the base64 of its bytes, the same text
    whatever the host's byte order, and ``_json_floats`` reads it back as it
    is."""
    return {"f8le": np.ascontiguousarray(values, dtype=_F8LE)}


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


def _shown(value) -> str:
    """``repr(value)`` on one line, a decoded array in it too."""
    with np.printoptions(linewidth=sys.maxsize):
        return repr(value)


def _json_int(value, name: str, kind: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ValidationError(
            f"malformed {kind} document: {name!r} must be an integer, got {_shown(value)}")
    return value


def _json_floats(value, name: str, kind: str) -> np.ndarray:
    """``value`` as a float64 array if it is an f8le object (its base64
    text, or the array ``_f8le`` put in a document that was never written)
    or a flat list of JSON numbers."""
    if type(value) is dict and value.keys() == {"f8le"}:
        payload = value["f8le"]
        if _is_payload(payload):
            return payload.astype(np.float64, copy=False)
        if isinstance(payload, str):
            try:
                # strict: the base64 alphabet and padding only, nothing after it
                raw = _b64decode(payload)
                if raw.size % 8 == 0:
                    return raw.view(_F8LE).astype(np.float64, copy=False)
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
        raise ValidationError(
            f"grid generator {_shown(generator)} is not 'q-adic' or 'table'")
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
    """The tables ``_write_rows`` reads, built on first use from integer
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


def _write_rows(stream: IO[bytes], prefix: str, *columns) -> None:
    """One line per row: ``prefix``, then the columns' values in ``_CSV_FLOAT``,
    comma-separated, written to ``stream`` one ``_BLOCK_ROWS`` block at a
    time.  ``prefix`` holds no NUL character.

    ``%.17g`` is the contract.  Each value goes through ``_decimal`` and is
    laid out by a byte mask keyed by its sign, its decimal exponent and its
    number of significant digits; a row holding a value ``_decimal`` leaves
    undecided is written by ``%`` and spliced in.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    head = prefix.encode()
    width = -(-len(head) // 8) + _WORDS * len(cols)
    buf = bytearray(8 * width * min(cols[0].size, _BLOCK_ROWS))  # reused: fresh pages cost more
    words = np.frombuffer(buf, dtype=np.uint64).reshape(-1, width)
    for lo in range(0, cols[0].size, _BLOCK_ROWS):
        block = [c[lo:lo + _BLOCK_ROWS] for c in cols]
        decided, ends = _format_block(words, head, block)
        text = buf.translate(None, b"\0")
        pos = 0
        for i in np.flatnonzero(~decided):
            stream.write(text[pos:ends[i]])
            stream.write((prefix + ",".join([_CSV_FLOAT % c[i] for c in block]) + "\n").encode())
            pos = ends[i]
        stream.write(text[pos:])


def write_profiles_csv(profiles, stream: IO[bytes]) -> None:
    """Rows "level,t,value" across one or more profiles."""
    stream.write(b"level,t,value\n")
    for prof in profiles:
        _write_rows(stream, f"{prof.level},", prof.eval_points, prof.values)


def write_residual_csv(eval_points, residuals, stream: IO[bytes]) -> None:
    """Rows "t,residual".  No command writes this form since ``ito`` writes
    its residual as a path document."""
    stream.write(b"t,residual\n")
    _write_rows(stream, "", eval_points, residuals)
