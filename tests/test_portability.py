"""Artifacts do not depend on the platform.

No module of ``pvarpath`` uses a platform-sized float type: ``longdouble``
is 80-bit on x86 Linux, binary128 on aarch64 and float64 under MSVC and on
macOS arm64, so a result computed in it has different bits on each;
``float96`` and ``float128`` exist only on some of them.  The package names
none of these types, not even in a comment.

A document's number arrays are little-endian float64 bytes whatever the
host's byte order, and the CSV kernel's text does not depend on the input
array's byte order.  The kernel's powers of ten are built from integer
arithmetic, not from a platform's ``pow``.
"""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import pvarpath
from pvarpath import serialize

PLATFORM_FLOATS = re.compile(r"longdouble|float96|float128")  # clongdouble too


def test_no_platform_sized_floats():
    hits = [f"{source.name}:{number}: {line.strip()}"
            for source in sorted(Path(pvarpath.__file__).parent.glob("*.py"))
            for number, line in enumerate(source.read_text().splitlines(), 1)
            if PLATFORM_FLOATS.search(line)]
    assert hits == []


def test_f8le_bytes_do_not_depend_on_byte_order():
    values = np.array([1.0, -0.0, 5e-324, 1 / 3, -2.5e300])
    text = serialize._f8le(values)["f8le"]
    assert serialize._f8le(values.astype(">f8"))["f8le"] == text
    assert serialize._f8le(values.astype("<f8"))["f8le"] == text
    assert serialize._f8le(np.array([1.0]))["f8le"] == "AAAAAAAA8D8="  # 00 .. 00 f0 3f
    back = serialize._json_floats({"f8le": text}, "values", "path")
    assert back.tobytes() == values.tobytes()


def test_kernel_powers_of_ten():
    t = serialize._kernel_tables()
    for i, e in enumerate(range(serialize._E_MIN, serialize._E_MAX + 2)):
        exact = Fraction(10) ** (16 - e)
        assert abs(Fraction(t["hi"][i]) + Fraction(t["lo"][i]) - exact) <= exact / 2 ** 104, e
        assert t["hi_hi"][i] + t["hi_lo"][i] == t["hi"][i]
    halves = np.frexp(np.concatenate([t["hi_hi"], t["hi_lo"]]))[0] * 2.0 ** 26
    assert (halves == np.round(halves)).all()  # 26 bits each: their products are exact


def test_kernel_binades():
    """A live binade [2^u, 2^(u+1)) has E = e0 or e0 + 1, and ``ceil`` is
    the least float64 at or above 10^(e0 + 1)."""
    t = serialize._kernel_tables()
    for b in np.flatnonzero(t["live"]):
        u, e0 = Fraction(2) ** (int(b) - 1023), int(t["e0"][b])
        assert Fraction(10) ** e0 <= u and 2 * u <= Fraction(10) ** (e0 + 2)
        assert serialize._E_MIN <= e0 < serialize._E_MAX
        ceil = t["ceil"][b]
        assert Fraction(np.nextafter(ceil, 0.0)) < Fraction(10) ** (e0 + 1) <= Fraction(ceil)


def test_kernel_text_does_not_depend_on_byte_order():
    values = np.array([1.0, -0.0, 5e-324, 1 / 3, -2.5e300, 0.1, 1e16, np.nan])
    text = serialize._format_rows("", values, values[::-1])
    assert serialize._format_rows("", values.astype(">f8"), values[::-1].astype(">f8")) == text
    assert serialize._format_rows("", values.astype("<f8"), values[::-1].astype("<f8")) == text
    assert text.splitlines()[0] == b"1,nan"
