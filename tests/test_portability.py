"""Artifacts do not depend on the platform.

No module of ``pvarpath`` uses a platform-sized float type: ``longdouble``
is 80-bit on x86 Linux, binary128 on aarch64 and float64 under MSVC and on
macOS arm64, so a result computed in it has different bits on each;
``float96`` and ``float128`` exist only on some of them.  The package names
none of these types, not even in a comment.

A document's number arrays are little-endian float64 bytes whatever the
host's byte order.
"""

import re
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
