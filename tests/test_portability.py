"""No module of ``pvarpath`` uses a platform-sized float type.

``longdouble`` is 80-bit on x86 Linux, binary128 on aarch64 and float64
under MSVC and on macOS arm64, so a result computed in it has different
bits on each; ``float96`` and ``float128`` exist only on some of them.
Artifacts must not depend on the platform, so the package names none of
these types, not even in a comment.
"""

import re
from pathlib import Path

import pvarpath

PLATFORM_FLOATS = re.compile(r"longdouble|float96|float128")  # clongdouble too


def test_no_platform_sized_floats():
    hits = [f"{source.name}:{number}: {line.strip()}"
            for source in sorted(Path(pvarpath.__file__).parent.glob("*.py"))
            for number, line in enumerate(source.read_text().splitlines(), 1)
            if PLATFORM_FLOATS.search(line)]
    assert hits == []
