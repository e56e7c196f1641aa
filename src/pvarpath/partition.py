"""Dyadic/q-adic grids, q-refining tables and base-q digit tables.

Grid points are stored as floats but always generated from exact integer
ratios, and every structural question (membership, nesting) is decided by
integer index arithmetic.  A refining table to depth N is its level-N
partition: a ``PartitionGrid`` with generator "table", whose coarser levels
are strided views (``restrict``) and so nest by construction.  Its q**N + 1
points fix N (``qadic_level``), so the finest level alone determines the
table (``build_homeomorphism``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError

DEFAULT_MAX_INTERVALS = 2 ** 24
MAX_INTERVALS_ENV = "PVAR_MAX_INTERVALS"


def interval_budget() -> int:
    """Maximum interval count a single grid may hold (env-overridable)."""
    raw = os.environ.get(MAX_INTERVALS_ENV)
    if raw is None:
        return DEFAULT_MAX_INTERVALS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{MAX_INTERVALS_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValidationError(f"{MAX_INTERVALS_ENV} must be positive, got {value}")
    return value


def check_interval_budget(q: int, level: int) -> None:
    budget = interval_budget()
    if q ** level > budget:
        raise BudgetError(
            f"grid with q={q}, level={level} needs {q ** level} intervals; "
            f"budget is {budget} (override with {MAX_INTERVALS_ENV})"
        )


def frozen_floats(a) -> np.ndarray:
    """``a`` as a read-only float64 array: kept as given if it already is one
    (so coarser levels share its memory), else a read-only copy."""
    out = np.asarray(a, dtype=np.float64)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PartitionGrid:
    """One level of a partition of [0, 1] with ``q**level`` intervals.

    ``generator`` records provenance: "q-adic" grids have points exactly
    ``i / q**level``; "table" grids carry arbitrary strictly increasing
    points.  A refining table is the "table" grid of its finest level N:
    level n is ``restrict(n)``, and the time change phi sends its i-th
    point to i / q**N.
    """

    q: int
    level: int
    points: np.ndarray
    generator: str = "q-adic"

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 2):
            raise ValidationError(f"branching factor q must be an integer >= 2, got {self.q}")
        if self.level < 0:
            raise ValidationError(f"level must be >= 0, got {self.level}")
        if self.generator not in ("q-adic", "table"):
            raise ValidationError(f"grid generator {self.generator!r} is not 'q-adic' or 'table'")
        check_interval_budget(self.q, self.level)
        pts = frozen_floats(self.points)
        object.__setattr__(self, "points", pts)
        n_expected = self.q ** self.level + 1
        if pts.shape != (n_expected,):
            raise ValidationError(
                f"grid at level {self.level} must have {n_expected} points, got {pts.shape}"
            )
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValidationError("grid must start at 0 and end at 1")
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")
        if self.generator == "q-adic":
            denom = float(self.q ** self.level)
            expected = np.arange(n_expected, dtype=np.float64) / denom
            if not np.array_equal(pts, expected):
                raise ValidationError("q-adic grid points must equal i / q**level exactly")

    def same_as(self, other: "PartitionGrid") -> bool:
        """Structural equality: identical (q, level, generator) and points."""
        if (self.q, self.level, self.generator) != (other.q, other.level, other.generator):
            return False
        if self.generator == "q-adic":
            return True
        return np.array_equal(self.points, other.points)

    def restrict(self, level: int) -> "PartitionGrid":
        """Coarsen to a lower level by taking every ``q**(n - level)``-th point."""
        if not 0 <= level <= self.level:
            raise ValidationError(f"cannot restrict level-{self.level} grid to level {level}")
        stride = self.q ** (self.level - level)
        return PartitionGrid(self.q, level, self.points[::stride], generator=self.generator)


def qadic_level(q: int, intervals: int) -> int:
    """The level n with ``q**n == intervals``, for an integer q >= 2."""
    if not (isinstance(q, (int, np.integer)) and q >= 2):
        raise ValidationError(f"branching factor q must be an integer >= 2, got {q}")
    level = 0
    while q ** level < intervals:
        level += 1
    if q ** level != intervals:
        raise ValidationError(f"point count {intervals + 1} is not q**n + 1 for q={q}")
    return level


def qadic_grid(q: int, n: int) -> PartitionGrid:
    """The level-``n`` grid {0, 1/q**n, ..., 1}; points are exact ratios."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    check_interval_budget(q, n)
    denom = float(q ** n)
    points = np.arange(q ** n + 1, dtype=np.float64) / denom
    return PartitionGrid(q=q, level=n, points=points)


def digits_matrix(n: int, q: int, ks: np.ndarray | None = None) -> np.ndarray:
    """Digit table for many indices at once: column j-1 holds d_j(k)."""
    if ks is None:
        ks = np.arange(q ** n, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and (ks.min() < 0 or ks.max() >= q ** n):
        raise ValidationError("some indices out of range for the requested level")
    out = np.empty((ks.size, n), dtype=np.int64)
    rem = ks.copy()
    for j in range(n):
        rem, out[:, j] = np.divmod(rem, q)
    return out


# ---------------------------------------------------------------------------
# Refining tables: the time change realized to a finite depth
# ---------------------------------------------------------------------------

DIRICHLET_CONCENTRATION = 5.0


def qadic_table(q: int, depth: int) -> PartitionGrid:
    """The q-adic sequence itself: phi is the identity."""
    return PartitionGrid(q, depth, qadic_grid(q, depth).points, generator="table")


def power_table(q: int, depth: int, exponent: float = 2.0) -> PartitionGrid:
    """Refining table with points (i/q**n)**exponent (exponent finite and > 0).

    For exponent 2 the associated time change is the square root map.
    """
    if not (math.isfinite(exponent) and exponent > 0):
        raise ValidationError(f"power-table exponent must be finite and > 0, got {exponent}")
    return PartitionGrid(q, depth, qadic_grid(q, depth).points ** exponent, generator="table")


def random_refining_table(q: int, depth: int, seed: int = 0) -> PartitionGrid:
    """Seeded random dense-looking q-refining table.

    Level by level, each interval is split into q parts with
    Dirichlet(``DIRICHLET_CONCENTRATION``) weights, which keeps points
    strictly increasing.
    """
    check_interval_budget(q, depth)
    rng = np.random.default_rng(seed)
    pts = qadic_grid(q, 0).points
    for n in range(depth):
        w = rng.dirichlet(np.full(q, DIRICHLET_CONCENTRATION), size=q ** n)
        cuts = np.cumsum(w, axis=1)[:, :-1]
        left = pts[:-1][:, None]
        length = np.diff(pts)[:, None]
        inner = left + length * cuts
        fine = np.empty(q ** (n + 1) + 1, dtype=np.float64)
        fine[:: q] = pts
        for d in range(1, q):
            fine[d::q] = inner[:, d - 1]
        pts = fine
    return PartitionGrid(q, depth, pts, generator="table")


def build_homeomorphism(q: int, points: np.ndarray) -> PartitionGrid:
    """The refining table whose finest level holds ``points``.

    The q**N + 1 points fix N, and ``PartitionGrid`` checks the rest.
    Coarser levels are strides of level N, so they cannot fail to nest.
    """
    return PartitionGrid(q, qadic_level(q, len(points) - 1), points, generator="table")
