"""Dyadic/q-adic grids, q-refining tables and the base-q digit budget.

A q-adic grid is its (q, level): its points i / q**level are computed from
exact integer ratios when they are read, and every structural question
(membership, nesting) is decided by integer index arithmetic.  Only a
refining table stores points.  A refining table to depth N is its level-N
partition: a ``PartitionGrid`` holding those points, whose coarser levels
are strided views (``restrict``) and so nest by construction.  Its q**N + 1
points fix N (``qadic_level``), so the finest level alone determines the
table (``build_homeomorphism``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, check_branching

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


def digits_within(q: int, cap: int) -> int:
    """The largest n with ``q**n <= cap``, for q >= 2 and cap >= 1: the most
    base-q digits a budget of ``cap`` strings holds.  It never forms q**n
    beyond ``q * cap``, so a huge requested level is compared against it
    at once."""
    q = int(q)  # a numpy integer would wrap past 2**63
    n, power = 0, q
    while power <= cap:
        n, power = n + 1, power * q
    return n


def check_interval_budget(q: int, level: int) -> None:
    budget = interval_budget()
    level_max = digits_within(q, budget)
    if level > level_max:
        raise BudgetError(
            f"grid with q={q}, level={level} exceeds the budget of {budget} intervals; "
            f"the largest level allowed is {level_max} (override with {MAX_INTERVALS_ENV})"
        )


def frozen_floats(a) -> np.ndarray:
    """``a`` as a read-only float64 array, the one rule for every array a
    ``pvarpath`` object stores: kept as given if it already is one (so
    coarser levels share its memory, and a fresh array marked read-only is
    handed over without a copy), else a read-only copy, which leaves the
    caller's array writable."""
    out = np.asarray(a, dtype=np.float64)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PartitionGrid:
    """One level of a partition of [0, 1] with ``q**level`` intervals.

    A q-adic grid is its ``(q, level)``: its points i / q**level are
    computed each time ``points`` is read, and it stores no array.  A grid
    of a refining table also stores its points, ``table_points``: any
    strictly increasing q**level + 1 floats from 0 to 1.  A refining table
    is the table grid of its finest level N: level n is ``restrict(n)``, and
    the time change phi sends its i-th point to i / q**N.
    """

    q: int
    level: int
    table_points: np.ndarray | None = None

    def __post_init__(self):
        check_branching(self.q)
        if self.level < 0:
            raise ValidationError(f"level must be >= 0, got {self.level}")
        check_interval_budget(self.q, self.level)
        if self.table_points is None:
            return
        pts = frozen_floats(self.table_points)
        object.__setattr__(self, "table_points", pts)
        if pts.shape != (self.size,):
            raise ValidationError(
                f"grid at level {self.level} must have {self.size} points, got {pts.shape}"
            )
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValidationError("grid must start at 0 and end at 1")
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")

    @property
    def size(self) -> int:
        """Number of points, q**level + 1."""
        return self.q ** self.level + 1

    @property
    def generator(self) -> str:
        """The grid's kind: "q-adic", or "table" if it stores its points."""
        return "q-adic" if self.table_points is None else "table"

    @property
    def points(self) -> np.ndarray:
        """The grid points, read-only: a table grid's stored array, or a new
        ``np.arange(q**level + 1) / float(q**level)``."""
        if self.table_points is not None:
            return self.table_points
        pts = np.arange(self.size, dtype=np.float64) / float(self.q ** self.level)
        pts.setflags(write=False)
        return pts

    def same_as(self, other: "PartitionGrid") -> bool:
        """Structural equality: identical (q, level, generator) and points."""
        if (self.q, self.level, self.generator) != (other.q, other.level, other.generator):
            return False
        return self.table_points is None or np.array_equal(self.points, other.points)

    def restrict(self, level: int) -> "PartitionGrid":
        """Coarsen to a lower level; a table grid keeps every
        ``q**(n - level)``-th point, as a view.  At its own level a grid is
        itself, so its points are not checked again."""
        if not 0 <= level <= self.level:
            raise ValidationError(f"a level-{self.level} grid has no level {level}; "
                                  f"it holds levels 0..{self.level}")
        if level == self.level:
            return self
        if self.table_points is None:
            return PartitionGrid(self.q, level)
        stride = self.q ** (self.level - level)
        return PartitionGrid(self.q, level, self.table_points[::stride])


def qadic_level(q: int, intervals: int) -> int:
    """The level n with ``q**n == intervals``, for an integer q >= 2."""
    check_branching(q)
    level = digits_within(q, max(intervals, 1))
    if q ** level != intervals:
        raise ValidationError(f"point count {intervals + 1} is not q**n + 1 for q={q}")
    return level


def qadic_grid(q: int, n: int) -> PartitionGrid:
    """The level-``n`` grid {0, 1/q**n, ..., 1}; points are exact ratios."""
    return PartitionGrid(q, n)


# ---------------------------------------------------------------------------
# Refining tables: the time change realized to a finite depth
# ---------------------------------------------------------------------------

DIRICHLET_CONCENTRATION = 5.0


def qadic_table(q: int, depth: int) -> PartitionGrid:
    """The q-adic sequence itself: phi is the identity."""
    return PartitionGrid(q, depth, qadic_grid(q, depth).points)


def power_table(q: int, depth: int, exponent: float = 2.0) -> PartitionGrid:
    """Refining table with points (i/q**n)**exponent (exponent finite and > 0,
    and small enough that no two points round to the same float).

    For exponent 2 the associated time change is the square root map.
    """
    if not (math.isfinite(exponent) and exponent > 0):
        raise ValidationError(f"power-table exponent must be finite and > 0, got {exponent}")
    points = qadic_grid(q, depth).points ** exponent
    if not np.all(np.diff(points) > 0):
        raise ValidationError(
            f"power-table exponent {exponent} makes neighbouring level-{depth} points "
            "equal in float64")
    points.setflags(write=False)  # handed over, not copied
    return PartitionGrid(q, depth, points)


def random_refining_table(q: int, depth: int, seed: int = 0) -> PartitionGrid:
    """Seeded random dense-looking q-refining table.

    Level by level, each interval is split into q parts with
    Dirichlet(``DIRICHLET_CONCENTRATION``) weights, which keeps points
    strictly increasing.
    """
    check_branching(q)  # before the budget, whose digit count needs q >= 2
    check_interval_budget(q, depth)
    rng = np.random.default_rng(seed)
    pts = np.empty(q ** depth + 1, dtype=np.float64)
    pts[0], pts[-1] = 0.0, 1.0
    for n in range(depth):
        w = rng.dirichlet(np.full(q, DIRICHLET_CONCENTRATION), size=q ** n)
        np.cumsum(w, axis=1, out=w)
        cuts = w[:, :-1]
        parents = pts[:: q ** (depth - n)]
        cuts *= np.diff(parents)[:, None]
        cuts += parents[:-1][:, None]
        pts[:: q ** (depth - n - 1)][:-1].reshape(q ** n, q)[:, 1:] = cuts
    pts.setflags(write=False)  # handed over, not copied
    return PartitionGrid(q, depth, pts)


def build_homeomorphism(q: int, points: np.ndarray) -> PartitionGrid:
    """The refining table whose finest level holds ``points``.

    The q**N + 1 points fix N, and ``PartitionGrid`` checks the rest.
    Coarser levels are strides of level N, so they cannot fail to nest.
    """
    return PartitionGrid(q, qadic_level(q, len(points) - 1), points)
