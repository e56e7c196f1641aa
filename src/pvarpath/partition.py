"""Dyadic/q-adic grids, q-refining tables and digit/ancestor arithmetic.

Grid points are stored as floats but always generated from exact integer
ratios, and every structural question (membership, nesting, ancestry) is
decided by integer index arithmetic.  Float comparison appears only where a
user-supplied table is validated against its own stored data, where exact
equality of floats is the contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PartitionGrid:
    """One level of a partition of [0, 1] with ``q**level`` intervals.

    ``generator`` records provenance: "q-adic" grids have points exactly
    ``i / q**level``; "table" grids carry arbitrary strictly increasing
    points (e.g. from a time change).
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
        pts = _readonly(self.points)
        object.__setattr__(self, "points", pts)
        n_expected = self.q ** self.level + 1
        if pts.shape != (n_expected,):
            raise ValidationError(
                f"grid at level {self.level} must have {n_expected} points, got {pts.shape}"
            )
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValidationError("grid must start at 0 and end at 1")
        if np.any(np.diff(pts) <= 0):
            raise ValidationError("grid points must be strictly increasing")
        if self.generator == "q-adic":
            denom = float(self.q ** self.level)
            expected = np.arange(n_expected, dtype=np.float64) / denom
            if not np.array_equal(pts, expected):
                raise ValidationError("q-adic grid points must equal i / q**level exactly")

    @property
    def intervals(self) -> int:
        return self.q ** self.level

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

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


def digits(k: int, n: int, q: int) -> tuple:
    """Base-``q`` expansion (d_1, ..., d_n) of ``k`` with d_1 least significant."""
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
    if not 0 <= k < q ** n:
        raise ValidationError(f"index k={k} out of range [0, {q ** n}) at level {n}")
    ds = []
    rem = int(k)
    for _ in range(n):
        rem, d = divmod(rem, q)
        ds.append(d)
    return tuple(ds)


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


def ancestor_index(m: int, n: int, k: int, q: int) -> int:
    """Index of the level-``m`` interval containing level-``n`` interval ``k``."""
    if not 0 <= m < n:
        raise ValidationError(f"need 0 <= m < n, got m={m}, n={n}")
    if not 0 <= k < q ** n:
        raise ValidationError(f"index k={k} out of range [0, {q ** n}) at level {n}")
    return int(k) // q ** (n - m)


# ---------------------------------------------------------------------------
# Refining tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RefiningTable:
    """Levels 0..N of a q-refining partition sequence.

    The defining structure is nesting: point i at level n reappears as point
    q*i at level n+1.  This is the exact float equality t[n][i] == t[n+1][q*i]
    on the stored data.
    """

    q: int
    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("refining table must contain at least one level")
        lv = tuple(self.levels)
        object.__setattr__(self, "levels", lv)
        for n, grid in enumerate(lv):
            if grid.q != self.q:
                raise ValidationError(f"level {n} has q={grid.q}, table has q={self.q}")
            if grid.level != n:
                raise ValidationError(f"levels must be consecutive from 0; slot {n} holds level {grid.level}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def finest(self) -> PartitionGrid:
        return self.levels[-1]


@dataclass(frozen=True)
class RefiningReport:
    """Outcome of :func:`validate_refining`.  ``passed`` means no nesting
    violations; the mesh of the finest level is reported alongside (a density
    proxy, since no finite table can certify density)."""

    passed: bool
    violations: tuple
    mesh: float
    mesh_threshold: float | None = None

    @property
    def mesh_ok(self) -> bool | None:
        if self.mesh_threshold is None:
            return None
        return self.mesh <= self.mesh_threshold


def validate_refining(table: RefiningTable, mesh_threshold: float | None = None) -> RefiningReport:
    """Check the nesting identity level by level and report the finest mesh."""
    violations = []
    for n in range(table.depth):
        coarse = table.levels[n].points
        fine = table.levels[n + 1].points
        nested = fine[:: table.q]
        bad = np.nonzero(coarse != nested)[0]
        violations.extend((n, int(i)) for i in bad)
    return RefiningReport(
        passed=not violations,
        violations=tuple(violations),
        mesh=table.finest.mesh,
        mesh_threshold=mesh_threshold,
    )


def qadic_table(q: int, depth: int) -> RefiningTable:
    """The q-adic table itself: levels 0..depth of exact grids."""
    return RefiningTable(q=q, levels=tuple(qadic_grid(q, n) for n in range(depth + 1)))


def power_table(q: int, depth: int, exponent: float = 2.0) -> RefiningTable:
    """Refining table with points (i/q**n)**exponent (exponent > 0).

    For exponent 2 the associated time change is the square root map.
    """
    if exponent <= 0:
        raise ValidationError("exponent must be positive")
    grids = []
    for n in range(depth + 1):
        base = qadic_grid(q, n).points
        pts = base ** exponent
        grids.append(PartitionGrid(q=q, level=n, points=pts, generator="table"))
    return RefiningTable(q=q, levels=tuple(grids))


def random_refining_table(q: int, depth: int, seed: int = 0, concentration: float = 5.0) -> RefiningTable:
    """Seeded random dense-looking q-refining table.

    Each interval is split into q parts with Dirichlet(concentration) weights,
    which keeps points strictly increasing at every level.
    """
    check_interval_budget(q, depth)
    rng = np.random.default_rng(seed)
    grids = [qadic_grid(q, 0)]
    pts = grids[0].points
    for n in range(depth):
        w = rng.dirichlet(np.full(q, concentration), size=q ** n)
        cuts = np.cumsum(w, axis=1)[:, :-1]
        left = pts[:-1][:, None]
        length = np.diff(pts)[:, None]
        inner = left + length * cuts
        fine = np.empty(q ** (n + 1) + 1, dtype=np.float64)
        fine[:: q] = pts
        for d in range(1, q):
            fine[d::q] = inner[:, d - 1]
        grids.append(PartitionGrid(q=q, level=n + 1, points=fine, generator="table"))
        pts = fine
    return RefiningTable(q=q, levels=tuple(grids))


# ---------------------------------------------------------------------------
# Homeomorphism realized on a finite table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HomeomorphismTable:
    """Finite-level realization of the increasing time change phi.

    Pairs (s_i, i/q**N) at the finest stored level N pin phi exactly at table
    points; between them evaluation is monotone piecewise-linear, which is the
    simplest admissible interpolant since phi is only determined on the table.
    """

    q: int
    depth: int
    s_points: np.ndarray
    u_points: np.ndarray

    def __post_init__(self):
        s = _readonly(self.s_points)
        u = _readonly(self.u_points)
        object.__setattr__(self, "s_points", s)
        object.__setattr__(self, "u_points", u)
        if s.shape != u.shape or s.ndim != 1:
            raise ValidationError("s and u tables must be 1-d arrays of equal length")
        if s.shape[0] != self.q ** self.depth + 1:
            raise ValidationError("table length must be q**depth + 1")
        if np.any(np.diff(s) <= 0) or np.any(np.diff(u) <= 0):
            raise ValidationError("homeomorphism table must be strictly increasing")
        if s[0] != 0.0 or s[-1] != 1.0 or u[0] != 0.0 or u[-1] != 1.0:
            raise ValidationError("homeomorphism must fix 0 and 1")

    def forward(self, t):
        """phi(t): table-point exact, piecewise-linear elsewhere."""
        return np.interp(t, self.s_points, self.u_points)

    def inverse(self, u):
        """phi^{-1}(u): table-point exact, piecewise-linear elsewhere."""
        return np.interp(u, self.u_points, self.s_points)

    def source_grid(self, level: int) -> PartitionGrid:
        """Level-``level`` grid of the refining sequence (phi-preimages)."""
        if not 0 <= level <= self.depth:
            raise ValidationError(f"level {level} exceeds table depth {self.depth}")
        stride = self.q ** (self.depth - level)
        return PartitionGrid(self.q, level, self.s_points[::stride], generator="table")


def build_homeomorphism(table: RefiningTable) -> HomeomorphismTable:
    """Pair the finest table level with the q-adic grid: phi(s_i) = i/q**N."""
    report = validate_refining(table)
    if not report.passed:
        raise ValidationError(
            f"refining table fails nesting at (level, index) {report.violations[:5]}"
        )
    fine = table.finest
    u = qadic_grid(table.q, fine.level).points
    return HomeomorphismTable(q=table.q, depth=fine.level, s_points=fine.points, u_points=u)
