"""Haar/Schauder bases (dyadic and q-adic) and coefficient transforms.

The level-m basis functions on a parent interval are built from the
orthonormal sign table gamma[l, d] (rows l = 1..q-1, children d = 0..q-1):
the step function takes value q**(m/2) * gamma[l, d] on child d, and the
tent function is its running integral.  For q = 2 the single row is (1, -1)
and everything reduces to the classical dyadic system.

Synthesis and analysis are a pair of inverse pyramid passes over the same
(q**m, q-1) coefficient levels.  Each level-m step compares the samples at
the q-1 interior children of every parent with the linear interpolation of
the parent's endpoints: the difference is q**(-m/2-1) * theta_m @ CUM, where
CUM[l-1, d-1] = sum_{d' < d} gamma[l, d'] for children d = 1..q-1 (columns
1..q-1 of ``gamma_cumulative``).  Both passes read and write the level-n
samples through the same strided views.  Analysis solves that relation for
theta_m; synthesis writes interpolation plus detail into the new points and
never rewrites a coarser one, so values at a level-m grid point never
receive contributions from levels >= m (exact zeros, not small floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, check_branching, check_exponent
from .partition import (
    MAX_INTERVALS_ENV,
    PartitionGrid,
    frozen_floats,
    interval_budget,
    qadic_grid,
    qadic_level,
)

# ---------------------------------------------------------------------------
# The sign table gamma and its derived quantities
# ---------------------------------------------------------------------------


def gamma(q: int, l: int, d: int) -> float:
    """Entry (l, d) of the child sign table.

    Positive sqrt(q / (l(l+1))) on children 0..l-1, the balancing negative
    value -sqrt(q l / (l+1)) on child l, zero beyond.  Rows have mean zero
    and are orthonormal under the uniform child weight 1/q.
    """
    if not 1 <= l <= q - 1:
        raise ValidationError(f"branch index l={l} out of range [1, {q - 1}]")
    if not 0 <= d <= q - 1:
        raise ValidationError(f"child index d={d} out of range [0, {q - 1}]")
    if d <= l - 1:
        return math.sqrt(q / (l * (l + 1)))
    if d == l:
        return -math.sqrt(q * l / (l + 1))
    return 0.0


def gamma_rows(q: int) -> np.ndarray:
    """Full (q-1, q) sign table; row index is l-1.

    Filled in one pass with the entries of ``gamma`` bit for bit (l, l+1 and
    q*l are exact in float64).  Its (q-1)*q entries may hold at most the
    interval budget, checked before the table is filled.
    """
    check_branching(q)
    budget = interval_budget()
    if (q - 1) * q > budget:
        raise BudgetError(
            f"sign table for q={q} needs {(q - 1) * q} entries; "
            f"budget is {budget} (override with {MAX_INTERVALS_ENV})"
        )
    l = np.arange(1, q, dtype=np.float64)
    out = np.where(np.arange(q) < l[:, None], np.sqrt(q / (l * (l + 1)))[:, None], 0.0)
    out.ravel()[1::q + 1] = -np.sqrt(q * l / (l + 1))  # the entries (l-1, l)
    return out


def gamma_cumulative(q: int) -> np.ndarray:
    """Prefix sums over children: CUM[l-1, d] = sum_{d' < d} gamma[l, d'].

    Shape (q-1, q+1); column q is the full row sum (zero up to rounding).
    """
    rows = gamma_rows(q)
    cum = np.zeros((q - 1, q + 1), dtype=np.float64)
    cum[:, 1:] = np.cumsum(rows, axis=1)
    return cum


def eta_all(a, q: int) -> np.ndarray:
    """All q child values of the branch combination defined by weights ``a``.

    This is the one rule for branch weights: q-1 finite values, not all zero,
    whose child values are finite too (1e308 weights overflow them).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (q - 1,):
        raise ValidationError(f"branch weights must have length q-1={q - 1}, got {a.shape}")
    if not np.any(a != 0.0):
        raise ValidationError("branch weights must not be all zero")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = a @ gamma_rows(q)
    if not np.all(np.isfinite(eta)):
        raise ValidationError(
            f"branch weights must be finite, with finite child values, got {a.tolist()}")
    return eta


# ---------------------------------------------------------------------------
# Pointwise basis evaluation (half-open child convention)
# ---------------------------------------------------------------------------


def _check_indices(q: int, m: int, k: int, l: int) -> None:
    if m < 0:
        raise ValidationError(f"level m must be >= 0, got {m}")
    if not 0 <= k < q ** m:
        raise ValidationError(f"position k={k} out of range [0, {q ** m}) at level {m}")
    if not 1 <= l <= q - 1:
        raise ValidationError(f"branch index l={l} out of range [1, {q - 1}]")


def haar_eval(q: int, m: int, k: int, l: int, t):
    """Step basis function at ``t``; children are half-open [left, right).

    Evaluation is honest pointwise float arithmetic: ``t`` is taken at face
    value, so for bases whose breakpoints are not binary floats the sample
    lands in the child containing the float, as it should.
    """
    _check_indices(q, m, k, l)
    t_arr = np.asarray(t, dtype=np.float64)
    u = t_arr * q ** (m + 1) - k * q
    inside = (u >= 0.0) & (u < q)
    d = np.clip(np.floor(u).astype(np.int64), 0, q - 1)
    vals = np.where(inside, q ** (0.5 * m) * gamma_rows(q)[l - 1][d], 0.0)
    return float(vals) if np.isscalar(t) else vals


def schauder_eval(q: int, m: int, k: int, l: int, t):
    """Tent basis function at ``t``: the running integral of the step basis.

    Closed-form piecewise-linear evaluation; zero outside the support and at
    both endpoints (the integrand has mean zero over the parent).
    """
    _check_indices(q, m, k, l)
    t_arr = np.asarray(t, dtype=np.float64)
    u = t_arr * q ** (m + 1) - k * q
    inside = (u > 0.0) & (u < q)
    d = np.clip(np.floor(u).astype(np.int64), 0, q - 1)
    frac = u - d
    cum = gamma_cumulative(q)[l - 1]
    g = gamma_rows(q)[l - 1]
    scale = q ** (0.5 * m) / q ** (m + 1)
    vals = np.where(inside, scale * (cum[d] + g[d] * frac), 0.0)
    return float(vals) if np.isscalar(t) else vals


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientArray:
    """Ragged tent-coefficient array plus endpoint values.

    Level m holds an array of shape (q**m, q-1): one coefficient per parent
    interval and branch, (2**m, 1) for q = 2.  ``boundary`` carries
    (x(0), x(1)), which the expansions represent by an affine part.
    """

    q: int
    boundary: tuple
    levels: tuple

    def __post_init__(self):
        check_branching(self.q)
        b = (float(self.boundary[0]), float(self.boundary[1]))
        object.__setattr__(self, "boundary", b)
        if not all(np.isfinite(b)):
            raise ValidationError("boundary values must be finite")
        lv = []
        for m, arr in enumerate(self.levels):
            a = np.asarray(arr, dtype=np.float64)
            want = (self.q ** m, self.q - 1)
            if a.shape != want:
                raise ValidationError(f"level {m} must have shape {want}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValidationError(f"level {m} contains non-finite coefficients")
            a.setflags(write=False)
            lv.append(a)
        object.__setattr__(self, "levels", tuple(lv))

    @property
    def num_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Values of a continuous path on one partition grid.

    A path is its grid and its ``values``: read-only, finite, one per grid
    point.  A shifted path stores its shifted values, like any other path.
    How a path was made is recorded in the manifest of the artifact that
    holds it, not on the path.
    """

    grid: PartitionGrid
    values: np.ndarray

    def __post_init__(self):
        v = frozen_floats(self.values)
        if v.shape != (self.grid.size,):
            raise ValidationError(
                f"values shape {v.shape} does not match grid with {self.grid.size} points"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("path values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def q(self) -> int:
        return self.grid.q

    @property
    def level(self) -> int:
        return self.grid.level

    def increments(self) -> np.ndarray:
        """Consecutive differences of the values."""
        return np.diff(self.values)

    def restrict(self, level: int) -> "SampledPath":
        """Values on the coarser level-``level`` subgrid of the same sequence."""
        stride = self.q ** (self.level - level)
        return SampledPath(grid=self.grid.restrict(level), values=self.values[::stride])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def qadic_path(values, q: int = 2) -> SampledPath:
    """Wrap values (length q**n + 1) as a path on the q-adic level-n grid;
    ``qadic_level`` finds n and rejects a q that is not an integer >= 2."""
    values = np.asarray(values, dtype=np.float64)
    level = qadic_level(q, values.shape[0] - 1)
    return SampledPath(grid=qadic_grid(q, level), values=values)


# ---------------------------------------------------------------------------
# Synthesis and analysis: one pyramid pass each way
# ---------------------------------------------------------------------------


def _refinement(values: np.ndarray, q: int, n: int, m: int):
    """The level-(m+1) points inside each level-m interval, as a (q**m, q-1)
    view into the level-n samples, and their linear interpolation from the
    level-m points."""
    parents = values[:: q ** (n - m)]
    interp_w = np.arange(1, q, dtype=np.float64) / q
    base = parents[:-1][:, None] + np.diff(parents)[:, None] * interp_w[None, :]
    interior = values[:: q ** (n - m - 1)][:-1].reshape(q ** m, q)[:, 1:]
    return interior, base


def synthesize(coeffs: CoefficientArray, n: int) -> SampledPath:
    """Evaluate the expansion at every level-``n`` grid point.

    Level by level, the new interior points are filled by linear
    interpolation plus the level-m tents; points already filled are never
    written again.  Tent functions of level m >= n vanish at all level-n
    points, so coefficient levels beyond n-1 are ignored.
    """
    if n < 1:
        raise ValidationError(f"target level must be >= 1, got {n}")
    q = coeffs.q
    grid = qadic_grid(q, n)
    cum = gamma_cumulative(q)[:, 1:q]  # (q-1, q-1): row l-1, column d-1
    values = np.empty(q ** n + 1, dtype=np.float64)
    values[0], values[-1] = coeffs.boundary
    for m in range(n):
        interior, base = _refinement(values, q, n, m)
        interior[...] = base
        if m < coeffs.num_levels:
            interior += q ** (-0.5 * m - 1) * coeffs.levels[m] @ cum
    return SampledPath(grid=grid, values=values)


def analyze(path: SampledPath) -> CoefficientArray:
    """Recover coefficients of levels 0..n-1 from level-n grid samples.

    Inverts the synthesis step at each level: the interior-child details
    detail = q**(-m/2-1) * theta_m @ CUM are mapped back through the inverse
    of the (q-1) x (q-1) matrix CUM, which is invertible because the tent
    functions at one parent are linearly independent.  For q = 2 this is
    the classical closed form 2**(m/2) * (2 x(mid) - x(left) - x(right)).
    """
    if path.grid.generator != "q-adic":
        raise ValidationError("analysis requires samples on a q-adic grid")
    n = path.level
    if n < 1:
        raise ValidationError("analysis needs grid level >= 1")
    q = path.q
    vals = path.values
    inv = np.linalg.inv(gamma_cumulative(q)[:, 1:q])
    out = []
    for m in range(n):
        interior, base = _refinement(vals, q, n, m)
        detail = interior - base
        out.append(q ** (0.5 * m + 1) * detail @ inv)
    return CoefficientArray(q=q, boundary=(float(vals[0]), float(vals[-1])), levels=tuple(out))


# ---------------------------------------------------------------------------
# Coefficient diagnostics
# ---------------------------------------------------------------------------


def xi(coeffs: CoefficientArray, p: float, m: int) -> float:
    """Level-m variation diagnostic q**(-mp/2) * sum |theta|^p.

    The sum runs over positions and branches, so a uniform-magnitude array
    with level magnitude c_m gives (q**(m(1/p - 1/2)) c_m)**p * sum_l |a_l|**p,
    which is sum_l |a_l|**p for the reference magnitudes (and 1 for q = 2);
    that generalization beyond uniform-magnitude arrays is this library's
    convention.
    """
    check_exponent(p)
    return float(coeffs.q ** (-m * p / 2.0) * np.sum(np.abs(coeffs.levels[m]) ** p))


def xi_profile(coeffs: CoefficientArray, p: float) -> np.ndarray:
    return np.array([xi(coeffs, p, m) for m in range(coeffs.num_levels)])
