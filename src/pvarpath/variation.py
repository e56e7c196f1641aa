"""Discrete p-th variation profiles and the sums built on them.

A level-n profile is t -> sum_j |x(t_{j+1} ^ t) - x(t_j ^ t)|^p along the
level-n grid; clamping at t means intervals beyond t contribute exactly
zero, so on grid points the profile is a prefix sum of |increment|^p terms.
That prefix sum is ``_util.cumsum_stable``, because it is one side of the
exact y**2 change-of-variable identity (``_util`` states the precision rule
and its measurement).  Every other sum here is plain float64.

A profile is read on its path's own grid, at the points of one coarser
level m of the same partition sequence (every q**(n - m)-th point): where
it is read is a level, never a list of points, and a weight integrated
against it is sampled on that same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import cumsum_stable
from .errors import ValidationError, check_exponent
from .partition import PartitionGrid, frozen_floats
from .schauder import CoefficientArray, SampledPath, xi_profile

DEFAULT_EVAL_LEVEL = 10
SLOPE_TOL = 0.01          # |log-slope| per level below which a trend is bounded


@dataclass(frozen=True, eq=False)
class VariationProfile:
    """Discrete p-th variation curve of a path on ``grid``.

    ``values`` are reported on the level-``eval_level`` subgrid, every
    ``stride``-th point of ``grid``; an ``eval_level`` above the grid's own
    level is clamped to it.
    """

    grid: PartitionGrid
    eval_level: int
    values: np.ndarray

    def __post_init__(self):
        if self.eval_level < 0:
            raise ValidationError(f"eval_level must be >= 0, got {self.eval_level}")
        object.__setattr__(self, "eval_level", min(int(self.eval_level), self.grid.level))
        vals = frozen_floats(self.values)
        if vals.shape != (self.q ** self.eval_level + 1,):
            raise ValidationError(
                f"a level-{self.eval_level} profile has {self.q ** self.eval_level + 1} "
                f"values, got {vals.shape}"
            )
        if np.any(np.diff(vals) < 0) or np.any(vals < 0):
            raise ValidationError("profile values must be nonnegative and non-decreasing")
        object.__setattr__(self, "values", vals)

    @property
    def q(self) -> int:
        return self.grid.q

    @property
    def level(self) -> int:
        """Level of the grid the variation sums run along."""
        return self.grid.level

    @property
    def stride(self) -> int:
        """Grid points per report point."""
        return self.q ** (self.level - self.eval_level)

    @property
    def eval_points(self) -> np.ndarray:
        return self.grid.restrict(self.eval_level).points

    @property
    def terminal(self) -> float:
        """Profile value at t = 1."""
        return float(self.values[-1])


def pvar_profile(
    path: SampledPath, p: float, eval_level: int = DEFAULT_EVAL_LEVEL
) -> VariationProfile:
    """Discrete p-th variation of ``path`` along its own grid.

    The profile is reported on the level-min(n, ``eval_level``) subgrid
    (level 10 by default, to bound output size); ``eval_level=path.level``
    reports every grid point and ``eval_level=0`` only t = 0 and t = 1.
    A sum that overflows float64 raises ``ValidationError``.
    """
    check_exponent(p)
    terms = path.increments()
    with np.errstate(over="ignore"):
        np.abs(terms, out=terms)
        terms **= p  # in place, as ``np.abs(increments) ** p`` would round
        cum = cumsum_stable(terms)
    del terms
    if not np.isfinite(cum[-1]):
        raise ValidationError(f"the p={p} variation of this path overflows float64")
    stride = path.q ** max(path.level - eval_level, 0)
    # a compact copy, so a coarse profile does not keep the full sum alive
    values = np.ascontiguousarray(cum[::stride])
    values.setflags(write=False)
    return VariationProfile(grid=path.grid, eval_level=eval_level, values=values)


@dataclass(frozen=True)
class TrendRow:
    trend: str          # "bounded" | "growing" | "vanishing"
    slope: float        # per-level log slope over the tail half


def variation_index_estimate(coeffs: CoefficientArray, p) -> TrendRow:
    """Classify the tail trend of the level-p diagnostics.

    The slope of log xi_m against m is fit over the last half of stored
    levels; |slope| <= ``SLOPE_TOL`` counts as bounded.  An all-zero tail
    (e.g. a piecewise-affine path) is vanishing by convention.
    """
    M = coeffs.num_levels
    if M < 4:
        raise ValidationError(f"need at least 4 coefficient levels, got {M}")
    start = M // 2
    ms = np.arange(start, M, dtype=np.float64)
    xs = xi_profile(coeffs, p)[start:]
    if np.all(xs == 0.0):
        return TrendRow(trend="vanishing", slope=-np.inf)
    mask = xs > 0.0
    slope = float(np.polyfit(ms[mask], np.log(xs[mask]), 1)[0]) if mask.sum() > 1 else 0.0
    if slope > SLOPE_TOL:
        trend = "growing"
    elif slope < -SLOPE_TOL:
        trend = "vanishing"
    else:
        trend = "bounded"
    return TrendRow(trend=trend, slope=slope)


def stieltjes_against_profile(w: SampledPath, profile: VariationProfile) -> np.ndarray:
    """Left-point Riemann-Stieltjes sums of ``w`` against profile increments.

    ``w`` must be sampled on the profile's grid; it is read at the profile's
    report points.  Returns the cumulative integral at each of them; the
    first entry is zero.
    """
    if not w.grid.same_as(profile.grid):
        raise ValidationError("the weight must be sampled on the profile's grid")
    wv, vals = w.values[:: profile.stride], profile.values
    out = np.empty(vals.size)
    out[0] = 0.0
    inc = out[1:]
    np.subtract(vals[1:], vals[:-1], out=inc)  # the profile's increments
    inc *= wv[:-1]
    np.cumsum(inc, out=inc)
    return out
