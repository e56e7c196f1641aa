"""Discrete p-th variation profiles and the sums built on them.

A level-n profile is t -> sum_j |x(t_{j+1} ^ t) - x(t_j ^ t)|^p along the
level-n grid; clamping at t means intervals beyond t contribute exactly
zero, so on grid points the profile is a prefix sum of |increment|^p terms.
That prefix sum runs in extended precision with a fixed sequential order:
it is one side of the exact y**2 change-of-variable identity, and in plain
float64 the identity's residuals at n=20 stop being exactly zero (0.4% zero
instead of 66%, sup 4.6e-14 instead of 2.2e-16; see ``_util``).  Every other
sum here is plain float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import cumsum_stable
from .errors import ValidationError
from .schauder import CoefficientArray, SampledPath, xi_profile

DEFAULT_EVAL_LEVEL = 10
SLOPE_TOL = 0.01          # |log-slope| per level below which a trend is bounded


@dataclass(frozen=True, eq=False)
class VariationProfile:
    """Discrete p-th variation curve of one path at one level."""

    p: float
    q: int
    level: int
    eval_indices: np.ndarray
    eval_points: np.ndarray
    values: np.ndarray
    grid_generator: str = "q-adic"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        idx = np.asarray(self.eval_indices, dtype=np.int64)
        pts = np.asarray(self.eval_points, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if not (idx.shape == pts.shape == vals.shape):
            raise ValidationError("eval_indices, eval_points and values must align")
        if np.any(np.diff(vals) < 0) or np.any(vals < 0):
            raise ValidationError("profile values must be nonnegative and non-decreasing")
        for name, arr in (("eval_indices", idx), ("eval_points", pts), ("values", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def terminal(self) -> float:
        """Profile value at the last evaluation point (t = 1 by default)."""
        return float(self.values[-1])


def _default_eval_indices(q: int, n: int, eval_level: int) -> np.ndarray:
    eval_level = min(n, eval_level)
    stride = q ** (n - eval_level)
    return np.arange(0, q ** n + 1, stride, dtype=np.int64)


def pvar_profile(
    path: SampledPath,
    p: float,
    eval_indices: np.ndarray | None = None,
    eval_level: int = DEFAULT_EVAL_LEVEL,
) -> VariationProfile:
    """Discrete p-th variation of ``path`` along its own grid.

    ``eval_indices`` select grid points where the profile is reported
    (defaults to the level-min(n, 10) subgrid to bound output size); they
    are indices, so membership in the grid is by construction.
    """
    if p <= 1:
        raise ValidationError(f"exponent p must be > 1, got {p}")
    if eval_level < 0:
        raise ValidationError(f"eval_level must be >= 0, got {eval_level}")
    n = path.level
    if eval_indices is None:
        eval_indices = _default_eval_indices(path.q, n, eval_level)
    else:
        eval_indices = np.asarray(eval_indices, dtype=np.int64)
        if eval_indices.size == 0:
            raise ValidationError("eval_indices must be nonempty")
        if np.any(eval_indices < 0) or np.any(eval_indices > path.q ** n):
            raise ValidationError("eval index off the grid")
        if np.any(np.diff(eval_indices) <= 0):
            raise ValidationError("eval_indices must be strictly increasing")
    terms = np.abs(path.increments()) ** p
    cum = np.concatenate(([0.0], cumsum_stable(terms)))
    return VariationProfile(
        p=p,
        q=path.q,
        level=n,
        eval_indices=eval_indices,
        eval_points=path.grid.points[eval_indices],
        values=cum[eval_indices],
        grid_generator=path.grid.generator,
        meta={"source": "pvar_profile"},
    )


@dataclass(frozen=True)
class TrendRow:
    p: float
    trend: str          # "bounded" | "growing" | "vanishing"
    slope: float        # per-level log slope over the tail half
    xi_last: float


def variation_index_estimate(coeffs: CoefficientArray, p_grid) -> tuple:
    """Classify the tail trend of the level diagnostics for each exponent.

    The slope of log xi_m against m is fit over the last half of stored
    levels; |slope| <= ``SLOPE_TOL`` counts as bounded.  All-zero tails (e.g.
    piecewise-affine paths) are vanishing by convention.
    """
    M = coeffs.num_levels
    if M < 4:
        raise ValidationError(f"need at least 4 coefficient levels, got {M}")
    rows = []
    start = M // 2
    ms = np.arange(start, M, dtype=np.float64)
    for p in p_grid:
        xs = xi_profile(coeffs, p)[start:]
        if np.all(xs == 0.0):
            rows.append(TrendRow(p=float(p), trend="vanishing", slope=-np.inf, xi_last=0.0))
            continue
        mask = xs > 0.0
        slope = float(np.polyfit(ms[mask], np.log(xs[mask]), 1)[0]) if mask.sum() > 1 else 0.0
        if slope > SLOPE_TOL:
            trend = "growing"
        elif slope < -SLOPE_TOL:
            trend = "vanishing"
        else:
            trend = "bounded"
        rows.append(TrendRow(p=float(p), trend=trend, slope=slope, xi_last=float(xs[-1])))
    return tuple(rows)


def _locate_on_grid(path: SampledPath, profile: VariationProfile) -> np.ndarray:
    """Indices of the profile's eval points inside the path's grid."""
    if path.grid.generator == "q-adic" and profile.grid_generator == "q-adic":
        if path.q != profile.q:
            raise ValidationError(f"grid mismatch: path q={path.q}, profile q={profile.q}")
        if path.level >= profile.level:
            scale = path.q ** (path.level - profile.level)
            return profile.eval_indices * scale
        scale = path.q ** (profile.level - path.level)
        idx, rem = np.divmod(profile.eval_indices, scale)
        if np.any(rem != 0):
            raise ValidationError("path grid does not contain all profile eval points")
        return idx
    pos = np.searchsorted(path.grid.points, profile.eval_points)
    pos = np.clip(pos, 0, path.grid.points.size - 1)
    if not np.array_equal(path.grid.points[pos], profile.eval_points):
        raise ValidationError("path grid does not contain all profile eval points")
    return pos


def stieltjes_against_profile(w: SampledPath, profile: VariationProfile) -> np.ndarray:
    """Left-point Riemann-Stieltjes sums of ``w`` against profile increments.

    Returns the cumulative integral at each profile eval point; the first
    entry is zero.  ``w`` must be sampled on a grid containing the eval
    points (checked by index arithmetic on q-adic grids).
    """
    idx = _locate_on_grid(w, profile)
    wv = w.samples[idx]
    dF = np.diff(profile.values)
    cum = np.concatenate(([0.0], np.cumsum(wv[:-1] * dF)))
    return cum
