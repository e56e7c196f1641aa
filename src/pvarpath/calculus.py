"""Pathwise compensated-sum integrals, change-of-variable residuals,
transported norms, and the stability inequalities they satisfy.

For even p, the pathwise integral of f'(y) dy along level n is the
compensated sum over grid intervals of the first p-1 Taylor terms of f at
the left endpoint.  Together with the correction term (1/p!) * integral of
f^(p)(y) against the level-n variation profile, it reproduces f(y_t) -
f(y_0) up to a residual that vanishes as the level grows; for f(y) = y**2
and p = 2 the discrete identity telescopes exactly, which is used as a
machine-precision self-test throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import cumsum_stable
from .errors import BudgetError, ValidationError, check_exponent
from .partition import MAX_INTERVALS_ENV, interval_budget
from .schauder import SampledPath
from .variation import pvar_profile, stieltjes_against_profile


# ---------------------------------------------------------------------------
# Functions with explicit derivatives
# ---------------------------------------------------------------------------


def _zero(v):
    return np.zeros_like(np.asarray(v, dtype=np.float64))


@dataclass(frozen=True)
class FunctionWithDerivatives:
    """A function together with user-supplied derivative evaluators.

    ``funcs[k]`` evaluates the k-th derivative; ``exhaustive`` marks that all
    higher derivatives vanish identically (polynomials), in which case any
    order may be requested.
    """

    funcs: tuple
    exhaustive: bool = False

    def __post_init__(self):
        if not self.funcs:
            raise ValidationError("need at least the function itself")
        object.__setattr__(self, "funcs", tuple(self.funcs))

    @property
    def order(self) -> int:
        return len(self.funcs) - 1

    def deriv(self, k: int):
        if k < 0:
            raise ValidationError("derivative order must be >= 0")
        if k < len(self.funcs):
            return self.funcs[k]
        if self.exhaustive:
            return _zero
        raise ValidationError(
            f"derivative of order {k} not supplied (have up to {self.order})"
        )

    def __call__(self, v):
        return self.funcs[0](v)

    @classmethod
    def polynomial(cls, coefficients) -> "FunctionWithDerivatives":
        """All derivatives of a polynomial given finite ascending coefficients."""
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError(
                f"polynomial coefficients must be finite, got {coeffs.tolist()}")
        if coeffs.size == 0:
            coeffs = np.zeros(1)
        chains = [coeffs]
        while chains[-1].size > 1:
            c = chains[-1]
            chains.append(c[1:] * np.arange(1, c.size))
        funcs = [
            (lambda cc: (lambda v: np.polynomial.polynomial.polyval(v, cc)))(c)
            for c in chains
        ]
        return cls(funcs=tuple(funcs), exhaustive=True)


# ---------------------------------------------------------------------------
# Compensated sums and the change-of-variable residual
# ---------------------------------------------------------------------------


def _check_even_order(p) -> int:
    if not (float(p).is_integer() and int(p) >= 2 and int(p) % 2 == 0):
        raise ValidationError(
            f"compensated sums are defined for even integer p, got {p}; "
            "noninteger orders are out of scope"
        )
    return int(p)


def follmer_sum(f: FunctionWithDerivatives, y: SampledPath, p) -> np.ndarray:
    """Level-n compensated sum of f'(y) dy at every grid point.

    Entry i is the sum over grid intervals strictly before point i of
    sum_{k=1}^{p-1} f^(k)(y(t_j)) / k! * (increment)^k, summed by
    ``_util.cumsum_stable`` like the variation profile it is compared
    against (``_util`` states the precision rule).
    """
    p = _check_even_order(p)
    if f.order < p - 1 and not f.exhaustive:
        raise ValidationError(f"need derivatives up to order {p - 1}")
    d = y.increments()
    left = y.samples[:-1]
    terms = np.zeros_like(d)
    dk = np.ones_like(d)
    for k in range(1, p):
        dk = dk * d
        terms = terms + f.deriv(k)(left) * dk / math.factorial(k)
    return cumsum_stable(terms)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    eval_points: np.ndarray
    residuals: np.ndarray
    sup: float


def change_of_variable_residual(f: FunctionWithDerivatives, y: SampledPath, p) -> ResidualReport:
    """Defect of the discrete change-of-variable identity at every grid point.

    residual(t) = f(y_t) - f(y_0) - compensated_sum(t)
                  - (1/p!) * left-point integral of f^(p)(y) against the
                  level-n variation profile of y.

    The correction uses the discrete level-n profile, so for f(y) = y**2 and
    p = 2 the residual is zero in exact arithmetic at every grid point.
    """
    p = _check_even_order(p)
    if f.order < p and not f.exhaustive:
        raise ValidationError(f"need derivatives up to order {p}")
    profile = pvar_profile(y, p, eval_level=y.level)
    comp = follmer_sum(f, y, p)
    w = SampledPath(grid=y.grid, values=f.deriv(p)(y.samples))
    corr = stieltjes_against_profile(w, profile) / math.factorial(p)
    sam = y.samples
    resid = f(sam) - f(sam[0]) - comp - corr
    return ResidualReport(
        eval_points=y.grid.points,
        residuals=resid,
        sup=float(np.max(np.abs(resid))),
    )


# ---------------------------------------------------------------------------
# Grid norms and transported norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormSelector:
    """Choice of function norm evaluated on grid samples."""

    kind: str
    alpha: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("holder", "tv_plus_sup", "lp", "sup"):
            raise ValidationError(f"unknown norm kind {self.kind!r}")
        if self.kind == "holder" and not (self.alpha and 0 < self.alpha < 1):
            raise ValidationError("holder selector needs 0 < alpha < 1")
        if self.kind == "lp" and not (self.p and self.p >= 1):
            raise ValidationError("lp selector needs p >= 1")

    @classmethod
    def holder(cls, alpha: float) -> "NormSelector":
        return cls(kind="holder", alpha=alpha)

    @classmethod
    def tv_plus_sup(cls) -> "NormSelector":
        return cls(kind="tv_plus_sup")

    @classmethod
    def lp(cls, p: float) -> "NormSelector":
        return cls(kind="lp", p=p)

    @classmethod
    def sup(cls) -> "NormSelector":
        return cls(kind="sup")


def holder_quotient(points: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """max |v_j - v_i| / (t_j - t_i)**alpha over all grid pairs (O(N^2)).

    The pair count may be at most 64 times the interval budget."""
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    n = pts.size
    pairs = n * (n - 1) // 2
    budget = 64 * interval_budget()
    if pairs > budget:
        raise BudgetError(
            f"{n} points give {pairs} pairs; the pair budget is {budget} "
            f"(64 x {MAX_INTERVALS_ENV})"
        )
    best = 0.0
    chunk = max(1, (1 << 22) // n)
    for s in range(0, n - 1, chunk):
        e = min(n - 1, s + chunk)
        dt = pts[None, :] - pts[s:e, None]
        dv = np.abs(vals[None, :] - vals[s:e, None])
        mask = dt > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.where(mask, dv / np.where(mask, dt, 1.0) ** alpha, 0.0)
        best = max(best, float(np.max(quot)))
    return best


def grid_norm(g: SampledPath, selector: NormSelector) -> float:
    """Norm of the grid restriction of ``g`` under the selected norm.

    sup and total variation run over grid points; the Holder quotient over
    all grid pairs; L^p uses left-endpoint quadrature on the grid.
    """
    v = g.samples
    if selector.kind == "sup":
        return float(np.max(np.abs(v)))
    if selector.kind == "tv_plus_sup":
        return float(np.max(np.abs(v)) + np.sum(np.abs(np.diff(v))))
    if selector.kind == "lp":
        dt = np.diff(g.grid.points)
        return float(np.sum(np.abs(v[:-1]) ** selector.p * dt) ** (1.0 / selector.p))
    return abs(float(v[0])) + holder_quotient(g.grid.points, v, selector.alpha)


def transported_norm(y: SampledPath, xbar: SampledPath, selector: NormSelector) -> float:
    """Norm of the multiplier y / xbar, the transported-space norm of y."""
    if not y.grid.same_as(xbar.grid):
        raise ValidationError("y and xbar must share one grid")
    ref = xbar.samples
    if np.min(ref) <= 0:
        raise ValidationError("reference path must be strictly positive")
    ratio = SampledPath(grid=y.grid, values=y.samples / ref)
    return grid_norm(ratio, selector)


# ---------------------------------------------------------------------------
# Stability of the prescribed variation under multiplier perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs_l1: float
    rhs_local_lip: float


def stability_bound(
    g1: SampledPath,
    g2: SampledPath,
    p: float,
    c_p: float,
    K: float = 1.0,
    selector: NormSelector | None = None,
) -> StabilityReport:
    """Evaluate both sides of the variation-stability inequalities.

    lhs: sup over grid prefixes of |c_p * integral of (|g1|^p - |g2|^p)|,
    i.e. the uniform distance of the two predicted variation curves.
    rhs_l1: c_p times the L^1 quadrature of | |g1|^p - |g2|^p |.
    rhs_local_lip: p c_p K^p (||g1||^(p-1) + ||g2||^(p-1)) ||g1 - g2|| in the
    selected norm (sup by default).  The chain lhs <= rhs_l1 <= rhs_local_lip
    is verified up to quadrature slack and a violation raises.
    """
    if not g1.grid.same_as(g2.grid):
        raise ValidationError("g1 and g2 must share one grid")
    check_exponent(p)
    if selector is None:
        selector = NormSelector.sup()
    dens = np.abs(g1.samples) ** p - np.abs(g2.samples) ** p
    dt = np.diff(g1.grid.points)
    prefix = np.concatenate(([0.0], np.cumsum(dens[:-1] * dt)))
    lhs = c_p * float(np.max(np.abs(prefix)))
    rhs_l1 = c_p * float(np.sum(np.abs(dens[:-1]) * dt))
    n1 = grid_norm(g1, selector)
    n2 = grid_norm(g2, selector)
    diff = SampledPath(grid=g1.grid, values=g1.samples - g2.samples)
    ndiff = grid_norm(diff, selector)
    rhs_lip = p * c_p * K ** p * (n1 ** (p - 1) + n2 ** (p - 1)) * ndiff
    slack = 1e-9 * (1.0 + abs(lhs) + abs(rhs_l1) + abs(rhs_lip))
    if lhs > rhs_l1 + slack or rhs_l1 > rhs_lip + slack:
        raise ValidationError(
            f"stability chain violated: lhs={lhs!r}, rhs_l1={rhs_l1!r}, "
            f"rhs_local_lip={rhs_lip!r} (check the embedding constant K)"
        )
    return StabilityReport(lhs=lhs, rhs_l1=rhs_l1, rhs_local_lip=rhs_lip)
