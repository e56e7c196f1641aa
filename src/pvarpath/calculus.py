"""Pathwise compensated-sum integrals, change-of-variable residuals,
transported norms, and the stability inequalities they satisfy.

A norm is a plain function of a ``SampledPath``: ``SampledPath.sup_norm``,
``holder_norm`` at a fixed exponent, or any function a caller writes.

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
        """All derivatives of a polynomial given finite ascending coefficients,
        whose derivative coefficients must be finite too."""
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError(
                f"polynomial coefficients must be finite, got {coeffs.tolist()}")
        if coeffs.size == 0:
            coeffs = np.zeros(1)
        chains = [coeffs]
        with np.errstate(over="ignore"):
            while chains[-1].size > 1:
                c = chains[-1]
                chains.append(c[1:] * np.arange(1, c.size))
        if not all(np.all(np.isfinite(c)) for c in chains):
            raise ValidationError(
                f"derivatives of the polynomial with coefficients {coeffs.tolist()} "
                "overflow float64")
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
    left = y.values[:-1]
    terms = np.zeros_like(d)
    dk = np.ones_like(d)
    # past a polynomial's degree (f.order) every Taylor term is exactly zero
    for k in range(1, min(p, f.order + 1)):
        dk = dk * d
        terms = terms + f.deriv(k)(left) * dk / math.factorial(k)
    return cumsum_stable(terms)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    eval_points: np.ndarray
    residuals: np.ndarray
    sup: float


def _finite_evaluation(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValidationError(
            "the function f or one of its derivatives overflows float64 on this path")
    return values


def change_of_variable_residual(f: FunctionWithDerivatives, y: SampledPath, p) -> ResidualReport:
    """Defect of the discrete change-of-variable identity at every grid point.

    residual(t) = f(y_t) - f(y_0) - compensated_sum(t)
                  - (1/p!) * left-point integral of f^(p)(y) against the
                  level-n variation profile of y.

    The correction uses the discrete level-n profile, so for f(y) = y**2 and
    p = 2 the residual is zero in exact arithmetic at every grid point.  If
    p exceeds a polynomial's degree, f^(p) and the correction vanish and are
    not computed, so any even p runs.  If f or one of its derivatives
    overflows float64 on the path's values, ``ValidationError`` is raised.
    """
    p = _check_even_order(p)
    if f.order < p and not f.exhaustive:
        raise ValidationError(f"need derivatives up to order {p}")
    sam = y.values
    with np.errstate(over="ignore", invalid="ignore"):
        comp = follmer_sum(f, y, p)
        resid = f(sam) - f(sam[0]) - comp
        if p <= f.order:  # else f^(p) of a polynomial, and the correction, vanish
            profile = pvar_profile(y, p, eval_level=y.level)
            w = SampledPath(grid=y.grid, values=_finite_evaluation(f.deriv(p)(sam)))
            resid = resid - stieltjes_against_profile(w, profile) / math.factorial(p)
        resid = _finite_evaluation(resid)
    return ResidualReport(
        eval_points=y.grid.points,
        residuals=resid,
        sup=float(np.max(np.abs(resid))),
    )


# ---------------------------------------------------------------------------
# Holder norms and transported norms
# ---------------------------------------------------------------------------


def holder_quotient(points: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """max |v_j - v_i| / (t_j - t_i)**alpha over all grid pairs (O(N^2)).

    The exponent must satisfy 0 < alpha < 1, and the pair count may be at
    most 64 times the interval budget."""
    if not 0 < alpha < 1:
        raise ValidationError(f"Holder exponent alpha must satisfy 0 < alpha < 1, got {alpha}")
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


def holder_norm(g: SampledPath, alpha: float) -> float:
    """|g(0)| plus the Holder quotient of ``g`` over all grid pairs."""
    return abs(float(g.values[0])) + holder_quotient(g.grid.points, g.values, alpha)


def transported_norm(y: SampledPath, xbar: SampledPath, norm) -> float:
    """Transported-space norm of y: ``norm`` of the multiplier y / xbar.

    ``norm`` is any function of a ``SampledPath``, such as
    ``SampledPath.sup_norm`` or ``lambda g: holder_norm(g, alpha)``."""
    if not y.grid.same_as(xbar.grid):
        raise ValidationError("y and xbar must share one grid")
    ref = xbar.values
    if np.min(ref) <= 0:
        raise ValidationError("reference path must be strictly positive")
    return norm(SampledPath(grid=y.grid, values=y.values / ref))


# ---------------------------------------------------------------------------
# Stability of the prescribed variation under multiplier perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs_l1: float
    rhs_local_lip: float


def stability_bound(g1: SampledPath, g2: SampledPath, p: float, c_p: float) -> StabilityReport:
    """Evaluate both sides of the variation-stability inequalities.

    lhs: sup over grid prefixes of |c_p * integral of (|g1|^p - |g2|^p)|,
    i.e. the uniform distance of the two predicted variation curves.
    rhs_l1: c_p times the L^1 quadrature of | |g1|^p - |g2|^p |.
    rhs_local_lip: p c_p (||g1||^(p-1) + ||g2||^(p-1)) ||g1 - g2|| with
    ``SampledPath.sup_norm`` as ||.||, from the mean value theorem applied to
    |.|^p pointwise.  The chain lhs <= rhs_l1 <= rhs_local_lip is verified up
    to quadrature slack and a violation raises.  c_p must be finite and > 0.
    """
    if not g1.grid.same_as(g2.grid):
        raise ValidationError("g1 and g2 must share one grid")
    check_exponent(p)
    if not (math.isfinite(c_p) and c_p > 0):
        raise ValidationError(f"constant c_p must be finite and > 0, got {c_p}")
    dens = np.abs(g1.values) ** p - np.abs(g2.values) ** p
    dt = np.diff(g1.grid.points)
    prefix = np.concatenate(([0.0], np.cumsum(dens[:-1] * dt)))
    lhs = c_p * float(np.max(np.abs(prefix)))
    rhs_l1 = c_p * float(np.sum(np.abs(dens[:-1]) * dt))
    n1 = g1.sup_norm()
    n2 = g2.sup_norm()
    ndiff = float(np.max(np.abs(g1.values - g2.values)))
    rhs_lip = p * c_p * (n1 ** (p - 1) + n2 ** (p - 1)) * ndiff
    slack = 1e-9 * (1.0 + abs(lhs) + abs(rhs_l1) + abs(rhs_lip))
    if lhs > rhs_l1 + slack or rhs_l1 > rhs_lip + slack:
        raise ValidationError(
            f"stability chain violated: lhs={lhs!r}, rhs_l1={rhs_l1!r}, "
            f"rhs_local_lip={rhs_lip!r}"
        )
    return StabilityReport(lhs=lhs, rhs_l1=rhs_l1, rhs_local_lip=rhs_lip)
