"""Reference paths with linear p-th variation and constructions on top.

The reference construction fixes one magnitude per level,
c_m = q**(m(1/2 - 1/p)), which normalizes the level diagnostic to 1, and
spreads it over all positions: theta_m[k, l] = c_m * sigma_m[k] * a_l, with
q-1 branch weights a (default all ones) and per-position signs sigma (free
for q = 2, all +1 for q >= 3).  Read at grid level n, only the levels
m < n count.  Scaled increments of such a path are partial sums of a
geometric series with sign/digit-dependent terms:

    q**(n/p) * (x((k+1)/q**n) - x(k/q**n)) = sum_{j=1..n} rho**j w_j(k)

with rho = q**-(1-1/p) and the single weight
formula w_j(k) = sigma_{n-j}[k // q**j] * eta_{d_j(k)}, where d_j(k) is the
j-th base-q digit of k and eta_d = sum_l a_l gamma[l, d] (eta = (a_1, -a_1)
for q = 2).  Because k -> (w_1(k), ..., w_n(k)) enumerates all possibilities
exactly once, level sums equal expectations over independent uniform
digits, and the limiting slope of the variation is the p-th absolute moment
of the full series, computed in ``oracle``.

The recipe multiplies a reference path x by g = (h' / C)**(1/p), where C is
that moment, so that y = g x has p-th variation t -> h(t) in the limit when
g itself has vanishing p-th variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, check_branching, check_exponent
from .oracle import VariationConstant, variation_constant
from .partition import (
    MAX_INTERVALS_ENV,
    PartitionGrid,
    check_interval_budget,
    digits_within,
    interval_budget,
    qadic_grid,
)
from .schauder import (
    CoefficientArray,
    SampledPath,
    analyze,
    eta_all,
    synthesize,
)
from .variation import pvar_profile, variation_index_estimate

SIGN_MATRIX_BUDGET = 2 ** 20


# ---------------------------------------------------------------------------
# Reference specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformMagnitudeSpec:
    """The coefficient law theta_m[k, l] = c_m * sigma_m[k] * a_l of a
    uniform-magnitude reference path, with c_m = q**(m(1/2 - 1/p)).

    It holds no level: ``build_reference`` and ``reference_path`` take the
    grid level n and build the levels m < n only.  ``signs`` is "plus" or an
    integer seed of random per-position signs; ``a`` holds the q-1 branch
    weights (default all ones).  q >= 3 takes no signs: a sign flip permutes
    the two dyadic child values but not the q >= 3 ones, and the bijection
    behind the variation constant needs that permutation.
    """

    q: int = 2
    p: float = 2.0
    signs: object = "plus"
    a: tuple | None = None

    def __post_init__(self):
        check_branching(self.q)
        check_exponent(self.p)
        if not (isinstance(self.signs, (int, np.integer))
                or isinstance(self.signs, str) and self.signs == "plus"):
            raise ValidationError("signs must be 'plus' or an integer seed")
        a = tuple(float(v) for v in (self.a if self.a is not None else np.ones(self.q - 1)))
        eta_all(a, self.q)
        object.__setattr__(self, "a", a)
        if self.q >= 3 and self.signs != "plus":
            raise ValidationError("random signs apply only to q = 2")

    @property
    def rho(self) -> float:
        return self.q ** -(1.0 - 1.0 / self.p)

    def c(self, m: int) -> float:
        return self.q ** (m * (0.5 - 1.0 / self.p))

    def eta_values(self) -> np.ndarray:
        """The q per-child values eta_d driven by digits; (a_1, -a_1) when q = 2."""
        return eta_all(self.a, self.q)

    def sign_arrays(self, n: int) -> list:
        """Per-level +-1 arrays sigma_m of length q**m for m < n; deterministic
        in the seed.  Seeded levels are drawn in order from one generator, so
        the arrays for n are a prefix of those for any larger n.

        "plus" arrays are read-only broadcast views, so they cost no memory
        at any level count.
        """
        if self.signs == "plus":
            one = np.ones(1, dtype=np.int8)
            return [np.broadcast_to(one, (self.q ** m,)) for m in range(n)]
        rng = np.random.default_rng(int(self.signs))
        return [
            (rng.integers(0, 2, size=self.q ** m, dtype=np.int8) * 2 - 1).astype(np.int8)
            for m in range(n)
        ]


def build_reference(spec: UniformMagnitudeSpec, n: int) -> CoefficientArray:
    """Coefficient levels m < n of the reference path: theta_m[k, l] = c_m * sigma_m[k] * a_l."""
    check_interval_budget(spec.q, n)
    levels = [spec.c(m) * np.outer(signs, spec.a) for m, signs in enumerate(spec.sign_arrays(n))]
    for level in levels:
        level.setflags(write=False)
    return CoefficientArray(q=spec.q, boundary=(0.0, 0.0), levels=tuple(levels))


def reference_path(spec: UniformMagnitudeSpec, n: int) -> SampledPath:
    """Reference path sampled on the level-``n`` grid."""
    return synthesize(build_reference(spec, n), n)


# ---------------------------------------------------------------------------
# Weight patterns and the sign/digit bijection
# ---------------------------------------------------------------------------


def increment_patterns(spec: UniformMagnitudeSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes and scaled increments of every level-``n`` increment k.

    ``series[k]`` is sum_j rho**j w_j(k).  ``codes[k]`` is sum_j e_j q**(j-1),
    with e_j = d_j(k), or q-1-d_j(k) where sigma_{n-j}[k // q**j] = -1, since
    sigma * eta_d = eta_{q-1-d} (eta = (a_1, -a_1) at q = 2, and q >= 3 has no
    -1 signs): a code names its pattern (w_1(k), ..., w_n(k)).  Both are built
    one digit at a time from the coarsest level, in the refinement order of
    ``synthesize``, and the budget is checked before any sign is drawn.
    """
    if n < 1:
        raise ValidationError(f"level n must be >= 1, got {n}")
    n_max = digits_within(spec.q, SIGN_MATRIX_BUDGET)
    if n > n_max:
        raise BudgetError(
            f"increment patterns at level {n} for q={spec.q} exceed the budget of "
            f"{SIGN_MATRIX_BUDGET}; the largest level allowed is {n_max}"
        )
    q, eta, digits = spec.q, spec.eta_values(), np.arange(spec.q, dtype=np.int64)
    codes, series = np.zeros(1, dtype=np.int64), np.zeros(1)
    for m, sigma in enumerate(spec.sign_arrays(n)):
        j = n - m
        effective = np.where((sigma > 0)[:, None], digits, q - 1 - digits)
        codes = (codes[:, None] + effective * q ** (j - 1)).ravel()
        series = (series[:, None] + sigma[:, None] * (spec.rho ** j * eta)).ravel()
    return codes, series


@dataclass(frozen=True)
class SignMatrixReport:
    bijection: bool
    gap: float


def sign_matrix(spec: UniformMagnitudeSpec, n: int) -> SignMatrixReport:
    """Exhaustively verify the weight-pattern bijection at level ``n``.

    Checks that k -> (w_1(k), ..., w_n(k)) hits every pattern exactly once,
    and that the level-n variation of the synthesized path equals the exact
    oracle truncated at J = n, the average of |sum_{j<=n} rho^j W_j|^p over
    all q**n digit strings.
    """
    codes, _ = increment_patterns(spec, n)
    bijection = bool(np.array_equal(np.sort(codes), np.arange(spec.q ** n)))
    expected = variation_constant(spec.p, spec.q, spec.a, J=n).value
    observed = pvar_profile(reference_path(spec, n), spec.p, eval_level=0).terminal
    return SignMatrixReport(bijection=bijection, gap=abs(observed - expected))


# ---------------------------------------------------------------------------
# The prescribed-variation recipe
# ---------------------------------------------------------------------------


# The target variations the CLI and the acceptance checks prescribe:
# name -> (hprime(t, rate), h(t, rate)), with h(0) = 0 and h' = hprime.
TARGET_DENSITIES = {
    "linear": (lambda t, r: np.full_like(t, r), lambda t, r: r * t),
    "exp": (lambda t, r: r * np.exp(r * t), lambda t, r: np.exp(r * t) - 1.0),
    "log": (lambda t, r: r / (1.0 + r * t), lambda t, r: np.log1p(r * t)),
}


@dataclass(frozen=True, eq=False)
class RecipeResult:
    y: SampledPath
    constant: VariationConstant
    multiplier_trend: object    # TrendRow for the multiplier, or None


def recipe(hprime, spec: UniformMagnitudeSpec, n: int) -> RecipeResult:
    """Build y with prescribed variation t -> integral of ``hprime`` on the
    level-``n`` grid.

    ``hprime`` is a callable or an array of q**n + 1 finite nonnegative
    samples.  C is the exact constant of ``variation_constant`` for the
    spec's p, q and branch weights; a C whose error bound is not below its
    value has no correct digit to divide by, and raises ``BudgetError``.
    The multiplier g = (hprime / C)^(1/p) must itself have vanishing p-th
    variation for the construction to be exact in the limit; that hypothesis
    is not checkable from samples, so from level 4 on the coefficient-trend
    diagnostic is run on g and reported as ``multiplier_trend``.
    """
    grid = qadic_grid(spec.q, n)
    hp = np.asarray(hprime(grid.points) if callable(hprime) else hprime, dtype=np.float64)
    if hp.shape != (grid.size,):
        raise ValidationError(f"hprime must provide {grid.size} samples")
    if not (np.all(np.isfinite(hp)) and np.all(hp >= 0)):
        raise ValidationError("hprime samples must be finite and nonnegative")
    c = variation_constant(spec.p, spec.q, spec.a, method="exact")
    if c.details.get("bound_not_below_value"):
        raise BudgetError(
            f"the p={spec.p:g} constant for q={spec.q} is {c.value:.3g} with error bound "
            f"{c.error_bound:.3g}; the recipe divides by it and needs a bound below the value"
        )
    # the products are fresh and read-only, so the paths keep them uncopied
    gv = (hp / c.value) ** (1.0 / spec.p)
    gv.setflags(write=False)
    g = SampledPath(grid=grid, values=gv)
    trend = variation_index_estimate(analyze(g), spec.p) if n >= 4 else None
    yv = g.values * reference_path(spec, n).values
    yv.setflags(write=False)
    y = SampledPath(grid=grid, values=yv)
    return RecipeResult(y=y, constant=c, multiplier_trend=trend)


def shifted_reference(x: SampledPath, shift: float) -> SampledPath:
    """Strictly positive shift x + shift with shift > sup |x|.

    The shifted values are stored like any path's, so variation profiles of
    the shifted path agree with those of ``x`` to rounding, not bit for bit.
    On q=2 (n=20, random signs seed 1) and q=3 (n=12, a=(1, 1)) reference
    paths, for p in {1.5, 2, 3.5, 4} and shift sup|x| + 1 or + 2, the full
    profiles differ by at most 15 ulp of the terminal value (2.6e-15
    relative), and by 4.2e-14 relative at shift sup|x| + 100.
    """
    if shift <= x.sup_norm():
        raise ValidationError(
            f"shift {shift} must exceed the sup norm {x.sup_norm():.6g} strictly"
        )
    return SampledPath(grid=x.grid, values=x.values + shift)


# ---------------------------------------------------------------------------
# Bernstein smoothing and coefficient splicing
# ---------------------------------------------------------------------------


def bernstein(z, degree: int, grid: PartitionGrid) -> SampledPath:
    """Degree-``degree`` Bernstein polynomial of the callable ``z``, which is
    evaluated at the nodes k/degree, sampled on ``grid``.  ``z`` must give
    one finite value per node, ``degree + 1`` in all; anything else raises
    ``ValidationError``.

    Evaluation is de Casteljau's: each of ``degree`` rounds replaces the
    rows b_k of the work array, in place and for k from 0 up, by the convex
    combinations b_k + t (b_{k+1} - b_k), formed in one reused row; the
    round leaves its last row unused.  This is numerically stable and
    reproduces constants bitwise.  The work array, of
    ``(degree + 1) * grid.size`` entries, may hold at most the interval
    budget; besides it only t and that one row are held.
    """
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    work = (degree + 1) * grid.size
    budget = interval_budget()
    if work > budget:
        raise BudgetError(
            f"degree {degree} on {grid.size} points needs a {work}-entry work array; "
            f"budget is {budget} (override with {MAX_INTERVALS_ENV})"
        )
    zv = np.asarray(z(np.arange(degree + 1, dtype=np.float64) / degree), dtype=np.float64)
    if zv.shape != (degree + 1,) or not np.isfinite(zv).all():
        raise ValidationError(
            f"z must give degree + 1 = {degree + 1} finite values at the nodes k/{degree}, "
            f"got {zv!r}")
    t = grid.points
    b = np.repeat(zv[:, None], t.size, axis=1)
    d = np.empty_like(t)
    for rows in range(degree, 0, -1):
        for k in range(rows):  # upwards, so b[k + 1] is still the last round's
            np.subtract(b[k + 1], b[k], out=d)
            np.multiply(t, d, out=d)
            np.add(b[k], d, out=b[k])
    d[:] = b[0]
    del b
    d.setflags(write=False)  # handed over, not copied
    return SampledPath(grid=grid, values=d)


def splice(x_coeffs: CoefficientArray, y_coeffs: CoefficientArray, n: int) -> CoefficientArray:
    """Boundary and levels < n from x, levels >= n from y.

    The result agrees with x at every level-n grid point because the finer
    tent functions vanish there; its level diagnostics at levels >= n are
    those of y because the coefficients coincide levelwise.
    """
    if x_coeffs.q != y_coeffs.q:
        raise ValidationError("cannot splice arrays with different q")
    if n < 0:
        raise ValidationError("crossover level must be >= 0")
    if x_coeffs.num_levels < n:
        raise ValidationError(f"x provides {x_coeffs.num_levels} levels, need {n}")
    if y_coeffs.num_levels < n:
        raise ValidationError(f"y provides {y_coeffs.num_levels} levels, need at least {n}")
    levels = tuple(x_coeffs.levels[:n]) + tuple(y_coeffs.levels[n:])
    return CoefficientArray(q=x_coeffs.q, boundary=x_coeffs.boundary, levels=levels)
