"""End-to-end acceptance checks.

Each criterion is a self-contained function returning a CriterionResult;
the CLI selftest and the pytest acceptance module both run these.  Checks
are exact identities asserted at 1e-12 or property-based tolerances pinned
here, together with per-criterion runtime limits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .calculus import FunctionWithDerivatives, change_of_variable_residual, holder_norm
from .calculus import holder_quotient, stability_bound
from .construct import (
    TARGET_DENSITIES,
    UniformMagnitudeSpec,
    bernstein,
    increment_patterns,
    recipe,
    reference_path,
    sign_matrix,
    splice,
)
from .errors import ValidationError
from .oracle import variation_constant
from .partition import power_table, qadic_grid, random_refining_table
from .schauder import CoefficientArray, SampledPath, synthesize, xi_profile
from .timechange import transported_pvar_check
from .variation import pvar_profile


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    runtime_s: float
    runtime_limit_s: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.index:2d} {self.name}: {self.detail} "
            f"({self.runtime_s:.2f}s / limit {self.runtime_limit_s:.0f}s)"
        )


ALL_CRITERIA = []


def _criterion(name: str, limit_s: float):
    """Register the decorated check, which returns ``(ok, detail)``, as the
    next criterion: numbered by its place in ``ALL_CRITERIA``, it passes
    when ``ok`` holds and the call took less than ``limit_s`` seconds."""
    def register(check):
        index = len(ALL_CRITERIA) + 1

        @wraps(check)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = check()
            elapsed = time.perf_counter() - t0
            return CriterionResult(index=index, name=name,
                                   passed=bool(ok) and elapsed < limit_s, runtime_s=elapsed,
                                   runtime_limit_s=limit_s, detail=detail)

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


@lru_cache(maxsize=None)
def _default_spec(p: float = 2.0) -> UniformMagnitudeSpec:
    return UniformMagnitudeSpec(q=2, p=p)


@lru_cache(maxsize=None)
def _reference16(p: float) -> SampledPath:
    return reference_path(_default_spec(p), 16)


@lru_cache(maxsize=None)
def _recipe_path(target: str):
    hprime = TARGET_DENSITIES[target][0]
    return recipe(lambda t: hprime(t, 1.0), _default_spec(), 16)


@_criterion("exact dyadic level identity", 1.0)
def criterion_1():
    """Exact dyadic level identity 1 - 2**-n for the default reference."""
    x = _reference16(2.0)
    worst = 0.0
    for n in range(17):
        got = pvar_profile(x.restrict(n), 2.0, eval_level=0).terminal
        worst = max(worst, abs(got - (1.0 - 2.0 ** -n)))
    ok = worst <= 1e-12
    return ok, f"max |[x]^(2)_n(1) - (1 - 2^-n)| = {worst:.2e} (tol 1e-12)"


@_criterion("linear p-variation convergence", 10.0)
def criterion_2():
    """Linear p-variation: level-16 sum near the constant, profile near t."""
    worst_const = 0.0
    worst_lin = 0.0
    bounds_ok = True
    for p in (2.0, 3.0, 4.0):
        x = _reference16(p)
        c = variation_constant(p, 2, method="exact", tol=1e-6)
        bounds_ok &= c.error_bound < 1e-6
        prof = pvar_profile(x, p, eval_level=4)
        worst_const = max(worst_const, abs(prof.terminal - c.value))
        worst_lin = max(worst_lin, float(np.max(np.abs(
            prof.values - prof.eval_points * prof.terminal))))
    ok = bounds_ok and worst_const <= 1e-2 and worst_lin <= 1e-2
    return ok, (f"max |V16(1) - C_p| = {worst_const:.2e}, "
                f"max |V16(t) - t V16(1)| = {worst_lin:.2e} (tol 1e-2)")


@_criterion("constant oracle agreement", 30.0)
def criterion_3():
    """Three independent estimates of the constant agree for p in {2, 4}."""
    ok = True
    parts = []
    for p in (2.0, 4.0):
        exact = variation_constant(p, 2, method="exact", tol=1e-6)
        mc = variation_constant(p, 2, method="mc", N=10 ** 6, seed=0)
        closed = variation_constant(p, 2, method="closed")
        pairs = [(exact, mc), (exact, closed), (mc, closed)]
        worst = 0.0
        for a, b in pairs:
            diff = abs(a.value - b.value)
            stat = 3.0 * ((a.stderr or 0.0) + (b.stderr or 0.0)) + a.error_bound + b.error_bound
            ok &= diff <= max(stat, 1e-12) and diff <= 1e-3
            worst = max(worst, diff)
        parts.append(f"p={p:g}: max pairwise diff {worst:.2e} (se {mc.stderr:.1e})")
    return ok, "; ".join(parts)


@_criterion("sign-matrix bijection", 5.0)
def criterion_4():
    """Sign patterns are a bijection and level sums equal pattern averages."""
    ok = True
    worst = 0.0
    for signs in ("plus", 0):
        spec = UniformMagnitudeSpec(q=2, p=2.0, signs=signs)
        for n in range(1, 13):
            rep = sign_matrix(spec, n)
            ok &= rep.bijection
            worst = max(worst, rep.gap)
    ok &= worst <= 1e-12
    return ok, f"bijection at n<=12 for both sign modes, max identity gap {worst:.2e}"


@_criterion("increment series identity", 5.0)
def criterion_5():
    """Scaled increments equal their series decomposition for all k, n=10."""
    worst = 0.0
    cases = [
        UniformMagnitudeSpec(q=2, p=2.0),
        UniformMagnitudeSpec(q=2, p=3.0),
        UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0)),
    ]
    n = 10
    for spec in cases:
        x = reference_path(spec, n)
        observed = spec.q ** (n / spec.p) * x.increments()
        _, series = increment_patterns(spec, n)
        worst = max(worst, float(np.max(np.abs(series - observed))))
    ok = worst <= 1e-12
    return ok, f"max |series - scaled increment| over all k = {worst:.2e} (tol 1e-12)"


@_criterion("prescribed-variation recipe", 20.0)
def criterion_6():
    """Prescribed-variation recipe reproduces h on [0,1] within 2 percent."""
    ok = True
    parts = []
    for name, (_, h) in TARGET_DENSITIES.items():
        res = _recipe_path(name)
        prof = pvar_profile(res.y, 2.0, eval_level=res.y.level)
        gap = float(np.max(np.abs(prof.values - h(prof.eval_points, 1.0))))
        tol = 0.02 * (1.0 + float(h(1.0, 1.0)))
        ok &= gap <= tol
        parts.append(f"{name}: sup gap {gap:.2e} (tol {tol:.3f})")
    return ok, "; ".join(parts)


@_criterion("ternary linear variation", 20.0)
def criterion_7():
    """Ternary reference with unit branch weights converges to slope 1."""
    spec = UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0))
    x = reference_path(spec, 10)
    gap = abs(pvar_profile(x, 2.0, eval_level=0).terminal - 1.0)
    ok = gap <= 2e-2
    return ok, f"|V10(1) - 1| = {gap:.2e} (tol 2e-2)"


@_criterion("compensated-sum exactness", 10.0)
def criterion_8():
    """Compensated-sum change of variable: exact for y^2, vanishing for y^4."""
    res = _recipe_path("exp")
    f2 = FunctionWithDerivatives.polynomial([0.0, 0.0, 1.0])
    sup2 = change_of_variable_residual(f2, res.y.restrict(14), 2).sup
    f4 = FunctionWithDerivatives.polynomial([0.0, 0.0, 0.0, 0.0, 1.0])
    sups = [change_of_variable_residual(f4, res.y.restrict(n), 2).sup for n in (12, 14, 16)]
    ok = sup2 <= 1e-12 and sups[2] <= 5e-2 and sups[0] > sups[1] > sups[2]
    return ok, (f"y^2 residual {sup2:.2e} (tol 1e-12); "
                f"y^4 residuals 12/14/16 = {sups[0]:.2e}/{sups[1]:.2e}/{sups[2]:.2e}")


@_criterion("time-change transport exactness", 5.0)
def criterion_9():
    """Transport identity along time changes is exact at partition points."""
    sqrt_table = power_table(2, 10, 2.0)
    x2 = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 10)
    gap_sqrt = transported_pvar_check(x2, sqrt_table, 2.0)
    rand_table = random_refining_table(3, 10, seed=0)
    x3 = reference_path(UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0)), 10)
    gap_rand = transported_pvar_check(x3, rand_table, 2.0)
    ok = gap_sqrt <= 1e-12 and gap_rand <= 1e-12
    return ok, f"sqrt-table gap {gap_sqrt:.2e}, random ternary-table gap {gap_rand:.2e}"


@_criterion("variation stability bounds", 5.0)
def criterion_10():
    """Variation stability: L1 bound always dominates; equality case exact."""
    grid = qadic_grid(2, 8)
    c2 = variation_constant(2.0, 2, method="closed").value
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        g1 = SampledPath(grid=grid, values=rng.uniform(-2.0, 2.0, grid.size))
        g2 = SampledPath(grid=grid, values=rng.uniform(-2.0, 2.0, grid.size))
        rep = stability_bound(g1, g2, 2.0, c2)
        ok &= rep.lhs <= rep.rhs_l1 + 1e-12
    ones = SampledPath(grid=grid, values=np.ones(grid.size))
    zero = SampledPath(grid=grid, values=np.zeros(grid.size))
    eq = stability_bound(ones, zero, 2.0, c2)
    ok &= abs(eq.lhs - c2) <= 1e-12 and abs(eq.lhs - eq.rhs_l1) <= 1e-12
    return ok, f"100 random pairs dominated; equality case lhs=rhs_l1={eq.lhs:.12f}"


@_criterion("bernstein holder bound", 5.0)
def criterion_11():
    """Bernstein smoothing obeys the (2n+1) sup-norm Holder bound."""
    grid = qadic_grid(2, 10)
    rng = np.random.default_rng(7)
    ok = True
    worst_ratio = 0.0
    for _ in range(20):
        for degree in (4, 16, 64):
            zv = rng.uniform(-1.0, 1.0, degree + 1)
            nodes = np.arange(degree + 1) / degree
            poly = bernstein(lambda t, zv=zv, nodes=nodes: np.interp(t, nodes, zv),
                             degree, grid)
            quot = holder_quotient(poly, 0.5)
            bound = (2 * degree + 1) * float(np.max(np.abs(zv)))
            ok &= quot <= bound
            worst_ratio = max(worst_ratio, quot / bound)
    return ok, f"max quotient/bound ratio {worst_ratio:.3f} over 20 seeds x 3 degrees"


@_criterion("splice mechanics", 5.0)
def criterion_12():
    """Splicing: coarse agreement, level diagnostics, sup-norm closeness."""
    rng = np.random.default_rng(3)
    levels_x = tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(10))
    levels_y = tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(10))
    cx = CoefficientArray(q=2, boundary=(0.0, 0.5), levels=levels_x)
    cy = CoefficientArray(q=2, boundary=(-0.2, 0.1), levels=levels_y)
    x = synthesize(cx, 10)
    alpha = 0.5
    ok = True
    details = []
    for n in (2, 4, 6):
        sp = splice(cx, cy, n)
        z = synthesize(sp, 10)
        agree = float(np.max(np.abs(
            z.values[:: 2 ** (10 - n)] - x.values[:: 2 ** (10 - n)])))
        xi_match = all(
            np.array_equal(np.abs(sp.levels[m]), np.abs(cy.levels[m]))
            and xi_profile(sp, 2.0)[m] == xi_profile(cy, 2.0)[m]
            for m in range(n, 10)
        )
        dist = float(np.max(np.abs(z.values - x.values)))
        bound = (holder_norm(x, alpha) + holder_norm(z, alpha)) * 2.0 ** (-n * alpha)
        ok &= agree <= 1e-12 and xi_match and dist <= bound
        details.append(f"n={n}: agree {agree:.1e}, dist {dist:.3f} <= bound {bound:.3f}")
    return ok, "; ".join(details)


def run_all(indices=None) -> list:
    total = len(ALL_CRITERIA)
    selected = range(1, total + 1) if indices is None else indices
    for i in selected:
        if not 1 <= i <= total:
            raise ValidationError(f"criterion index must be in 1..{total}, got {i}")
    return [ALL_CRITERIA[i - 1]() for i in selected]
