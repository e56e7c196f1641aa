import math

import numpy as np
import pytest

from pvarpath import (
    BudgetError,
    FunctionWithDerivatives,
    UniformMagnitudeSpec,
    ValidationError,
    change_of_variable_residual,
    follmer_sum,
    holder_norm,
    holder_quotient,
    pvar_profile,
    qadic_grid,
    qadic_path,
    recipe,
    reference_path,
    shifted_reference,
    stability_bound,
    stieltjes_against_profile,
    transported_norm,
    variation_constant,
)
from pvarpath.schauder import SampledPath

IDENTITY = FunctionWithDerivatives.polynomial([0.0, 1.0])
SQUARE = FunctionWithDerivatives.polynomial([0.0, 0.0, 1.0])
FOURTH = FunctionWithDerivatives.polynomial([0.0, 0.0, 0.0, 0.0, 1.0])


def random_path(n=8, seed=0, q=2):
    rng = np.random.default_rng(seed)
    return qadic_path(rng.normal(size=q ** n + 1), q=q)


class TestFunctionWithDerivatives:
    def test_polynomial_chain(self):
        f = FunctionWithDerivatives.polynomial([1.0, 2.0, 3.0])
        assert f(2.0) == 17.0
        assert f.deriv(1)(2.0) == 14.0
        assert f.deriv(2)(2.0) == 6.0
        assert f.deriv(5)(2.0) == 0.0  # exhausted polynomials keep answering

    @pytest.mark.parametrize("coefficients", [[0.0, np.nan], [0.0, np.inf, 1.0]])
    def test_nonfinite_coefficients_rejected(self, coefficients):
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            FunctionWithDerivatives.polynomial(coefficients)

    def test_explicit_derivatives_bounded(self):
        f = FunctionWithDerivatives(funcs=(np.sin, np.cos))
        with pytest.raises(ValidationError):
            f.deriv(2)


class TestFollmerSum:
    def test_identity_telescopes(self):
        y = random_path(seed=1)
        got = follmer_sum(IDENTITY, y, 2)
        np.testing.assert_allclose(got, y.values - y.values[0], atol=1e-13)

    def test_square_p2_compensates_quadratic_variation(self):
        y = random_path(seed=2)
        got = follmer_sum(SQUARE, y, 2)
        prof = pvar_profile(y, 2.0, eval_level=y.level)
        target = y.values ** 2 - y.values[0] ** 2 - prof.values
        np.testing.assert_allclose(got, target, atol=1e-12)

    def test_square_p4_telescopes_exactly(self):
        y = random_path(seed=3)
        got = follmer_sum(SQUARE, y, 4)
        np.testing.assert_allclose(got, y.values ** 2 - y.values[0] ** 2, atol=1e-12)

    def test_odd_order_rejected(self):
        y = random_path()
        with pytest.raises(ValidationError):
            follmer_sum(SQUARE, y, 3)
        with pytest.raises(ValidationError):
            follmer_sum(SQUARE, y, 2.5)


class TestChangeOfVariableResidual:
    def test_affine_function_exact(self):
        f = FunctionWithDerivatives.polynomial([4.0, -2.5])
        for p in (2, 4):
            rep = change_of_variable_residual(f, random_path(seed=4), p)
            assert rep.sup <= 1e-12

    def test_square_p2_exact_for_any_path(self):
        for seed in range(5):
            rep = change_of_variable_residual(SQUARE, random_path(seed=seed), 2)
            assert rep.sup <= 1e-12

    def test_square_p2_residual_at_rounding_level(self):
        # both sides of the y**2 identity are exact prefix sums; with a plain
        # float64 cumsum the sup is 8.5e-15 and 1.5% of entries are zero
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 16)
        rep = change_of_variable_residual(SQUARE, x, 2)
        assert rep.sup <= 4.5e-16
        assert np.mean(rep.residuals == 0.0) >= 0.5

    def test_fourth_power_residual_shrinks(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 12)
        sups = [
            change_of_variable_residual(FOURTH, x.restrict(n), 2).sup
            for n in (8, 10, 12)
        ]
        assert sups[0] > sups[1] > sups[2]

    def test_derivative_order_enforced(self):
        f = FunctionWithDerivatives(funcs=(np.sin, np.cos))
        with pytest.raises(ValidationError):
            change_of_variable_residual(f, random_path(), 2)


def lp_norm(g, p):
    """L^p norm of a grid path by left-endpoint quadrature."""
    dt = np.diff(g.grid.points)
    return float(np.sum(np.abs(g.values[:-1]) ** p * dt) ** (1.0 / p))


class TestGridNorm:
    def test_constant_holder(self):
        g = qadic_path(np.full(2 ** 6 + 1, -1.5), q=2)
        assert holder_norm(g, 0.3) == 1.5

    def test_sup(self):
        g = qadic_path(np.array([0.0, -3.0, 1.0]), q=2)
        assert g.sup_norm() == 3.0


class TestHolderQuotient:
    def test_pair_budget(self, monkeypatch):
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "1")     # 64 pairs
        t = np.linspace(0.0, 1.0, 12)
        assert holder_quotient(t[:-1], t[:-1], 0.5) > 0.0   # 55 pairs
        with pytest.raises(BudgetError):
            holder_quotient(t, t, 0.5)                      # 66 pairs

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, -1.0, 2.0])
    def test_exponent_outside_unit_interval_rejected(self, alpha):
        t = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValidationError, match="0 < alpha < 1"):
            holder_quotient(t, t, alpha)


class TestTransportedNorm:
    NORMS = (
        SampledPath.sup_norm,
        lambda g: holder_norm(g, 0.4),
        lambda g: lp_norm(g, 3.0),
    )

    def make_xbar(self, n=8):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), n)
        return shifted_reference(x, x.sup_norm() + 1.0)

    def test_reference_itself_has_unit_norm(self):
        xbar = self.make_xbar()
        y = SampledPath(grid=xbar.grid, values=xbar.values)
        assert transported_norm(y, xbar, lambda g: holder_norm(g, 0.6)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_homogeneity(self):
        xbar = self.make_xbar()
        y = SampledPath(grid=xbar.grid, values=-2.5 * xbar.values)
        for norm in (SampledPath.sup_norm, lambda g: lp_norm(g, 2.0)):
            assert transported_norm(y, xbar, norm) == pytest.approx(2.5, rel=1e-12)

    def test_isometry_round_trip_seed_11(self):
        xbar = self.make_xbar()
        rng = np.random.default_rng(11)
        g = SampledPath(grid=xbar.grid, values=rng.normal(size=xbar.values.size))
        y = SampledPath(grid=xbar.grid, values=g.values * xbar.values)
        for norm in self.NORMS:
            assert transported_norm(y, xbar, norm) == pytest.approx(norm(g), rel=1e-12)

    @pytest.mark.parametrize("norm", NORMS, ids=["sup", "holder", "lp"])
    def test_accepts_a_plain_function(self, norm):
        xbar = self.make_xbar()
        y = SampledPath(grid=xbar.grid, values=np.sin(3.0 * xbar.grid.points))
        ratio = SampledPath(grid=xbar.grid, values=y.values / xbar.values)
        assert transported_norm(y, xbar, norm) == norm(ratio)

    def test_positivity_required(self):
        xbar = self.make_xbar()
        bad = SampledPath(grid=xbar.grid, values=xbar.values - np.max(xbar.values))
        with pytest.raises(ValidationError):
            transported_norm(xbar, bad, SampledPath.sup_norm)


class TestEquivalentNorm:
    def test_predicted_variation_matches_lp_norm(self):
        # the predicted terminal variation and the L^p norm of the
        # multiplier use the same quadrature, so the identity is exact
        n = 10
        xbar = reference_path(UniformMagnitudeSpec(q=2, p=2.0), n)
        c2 = variation_constant(2.0, 2, method="closed").value
        grid = xbar.grid
        from pvarpath import VariationProfile

        ideal = VariationProfile(p=2.0, grid=grid, eval_level=n, values=c2 * grid.points)
        rng = np.random.default_rng(0)
        g = SampledPath(grid=grid, values=rng.uniform(0.2, 2.0, grid.points.size))
        gp = SampledPath(grid=grid, values=np.abs(g.values) ** 2)
        predicted_terminal = stieltjes_against_profile(gp, ideal)[-1]
        lp = lp_norm(g, 2.0)
        assert predicted_terminal ** 0.5 == pytest.approx(c2 ** 0.5 * lp, abs=1e-12)


class TestStability:
    def test_equal_inputs_are_zero(self):
        g = random_path(seed=6)
        rep = stability_bound(g, g, 2.0, 1.0)
        assert rep.lhs == 0.0 and rep.rhs_l1 == 0.0 and rep.rhs_local_lip == 0.0

    def test_unit_vs_zero_equality_case(self):
        grid = qadic_grid(2, 8)
        ones = SampledPath(grid=grid, values=np.ones(grid.points.size))
        zero = SampledPath(grid=grid, values=np.zeros(grid.points.size))
        rep = stability_bound(ones, zero, 2.0, 1.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.lhs == pytest.approx(rep.rhs_l1, abs=1e-14)
        assert rep.rhs_local_lip == pytest.approx(2.0, abs=1e-12)

    def test_random_pairs_seed_5(self):
        grid = qadic_grid(2, 7)
        rng = np.random.default_rng(5)
        for _ in range(100):
            g1 = SampledPath(grid=grid, values=rng.uniform(-2, 2, grid.points.size))
            g2 = SampledPath(grid=grid, values=rng.uniform(-2, 2, grid.points.size))
            rep = stability_bound(g1, g2, 2.0, 1.0)
            assert rep.lhs <= rep.rhs_l1 + 1e-12
            assert rep.rhs_l1 <= rep.rhs_local_lip + 1e-9

    def test_grid_mismatch(self):
        g1 = qadic_path(np.zeros(9), q=2)
        g2 = qadic_path(np.zeros(5), q=2)
        with pytest.raises(ValidationError):
            stability_bound(g1, g2, 2.0, 1.0)

    @pytest.mark.parametrize("c_p", [math.nan, math.inf, 0.0, -1.0])
    def test_constant_must_be_finite_and_positive(self, c_p):
        grid = qadic_grid(2, 3)
        g1 = SampledPath(grid=grid, values=grid.points.copy())
        g2 = SampledPath(grid=grid, values=np.zeros(grid.size))
        with pytest.raises(ValidationError, match="c_p must be finite and > 0"):
            stability_bound(g1, g2, 2.0, c_p)


class TestItoMapContinuity:
    def test_uniform_perturbations_contract(self):
        # perturbing the multiplier by 2**-n bumps moves the integral path
        # by a comparable amount: sup distances must decrease in n
        n_level = 14
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        base = recipe(lambda t: np.exp(t), spec, n_level)
        xbar_vals = reference_path(spec, n_level).values + 4.0
        grid = base.y.grid
        g = (np.exp(grid.points) / base.constant.value) ** (1.0 / spec.p)

        def integral(gv):
            y = SampledPath(grid=grid, values=gv * xbar_vals)
            return follmer_sum(FOURTH, y, 2)

        ref = integral(g)
        bump = np.sin(np.pi * grid.points)
        sups = []
        for n in (3, 5, 7):
            pert = integral(g + 2.0 ** -n * bump)
            sups.append(float(np.max(np.abs(pert - ref))))
        assert sups[0] > sups[1] > sups[2]
