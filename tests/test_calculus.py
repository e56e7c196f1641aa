import math
import tracemalloc

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
    pullback_path,
    pvar_profile,
    qadic_grid,
    qadic_path,
    random_refining_table,
    recipe,
    reference_path,
    shifted_reference,
    stability_bound,
    stieltjes_against_profile,
    transported_norm,
    variation_constant,
)
from pvarpath import schauder
from pvarpath._util import _BLOCK, cumsum_stable
from pvarpath.schauder import SampledPath

IDENTITY = FunctionWithDerivatives.polynomial([0.0, 1.0])
SQUARE = FunctionWithDerivatives.polynomial([0.0, 0.0, 1.0])
FOURTH = FunctionWithDerivatives.polynomial([0.0, 0.0, 0.0, 0.0, 1.0])
EXP = FunctionWithDerivatives(funcs=(np.exp,) * 5)


def whole_array_follmer_sum(f, y, p):
    """The compensated sum as whole-array expressions."""
    d = np.diff(y.values)
    terms, dk = np.zeros_like(d), np.ones_like(d)
    for k in range(1, min(p, f.order + 1)):
        dk = dk * d
        terms = terms + f.deriv(k)(y.values[:-1]) * dk / math.factorial(k)
    return cumsum_stable(np.concatenate(([0.0], terms)))


def whole_array_residual(f, y, p):
    """The residual as whole-array expressions, in the order of its
    docstring."""
    v = y.values
    with np.errstate(over="ignore", invalid="ignore"):
        resid = f(v) - f(v[0]) - whole_array_follmer_sum(f, y, p)
        if p <= f.order:
            prof = cumsum_stable(np.concatenate(([0.0], np.abs(np.diff(v)) ** p)))
            corr = np.concatenate(([0.0], np.cumsum(f.deriv(p)(v)[:-1] * np.diff(prof))))
            resid = resid - corr / math.factorial(p)
    return resid


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

    def test_trailing_zeros_dropped(self):
        f = FunctionWithDerivatives.polynomial([1.0, 2.0, 0.0, 0.0])
        assert f.order == 1 and f.deriv(2)(3.0) == 0.0
        assert FunctionWithDerivatives.polynomial([0.0, 0.0]).order == 0

    def test_long_coefficient_lists_build_no_chains(self):
        # the chains of a degree-1e5 polynomial would hold 5e9 floats
        zeros = [0.0] * 10 ** 5
        one_at_the_end = zeros + [1.0]
        tracemalloc.start()
        try:
            assert FunctionWithDerivatives.polynomial(zeros).order == 0
            with pytest.raises(ValidationError,
                               match="derivatives of the degree-100000 polynomial overflow"):
                FunctionWithDerivatives.polynomial(one_at_the_end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6    # a coefficient array is 0.8 MB

    def test_polynomial_rounds_as_polyval(self):
        # Horner in one array: the same operations, in the same order, as
        # numpy's polyval on finite values, zeros and signed zeros included
        x = np.concatenate([np.linspace(-3.0, 3.0, 1001), [0.0, -0.0, 1e-300, -1e200]])
        for coefficients in ([0.0], [-2.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0],
                             [1.0, -0.5, 0.0, 1 / 3, 0.0, -7.25], [-0.0, 1e-3, 0.0, 2.0]):
            f = FunctionWithDerivatives.polynomial(coefficients)
            for k in range(f.order + 1):
                cc = np.asarray(coefficients, dtype=np.float64)
                for _ in range(k):
                    cc = np.polynomial.polynomial.polyder(cc)
                cc = np.trim_zeros(cc, "b") if np.any(cc) else np.zeros(1)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.polynomial.polynomial.polyval(x, cc)
                    got = f.deriv(k)(x)
                np.testing.assert_array_equal(got, want)
                assert got.tobytes() == want.tobytes()
                assert f.deriv(k)(2.0) == np.polynomial.polynomial.polyval(2.0, cc)
                assert np.ndim(f.deriv(k)(2.0)) == 0

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
        with pytest.raises(ValidationError, match="got 3; an odd p needs the signed p-th"):
            follmer_sum(SQUARE, y, 3)
        with pytest.raises(ValidationError, match="got 2.5; noninteger orders are out of scope"):
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

    @pytest.mark.parametrize("f, p", [(SQUARE, 2), (FOURTH, 4), (FOURTH, 2), (EXP, 4)],
                             ids=["square-p2", "fourth-p4", "fourth-p2", "exp-p4"])
    @pytest.mark.parametrize("q, n", [(2, 17), (3, 11)])
    def test_blocks_keep_the_whole_array_bits(self, f, p, q, n):
        spec = UniformMagnitudeSpec(q=q, p=2.0, signs=1 if q == 2 else "plus")
        y = reference_path(spec, n)
        rep = change_of_variable_residual(f, y, p)
        assert rep.residuals.tobytes() == whole_array_residual(f, y, p).tobytes()
        assert follmer_sum(f, y, p).tobytes() == whole_array_follmer_sum(f, y, p).tobytes()

    def test_fp_samples_are_handed_over(self, monkeypatch):
        # the path the correction integrates holds f^(p)'s own array
        y = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 8)
        copies = []
        frozen_floats = schauder.frozen_floats

        def spy(a):
            out = frozen_floats(a)
            copies.append(out is not a)
            return out

        monkeypatch.setattr(schauder, "frozen_floats", spy)
        change_of_variable_residual(SQUARE, y, 2)
        assert copies == [False]

    @pytest.mark.parametrize("f, p", [(SQUARE, 2), (FOURTH, 4)], ids=["square-p2", "fourth-p4"])
    def test_peak_memory_is_three_path_arrays_and_block_buffers(self, f, p):
        y = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 20)
        tracemalloc.start()
        try:
            change_of_variable_residual(f, y, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the profile, f^(p)'s samples and the correction, alive together
        assert peak <= 3 * y.values.nbytes + 3 * _BLOCK * 8, peak / y.values.nbytes


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


def brute_holder_quotient(g, alpha):
    t, v = g.grid.points, g.values
    return max(abs(v[j] - v[i]) / (t[j] - t[i]) ** alpha
               for j in range(t.size) for i in range(j))


class TestHolderQuotient:
    def test_pair_budget(self, monkeypatch):
        allowed = qadic_path(np.linspace(0.0, 1.0, 11), q=10)   # 55 pairs
        refused = qadic_path(np.linspace(0.0, 1.0, 12), q=11)   # 66 pairs
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "1")           # 64 pairs
        assert holder_quotient(allowed, 0.5) > 0.0
        with pytest.raises(BudgetError, match=r"12 points give 66 pairs; the pair budget "
                           r"is 64 \(64 x PVAR_MAX_INTERVALS\)"):
            holder_quotient(refused, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, 1.0, -1.0, 2.0])
    def test_exponent_outside_unit_interval_rejected(self, alpha):
        g = qadic_path(np.linspace(0.0, 1.0, 9), q=2)
        with pytest.raises(ValidationError, match="0 < alpha < 1"):
            holder_quotient(g, alpha)

    @pytest.mark.parametrize("make", [
        lambda: reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=3), 5),
        lambda: reference_path(UniformMagnitudeSpec(q=3, p=3.0, a=(1.0, -0.5)), 3),
        lambda: pullback_path(reference_path(UniformMagnitudeSpec(q=3, p=1.5), 3),
                              random_refining_table(3, 3, seed=2)),
    ], ids=["q2", "q3", "table"])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_pairwise_loop_bit_for_bit(self, make, alpha):
        g = make()
        assert holder_quotient(g, alpha) == brute_holder_quotient(g, alpha)


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

        ideal = VariationProfile(grid=grid, eval_level=n, values=c2 * grid.points)
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
