import math
import tracemalloc

import numpy as np
import pytest

from pvarpath import (
    BudgetError,
    CoefficientArray,
    UniformMagnitudeSpec,
    ValidationError,
    bernstein,
    build_reference,
    holder_quotient,
    pvar_profile,
    qadic_grid,
    qadic_path,
    recipe,
    reference_path,
    shifted_reference,
    sign_matrix,
    splice,
    stability_bound,
    synthesize,
    transport_multiply,
    variation_constant,
    xi,
    xi_profile,
)
from pvarpath.construct import MC_CHUNK, _cross_sums, _mean_abs_pow, weight_patterns
from pvarpath.schauder import SampledPath


class TestSpec:
    def test_default_magnitudes(self):
        spec = UniformMagnitudeSpec(q=2, p=4.0, levels=6)
        for m in range(6):
            assert spec.c(m) == pytest.approx(2.0 ** (m / 4), rel=1e-15)
        assert spec.rho == pytest.approx(2.0 ** -0.75, rel=1e-15)

    def test_q3_default_weights(self):
        spec = UniformMagnitudeSpec(q=3, p=2.0, levels=4)
        assert spec.a == (1.0, 1.0)

    def test_sign_modes(self):
        plus = UniformMagnitudeSpec(q=2, p=2.0, levels=4).sign_arrays()
        assert all(np.all(s == 1) for s in plus)
        seeded = UniformMagnitudeSpec(q=2, p=2.0, levels=6, signs=3)
        first = [s.copy() for s in seeded.sign_arrays()]
        second = seeded.sign_arrays()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=2, p=1.0)
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=3, p=2.0, a=(0.0, 0.0))
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=3, p=2.0, a=(1.0,))
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=3, p=2.0, a=(float("nan"), 1.0))
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=3, p=2.0, signs=4)
        with pytest.raises(ValidationError):
            UniformMagnitudeSpec(q=2, p=2.0, a=(1.0,))

    def test_signs_are_plus_or_a_seed(self):
        for signs in ([np.ones(2 ** m, dtype=np.int8) for m in range(4)],
                      np.ones(1), "minus", 1.5):
            with pytest.raises(ValidationError, match="'plus' or an integer seed"):
                UniformMagnitudeSpec(q=2, p=2.0, levels=4, signs=signs)
        assert UniformMagnitudeSpec(q=2, levels=4, signs=3).to_config()["signs"] == {"seed": 3}
        assert UniformMagnitudeSpec(q=2, levels=4).to_config()["signs"] == "plus"


class TestBuildReference:
    def test_p2_all_plus_is_ones(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=2.0, levels=3))
        for m in range(3):
            np.testing.assert_array_equal(coeffs.levels[m], np.ones((2 ** m, 1)))
        assert coeffs.boundary == (0.0, 0.0)

    def test_p4_magnitude_growth(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=4.0, levels=4))
        for m in range(4):
            np.testing.assert_allclose(
                coeffs.levels[m], 2.0 ** (m / 4) * np.ones((2 ** m, 1)), rtol=1e-15
            )

    def test_q3_unit_weights(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=3, p=2.0, levels=3, a=(1.0, 1.0)))
        for m in range(3):
            np.testing.assert_array_equal(coeffs.levels[m], np.ones((3 ** m, 2)))

    def test_budget_checked_before_allocating(self, monkeypatch):
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "100")
        with pytest.raises(BudgetError):
            build_reference(UniformMagnitudeSpec(q=2, p=2.0, levels=10))


class TestVariationConstant:
    def test_dyadic_p2_is_one(self):
        # oracle: second moment of the series is the geometric sum 1
        rep = variation_constant(2.0, 2, method="exact")
        assert rep.error_bound < 1e-6
        assert rep.value == pytest.approx(1.0, abs=2e-6)

    def test_ternary_unit_weights_is_one(self):
        # oracle: (sum of 3**-j) * mean-square of the child values = 1
        rep = variation_constant(2.0, 3, a=(1.0, 1.0), method="exact")
        assert rep.value == pytest.approx(1.0, abs=2e-6)

    def test_p4_fourth_moment_identity(self):
        # oracle: Rademacher fourth moment 3*S1^2 - 2*S2 with S_r = sum rho^(2rj)
        rho = 2.0 ** -0.75
        s1 = rho ** 2 / (1 - rho ** 2)
        s2 = rho ** 4 / (1 - rho ** 4)
        expected = 3 * s1 ** 2 - 2 * s2
        closed = variation_constant(4.0, 2, method="closed")
        assert closed.value == pytest.approx(expected, rel=1e-14)
        enum = variation_constant(4.0, 2, method="exact", J=20)
        assert enum.value == pytest.approx(expected, abs=enum.error_bound + 1e-12)

    def test_monte_carlo_reports_error_bars(self):
        rep = variation_constant(2.0, 2, method="mc", N=200_000, seed=0)
        assert rep.stderr is not None and rep.stderr < 5e-4
        assert abs(rep.value - 1.0) < 4 * rep.stderr + 1e-6

    def test_monte_carlo_deterministic_in_seed(self):
        a = variation_constant(3.0, 2, method="mc", N=50_000, seed=9)
        b = variation_constant(3.0, 2, method="mc", N=50_000, seed=9)
        assert a.value == b.value

    def test_budget_errors(self):
        with pytest.raises(BudgetError):
            variation_constant(2.0, 2, method="exact", J=40)
        with pytest.raises(BudgetError):
            variation_constant(1.05, 2, method="exact", tol=1e-12)

    def test_closed_form_requires_even_p(self):
        with pytest.raises(ValidationError):
            variation_constant(3.0, 2, method="closed")

    @pytest.mark.parametrize("J", (0, -3))
    def test_truncation_depth_below_one_rejected(self, J):
        # J = -3 used to report value 0.0 from a fractional term count
        with pytest.raises(ValidationError, match="truncation depth J must be >= 1"):
            variation_constant(2.0, 2, method="exact", J=J)

    @pytest.mark.parametrize("q", (1, 0))
    def test_branching_factor_below_two_rejected(self, q):
        with pytest.raises(ValidationError, match="q must be >= 2"):
            variation_constant(2.0, q)

    def test_monte_carlo_needs_two_samples(self):
        # one sample used to report stderr 0.0
        with pytest.raises(ValidationError, match="N >= 2"):
            variation_constant(2.0, 2, method="mc", N=1)
        assert variation_constant(2.0, 2, method="mc", N=2, seed=0).stderr > 0.0

    # a NaN tolerance used to stop the search at J = 1, and tol = -1 to
    # report a budget overrun
    @pytest.mark.parametrize("tol", (math.nan, math.inf, 0.0, -1.0))
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError, match="tol must be finite and > 0"):
            variation_constant(2.0, 2, tol=tol)


_G = qadic_path([0.0, 1.0, 0.0])


# every function taking a variation exponent refuses NaN, which passes p <= 1
@pytest.mark.parametrize("p", (1.0, math.nan, math.inf))
@pytest.mark.parametrize("call", [
    lambda p: UniformMagnitudeSpec(p=p),
    lambda p: variation_constant(p),
    lambda p: pvar_profile(_G, p),
    lambda p: xi(CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros(1),)), p, 0),
    lambda p: stability_bound(_G, _G, p, 1.0),
], ids=["spec", "variation_constant", "pvar_profile", "xi", "stability_bound"])
def test_exponent_must_be_finite_above_one(call, p):
    with pytest.raises(ValidationError, match="exponent p must be finite and > 1"):
        call(p)


def mean_abs_pow_out_of_place(a, b, p):
    """Reference for the enumeration kernel: the same blocks, power out of place."""
    total = 0.0
    block = max(1, (1 << 21) // max(1, b.size))
    for start in range(0, a.size, block):
        chunk = a[start:start + block, None] + b[None, :]
        np.abs(chunk, out=chunk)
        total += float(np.sum(chunk ** p))
    return total / (a.size * b.size)


class TestMonteCarloSampler:
    # exact references: q=3, J=13 certifies 2.9e-7; q=2, p=1.5, J=24 certifies 1.7e-3
    CASES = {
        "q3-a12-p3": (dict(p=3.0, q=3, a=(1.0, 2.0)), dict(tol=1e-6)),
        "q2-p1.5": (dict(p=1.5, q=2), dict(J=24)),
    }

    @pytest.fixture(scope="class")
    def exact(self):
        return {name: variation_constant(**args, method="exact", **opts)
                for name, (args, opts) in self.CASES.items()}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_exact_enumeration(self, exact, case, seed):
        args, _ = self.CASES[case]
        mc = variation_constant(**args, method="mc", N=400_000, seed=seed)
        ref = exact[case]
        assert abs(mc.value - ref.value) <= 4 * mc.stderr + ref.error_bound

    @pytest.mark.parametrize("N", (2, 127, MC_CHUNK + 1))
    def test_repeats_for_one_seed(self, N):
        first = variation_constant(1.5, 2, method="mc", N=N, seed=4)
        second = variation_constant(1.5, 2, method="mc", N=N, seed=4)
        assert (first.value, first.stderr) == (second.value, second.stderr)
        assert first.details == second.details
        assert first.details["strata"] == (1 if N < 128 else 1024)
        assert math.isfinite(first.value) and first.stderr > 0.0

    def test_memory_does_not_grow_with_samples(self):
        def peak(N):
            tracemalloc.start()
            try:
                variation_constant(1.5, 2, method="mc", N=N, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4_000_000) <= 1.1 * peak(1_000_000)


class TestEnumerationKernel:
    @pytest.mark.parametrize("p", (1.5, 2.0, 2.5, 3.0, 4.0))
    def test_in_place_power_keeps_the_bits(self, p):
        rho = 2.0 ** -(1.0 - 1.0 / p)
        etas = np.array([1.0, -1.0])
        a = _cross_sums([rho ** j * etas for j in range(1, 12)])
        b = _cross_sums([rho ** j * etas for j in range(12, 23)])
        assert a.size > (1 << 21) // b.size     # 2048 rows of a, 1024 per block
        assert _mean_abs_pow(a, b, p) == mean_abs_pow_out_of_place(a, b, p)


def series_increments(spec, n, ks=None):
    """sum_j rho**j y_{n-j} w_j(k) for each k, from the weight patterns."""
    D, sigma = weight_patterns(spec, n, ks)
    coef = np.array([spec.rho ** j * spec.y(n - j) for j in range(1, n + 1)])
    return (sigma * spec.eta_values()[D]) @ coef


class TestIncrementDecomposition:
    def test_first_level_all_plus(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=4)
        assert series_increments(spec, 1, [0])[0] == pytest.approx(2.0 ** 0.5 * 0.5, rel=1e-15)

    def test_zero_magnitudes(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=4, c_rule=(0.0,) * 4)
        assert series_increments(spec, 3, [5])[0] == 0.0

    def test_ternary_digits_drive_weights(self):
        spec = UniformMagnitudeSpec(q=3, p=2.0, levels=6, a=(1.0, 1.0))
        D, sigma = weight_patterns(spec, 5, [71])
        assert D.tolist() == [[2, 2, 1, 2, 0]]
        etas = spec.eta_values()
        np.testing.assert_allclose(sigma[0] * etas[D[0]], etas[[2, 2, 1, 2, 0]], rtol=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            UniformMagnitudeSpec(q=2, p=2.0, levels=8),
            UniformMagnitudeSpec(q=2, p=3.0, levels=8, signs=13),
            UniformMagnitudeSpec(q=3, p=2.0, levels=8, a=(1.0, -0.5)),
        ],
    )
    def test_matches_synthesized_increments(self, spec):
        n = 8
        x = reference_path(spec, n)
        scaled = spec.q ** (n / spec.p) * x.increments()
        assert np.max(np.abs(series_increments(spec, n) - scaled)) <= 1e-12


class TestSignMatrix:
    def test_three_levels_all_plus(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0, levels=4), 3)
        assert rep.bijection and rep.distinct == 8
        assert rep.gap <= 1e-12

    def test_single_level(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0, levels=2), 1)
        assert rep.bijection and rep.distinct == 2

    def test_seeded_signs_still_bijective(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0, levels=10, signs=21), 10)
        assert rep.bijection
        assert rep.gap <= 1e-12

    def test_budget(self):
        with pytest.raises(BudgetError):
            sign_matrix(UniformMagnitudeSpec(q=2, p=2.0, levels=24), 24)


class TestSigmaIndependence:
    def test_terminal_level_sums_ignore_signs(self):
        # the pattern multiset is the same for any sign array
        base = None
        for signs in ("plus", 1, 2):
            spec = UniformMagnitudeSpec(q=2, p=2.0, levels=12, signs=signs)
            v = pvar_profile(reference_path(spec, 12), 2.0, eval_level=0).terminal
            base = v if base is None else base
            assert abs(v - base) <= 1e-12


class TestTransportMultiply:
    def make_reference(self, n=10):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=n)
        x = reference_path(spec, n)
        return x, pvar_profile(x, 2.0, eval_level=n)

    def test_unit_multiplier(self):
        x, prof = self.make_reference()
        g = SampledPath(grid=x.grid, values=np.ones_like(x.values))
        res = transport_multiply(g, x, prof, 2.0)
        np.testing.assert_array_equal(res.y.values, x.values)
        np.testing.assert_allclose(res.predicted.values, prof.values, atol=1e-13)

    def test_constant_multiplier_scales_exactly(self):
        x, prof = self.make_reference()
        c = -1.7
        g = SampledPath(grid=x.grid, values=np.full_like(x.values, c))
        res = transport_multiply(g, x, prof, 2.0)
        emp = pvar_profile(res.y, 2.0, eval_level=prof.eval_level)
        np.testing.assert_allclose(emp.values, c ** 2 * prof.values, rtol=1e-12)
        np.testing.assert_allclose(res.predicted.values, c ** 2 * prof.values, rtol=1e-12)

    @pytest.mark.parametrize("gfun", [lambda u: u, lambda u: 1 + u ** 2 / 2])
    def test_smooth_multiplier_within_two_percent(self, gfun):
        x, prof = self.make_reference(16)
        g = SampledPath(grid=x.grid, values=gfun(x.grid.points))
        res = transport_multiply(g, x, prof, 2.0)
        emp = pvar_profile(res.y, 2.0, eval_level=prof.eval_level)
        gap = np.max(np.abs(emp.values - res.predicted.values))
        assert gap <= 0.02 * (1 + res.predicted.terminal)

    def test_quadratic_target_from_linear_multiplier(self):
        x, prof = self.make_reference(16)
        g = SampledPath(grid=x.grid, values=x.grid.points.copy())
        res = transport_multiply(g, x, prof, 2.0)
        target = res.predicted.eval_points ** 3 / 3
        assert np.max(np.abs(res.predicted.values - target)) <= 2e-4
        emp = pvar_profile(res.y, 2.0, eval_level=prof.eval_level)
        assert np.max(np.abs(emp.values - target)) <= 0.02 * (1 + target[-1])

    def test_grid_mismatch(self):
        x, prof = self.make_reference()
        g = SampledPath(grid=qadic_grid(2, 9), values=np.ones(2 ** 9 + 1))
        with pytest.raises(ValidationError):
            transport_multiply(g, x, prof, 2.0)


class TestRecipe:
    def test_constant_density_matches_linear_target(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=12)
        res = recipe(lambda t: np.ones_like(t), spec, 12)
        prof = pvar_profile(res.y, 2.0)
        gap = np.max(np.abs(prof.values - prof.eval_points))
        assert gap <= 0.02 * 2
        assert res.multiplier_trend.trend == "vanishing"

    def test_negative_density_rejected(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=6)
        bad = np.ones(2 ** 6 + 1)
        bad[5] = -1e-9
        with pytest.raises(ValidationError):
            recipe(bad, spec, 6)

    def test_zero_touching_density_allowed(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=8)
        res = recipe(lambda t: t, spec, 8)  # density vanishes at 0
        assert np.isfinite(res.y.values).all()

    def test_rough_multiplier_warns(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=8)
        rough = reference_path(UniformMagnitudeSpec(q=2, p=2.0, levels=8, signs=5), 8)
        density = (rough.values + 2.0) ** 2
        with pytest.warns(UserWarning, match="vanishing"):
            recipe(density, spec, 8)

    def test_target_is_cumulative_integral(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0, levels=10)
        res = recipe(lambda t: np.exp(t), spec, 10)
        target = np.exp(res.y.grid.points) - 1
        assert np.max(np.abs(res.target - target)) <= 1e-6


class TestShiftedReference:
    def test_shift_gives_positive_floor(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, levels=8), 8)
        shift = x.sup_norm() + 1.0
        xb = shifted_reference(x, shift)
        assert np.min(xb.samples) >= shift - x.sup_norm() - 1e-12
        assert np.min(xb.samples) >= 1.0 - 1e-12

    def test_equal_shift_rejected(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, levels=6), 6)
        with pytest.raises(ValidationError):
            shifted_reference(x, x.sup_norm())

    def test_profiles_bitwise_identical(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, levels=8, signs=3), 8)
        xb = shifted_reference(x, x.sup_norm() + 2.0)
        for p in (2.0, 3.5):
            a = pvar_profile(x, p, eval_level=8).values
            b = pvar_profile(xb, p, eval_level=8).values
            assert np.array_equal(a, b)


class TestBernstein:
    def test_constant_reproduced_bitwise(self):
        grid = qadic_grid(2, 8)
        out = bernstein(lambda t: np.full_like(t, 0.7), 16, grid)
        assert np.all(out.values == 0.7)

    def test_affine_reproduced(self):
        grid = qadic_grid(2, 9)
        out = bernstein(lambda t: t, 32, grid)
        assert np.max(np.abs(out.values - grid.points)) <= 1e-13

    def test_sampled_path_input(self):
        grid = qadic_grid(2, 6)
        z = SampledPath(grid=grid, values=grid.points ** 2)
        out = bernstein(z, 8, grid)
        # degree-8 smoothing of t^2: exact value is t^2 + t(1-t)/8
        target = grid.points ** 2 + grid.points * (1 - grid.points) / 8
        assert np.max(np.abs(out.values - target)) <= 1e-12

    def test_holder_bound_seeded(self):
        grid = qadic_grid(2, 10)
        rng = np.random.default_rng(7)
        for degree in (4, 16, 64):
            zv = rng.uniform(-1, 1, degree + 1)
            nodes = np.arange(degree + 1) / degree
            out = bernstein(lambda t: np.interp(t, nodes, zv), degree, grid)
            quot = holder_quotient(grid.points, out.values, 0.5)
            assert quot <= (2 * degree + 1) * np.max(np.abs(zv))

    def test_budget_checked_before_allocating(self, monkeypatch):
        grid = qadic_grid(2, 8)
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "1000")
        calls = []

        def z(t):
            calls.append(t.size)
            return t

        assert bernstein(z, 2, grid).values.size == 257    # 3 * 257 <= 1000
        with pytest.raises(BudgetError):
            bernstein(z, 3, grid)                           # 4 * 257 > 1000
        assert calls == [3]


class TestSplice:
    def make_pair(self, seed=3, depth=8):
        rng = np.random.default_rng(seed)
        cx = CoefficientArray(
            q=2, boundary=(0.2, -0.1),
            levels=tuple(rng.uniform(-1, 1, 2 ** m) for m in range(depth)),
        )
        cy = CoefficientArray(
            q=2, boundary=(0.0, 0.4),
            levels=tuple(rng.uniform(-1, 1, 2 ** m) for m in range(depth)),
        )
        return cx, cy

    def test_crossover_zero_keeps_boundary_only(self):
        cx, cy = self.make_pair()
        sp = splice(cx, cy, 0)
        assert sp.boundary == cx.boundary
        for m in range(8):
            np.testing.assert_array_equal(sp.levels[m], cy.levels[m])
        z = synthesize(sp, 8)
        x = synthesize(cx, 8)
        assert z.values[0] == x.values[0] and z.values[-1] == x.values[-1]

    def test_agrees_with_x_at_coarse_points(self):
        cx, cy = self.make_pair()
        for n in (1, 3, 5):
            z = synthesize(splice(cx, cy, n), 8)
            x = synthesize(cx, 8)
            stride = 2 ** (8 - n)
            assert np.max(np.abs(z.values[::stride] - x.values[::stride])) <= 1e-12

    def test_level_diagnostics_follow_y(self):
        cx, cy = self.make_pair()
        n = 4
        sp = splice(cx, cy, n)
        xs = xi_profile(sp, 2.5)
        ys = xi_profile(cy, 2.5)
        for m in range(n, 8):
            assert xs[m] == ys[m]

    def test_insufficient_levels(self):
        cx, cy = self.make_pair()
        short = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros(1),))
        with pytest.raises(ValidationError):
            splice(short, cy, 3)
        with pytest.raises(ValidationError):
            splice(cx, short, 3)
