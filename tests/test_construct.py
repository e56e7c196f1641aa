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
    stieltjes_against_profile,
    synthesize,
    variation_constant,
    xi,
    xi_profile,
)
from pvarpath import construct, oracle
from pvarpath.construct import weight_patterns
from pvarpath.oracle import (
    MC_CHUNK,
    _cross_sums,
    _mean_abs_pow,
    _mean_abs_pow_binomial,
    _series_weights,
)
from pvarpath.schauder import SampledPath


class TestSpec:
    def test_default_magnitudes(self):
        spec = UniformMagnitudeSpec(q=2, p=4.0)
        for m in range(6):
            assert spec.c(m) == pytest.approx(2.0 ** (m / 4), rel=1e-15)
        assert spec.rho == pytest.approx(2.0 ** -0.75, rel=1e-15)

    def test_q3_default_weights(self):
        spec = UniformMagnitudeSpec(q=3, p=2.0)
        assert spec.a == (1.0, 1.0)

    def test_sign_modes(self):
        plus = UniformMagnitudeSpec(q=2, p=2.0).sign_arrays(4)
        assert len(plus) == 4 and all(np.all(s == 1) for s in plus)
        seeded = UniformMagnitudeSpec(q=2, p=2.0, signs=3)
        first = [s.copy() for s in seeded.sign_arrays(6)]
        second = seeded.sign_arrays(6)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("signs", ["plus", 3])
    def test_sign_arrays_for_n_are_a_prefix(self, signs):
        spec = UniformMagnitudeSpec(q=2, p=2.0, signs=signs)
        short, long = spec.sign_arrays(5), spec.sign_arrays(8)
        assert [s.shape for s in short] == [(2 ** m,) for m in range(5)]
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        UniformMagnitudeSpec(q=2, p=2.0),
        UniformMagnitudeSpec(q=2, p=3.0, signs=7),
        UniformMagnitudeSpec(q=3, p=2.5, a=(1.0, -0.5)),
    ], ids=["q2-plus", "q2-seeded", "q3"])
    def test_reference_path_ignores_finer_levels(self, spec):
        # levels m >= n vanish at every level-n point, so building them
        # changes no sample
        n = 6
        finer = synthesize(build_reference(spec, n + 3), n)
        np.testing.assert_array_equal(reference_path(spec, n).values, finer.values)

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
                UniformMagnitudeSpec(q=2, p=2.0, signs=signs)
        assert UniformMagnitudeSpec(q=2, signs=3).signs == 3
        assert UniformMagnitudeSpec(q=2).signs == "plus"


class TestBuildReference:
    def test_p2_all_plus_is_ones(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=2.0), 3)
        for m in range(3):
            np.testing.assert_array_equal(coeffs.levels[m], np.ones((2 ** m, 1)))
        assert coeffs.boundary == (0.0, 0.0)

    def test_p4_magnitude_growth(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=4.0), 4)
        for m in range(4):
            np.testing.assert_allclose(
                coeffs.levels[m], 2.0 ** (m / 4) * np.ones((2 ** m, 1)), rtol=1e-15
            )

    def test_q3_unit_weights(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0)), 3)
        for m in range(3):
            np.testing.assert_array_equal(coeffs.levels[m], np.ones((3 ** m, 2)))

    def test_budget_checked_before_allocating(self, monkeypatch):
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "100")
        with pytest.raises(BudgetError):
            build_reference(UniformMagnitudeSpec(q=2, p=2.0), 10)


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

    # the enumeration budget of 2**26 strings holds J <= 26 digits at q = 2
    # and J <= 16 at q = 3
    @pytest.mark.parametrize("q, J_max", [(2, 26), (3, 16)])
    def test_budget_allows_exactly_J_max(self, q, J_max):
        assert variation_constant(2.0, q, J=J_max).details["terms"] == q ** J_max
        with pytest.raises(BudgetError, match=f"largest J allowed is {J_max}"):
            variation_constant(2.0, q, J=J_max + 1)

    # the default tol is out of reach at p = 1.5 (best bounds 8.7e-4 at q = 2
    # and 1.3e-3 at q = 3)
    @pytest.mark.parametrize("q", (2, 3))
    @pytest.mark.parametrize("p, tol", [(1.5, 1e-2), (2.0, 1e-6), (2.5, 1e-6), (3.0, 1e-6)])
    def test_reported_J_is_the_smallest_meeting_tol(self, p, q, tol):
        rep = variation_constant(p, q, tol=tol)
        J = rep.details["J"]
        assert rep.error_bound <= tol and J > 1
        assert variation_constant(p, q, J=J - 1).error_bound > tol

    def test_construct_reexports_the_oracle(self):
        assert construct.variation_constant is oracle.variation_constant

    def test_closed_form_requires_even_p(self):
        with pytest.raises(ValidationError):
            variation_constant(3.0, 2, method="closed")

    # the raw-moment recursion keeps its digits where the cumulant route it
    # replaced cancelled: at q = 2 that was off by 1.6e-4 relative at p = 24,
    # gave 0.1875 for 0.1255 at p = 28 and -196608 at p = 34
    @pytest.mark.parametrize("q, a", [(2, None), (5, None), (3, (1.0, -2.0)),
                                      (4, (1.0, 2.0, -0.5))])
    @pytest.mark.parametrize("p", (8.0, 16.0, 24.0, 28.0, 34.0))
    def test_closed_form_within_the_exact_bound(self, p, q, a):
        closed = variation_constant(p, q, a, method="closed")
        exact = variation_constant(p, q, a, method="exact", tol=1e-6 * closed.value)
        assert abs(closed.value - exact.value) <= exact.error_bound

    # C(p, p/2) is within float64 up to p = 1028 and overflows from p = 1030
    def test_closed_form_stops_where_the_binomials_overflow(self):
        p = oracle.CLOSED_FORM_MAX_P
        assert math.isfinite(float(math.comb(p, p // 2)))
        with pytest.raises(OverflowError):
            float(math.comb(p + 2, p // 2 + 1))
        assert variation_constant(float(p), 2, method="closed").value > 0
        with pytest.raises(ValidationError, match=f"so p <= {p}; got p={p + 2}"):
            variation_constant(p + 2.0, 2, method="closed")

    @pytest.mark.parametrize("method", ("exact", "mc", "closed"))
    def test_moment_underflowing_to_zero_rejected(self, method):
        with pytest.raises(ValidationError, match="moment by .* underflows float64 to 0.0"):
            variation_constant(2.0, 3, (1e-200, 1e-200), method=method, N=1000)

    @pytest.mark.parametrize("J", (0, -3))
    def test_truncation_depth_below_one_rejected(self, J):
        # J = -3 used to report value 0.0 from a fractional term count
        with pytest.raises(ValidationError, match="truncation depth J must be >= 1"):
            variation_constant(2.0, 2, method="exact", J=J)

    @pytest.mark.parametrize("q", (1, 0))
    def test_branching_factor_below_two_rejected(self, q):
        with pytest.raises(ValidationError, match="q must be an integer >= 2"):
            variation_constant(2.0, q)

    def test_monte_carlo_needs_two_samples(self):
        # one sample used to report stderr 0.0
        with pytest.raises(ValidationError, match="N >= 2"):
            variation_constant(2.0, 2, method="mc", N=1)
        assert variation_constant(2.0, 2, method="mc", N=2, seed=0).stderr > 0.0

    @pytest.mark.parametrize("q, a", [(2, None), (3, (1.0, -0.5))])
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_power_sums_keep_the_pairwise_accounting(self, monkeypatch, p, q, a):
        fast = variation_constant(p, q, a, method="exact")
        monkeypatch.setattr(oracle, "_mean_abs_pow_binomial", oracle._mean_abs_pow)
        pairwise = variation_constant(p, q, a, method="exact")
        assert (fast.method, fast.error_bound, fast.details) == \
            (pairwise.method, pairwise.error_bound, pairwise.details)
        assert fast.value == pytest.approx(pairwise.value, rel=1e-15)

    def test_integer_p_never_pairs_every_string(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the O(q**J) pairwise kernel ran for an integer p")

        monkeypatch.setattr(oracle, "_mean_abs_pow", refuse)
        for p in (2.0, 3.0, 4.0):
            variation_constant(p, 2)
            variation_constant(p, 3, a=(1.0, 2.0))
        res = recipe(lambda t: np.ones_like(t), UniformMagnitudeSpec(q=2, p=2.0), 6)
        assert res.constant.details["terms"] == 2 ** 23

    # beyond float64 the moment is refused, whichever kernel sums it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, a", [(4.0, (1e100, 1.0)), (3.0, (1e110, 1.0)),
                                      (2.5, (1e130, 1.0))])
    def test_overflowing_moment_rejected(self, p, a):
        with pytest.raises(ValidationError, match=f"the p={p} moment .* overflows float64"):
            variation_constant(p, 3, a, method="exact", J=5)

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
    lambda p: xi(CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros((1, 1)),)), p, 0),
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

    # (q, branch weights, J): unit and non-unit weights, one of them negative
    SPLITS = [(2, None, 9), (3, None, 6), (3, (1.0, 2.5), 6), (3, (1.0, -0.5), 7),
              (4, None, 5), (4, (1.0, -0.5, 2.0), 5)]

    @pytest.mark.parametrize("p", (2, 3, 4, 5, 7, 8, 15))
    @pytest.mark.parametrize("q, a, J", SPLITS, ids=[f"q{q}-a{a}" for q, a, _ in SPLITS])
    def test_power_sums_match_an_fsum_of_all_pairs(self, p, q, a, J):
        etas, rho = _series_weights(float(p), q, a)
        head = _cross_sums([rho ** j * etas for j in range(1, J // 2 + 1)])
        tail = _cross_sums([rho ** j * etas for j in range(J // 2 + 1, J + 1)])
        pairs = np.abs(head[:, None] + tail[None, :]).ravel() ** p
        reference = math.fsum(pairs) / pairs.size
        assert _mean_abs_pow_binomial(head, tail, p) == pytest.approx(reference, rel=1e-15)

    @pytest.mark.parametrize("p", (3, 5))
    def test_power_sums_with_exact_ties(self, p):
        # a_i + b_j = 0 for three pairs; every partial sum is an exact integer
        a = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        b = np.array([1.0, -1.0, 0.0, 3.0])
        direct = math.fsum(np.abs(a[:, None] + b[None, :]).ravel() ** p) / (a.size * b.size)
        assert _mean_abs_pow_binomial(a, b, p) == direct


def series_increments(spec, n, ks=None):
    """sum_j rho**j w_j(k) for each k, from the weight patterns."""
    D, sigma = weight_patterns(spec, n, ks)
    coef = np.array([spec.rho ** j for j in range(1, n + 1)])
    return (sigma * spec.eta_values()[D]) @ coef


class TestIncrementDecomposition:
    def test_first_level_all_plus(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        assert series_increments(spec, 1, [0])[0] == pytest.approx(2.0 ** 0.5 * 0.5, rel=1e-15)

    def test_ternary_digits_drive_weights(self):
        spec = UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0))
        D, sigma = weight_patterns(spec, 5, [71])
        assert D.tolist() == [[2, 2, 1, 2, 0]]
        etas = spec.eta_values()
        np.testing.assert_allclose(sigma[0] * etas[D[0]], etas[[2, 2, 1, 2, 0]], rtol=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            UniformMagnitudeSpec(q=2, p=2.0),
            UniformMagnitudeSpec(q=2, p=3.0, signs=13),
            UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, -0.5)),
        ],
    )
    def test_matches_synthesized_increments(self, spec):
        n = 8
        x = reference_path(spec, n)
        scaled = spec.q ** (n / spec.p) * x.increments()
        assert np.max(np.abs(series_increments(spec, n) - scaled)) <= 1e-12


class TestSignMatrix:
    def test_three_levels_all_plus(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0), 3)
        assert rep.bijection and rep.distinct == 8
        assert rep.gap <= 1e-12

    def test_single_level(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0), 1)
        assert rep.bijection and rep.distinct == 2

    @pytest.mark.parametrize("n", (0, -2))
    def test_level_below_one_rejected(self, n):
        with pytest.raises(ValidationError, match=f"level n must be >= 1, got {n}"):
            sign_matrix(UniformMagnitudeSpec(q=2, p=2.0), n)

    def test_seeded_signs_still_bijective(self):
        rep = sign_matrix(UniformMagnitudeSpec(q=2, p=2.0, signs=21), 10)
        assert rep.bijection
        assert rep.gap <= 1e-12

    def test_budget(self):
        with pytest.raises(BudgetError):
            sign_matrix(UniformMagnitudeSpec(q=2, p=2.0), 24)


class TestSigmaIndependence:
    def test_terminal_level_sums_ignore_signs(self):
        # the pattern multiset is the same for any sign array
        base = None
        for signs in ("plus", 1, 2):
            spec = UniformMagnitudeSpec(q=2, p=2.0, signs=signs)
            v = pvar_profile(reference_path(spec, 12), 2.0, eval_level=0).terminal
            base = v if base is None else base
            assert abs(v - base) <= 1e-12


class TestRecipeTransport:
    """The transport identity on recipe output: y = g x has the variation
    predicted by the left-point Stieltjes sums of |g|^p against the profile
    of x.  A multiplier g is passed to ``recipe`` as hprime = C |g|^p."""

    def transport(self, gfun, n=10):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        x = reference_path(spec, n)
        prof = pvar_profile(x, 2.0, eval_level=n)
        gp = SampledPath(grid=x.grid, values=np.abs(gfun(x.grid.points)) ** 2)
        c = variation_constant(2.0, 2, method="exact").value
        res = recipe(c * gp.values, spec, n)
        assert res.constant.value == c
        predicted = stieltjes_against_profile(gp, prof)
        return x, prof, res.y, predicted

    def test_unit_multiplier(self):
        x, prof, y, predicted = self.transport(np.ones_like)
        np.testing.assert_array_equal(y.values, x.values)
        np.testing.assert_allclose(predicted, prof.values, atol=1e-13)

    def test_constant_multiplier_scales_exactly(self):
        c = -1.7
        x, prof, y, predicted = self.transport(lambda u: np.full_like(u, c))
        emp = pvar_profile(y, 2.0, eval_level=prof.eval_level)
        np.testing.assert_allclose(emp.values, c ** 2 * prof.values, rtol=1e-12)
        np.testing.assert_allclose(predicted, c ** 2 * prof.values, rtol=1e-12)

    @pytest.mark.parametrize("gfun", [lambda u: u, lambda u: 1 + u ** 2 / 2])
    def test_smooth_multiplier_within_two_percent(self, gfun):
        x, prof, y, predicted = self.transport(gfun, 16)
        emp = pvar_profile(y, 2.0, eval_level=prof.eval_level)
        gap = np.max(np.abs(emp.values - predicted))
        assert gap <= 0.02 * (1 + predicted[-1])

    def test_quadratic_target_from_linear_multiplier(self):
        x, prof, y, predicted = self.transport(lambda u: u.copy(), 16)
        target = prof.eval_points ** 3 / 3
        assert np.max(np.abs(predicted - target)) <= 2e-4
        emp = pvar_profile(y, 2.0, eval_level=prof.eval_level)
        assert np.max(np.abs(emp.values - target)) <= 0.02 * (1 + target[-1])


class TestRecipe:
    def test_constant_density_matches_linear_target(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        res = recipe(lambda t: np.ones_like(t), spec, 12)
        prof = pvar_profile(res.y, 2.0)
        gap = np.max(np.abs(prof.values - prof.eval_points))
        assert gap <= 0.02 * 2
        assert res.multiplier_trend.trend == "vanishing"

    def test_constant_without_a_correct_digit_refused(self):
        # the exact oracle stops at J = 3 with a bound of 6.27e-8 on a value
        # of 7.26e-11; dividing by it gave a path 1.37 times its target
        spec = UniformMagnitudeSpec(q=5, p=200.0)
        with pytest.raises(BudgetError, match="7.26e-11 with error bound 6.27e-08"):
            recipe(lambda t: np.ones_like(t), spec, 2)

    def test_negative_density_rejected(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        bad = np.ones(2 ** 6 + 1)
        bad[5] = -1e-9
        with pytest.raises(ValidationError):
            recipe(bad, spec, 6)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_nonfinite_density_rejected(self, bad):
        # NaN used to pass the sign check and fail later on the path values
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        density = np.ones(2 ** 6 + 1)
        density[7] = bad
        with pytest.raises(ValidationError, match="hprime samples must be finite"):
            recipe(density, spec, 6)

    def test_zero_touching_density_allowed(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        res = recipe(lambda t: t, spec, 8)  # density vanishes at 0
        assert np.isfinite(res.y.values).all()

    # the diagnostic is reported on the result, not as a warning
    @pytest.mark.filterwarnings("error")
    def test_rough_multiplier_is_flagged(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        rough = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=5), 8)
        density = (rough.values + 2.0) ** 2
        assert recipe(density, spec, 8).multiplier_trend.trend != "vanishing"


class TestShiftedReference:
    def test_shift_gives_positive_floor(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        shift = x.sup_norm() + 1.0
        xb = shifted_reference(x, shift)
        assert np.min(xb.values) >= shift - x.sup_norm() - 1e-12
        assert np.min(xb.values) >= 1.0 - 1e-12

    def test_equal_shift_rejected(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 6)
        with pytest.raises(ValidationError):
            shifted_reference(x, x.sup_norm())

    def test_shift_keeps_profiles(self):
        # shifted values round their increments, so profiles agree to
        # rounding, not bit for bit
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=3), 8)
        shift = x.sup_norm() + 2.0
        xb = shifted_reference(x, shift)
        np.testing.assert_array_equal(xb.values, x.values + shift)
        for p in (2.0, 3.5):
            a = pvar_profile(x, p, eval_level=8)
            b = pvar_profile(xb, p, eval_level=8)
            assert np.max(np.abs(b.values - a.values)) <= 1e-13 * a.terminal


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

    def test_budget_counts_points_without_building_them(self, monkeypatch):
        monkeypatch.delenv("PVAR_MAX_INTERVALS", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                bernstein(lambda t: t, 64, qadic_grid(2, 24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSplice:
    def make_pair(self, seed=3, depth=8):
        rng = np.random.default_rng(seed)
        cx = CoefficientArray(
            q=2, boundary=(0.2, -0.1),
            levels=tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(depth)),
        )
        cy = CoefficientArray(
            q=2, boundary=(0.0, 0.4),
            levels=tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(depth)),
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
        short = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros((1, 1)),))
        with pytest.raises(ValidationError):
            splice(short, cy, 3)
        with pytest.raises(ValidationError):
            splice(cx, short, 3)
