import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvarpath import (
    CoefficientArray,
    UniformMagnitudeSpec,
    ValidationError,
    VariationProfile,
    build_reference,
    holder_quotient,
    power_table,
    pvar_profile,
    qadic_grid,
    qadic_path,
    reference_path,
    splice,
    stieltjes_against_profile,
    synthesize,
    variation_index_estimate,
)
from pvarpath._util import cumsum_stable
from pvarpath.schauder import SampledPath


def linear_path(n, q=2):
    grid = qadic_grid(q, n)
    return SampledPath(grid=grid, values=grid.points.copy())


class TestPvarProfile:
    @pytest.mark.parametrize("p", [1.5, 2, 2.0, 2.5, 3.0, 4])
    def test_terms_keep_the_bits_of_abs_increments_to_the_p(self, p):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=3), 17)
        want = cumsum_stable(np.abs(np.diff(x.values)) ** p)
        assert pvar_profile(x, p, eval_level=17).values.tobytes() == want.tobytes()
    def test_linear_path_level_3(self):
        prof = pvar_profile(linear_path(3), 2.0, eval_level=0)
        assert prof.terminal == pytest.approx(1 / 8, abs=1e-16)

    def test_constant_path(self):
        path = qadic_path(np.full(17, 2.5), q=2)
        prof = pvar_profile(path, 3.0)
        assert np.all(prof.values == 0.0)

    def test_root_tent_level_1(self):
        path = qadic_path(np.array([0.0, 0.5, 0.0]), q=2)
        prof = pvar_profile(path, 2.0, eval_level=1)
        np.testing.assert_allclose(prof.values, [0.0, 0.25, 0.5], atol=1e-16)

    def test_clamping_cuts_later_terms(self):
        path = qadic_path(np.array([0.0, 1.0, 3.0, 0.0, 2.0]), q=2)
        prof = pvar_profile(path, 2.0, eval_level=2)
        np.testing.assert_allclose(prof.values, [0.0, 1.0, 5.0, 14.0, 18.0])

    def test_default_eval_grid_is_capped(self):
        prof = pvar_profile(linear_path(12), 2.0)
        assert prof.eval_points.size == 2 ** 10 + 1

    def test_eval_level_clamped_to_grid(self):
        path = linear_path(3)
        prof = pvar_profile(path, 2.0, eval_level=10)
        assert (prof.eval_level, prof.level, prof.stride) == (3, 3, 1)
        np.testing.assert_array_equal(prof.eval_points, path.grid.points)

    def test_negative_eval_level_rejected(self):
        # a negative level used to collapse the subgrid to t = 0 alone
        with pytest.raises(ValidationError, match="eval_level"):
            pvar_profile(linear_path(6), 2.0, eval_level=-1)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_t(self, seed):
        rng = np.random.default_rng(seed)
        path = qadic_path(rng.normal(size=2 ** 6 + 1), q=2)
        prof = pvar_profile(path, 2.5, eval_level=6)
        assert np.all(np.diff(prof.values) >= 0)
        assert prof.values[0] == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_p_per_level(self, seed):
        # comparing l^p norms of one increment vector: higher p is smaller
        rng = np.random.default_rng(seed)
        path = qadic_path(rng.normal(size=2 ** 6 + 1), q=2)
        pq = [(1.5, 2.0), (2.0, 3.0), (2.0, 7.5)]
        for p, q_exp in pq:
            vp = pvar_profile(path, p, eval_level=0).terminal ** (1 / p)
            vq = pvar_profile(path, q_exp, eval_level=0).terminal ** (1 / q_exp)
            assert vq <= vp + 1e-12


class TestHolderEmbedding:
    def test_linear_path_profiles_decay_geometrically(self):
        # alpha * p > 1 forces the level sums under quot^p * 2**(n(1-alpha p))
        alpha, p = 0.9, 2.0
        x = linear_path(10)
        quot = holder_quotient(x, alpha)
        for n in range(1, 11):
            total = pvar_profile(x.restrict(n), p, eval_level=0).terminal
            assert total <= quot ** p * 2.0 ** (n * (1 - alpha * p)) + 1e-15

    def test_piecewise_linear_difference_controls_profile_gap(self):
        # swapping coarse coefficients perturbs level sums by at most the
        # p-variation of the piecewise-linear difference (triangle bound),
        # which decays geometrically in the level
        rng = np.random.default_rng(8)
        cx = CoefficientArray(
            q=2, boundary=(0.0, 0.0),
            levels=tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(8)),
        )
        cy = CoefficientArray(
            q=2, boundary=(0.0, 0.0),
            levels=tuple(rng.uniform(-1, 1, (2 ** m, 1)) for m in range(8)),
        )
        n = 3
        spliced = splice(cx, cy, n)
        p = 2.0
        y = synthesize(cy, 8)
        y_n = synthesize(spliced, 8)
        pl = SampledPath(grid=y.grid, values=y_n.values - y.values)
        prev = None
        for m in range(n, 9):
            vy = pvar_profile(y.restrict(m), p, eval_level=0).terminal
            vn = pvar_profile(y_n.restrict(m), p, eval_level=0).terminal
            vd = pvar_profile(pl.restrict(m), p, eval_level=0).terminal
            assert abs(vn ** (1 / p) - vy ** (1 / p)) <= vd ** (1 / p) + 1e-12
            if prev is not None:
                assert vd <= 0.51 * prev  # rate 2**(1-p) = 1/2 for p = 2
            prev = vd


class TestVariationIndexEstimate:
    def test_reference_trends(self):
        p0 = 2.0
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=p0), 10)
        by_p = {p: variation_index_estimate(coeffs, p) for p in (1.5, 2.0, 3.0)}
        assert by_p[1.5].trend == "growing"
        assert by_p[2.0].trend == "bounded"
        assert by_p[3.0].trend == "vanishing"

    def test_affine_all_vanishing(self):
        coeffs = CoefficientArray(
            q=2, boundary=(0.0, 1.0),
            levels=tuple(np.zeros((2 ** m, 1)) for m in range(6)),
        )
        for p in (1.5, 2.0, 4.0):
            assert variation_index_estimate(coeffs, p).trend == "vanishing"

    def test_flat_diagnostic_has_zero_slope(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=2.0), 8)
        row = variation_index_estimate(coeffs, 2.0)
        assert abs(row.slope) <= 1e-9

    def test_needs_levels(self):
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros((1, 1)),))
        with pytest.raises(ValidationError):
            variation_index_estimate(coeffs, 2.0)


def synthetic_linear_profile(n, slope):
    grid = qadic_grid(2, n)
    return VariationProfile(grid=grid, eval_level=n, values=slope * grid.points)


class TestStieltjes:
    def test_unit_weight_returns_profile(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        prof = pvar_profile(x, 2.0)
        w = qadic_path(np.ones(2 ** 8 + 1), q=2)
        np.testing.assert_allclose(
            stieltjes_against_profile(w, prof), prof.values, atol=1e-14
        )

    def test_constant_weight_scales(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        prof = pvar_profile(x, 2.0)
        w = qadic_path(np.full(2 ** 8 + 1, 2.5), q=2)
        np.testing.assert_allclose(
            stieltjes_against_profile(w, prof), 2.5 * prof.values, atol=1e-13
        )

    def test_linear_weight_against_linear_profile(self):
        # oracle: sum of u * C du over [0, t] tends to C t^2 / 2 at O(mesh)
        n, slope = 10, 3.0
        prof = synthetic_linear_profile(n, slope)
        grid = qadic_grid(2, n)
        w = SampledPath(grid=grid, values=grid.points.copy())
        got = stieltjes_against_profile(w, prof)
        target = slope * prof.eval_points ** 2 / 2
        assert np.max(np.abs(got - target)) <= slope * 2.0 ** -n

    def test_coarse_profile_reads_weight_at_its_points(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0, signs=2), 8)
        prof = pvar_profile(x, 2.0, eval_level=3)
        w = SampledPath(grid=x.grid, values=np.exp(x.grid.points))
        expected = np.concatenate(([0.0], np.cumsum(
            np.exp(prof.eval_points[:-1]) * np.diff(prof.values))))
        np.testing.assert_array_equal(stieltjes_against_profile(w, prof), expected)

    def test_grid_mismatch(self):
        prof = synthetic_linear_profile(4, 1.0)
        coarser = qadic_path(np.ones(2 ** 3 + 1), q=2)
        with pytest.raises(ValidationError, match="profile's grid"):
            stieltjes_against_profile(coarser, prof)
        table_grid = power_table(2, 4)
        w = SampledPath(grid=table_grid, values=np.ones(2 ** 4 + 1))
        with pytest.raises(ValidationError, match="profile's grid"):
            stieltjes_against_profile(w, prof)


class TestBlockEquipartition:
    @pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
    def test_reference_blocks_share_variation(self, p):
        # the 2**4 level-4 blocks carry equal shares of the level-16 variation
        x = reference_path(UniformMagnitudeSpec(q=2, p=p), 16)
        prof = pvar_profile(x, p, eval_level=4)
        assert np.max(np.abs(np.diff(prof.values) - prof.terminal / 2 ** 4)) <= 1e-2
