import math
import signal
import tracemalloc

import numpy as np
import pytest

from pvarpath import (
    BudgetError,
    CoefficientArray,
    PartitionGrid,
    UniformMagnitudeSpec,
    ValidationError,
    VariationProfile,
    analyze,
    build_reference,
    eta_all,
    gamma,
    gamma_rows,
    haar_eval,
    power_table,
    pullback_path,
    pvar_profile,
    qadic_grid,
    qadic_path,
    reference_path,
    schauder_eval,
    synthesize,
    xi,
)
from pvarpath.schauder import SampledPath, _refinement, gamma_cumulative

SQ2 = math.sqrt(2.0)


class TestGamma:
    def test_dyadic_row_is_haar_signs(self):
        assert gamma(2, 1, 0) == 1.0
        assert gamma(2, 1, 1) == -1.0

    def test_ternary_first_branch(self):
        root = math.sqrt(1.5)
        assert gamma(3, 1, 0) == pytest.approx(root, abs=1e-15)
        assert gamma(3, 1, 1) == pytest.approx(-root, abs=1e-15)
        assert gamma(3, 1, 2) == 0.0

    def test_ternary_second_branch(self):
        assert gamma(3, 2, 0) == pytest.approx(1 / SQ2, abs=1e-15)
        assert gamma(3, 2, 1) == pytest.approx(1 / SQ2, abs=1e-15)
        assert gamma(3, 2, 2) == pytest.approx(-SQ2, abs=1e-15)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_rows_mean_zero_orthonormal(self, q):
        rows = gamma_rows(q)
        assert np.max(np.abs(rows.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(rows @ rows.T / q - np.eye(q - 1))) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5, 64, 1024])
    def test_rows_equal_scalar_table(self, q):
        table = [[gamma(q, l, d) for d in range(q)] for l in range(1, q)]
        assert np.array_equal(gamma_rows(q), np.array(table))

    def test_budget_checked_before_filling(self, monkeypatch):
        def no_fill(*args, **kwargs):
            raise AssertionError("the table was filled before the budget check")

        monkeypatch.setattr(np, "where", no_fill)
        with pytest.raises(BudgetError, match="q=100000 needs 9999900000 entries"):
            gamma_rows(100_000)
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "5")
        with pytest.raises(BudgetError, match="budget is 5"):
            gamma_rows(3)

    def test_index_errors(self):
        with pytest.raises(ValidationError):
            gamma(3, 3, 0)
        with pytest.raises(ValidationError):
            gamma(3, 1, 3)


class TestEta:
    def test_unit_weights_last_child(self):
        assert eta_all((1.0, 1.0), 3)[2] == pytest.approx(-SQ2, abs=1e-15)

    def test_unit_weight_reduces_to_first_row(self):
        for q in (2, 3, 5):
            a = np.zeros(q - 1)
            a[0] = 1.0
            assert eta_all(a, q).tolist() == [gamma(q, 1, d) for d in range(q)]

    def test_mean_square_equals_weight_norm(self):
        vals = eta_all((1.0, 1.0), 3)
        assert np.mean(vals ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            eta_all((1.0, 1.0, 1.0), 3)
        with pytest.raises(ValidationError):
            eta_all((0.0, 0.0), 3)
        for a in ((np.nan, 1.0), (1.0, np.inf), (1e308, 1e308)):
            with pytest.raises(ValidationError, match="must be finite"):
                eta_all(a, 3)


class TestCoefficientArray:
    def test_flat_dyadic_levels_rejected(self):
        # a dyadic level has one branch column, like every q-adic level
        with pytest.raises(ValidationError, match=r"level 0 must have shape \(1, 1\), got \(1,\)"):
            CoefficientArray(q=2, boundary=(0.0, 0.0), levels=([1.0], [1.0, -1.0]))
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=([[1.0]], [[1.0], [-1.0]]))
        assert [lv.shape for lv in coeffs.levels] == [(1, 1), (2, 1)]


class TestHaarEval:
    def test_first_half(self):
        assert haar_eval(2, 0, 0, 1, 0.25) == 1.0

    def test_second_child_level_one(self):
        assert haar_eval(2, 1, 0, 1, 0.3) == pytest.approx(-SQ2, abs=1e-15)

    def test_ternary_middle_child(self):
        assert haar_eval(3, 0, 0, 1, 0.5) == pytest.approx(-math.sqrt(1.5), abs=1e-15)

    def test_zero_outside_support_and_at_one(self):
        assert haar_eval(2, 2, 1, 1, 0.9) == 0.0
        assert haar_eval(2, 0, 0, 1, 1.0) == 0.0

    def test_right_continuous_at_child_boundary(self):
        assert haar_eval(2, 1, 0, 1, 0.25) == -SQ2


class TestSchauderEval:
    def test_peak_of_root_tent(self):
        assert schauder_eval(2, 0, 0, 1, 0.5) == 0.5

    def test_zero_at_one(self):
        assert schauder_eval(2, 0, 0, 1, 1.0) == 0.0

    def test_level_one_quarter_area(self):
        assert schauder_eval(2, 1, 1, 1, 0.75) == pytest.approx(SQ2 / 4, abs=1e-16)

    @pytest.mark.parametrize("q", (2, 4))
    def test_vanishes_at_own_level_grid_points(self, q):
        # binary-float grids keep the zeros exact
        for m in (0, 1, 2):
            for k in range(q ** m):
                for t in qadic_grid(q, m).points:
                    assert schauder_eval(q, m, k, 1, float(t)) == 0.0

    def test_vanishes_outside_support(self):
        ts = np.linspace(0, 1, 101)
        vals = schauder_eval(2, 3, 2, 1, ts)
        outside = (ts <= 2 / 8) | (ts >= 3 / 8)
        assert np.all(vals[outside] == 0.0)

    def test_matches_quadrature_of_haar(self):
        # brute-force oracle: left Riemann sum of the step function
        ts = np.linspace(0.0, 1.0, 2049)
        steps = haar_eval(3, 1, 2, 2, ts[:-1])
        riemann = np.concatenate(([0.0], np.cumsum(steps) * (ts[1] - ts[0])))
        closed = schauder_eval(3, 1, 2, 2, ts)
        assert np.max(np.abs(riemann - closed)) < 2e-3


class TestAnalyze:
    def test_affine_has_zero_coefficients(self):
        grid = qadic_grid(2, 5)
        # binary-representable slope/intercept: samples are exact, so the
        # second differences vanish exactly
        path = SampledPath(grid=grid, values=0.5 + 0.25 * grid.points)
        coeffs = analyze(path)
        assert all(np.max(np.abs(lv)) == 0.0 for lv in coeffs.levels)
        assert coeffs.boundary == (0.5, 0.75)
        # generic affine data only rounds at the sample level
        noisy = analyze(SampledPath(grid=grid, values=0.7 + 1.3 * grid.points))
        assert max(np.max(np.abs(lv)) for lv in noisy.levels) <= 1e-12

    def test_parabola_root_coefficient(self):
        grid = qadic_grid(2, 4)
        t = grid.points
        coeffs = analyze(SampledPath(grid=grid, values=t * (1 - t)))
        assert coeffs.levels[0][0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_single_tent_recovered(self):
        base = CoefficientArray(q=2, boundary=(0.0, 0.0),
                                levels=(np.zeros((1, 1)), np.array([[1.0], [0.0]])))
        path = synthesize(base, 3)
        coeffs = analyze(path)
        assert coeffs.levels[1][0, 0] == pytest.approx(1.0, abs=1e-14)
        total = sum(np.sum(np.abs(lv)) for lv in coeffs.levels)
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_rejects_table_grids(self):
        grid = qadic_grid(2, 3)
        warped = grid.points ** 2
        from pvarpath.partition import PartitionGrid

        table_grid = PartitionGrid(q=2, level=3, table_points=warped)
        with pytest.raises(ValidationError):
            analyze(SampledPath(grid=table_grid, values=np.zeros(9)))


class TestSynthesize:
    def test_single_root_tent(self):
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.array([[1.0]]),))
        np.testing.assert_array_equal(synthesize(coeffs, 1).values, [0.0, 0.5, 0.0])

    def test_zero_coefficients_give_affine(self):
        coeffs = CoefficientArray(q=2, boundary=(2.0, -1.0),
                                  levels=(np.zeros((1, 1)), np.zeros((2, 1))))
        path = synthesize(coeffs, 4)
        np.testing.assert_array_equal(path.values, 2.0 - 3.0 * path.grid.points)

    @pytest.mark.parametrize("q", (2, 3, 4))
    def test_round_trip_seed_42(self, q):
        rng = np.random.default_rng(42)
        levels = tuple(rng.normal(size=(q ** m, q - 1)) for m in range(4))
        coeffs = CoefficientArray(q=q, boundary=(0.1, -0.4), levels=levels)
        back = analyze(synthesize(coeffs, 4))
        for m in range(4):
            np.testing.assert_allclose(back.levels[m], coeffs.levels[m], atol=1e-12)

    @pytest.mark.parametrize("q", (2, 3, 4))
    def test_fine_levels_do_not_affect_coarse_samples(self, q):
        rng = np.random.default_rng(1)
        levels = tuple(rng.normal(size=(q ** m, q - 1)) for m in range(8))
        coeffs = CoefficientArray(q=q, boundary=(0.0, 1.0), levels=levels)
        full = synthesize(coeffs, 4)
        zeroed = levels[:4] + tuple(np.zeros_like(a) for a in levels[4:])
        trimmed = synthesize(CoefficientArray(q=q, boundary=(0.0, 1.0), levels=zeroed), 4)
        np.testing.assert_array_equal(full.values, trimmed.values)

    @pytest.mark.parametrize("q", (2, 3, 4))
    def test_coarse_subgrids_are_coarse_syntheses(self, q):
        rng = np.random.default_rng(7)
        levels = tuple(rng.normal(size=(q ** m, q - 1)) for m in range(5))
        coeffs = CoefficientArray(q=q, boundary=(0.3, -0.2), levels=levels)
        fine = synthesize(coeffs, 5)
        for m in range(1, 5):
            np.testing.assert_array_equal(fine.restrict(m).values, synthesize(coeffs, m).values)

    @pytest.mark.parametrize("q, n", [(2, 18), (3, 12), (4, 9), (6, 7)])
    def test_blocks_keep_the_whole_level_bits(self, q, n):
        rng = np.random.default_rng(q)
        levels = tuple(rng.normal(size=(q ** m, q - 1)) for m in range(n))
        coeffs = CoefficientArray(q=q, boundary=(0.3, -1.2), levels=levels)
        want = np.empty(q ** n + 1)
        want[0], want[-1] = coeffs.boundary
        for m in range(n):
            interior, base = _refinement(want, q, n, m)
            interior[...] = base
            interior += q ** (-0.5 * m - 1) * levels[m] @ gamma_cumulative(q)[:, 1:q]
        assert synthesize(coeffs, n).values.tobytes() == want.tobytes()

    def test_result_is_not_copied(self):
        coeffs = build_reference(UniformMagnitudeSpec(q=2, p=2.0, signs=1), 20)
        tracemalloc.start()
        try:
            path = synthesize(coeffs, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.values.nbytes

    def test_round_trip_many_random_arrays(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            levels = tuple(rng.uniform(-3, 3, size=(2 ** m, 1)) for m in range(5))
            coeffs = CoefficientArray(
                q=2, boundary=tuple(rng.uniform(-1, 1, 2)), levels=levels
            )
            back = analyze(synthesize(coeffs, 5))
            worst = max(
                float(np.max(np.abs(back.levels[m] - coeffs.levels[m])))
                for m in range(5)
            )
            assert worst <= 1e-12


class TestXi:
    def test_normalized_magnitudes_give_one(self):
        for p in (1.5, 2.0, 3.0):
            levels = tuple(
                2 ** (m * (0.5 - 1 / p)) * np.ones((2 ** m, 1)) for m in range(6)
            )
            coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=levels)
            for m in range(6):
                assert xi(coeffs, p, m) == pytest.approx(1.0, abs=1e-12)

    def test_zero_array(self):
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros((1, 1)),))
        assert xi(coeffs, 2.5, 0) == 0.0

    def test_direct_formula(self):
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0),
                                  levels=(np.zeros((1, 1)), np.array([[3.0], [4.0]])))
        assert xi(coeffs, 2.0, 1) == pytest.approx(12.5, abs=1e-14)

    def test_requires_p_above_one(self):
        coeffs = CoefficientArray(q=2, boundary=(0.0, 0.0), levels=(np.zeros((1, 1)),))
        with pytest.raises(ValidationError):
            xi(coeffs, 1.0, 0)


class TestSampledPath:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            SampledPath(grid=qadic_grid(2, 2), values=np.zeros(4))

    def test_restrict_strides(self):
        vals = np.arange(9.0)
        path = qadic_path(vals, q=2)
        np.testing.assert_array_equal(path.restrict(1).values, [0.0, 4.0, 8.0])

    def test_writable_values_are_copied(self):
        vals = np.arange(9.0)
        path = qadic_path(vals, q=2)
        vals[4] = -1.0
        assert path.values[4] == 4.0
        assert not path.values.flags.writeable

    def test_restrict_shares_read_only_values(self):
        path = qadic_path(np.arange(9.0), q=2)
        pulled = pullback_path(path, power_table(2, 3))
        for level in (3, 1, 0):
            coarse = path.restrict(level)
            assert np.shares_memory(coarse.values, path.values)
            assert np.shares_memory(pulled.restrict(level).grid.points, pulled.grid.points)

    def test_restrict_to_its_own_level_is_itself(self):
        path = qadic_path(np.arange(9.0), q=2)
        assert path.restrict(3) is path
        assert path.restrict(2).level == 2

    def test_qadic_path_rejects_bad_count(self):
        with pytest.raises(ValidationError):
            qadic_path(np.zeros(6), q=2)

    @pytest.mark.parametrize("q", [1, 0])
    def test_qadic_path_rejects_q_below_two(self, q):
        # for q < 2 the search for n would never end
        def expire(signum, frame):
            pytest.fail("qadic_path still running after 10 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(ValidationError, match="integer >= 2"):
                qadic_path([0.0, 1.0, 0.0], q=q)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# every stored array goes through ``partition.frozen_floats``
_STORES = {
    "PartitionGrid": lambda a: PartitionGrid(2, 2, a).table_points,
    "SampledPath": lambda a: SampledPath(grid=qadic_grid(2, 2), values=a).values,
    "CoefficientArray": lambda a: CoefficientArray(
        q=2, boundary=(0.0, 0.0), levels=(a[:1, None], a[1:3, None])).levels[1],
    "VariationProfile": lambda a: VariationProfile(
        grid=qadic_grid(2, 2), eval_level=2, values=a).values,
}


@pytest.mark.parametrize("store", tuple(_STORES))
def test_caller_array_stays_writable_and_stored_array_is_read_only(store):
    a = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    stored = _STORES[store](a)
    assert a.flags.writeable
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, a)


@pytest.mark.parametrize("store", tuple(_STORES))
def test_read_only_array_is_stored_as_given(store):
    a = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    a.setflags(write=False)
    assert np.shares_memory(_STORES[store](a), a)


def test_pipeline_arrays_are_handed_over_read_only():
    spec = UniformMagnitudeSpec(q=3, p=2.0)
    path = reference_path(spec, 4)
    for coeffs in (build_reference(spec, 4), analyze(path)):
        assert not any(level.flags.writeable for level in coeffs.levels)
    for eval_level in (4, 2):
        assert not pvar_profile(path, 2.0, eval_level=eval_level).values.flags.writeable
