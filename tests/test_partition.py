import tracemalloc

import numpy as np
import pytest

from pvarpath import (
    BudgetError,
    CoefficientArray,
    UniformMagnitudeSpec,
    ValidationError,
    build_homeomorphism,
    power_table,
    qadic_grid,
    qadic_table,
    random_refining_table,
    variation_constant,
)
from pvarpath import partition
from pvarpath.partition import PartitionGrid, digits_within, frozen_floats, qadic_level
from pvarpath.schauder import gamma_rows

# every place that takes a branching factor q applies the one rule of
# ``errors.check_branching``
_Q_SITES = {
    "PartitionGrid": lambda q: PartitionGrid(q=q, level=0),
    "qadic_level": lambda q: qadic_level(q, 9),
    "qadic_grid": lambda q: qadic_grid(q, 2),
    "random_refining_table": lambda q: random_refining_table(q, 2),
    "gamma_rows": gamma_rows,
    "CoefficientArray": lambda q: CoefficientArray(q=q, boundary=(0.0, 0.0), levels=()),
    "UniformMagnitudeSpec": lambda q: UniformMagnitudeSpec(q=q),
    "variation_constant": lambda q: variation_constant(2.0, q),
}


@pytest.mark.parametrize("q", (2.5, 3.0, 1, True), ids=("2.5", "3.0", "1", "True"))
@pytest.mark.parametrize("site", tuple(_Q_SITES))
def test_branching_factor_is_an_integer_of_two_or_more(site, q):
    with pytest.raises(ValidationError,
                       match=f"branching factor q must be an integer >= 2, got {q}$"):
        _Q_SITES[site](q)


@pytest.mark.parametrize("site", tuple(_Q_SITES))
def test_numpy_integer_branching_factor_accepted(site):
    _Q_SITES[site](np.int64(3))


class TestQadicGrid:
    def test_endpoints_only(self):
        assert qadic_grid(2, 0).points.tolist() == [0.0, 1.0]

    def test_quarters(self):
        assert qadic_grid(2, 2).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_thirds(self):
        np.testing.assert_array_equal(
            qadic_grid(3, 1).points, np.array([0.0, 1.0, 2.0, 3.0]) / 3.0
        )

    def test_count(self):
        g = qadic_grid(3, 4)
        assert g.points.size == 3 ** 4 + 1
        assert np.max(np.diff(g.points)) == pytest.approx(3.0 ** -4)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("PVAR_MAX_INTERVALS", "1024")
        with pytest.raises(BudgetError):
            qadic_grid(2, 11)
        qadic_grid(2, 10)  # exactly at budget is fine

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            qadic_grid(1, 3)
        with pytest.raises(ValidationError):
            qadic_grid(2, -1)


@pytest.mark.parametrize("q", range(2, 11))
def test_digits_within_matches_brute_force(q):
    for k in range(1, 8):
        for cap in (1, q ** k - 1, q ** k, q ** k + 1):
            assert digits_within(q, cap) == max(n for n in range(64) if q ** n <= cap), cap


class TestPartitionGrid:
    @pytest.mark.parametrize("points", [
        [0.0, np.nan, 0.5, 0.75, 1.0],
        [0.0, 0.5, 0.25, 0.75, 1.0],
        [0.0, 0.25, 0.25, 0.75, 1.0],
    ], ids=["nan", "decreasing", "repeated"])
    def test_rejects_points_not_strictly_increasing(self, points):
        with pytest.raises(ValidationError, match="strictly increasing"):
            PartitionGrid(q=2, level=2, table_points=np.array(points))

    def test_writable_points_are_copied(self):
        points = qadic_grid(2, 2).points ** 2
        grid = PartitionGrid(q=2, level=2, table_points=points)
        points[1] = 0.1
        assert grid.points[1] == 0.0625
        assert not grid.points.flags.writeable

    def test_power_table_points_are_handed_over(self, monkeypatch):
        copies = []

        def spy(a):
            out = frozen_floats(a)
            copies.append(out is not a)
            return out

        monkeypatch.setattr(partition, "frozen_floats", spy)
        table = power_table(2, 6, 1.5)
        assert copies == [False]
        assert not table.points.flags.writeable

    def test_power_table_checks_its_points_once(self, monkeypatch):
        sizes = []
        diff = np.diff

        def spy(a, *args, **kwargs):
            sizes.append(np.size(a))
            return diff(a, *args, **kwargs)

        monkeypatch.setattr(np, "diff", spy)
        power_table(2, 12, 1.5)
        assert sizes.count(2 ** 12 + 1) == 1

    @pytest.mark.parametrize("grid", [qadic_grid(3, 2), power_table(2, 3)], ids=["q-adic", "table"])
    def test_restrict_to_its_own_level_is_itself(self, grid):
        assert grid.restrict(grid.level) is grid
        assert grid.restrict(grid.level - 1).level == grid.level - 1

    def test_generator_follows_from_stored_points(self):
        assert qadic_grid(3, 2).generator == "q-adic"
        assert qadic_grid(3, 2).table_points is None
        assert qadic_table(3, 2).generator == "table"
        assert qadic_table(3, 2).restrict(1).generator == "table"


class TestComputedPoints:
    @pytest.mark.parametrize("q", (2, 3, 5))
    def test_points_are_exact_ratios(self, q):
        for n in range(min(12, digits_within(q, 2 ** 24)) + 1):  # q = 5 stops at 10
            grid = qadic_grid(q, n)
            expected = np.arange(q ** n + 1) / float(q ** n)
            assert grid.size == q ** n + 1
            assert grid.points.tobytes() == expected.tobytes()
            assert not grid.points.flags.writeable
            for m in range(n + 1):
                assert grid.restrict(m).points.tobytes() == qadic_grid(q, m).points.tobytes()

    def test_restrict_builds_only_the_coarse_points(self, monkeypatch):
        monkeypatch.delenv("PVAR_MAX_INTERVALS", raising=False)
        tracemalloc.start()
        try:
            points = qadic_grid(2, 24).restrict(10).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.size == 2 ** 10 + 1
        assert peak < 1 << 20


class TestRefining:
    def test_qadic_table_passes(self):
        table = qadic_table(2, 6)
        for n in range(7):
            np.testing.assert_array_equal(table.restrict(n).points, qadic_grid(2, n).points)
        assert np.max(np.diff(table.restrict(6).points)) == pytest.approx(2.0 ** -6)

    def test_square_table_passes(self):
        # (q i / q**(n+1))**2 == (i / q**n)**2 — nesting survives the square
        table = build_homeomorphism(3, qadic_grid(3, 5).points ** 2)
        np.testing.assert_array_equal(table.points, power_table(3, 5, 2.0).points)
        for n in range(6):
            np.testing.assert_array_equal(table.restrict(n).points, qadic_grid(3, n).points ** 2)

    def test_random_table_is_refining(self):
        table = random_refining_table(3, 6, seed=9)
        back = build_homeomorphism(3, table.points.tolist())
        assert back.level == 6
        np.testing.assert_array_equal(back.points, table.points)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 0.0, -1.0])
    def test_power_table_exponent_finite_and_positive(self, exponent):
        with pytest.raises(ValidationError, match="exponent must be finite and > 0"):
            power_table(2, 3, exponent)


class TestHomeomorphism:
    def test_rejects_broken_table(self):
        pts = qadic_table(2, 4).points.copy()
        pts[3] = pts[2]  # duplicates break strict monotonicity
        with pytest.raises(ValidationError):
            PartitionGrid(q=2, level=4, table_points=pts)
