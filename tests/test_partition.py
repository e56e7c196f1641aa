import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from pvarpath.partition import PartitionGrid, digits_matrix, digits_within, qadic_level
from pvarpath.schauder import gamma_rows

# every place that takes a branching factor q applies the one rule of
# ``errors.check_branching``
_Q_SITES = {
    "PartitionGrid": lambda q: PartitionGrid(q=q, level=0, points=[0.0, 1.0]),
    "qadic_level": lambda q: qadic_level(q, 9),
    "qadic_grid": lambda q: qadic_grid(q, 2),
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
            PartitionGrid(q=2, level=2, points=np.array(points), generator="table")

    def test_writable_points_are_copied(self):
        points = qadic_grid(2, 2).points ** 2
        grid = PartitionGrid(q=2, level=2, points=points, generator="table")
        points[1] = 0.1
        assert grid.points[1] == 0.0625
        assert not grid.points.flags.writeable


class TestDigits:
    def test_ternary_71(self):
        # 71 = 2 + 2*3 + 1*9 + 2*27 + 0*81
        assert digits_matrix(5, 3, [71]).tolist() == [[2, 2, 1, 2, 0]]

    def test_zero_index(self):
        assert digits_matrix(4, 5, [0]).tolist() == [[0, 0, 0, 0]]

    def test_binary_5(self):
        assert digits_matrix(3, 2, [5]).tolist() == [[1, 0, 1]]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            digits_matrix(3, 2, [8])
        with pytest.raises(ValidationError):
            digits_matrix(3, 2, [-1])

    @given(q=st.integers(2, 5), n=st.integers(0, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, q, n, data):
        k = data.draw(st.integers(0, q ** n - 1)) if n > 0 else 0
        (dv,) = digits_matrix(n, q, [k]).tolist()
        assert sum(d * q ** j for j, d in enumerate(dv)) == k
        assert len(dv) == n


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
            PartitionGrid(q=2, level=4, points=pts, generator="table")
