import hashlib

import numpy as np
import pytest

from pvarpath import (
    UniformMagnitudeSpec,
    ValidationError,
    holder_quotient,
    power_table,
    pullback_path,
    pvar_profile,
    qadic_grid,
    qadic_table,
    random_refining_table,
    recipe,
    reference_path,
    transported_pvar_check,
    transported_recipe,
)


def sqrt_table(depth=10, q=2):
    return power_table(q, depth, 2.0)


class TestPullback:
    def test_identity_table_is_identity(self):
        table = qadic_table(2, 8)
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        pulled = pullback_path(x, table)
        np.testing.assert_array_equal(pulled.values, x.values)
        np.testing.assert_array_equal(pulled.grid.points, x.grid.points)

    def test_values_carry_over_index_for_index(self):
        table = sqrt_table()
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 6)
        pulled = pullback_path(x, table)
        np.testing.assert_array_equal(pulled.values, x.values)
        assert pulled.grid.generator == "table"

    def test_sup_norm_preserved_exactly(self):
        table = sqrt_table()
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 10)
        assert pullback_path(x, table).sup_norm() == x.sup_norm()

    def test_holder_transfer(self):
        # composition with a 1/2-Holder change costs a factor in the exponent:
        # quot_{a/2}(x o phi) <= quot_a(x) * quot_{1/2}(phi)^a
        table = sqrt_table(8)
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        pulled = pullback_path(x, table)
        alpha = 0.5
        qx = holder_quotient(x.grid.points, x.values, alpha)
        qphi = holder_quotient(table.points, qadic_grid(2, table.level).points, 0.5)
        qcomp = holder_quotient(pulled.grid.points, pulled.values, alpha / 2)
        assert np.isfinite(qcomp)
        assert qcomp <= qx * qphi ** alpha + 1e-9

    # sha256[:16] of the finest table level's float64 bytes: these digests
    # pin the tables the generators make
    @pytest.mark.parametrize("make, digest", [
        (lambda: power_table(2, 6), "60b781c1ff1447eb"),
        (lambda: random_refining_table(3, 5, seed=1), "80d1e5f0b59f2e9d"),
    ], ids=["power-2-6", "random-3-5"])
    def test_table_hash_bytes(self, make, digest):
        assert hashlib.sha256(make().points.tobytes()).hexdigest()[:16] == digest

    def test_level_exceeds_table(self):
        table = sqrt_table(4)
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 6)
        with pytest.raises(ValidationError):
            pullback_path(x, table)


class TestTransportedPvarCheck:
    def test_identity_gap_zero(self):
        table = qadic_table(2, 8)
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 8)
        assert transported_pvar_check(x, table, 2.0) == 0.0

    def test_sqrt_table_level_10(self):
        x = reference_path(UniformMagnitudeSpec(q=2, p=2.0), 10)
        assert transported_pvar_check(x, sqrt_table(10), 2.0) <= 1e-12

    def test_random_ternary_table_level_8(self):
        table = random_refining_table(3, 8, seed=17)
        x = reference_path(UniformMagnitudeSpec(q=3, p=2.0, a=(1.0, 1.0)), 8)
        assert transported_pvar_check(x, table, 2.0) <= 1e-12


class TestTransportedRecipe:
    def test_linear_target_through_sqrt_change(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        res = transported_recipe(lambda s: s, spec, sqrt_table(16), 16)
        assert res.sup_gap <= 0.02 * 2

    def test_zero_target_gives_zero_path(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        res = transported_recipe(lambda s: np.zeros_like(s), spec, sqrt_table(8), 8)
        assert np.all(res.y.values == 0.0)

    def test_identity_change_reduces_to_plain_recipe(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        table = qadic_table(2, 10)
        res = transported_recipe(lambda s: s, spec, table, 10)
        plain = recipe(lambda t: np.ones_like(t), spec, 10)
        assert plain.constant == res.qadic.constant
        np.testing.assert_array_equal(res.y.values, plain.y.values)

    def test_decreasing_target_rejected(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        with pytest.raises(ValidationError):
            transported_recipe(lambda s: -s, spec, sqrt_table(6), 6)

    def test_nonzero_start_rejected(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        with pytest.raises(ValidationError):
            transported_recipe(lambda s: s + 1.0, spec, sqrt_table(6), 6)

    # a scalar H used to raise a bare IndexError from its first entry
    @pytest.mark.parametrize("H, message", [
        (lambda s: 0.0, r"one value per level-6 point \(65\), got shape \(\)"),
        (lambda s: s[:-1], r"one value per level-6 point \(65\), got shape \(64,\)"),
        (lambda s: np.where(s > 0.5, np.nan, s), "target variation must be finite"),
    ], ids=["scalar", "short", "nan"])
    def test_malformed_target_rejected(self, H, message):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        with pytest.raises(ValidationError, match=message):
            transported_recipe(H, spec, sqrt_table(6), 6)

    def test_smooth_power_table_tracks_target(self):
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        table = power_table(2, 14, 1.5)
        res = transported_recipe(lambda s: np.log1p(s), spec, table, 14)
        assert res.sup_gap <= 0.02 * (1 + np.log(2.0))

    @pytest.mark.filterwarnings("error")
    def test_rough_random_table_flags_multiplier(self):
        # a generic random refining table makes the pulled-back target
        # non-differentiable, which voids the recipe hypothesis; the
        # coefficient-trend diagnostic must flag the rough multiplier
        spec = UniformMagnitudeSpec(q=2, p=2.0)
        table = random_refining_table(2, 12, seed=23)
        res = transported_recipe(lambda s: np.log1p(s), spec, table, 12)
        assert res.qadic.multiplier_trend.trend != "vanishing"
