"""Transport of paths and variation profiles through monotone time changes.

A dense q-refining partition sequence is carried onto the q-adic one by a
unique increasing homeomorphism phi that sends the i-th level-n partition
point to i/q**n.  Composing a path with phi therefore permutes nothing: the
value list on the refined grid IS the value list on the q-adic grid, read
against different abscissae.  All grid-level transport identities here are
exact for that reason, and the checks assert them at full float precision.

To depth N, such a sequence is its finest level: a refining table is the
level-N ``PartitionGrid`` with generator "table", and level n is its
``restrict(n)``, every q**(N-n)-th point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import RecipeResult, UniformMagnitudeSpec, recipe
from .errors import ValidationError
from .partition import PartitionGrid
from .schauder import SampledPath
from .variation import VariationProfile, pvar_profile

# How ``transported_recipe`` differentiates the pulled-back target; the CLI
# records it in the artifact's manifest.
HPRIME_RULE = "central-differences"


def pullback_path(x: SampledPath, table: PartitionGrid) -> SampledPath:
    """x composed with phi, sampled on the refined level-n grid.

    Since phi maps the i-th refined point to the i-th q-adic point, the
    output carries the input's value list index-for-index; only the grid
    changes.  No interpolation is involved.
    """
    if x.grid.generator != "q-adic":
        raise ValidationError("pullback expects a path sampled on a q-adic grid")
    if x.q != table.q:
        raise ValidationError(f"path q={x.q} does not match table q={table.q}")
    # table.restrict rejects a path finer than the table
    return SampledPath(grid=table.restrict(x.level), values=x.values)


def transported_pvar_check(x: SampledPath, table: PartitionGrid, p: float) -> float:
    """Max gap of the transport identity at all refined partition points.

    Both sides of [x o phi](s) = [x](phi(s)) are computed independently, at
    every level-n point of the refined grid; the identity is exact there so
    the returned gap should be at machine level.
    """
    pulled = pullback_path(x, table)
    lhs = pvar_profile(pulled, p, eval_level=x.level).values
    rhs = pvar_profile(x, p, eval_level=x.level).values
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True, eq=False)
class TransportedRecipeResult:
    y: SampledPath                 # path on the refined grid
    qadic: RecipeResult            # the underlying q-adic construction
    empirical: VariationProfile    # profile of y along the refined sequence
    target_values: np.ndarray      # target variation at the profile's points
    sup_gap: float


def transported_recipe(
    H, spec: UniformMagnitudeSpec, table: PartitionGrid, n: int
) -> TransportedRecipeResult:
    """Prescribe the variation H along a refining sequence via pullback.

    ``H`` is a callable, evaluated at the level-``n`` points of ``table``;
    it must return one finite value per point.

    The target is pulled to the q-adic side as h = H o phi^{-1} (exact at
    grid points by index pairing), differentiated there by central finite
    differences, run through the multiplicative recipe, and composed back.
    """
    if spec.q != table.q:
        raise ValidationError(f"spec q={spec.q} does not match table q={table.q}")
    s_grid = table.restrict(n)  # rejects a level finer than the table
    h_vals = np.asarray(H(s_grid.points), dtype=np.float64)
    if h_vals.shape != s_grid.points.shape:
        raise ValidationError(f"H must return one value per level-{n} point "
                              f"({s_grid.points.size}), got shape {h_vals.shape}")
    if not np.all(np.isfinite(h_vals)):
        raise ValidationError("target variation must be finite")
    if h_vals[0] != 0.0:
        raise ValidationError("target variation must start at 0")
    if np.any(np.diff(h_vals) < 0):
        raise ValidationError("target variation must be non-decreasing")
    # h = H o phi^{-1} lives on the uniform grid; centered differences are
    # nonnegative automatically because h is non-decreasing, and ``recipe``
    # refuses any that overflow float64
    dt = 1.0 / spec.q ** n
    hp = np.empty_like(h_vals)
    with np.errstate(over="ignore"):
        hp[1:-1] = (h_vals[2:] - h_vals[:-2]) / (2 * dt)
        hp[0] = (h_vals[1] - h_vals[0]) / dt
        hp[-1] = (h_vals[-1] - h_vals[-2]) / dt
    built = recipe(hp, spec, n)
    pulled = pullback_path(built.y, table)
    empirical = pvar_profile(pulled, spec.p)
    target = h_vals[:: empirical.stride]
    gap = float(np.max(np.abs(empirical.values - target)))
    return TransportedRecipeResult(
        y=pulled,
        qadic=built,
        empirical=empirical,
        target_values=target,
        sup_gap=gap,
    )
