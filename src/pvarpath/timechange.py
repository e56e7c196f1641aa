"""Transport of paths and variation profiles through monotone time changes.

A dense q-refining partition sequence is carried onto the q-adic one by a
unique increasing homeomorphism phi that sends the i-th level-n partition
point to i/q**n.  Composing a path with phi therefore permutes nothing: the
value list on the refined grid IS the value list on the q-adic grid, read
against different abscissae.  All grid-level transport identities here are
exact for that reason, and the checks assert them at full float precision.

To depth N, such a sequence is its finest level: a refining table is the
level-N ``PartitionGrid`` that stores its points (a q-adic grid stores
none), and level n is its ``restrict(n)``, every q**(N-n)-th point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import RecipeResult, UniformMagnitudeSpec, recipe
from .errors import ValidationError
from .partition import PartitionGrid
from .schauder import SampledPath
from .variation import pvar_profile

# How ``transported_recipe`` differentiates the pulled-back target; the CLI
# records it in the artifact's manifest.
HPRIME_RULE = "central-differences"

_BLOCK = 1 << 16  # profile entries per block of the transport gap


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
    return SampledPath(grid=table.restrict(x.level), values=x.values)


def transported_pvar_check(x: SampledPath, table: PartitionGrid, p: float) -> float:
    """Max gap of the transport identity [x o phi](s) = [x](phi(s)) at every
    level-n point of the refined grid.  The gap is 0.0 by construction:
    ``pullback_path`` keeps x's values and ``pvar_profile`` reads only the
    values, q and the level, so this checks the pullback's index pairing.
    ROADMAP item 18 gives acceptance criterion 9 a claim that can fail.
    The gap is taken one block of the two profiles at a time, so besides
    them only block-sized differences are held.
    """
    pulled = pullback_path(x, table)
    lhs = pvar_profile(pulled, p, eval_level=x.level).values
    rhs = pvar_profile(x, p, eval_level=x.level).values
    return float(np.max([np.max(np.abs(lhs[lo:lo + _BLOCK] - rhs[lo:lo + _BLOCK]))
                         for lo in range(0, lhs.size, _BLOCK)]))


@dataclass(frozen=True, eq=False)
class TransportedRecipeResult:
    y: SampledPath                 # path on the refined grid
    qadic: RecipeResult            # the underlying q-adic construction
    sup_gap: float                 # sup of |variation of y - H| at the profile's points


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
    s_grid = table.restrict(n)
    h_vals = np.asarray(H(s_grid.points), dtype=np.float64)
    if h_vals.shape != (s_grid.size,):
        raise ValidationError(f"H must return one value per level-{n} point "
                              f"({s_grid.size}), got shape {h_vals.shape}")
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
    gap = float(np.max(np.abs(empirical.values - h_vals[:: empirical.stride])))
    return TransportedRecipeResult(y=pulled, qadic=built, sup_gap=gap)
