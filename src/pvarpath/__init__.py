"""Paths with prescribed p-th variation along refining partition sequences.

The package builds reference paths whose discrete p-th variation grows
linearly along dyadic or q-adic grids, transports them multiplicatively to
prescribe arbitrary variation targets, runs the pathwise compensated-sum
calculus on the results, and carries everything onto general dense
q-refining partition sequences through monotone time changes.
"""

from .errors import BudgetError, ValidationError
from .partition import (
    PartitionGrid,
    build_homeomorphism,
    power_table,
    qadic_grid,
    qadic_table,
    random_refining_table,
)
from .schauder import (
    CoefficientArray,
    SampledPath,
    analyze,
    eta_all,
    gamma,
    gamma_rows,
    haar_eval,
    holder_bound,
    qadic_path,
    schauder_eval,
    synthesize,
    xi,
    xi_profile,
)
from .variation import (
    VariationProfile,
    pvar_profile,
    stieltjes_against_profile,
    variation_index_estimate,
)
from .construct import (
    UniformMagnitudeSpec,
    VariationConstant,
    bernstein,
    build_reference,
    recipe,
    reference_path,
    shifted_reference,
    sign_matrix,
    splice,
    transport_multiply,
    variation_constant,
)
from .calculus import (
    FunctionWithDerivatives,
    NormSelector,
    change_of_variable_residual,
    follmer_sum,
    grid_norm,
    holder_quotient,
    stability_bound,
    transported_norm,
)
from .timechange import (
    pullback_path,
    transported_pvar_check,
    transported_recipe,
)

__version__ = "0.1.0"
