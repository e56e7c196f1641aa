"""The one extended-precision helper.

Two sums run in extended precision (80-bit ``longdouble`` on x86 Linux):
the p-th variation profile and the compensated sum.  Both feed the exact
change-of-variable identity for y**2, whose residual is their difference.
Measured on a q=2, n=20 reference path with random signs, plain float64
there leaves 0.4% of the residuals exactly zero instead of 66%, raises
their sup from 2.2e-16 to 4.6e-14, and grows the residual CSV from 30.6 MB
to 45.2 MB.  Every other sum in the package is plain float64, where
measurement showed no difference.  The order is strictly sequential, hence
deterministic.
"""

from __future__ import annotations

import numpy as np


def cumsum_stable(terms: np.ndarray) -> np.ndarray:
    """Sequential cumulative sum in extended precision, returned as float64."""
    acc = np.cumsum(np.asarray(terms, dtype=np.longdouble))
    return acc.astype(np.float64)
