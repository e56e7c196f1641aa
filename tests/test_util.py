import math

import numpy as np
import pytest

from pvarpath._util import cumsum_stable

STRIDE = 4096


def fsum_prefixes(terms, stride):
    """``math.fsum`` of every ``stride``-th prefix of ``terms``.

    The exact sum of the prefix so far is carried as a list of floats (each
    the rounded remainder of the ones before), so every prefix costs one
    stride of terms instead of the whole prefix.
    """
    carry, sums = [], []
    for lo in range(0, terms.size, stride):
        parts = carry + terms[lo:lo + stride].tolist()
        carry = []
        while (r := math.fsum(parts + [-c for c in carry])) != 0.0:
            carry.append(r)
        sums.append(carry[0] if carry else 0.0)
    return np.array(sums)


def mixed_sign_terms():
    return np.random.default_rng(1).standard_normal(2 ** 20) * 2.0 ** -10


@pytest.mark.parametrize("terms", [mixed_sign_terms(), mixed_sign_terms() ** 2],
                         ids=["mixed-sign", "squared"])
def test_prefixes_within_one_ulp_of_fsum(terms):
    # a plain float64 cumsum is off by up to 5335 ulp on the mixed-sign terms
    got = cumsum_stable(terms)[STRIDE::STRIDE]
    want = fsum_prefixes(terms, STRIDE)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_starts_at_the_empty_sum():
    np.testing.assert_array_equal(cumsum_stable(np.array([1.0, 2.0, 3.0])), [0, 1, 3, 6])
    np.testing.assert_array_equal(cumsum_stable(np.array([])), [0.0])


def test_keeps_the_plain_sum_past_an_overflow():
    got = cumsum_stable(np.array([1.0, np.inf, 1.0, np.nan]))
    np.testing.assert_array_equal(got, [0.0, 1.0, np.inf, np.inf, np.nan])
