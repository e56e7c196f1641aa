import math
import tracemalloc

import numpy as np
import pytest

from pvarpath._util import _BLOCK, cumsum_stable

STRIDE = 4096


def summed(terms):
    """``cumsum_stable`` of ``terms``, written into the result's entries 1 on."""
    s = np.empty(np.size(terms) + 1)
    s[1:] = terms
    return cumsum_stable(s)


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
    got = summed(terms)[STRIDE::STRIDE]
    want = fsum_prefixes(terms, STRIDE)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_starts_at_the_empty_sum():
    np.testing.assert_array_equal(summed(np.array([1.0, 2.0, 3.0])), [0, 1, 3, 6])
    np.testing.assert_array_equal(summed(np.array([])), [0.0])


def test_keeps_the_plain_sum_past_an_overflow():
    got = summed(np.array([1.0, np.inf, 1.0, np.nan]))
    np.testing.assert_array_equal(got, [0.0, 1.0, np.inf, np.inf, np.nan])


def one_pass(terms):
    """The error pass over the whole array at once, as one expression per
    step: the blocks must give its bits."""
    t = np.asarray(terms, dtype=np.float64)
    s = np.zeros(t.size + 1)
    np.cumsum(t, out=s[1:])
    with np.errstate(invalid="ignore"):
        b = s[1:] - s[:-1]
        e = (s[:-1] - (s[1:] - b)) + (t - b)
        e = np.cumsum(e)
    np.add(s[1:], e, out=s[1:], where=np.isfinite(s[1:]))
    return s


@pytest.mark.parametrize("size", [1, 2, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5])
def test_blocks_keep_the_one_pass_bits(size):
    rng = np.random.default_rng(size)
    terms = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size)
    terms[::7] = -0.0
    assert summed(terms).tobytes() == one_pass(terms).tobytes()
    assert summed(terms ** 2).tobytes() == one_pass(terms ** 2).tobytes()
    if size > 2 ** 16:
        terms[2 ** 16] = np.inf
        terms[-2] = np.nan
        assert summed(terms).tobytes() == one_pass(terms).tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_tail_past_a_non_finite_term_is_the_plain_cumsum(bad):
    # the corrections stop at the first non-finite partial sum; before it the
    # entries are corrected as if the terms ended there
    terms = mixed_sign_terms()[:3 * 2 ** 16 + 5]
    k = 2 ** 16 + 123
    terms[k] = bad
    got, plain = summed(terms), np.concatenate([[0.0], np.cumsum(terms)])
    assert got[k + 1:].tobytes() == plain[k + 1:].tobytes()
    assert got[:k + 1].tobytes() == summed(terms[:k]).tobytes()
    assert got[:k + 1].tobytes() != plain[:k + 1].tobytes()
    assert got.tobytes() == one_pass(terms).tobytes()


def test_sums_in_place_from_the_empty_sum():
    s = np.full(4, np.nan)  # entry 0 is set, whatever it held
    s[1:] = [1.0, 2.0, 3.0]
    assert cumsum_stable(s) is s
    np.testing.assert_array_equal(s, [0, 1, 3, 6])


def test_holds_three_block_buffers_beside_the_sums():
    s = np.empty(2 ** 20 + 1)
    s[1:] = mixed_sign_terms()
    tracemalloc.start()
    try:
        cumsum_stable(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy of the terms beside the sums would be 8.4 MB
    assert peak <= 3 * _BLOCK * 8 + 8192
