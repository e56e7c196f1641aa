"""The limiting variation constant E|sum_j rho^j W_j|^p and its oracles.

The level sums of a reference path (see ``construct``) are expectations over
independent uniform digits, so the limiting slope of its variation is the
p-th absolute moment of the full series Z = sum_{j>=1} rho^j W_j, with W_j
uniform over the q per-child values eta_d.  That moment is computed here by
three independent routes: truncated exact enumeration with a certified tail
bound, stratified Monte Carlo, and a closed form for even p.  The closed
form is one recursion over raw moments: Z = rho (W + Z') with Z' an
independent copy of Z, so m_n = E Z**n obeys

    m_n (1 - rho**n) = rho**n sum_{k=1..n} C(n, k) mu_k m_{n-k},

with mu_k = E W**k and m_0 = 1.  Every route refuses a moment that is not a
finite normal float64 > 0: one that overflows, or underflows to 0.0 or to a
subnormal.

Enumeration splits the J digits into head and tail cross sums a and b and
averages |a_i + b_j|**p over all q**J pairs with one of two kernels:

- integer p <= POWER_SUM_MAX_P: a balanced split (q**(J//2) heads) and a
  binomial expansion of (a_i + b_j)**p, which needs only power sums of the
  sorted b, prefix sums up to -a_i where odd p flips the sign: O(p q**(J/2))
  work, not O(q**J);
- every other p: a tail of the last t digits, q**t <= SERIES_TAIL_CAP = 64,
  B = max|b_j| and r = max(4, p).  A far head, |a_i| >= r B, sums its row
  as |a_i|**p sum_{k<=K} C(p, k) (B/a_i)**k sum_j (b_j/B)**k, cut where
  the relative remainder is below 2**-60 (``_binomial_series``, K <= 24);
  only the heads in the band |a_i| < r B are paired, SERIES_BLOCK = 2**16
  heads at a time.

Against a ``math.fsum`` of all pairs, the series was off by at most
4.4e-16 relative (q = 2, 3, 4, unit and mixed-sign weights, 1.05 <= p <=
15.5).  Both expansions work on power sums of the enumerated sets, not on
moments of the digit distribution, so the closed form and enumeration
still check each other through two different algebras.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError, check_branching, check_exponent
from .partition import digits_within
from .schauder import eta_all

ENUMERATION_BUDGET = 2 ** 26
MC_TABLE_CAP = 1 << 16   # entries in one Monte Carlo digit-block table
MC_CHUNK = 1 << 16       # most samples drawn and accumulated at a time
POWER_SUM_MAX_P = 16     # largest integer p enumerated by binomial power sums
SERIES_TAIL_CAP = 64     # most tail strings a head's binomial series sums over
SERIES_BLOCK = 1 << 16   # heads summed at a time by the binomial series
CLOSED_FORM_MAX_P = 1028  # largest even p whose C(p, p/2) is within float64


@dataclass(frozen=True)
class VariationConstant:
    """An estimate of E|sum_j rho^j W_j|^p with its error accounting.

    ``error_bound`` is a deterministic bound (enumeration truncation or
    Monte Carlo digit truncation); ``stderr`` the statistical standard error
    (Monte Carlo only).
    """

    value: float
    method: str
    error_bound: float
    stderr: float | None = None
    details: dict = field(default_factory=dict)


def _series_weights(p: float, q: int, a) -> tuple[np.ndarray, float]:
    """The q digit values eta_d of weights ``a`` (None is all ones) and rho."""
    return eta_all(np.ones(q - 1) if a is None else a, q), q ** -(1.0 - 1.0 / p)


def _truncation_bound(p: float, head_sup: float, tail_sup: float) -> float:
    """Bound on |E|Z|^p - E|Z_head|^p| for a mean-zero omitted tail.

    The linear term vanishes in expectation, so a second-order Taylor bound
    applies for p >= 2 and a Holder bound on the derivative for 1 < p < 2.
    The generic Lipschitz device p(2M)**(p-1) * tail_sup is kept as a cap.
    Either may overflow float64 (their powers run in numpy, which gives inf
    where Python floats raise); the smaller is the bound, and if both
    overflow, ``ValidationError`` is raised.
    """
    if tail_sup == 0.0:
        return 0.0
    tail_sup = np.float64(tail_sup)
    with np.errstate(over="ignore", invalid="ignore"):
        total = head_sup + tail_sup
        if p >= 2:
            smooth = 0.5 * p * (p - 1) * total ** (p - 2) * tail_sup ** 2
        else:
            smooth = (2 ** (2 - p) / p) * tail_sup ** p
        lipschitz = p * (2 * total) ** (p - 1) * tail_sup
    bound = float(np.fmin(smooth, lipschitz))
    if not math.isfinite(bound):
        raise ValidationError(f"the p={p} truncation bound overflows float64")
    return bound


def _dropped_bound(p: float, rho: float, eta_sup: float, J: int) -> float:
    """``_truncation_bound`` for keeping digits 1..J of the series and
    dropping the rest, with every |W_j| <= eta_sup."""
    head = eta_sup * rho * (1.0 - rho ** J) / (1.0 - rho)
    tail = eta_sup * rho ** (J + 1) / (1.0 - rho)
    return _truncation_bound(p, head, tail)


def _checked_moment(value: float, p: float, method: str) -> float:
    """``value`` if it is a finite normal float64 > 0, the only kind of
    moment a route reports; one that overflows, or underflows to 0.0 or to a
    subnormal, raises."""
    if not math.isfinite(value):
        raise ValidationError(f"the p={p} moment by {method} overflows float64")
    if not value > 0:
        raise ValidationError(f"the p={p} moment by {method} underflows float64 to {value}")
    if value < sys.float_info.min:
        raise ValidationError(
            f"the p={p} moment by {method} underflows float64 to a subnormal {value}")
    return value


def _cross_sums(weights: list) -> np.ndarray:
    """All sums picking one entry from each weight set, first set major.

    The result is the cross sum of the tables of the two halves of
    ``weights``, each built one set at a time, so the step that fills the
    last entries adds rows of about sqrt(size) of them, not of one set's.
    """
    half = len(weights) // 2
    tables = []
    for part in (weights[:half], weights[half:]):
        sums = np.zeros(1, dtype=np.float64)
        for w in part:
            sums = (sums[:, None] + w[None, :]).ravel()
        tables.append(sums)
    return (tables[0][:, None] + tables[1][None, :]).ravel()


def _mean_abs_pow(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """Mean of |a_i + b_j|^p over all pairs, blockwise to bound memory.

    ``abs`` and the power run in place in each block's buffer.
    """
    total = 0.0
    block = max(1, (1 << 21) // max(1, b.size))
    for start in range(0, a.size, block):
        chunk = a[start:start + block, None] + b[None, :]
        np.abs(chunk, out=chunk)
        chunk **= p
        total += float(np.sum(chunk))
    return total / (a.size * b.size)


def _mean_abs_pow_binomial(a: np.ndarray, b: np.ndarray, p: int) -> float:
    """``_mean_abs_pow`` for an integer p, from power sums of the sorted b.

    Expanding (a_i + b_j)**p binomially, sum_j |a_i + b_j|**p is
    sum_{m=0..p} C(p, m) a_i**(p-m) S_m(i), where S_m(i) = T_m - 2 P_m(idx_i)
    for odd p and T_m for even p: T_m = sum_j b_j**m, P_m(k) the sum of b**m
    over the first k entries of b, and idx_i the number of b_j < -a_i, the
    pairs whose sign flips.  O(p (a.size + b.size) + b.size log b.size)
    instead of O(a.size * b.size).
    """
    b = np.sort(b)
    idx = np.searchsorted(b, -a) if p % 2 else None
    a_pow = [np.ones_like(a)]
    for _ in range(p):
        a_pow.append(a_pow[-1] * a)
    b_pow = np.ones_like(b)
    inner = np.zeros(a.size)
    for m in range(p + 1):
        prefix = np.concatenate(([0.0], np.cumsum(b_pow)))
        s = prefix[-1] - 2.0 * prefix[idx] if p % 2 else prefix[-1]
        inner += math.comb(p, m) * a_pow[p - m] * s
        b_pow *= b
    return float(np.sum(inner)) / (a.size * b.size)


def _binomial_series(p: float) -> tuple[float, np.ndarray]:
    """The far ratio r = max(4, p) and C(p, k) r**-k, k = 0..K, in float64.

    A head a_i is far from a tail set b when |a_i| >= r B, B = max|b_j|;
    then (a_i + b_j)**p = a_i**p (1 + x)**p with x = b_j / a_i, |x| <= 1/r,
    and the series sum_k C(p, k) x**k is cut after K, the first index with

        |C(p, K+1)| r**-(K+1) / (1 - max(1/(K+2), 1/r)) < 2**-60 (1 - 1/r)**p.

    The dropped terms are bounded by |C(p, k)| r**-k, and since r >= p the
    ratio of consecutive bounds, |p - k| / ((k+1) r), is at most
    max(1/(k+1), 1/r): below p it is at most p / ((k+1) r) <= 1/(k+1), past
    p below 1/r.  So the terms after K sum to at most the left side, and as
    (1 + x)**p >= (1 - 1/r)**p, the relative truncation error of every pair
    is below 2**-60.  K is at most 24 (24 at p = 1.5, 20 at p = 3000).  The
    coefficients carry the r**-k so that they stay below 1 for every p; at
    r = 4 that scaling is exact, so p < 4 sums the same bits as an unscaled
    series.
    """
    r = max(4.0, p)
    limit = 2.0 ** -60 * (1.0 - 1.0 / r) ** p
    coefs = [1.0]
    while True:
        k = len(coefs) - 1
        nxt = coefs[-1] * (p - k) / (k + 1) / r     # C(p, k + 1) r**-(k + 1)
        if abs(nxt) / (1.0 - max(1.0 / (k + 2), 1.0 / r)) < limit:
            return r, np.array(coefs)
        coefs.append(nxt)


def _mean_abs_pow_series(a: np.ndarray, b: np.ndarray, p: float) -> float:
    """``_mean_abs_pow`` by a binomial series in b/a, for a small set b.

    With B = max|b_j| and r from ``_binomial_series``, a head with |a_i| >=
    r B has |b_j / a_i| <= 1/r, so sum_j |a_i + b_j|**p = |a_i|**p
    sum_{k<=K} C(p, k) r**-k v_i**k M_k, where v_i = r B / a_i and M_k =
    sum_j (b_j / B)**k; the inner sum is one Horner pass per head, and
    |v_i| <= 1 keeps its partial sums near b.size.  Heads nearer zero are
    paired with every b_j by ``_mean_abs_pow``.  Heads go ``SERIES_BLOCK``
    at a time, so the buffers do not grow with a.size.
    """
    B = float(np.max(np.abs(b)))
    if not B > 0:           # every b_j is 0: no head is far from zero
        return _mean_abs_pow(a, b, p)
    r, coefs = _binomial_series(p)
    edge = r * B
    scaled, power = b / B, np.ones_like(b)
    moments = np.empty(coefs.size)
    for k in range(coefs.size):
        moments[k] = np.sum(power)
        power *= scaled
    horner = (coefs * moments)[::-1].tolist()
    total = 0.0
    for start in range(0, a.size, SERIES_BLOCK):
        block = a[start:start + SERIES_BLOCK]
        far = np.abs(block) >= edge
        near = block[~far]
        if near.size:
            total += _mean_abs_pow(near, b, p) * (near.size * b.size)
        heads = block[far]
        if heads.size:
            v = edge / heads
            inner = np.full_like(v, horner[0])
            for c in horner[1:]:
                inner *= v
                inner += c
            np.abs(heads, out=heads)
            heads **= p
            heads *= inner
            total += float(np.sum(heads))
    return total / (a.size * b.size)


def _constant_exact(p, q, etas, rho, J, tol) -> VariationConstant:
    eta_sup = float(np.max(np.abs(etas)))
    J_max = digits_within(q, ENUMERATION_BUDGET)
    if J is None:
        J = next((j for j in range(1, J_max + 1)
                  if _dropped_bound(p, rho, eta_sup, j) <= tol), None)
        if J is None:
            raise BudgetError(
                f"enumeration to tail bound {tol:g} needs more than budget "
                f"{ENUMERATION_BUDGET} digit strings (q={q}); best reachable bound is "
                f"{_dropped_bound(p, rho, eta_sup, J_max):.3g}"
            )
    elif J > J_max:
        raise BudgetError(
            f"J={J} exceeds the enumeration budget of {ENUMERATION_BUDGET} digit strings "
            f"for q={q}; the largest J allowed is {J_max}"
        )
    power_sums = p <= POWER_SUM_MAX_P and float(p).is_integer()
    split = J // 2 if power_sums else J - min(J, digits_within(q, SERIES_TAIL_CAP))
    head = _cross_sums([rho ** j * etas for j in range(1, split + 1)])
    tail = _cross_sums([rho ** j * etas for j in range(split + 1, J + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        if power_sums:
            value = _mean_abs_pow_binomial(head, tail, int(p))
        else:
            value = _mean_abs_pow_series(head, tail, p)
    value = _checked_moment(value, p, "exact-enumeration")
    return VariationConstant(
        value=value,
        method="exact-enumeration",
        error_bound=_dropped_bound(p, rho, eta_sup, J),
        details={"J": int(J), "terms": int(q) ** int(J)},
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused as a non-finite result
def _constant_monte_carlo(p, q, etas, rho, N, seed) -> VariationConstant:
    """Stratified Monte Carlo estimate of E|sum_j rho^j W_j|^p.

    The leading J0 digits are enumerated exactly as strata (at most 1024,
    each holding >= 64 samples unless N < 128 makes one stratum); sample i
    belongs to stratum i mod S.  The next Jt digits are sampled, with Jt
    chosen so the dropped tail costs at most 1e-10.  Those digits are drawn
    in blocks of k, the largest k with q**k <= MC_TABLE_CAP = 2**16 (k = 16
    at q = 2, 10 at q = 3): each block has a table of its q**k cross sums,
    the cross sum of the tables of its two halves (a short last block is
    padded with zero-weight digits, which repeats its table), and one
    uniform index into the table is k independent uniform digits; where
    q**k is 2**16, four indices per raw 64-bit word.  So the estimator and
    its distribution are those of drawing digit by digit, at about Jt/k
    draws per sample (4 at p = 1.5, q = 2 and 3).

    Samples go stratum-major, rows x S at a time with rows = MC_CHUNK // S:
    column s of a chunk is stratum s, so the heads are added by broadcasting
    and the per-stratum sums and sums of squares are column sums.  A short
    last chunk ends in a partial row, whose padded samples are zeroed after
    the power.  Memory does not grow with N.
    """
    if N < 2:
        raise ValidationError(f"a standard error needs N >= 2 samples, got {N}")
    if N > 64 * ENUMERATION_BUDGET:
        raise BudgetError(f"N = {N} exceeds the sampling budget {64 * ENUMERATION_BUDGET}")
    eta_sup = float(np.max(np.abs(etas)))
    # Strata = exact enumeration of the leading digits; the remaining digit
    # tail is sampled.  This is still an unbiased seeded estimator, with a
    # within-stratum spread smaller by roughly rho**J0.
    J0 = digits_within(q, min(1024, max(1, N // 64)))
    heads = _cross_sums([rho ** j * etas for j in range(1, J0 + 1)])
    S = heads.size
    # digits beyond J0 + Jt are dropped; pick Jt so the leftover is negligible
    Jt = 1
    while _dropped_bound(p, rho, eta_sup, J0 + Jt) > 1e-10 and Jt < 512:
        Jt += 1
    k = max(1, digits_within(q, MC_TABLE_CAP))   # digits per table block
    digit_weights = [rho ** j * etas for j in range(J0 + 1, J0 + Jt + 1)]
    digit_weights += [np.zeros(q)] * (-Jt % k)
    tables = [_cross_sums(digit_weights[b:b + k]) for b in range(0, len(digit_weights), k)]
    rng = np.random.default_rng(seed)
    sums = np.zeros(S)
    sumsq = np.zeros(S)
    rows = max(1, MC_CHUNK // S)   # a chunk is rows x S samples; column s is stratum s
    for start in range(0, N, rows * S):
        size = min(N, start + rows * S) - start
        shape = (len(tables), -(-size // S), S)
        if q ** k == 1 << 16:
            # four indices per raw 64-bit word, low 16 bits first: the bits
            # integers(0, 2**16, dtype=uint16) draws.  Only the last chunk can
            # leave part of a word unused; every other holds 2**16 per table
            count = math.prod(shape)
            words = rng.bit_generator.random_raw(-(-count // 4))
            draws = words.astype("<u8", copy=False).view("<u2")[:count].reshape(shape)
        else:
            draws = rng.integers(0, q ** k, size=shape, dtype=np.int64)
        z = tables[0].take(draws[0])
        z += heads
        for table, idx in zip(tables[1:], draws[1:]):
            z += table.take(idx)
        np.abs(z, out=z)
        z **= p
        z.reshape(-1)[size:] = 0.0   # the padded tail of a short last row
        sums += z.sum(axis=0)
        z *= z
        sumsq += z.sum(axis=0)
    counts = np.full(S, N // S, dtype=np.int64)
    counts[: N % S] += 1
    means = sums / counts
    # unbiased within-stratum variances; counts >= 2 by construction of S:
    # N < 128 is one stratum, and otherwise every stratum holds >= 64 samples
    variances = np.maximum(sumsq - counts * means ** 2, 0.0) / np.maximum(counts - 1, 1)
    value = _checked_moment(float(np.mean(means)), p, "monte-carlo")
    stderr = float(np.sqrt(np.sum(variances / counts)) / S)
    if not math.isfinite(stderr):
        raise ValidationError(f"the p={p} Monte Carlo standard error overflows float64")
    return VariationConstant(
        value=value,
        method="monte-carlo",
        error_bound=_dropped_bound(p, rho, eta_sup, J0 + Jt),
        stderr=stderr,
        details={"N": int(N), "seed": int(seed), "strata": int(S), "tail_digits": int(Jt)},
    )


def _constant_closed_form(p, q, etas, rho) -> VariationConstant:
    """E Z**p for even p by the raw-moment recursion of the module docstring."""
    if not (float(p).is_integer() and int(p) % 2 == 0):
        raise ValidationError(
            "closed-form moments require an even integer p; use exact or monte-carlo"
        )
    if p > CLOSED_FORM_MAX_P:
        raise ValidationError(
            f"closed-form moments need C(p, p/2) within float64, so p <= "
            f"{CLOSED_FORM_MAX_P}; got p={p:g}")
    p = int(p)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = [float(np.mean(etas ** k)) for k in range(p + 1)]
    m = [1.0]
    row = [1]  # C(n, 0..n) as exact integers, rounded once each to float
    for n in range(1, p + 1):
        row = [1, *(row[k - 1] + row[k] for k in range(1, n)), 1]
        c = list(map(float, row))
        rho_n = rho ** n
        m.append(rho_n * sum(c[k] * mu[k] * m[n - k] for k in range(1, n + 1)) / (1.0 - rho_n))
    return VariationConstant(value=_checked_moment(m[p], p, "closed-form"), method="closed-form",
                             error_bound=0.0,
                             details={"p": p})


def variation_constant(
    p: float,
    q: int = 2,
    a=None,
    method: str = "exact",
    J: int | None = None,
    N: int = 10 ** 6,
    seed: int = 0,
    tol: float = 1e-6,
) -> VariationConstant:
    """The limiting slope constant of the uniform-magnitude construction.

    methods: "exact" enumerates all q**J truncated digit strings, with J
    the smallest depth whose certified truncation bound is below ``tol``
    (the bound uses that the omitted tail has mean zero, which beats the raw
    Lipschitz estimate by an order of tail); "mc" is a seeded stratified
    Monte Carlo estimator with standard error; "closed" evaluates even
    moments by the recursion m_n (1 - rho**n) = rho**n sum_{k=1..n}
    C(n, k) mu_k m_{n-k} over the raw moments mu_k of one digit's value, for
    even p <= CLOSED_FORM_MAX_P = 1028 (past it C(p, p/2) overflows float64).
    "exact" enumerates at most ENUMERATION_BUDGET = 2**26 strings, so J is
    at most 26 for q = 2 and 16 for q = 3; a larger J, or a ``tol`` no
    allowed J meets, raises ``BudgetError``.

    For integer p <= POWER_SUM_MAX_P = 16, "exact" sums the q**J strings
    through binomial power sums over the sorted head/tail split, in
    O(p q**(J/2)) work; their error grows about linearly in p, and past
    p = 1029 the binomial coefficients overflow float64, hence the cap.
    Every other p splits off a tail of at most SERIES_TAIL_CAP = 64 strings
    and sums each head's row by a binomial series in b/a, cut where its
    relative remainder is below 2**-60; only heads within r = max(4, p)
    tail sups of zero are paired, and the paired share of the q**J strings
    shrinks like rho**J: at q = 2 it is 1.7% at p = 2.5, J = 20, 32% at
    p = 1.5, J = 19, 6.5% at J = 26 and 2.3% at p = 3000, J = 23.  Both
    kernels report the same J, ``terms`` and ``error_bound``.  Against a
    ``math.fsum`` of all pairs (q = 2, 3, 4; unit and mixed-sign weights),
    the power sums are off by at most 5.8e-16 relative for integer p <= 16
    and the series by 4.4e-16 for p <= 15.5; past 16, where the power
    itself rounds to about p 2**-53, the series and pairing agree within
    that.  J grows with p: at the default ``tol`` and q = 2 it is 18 at
    p = 100, 21 at p = 1000 and 23 at p = 3000, whose 2**23 strings take
    tens of milliseconds.  The expansions are of power sums of the
    enumerated cross sums, not of digit moments, so "exact" and "closed"
    still check each other through two different algebras.  A result whose
    ``error_bound`` is not below its ``value`` says so with
    ``details["bound_not_below_value"] = True``.  A moment that overflows
    float64 or underflows to 0.0 or to a subnormal, a truncation bound or a
    Monte Carlo standard error that overflows raises ``ValidationError``.

    Monte Carlo draws its sampled digits in blocks of k, one uniform index
    per block into a table of the block's q**k cross sums (q**k <=
    MC_TABLE_CAP = 2**16: k = 16 at q = 2 and 10 at q = 3; where q**k is
    2**16, four indices per raw 64-bit word), and lays each chunk of
    samples out stratum-major, rows x strata, accumulating per-stratum sums
    one chunk at a time, so its memory does not depend on N.  The estimator
    and its distribution are those of digit-by-digit draws.
    """
    check_exponent(p)
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance tol must be finite and > 0, got {tol}")
    check_branching(q)
    if J is not None and J < 1:
        raise ValidationError(f"truncation depth J must be >= 1, got {J}")
    etas, rho = _series_weights(p, q, a)
    if method == "exact":
        report = _constant_exact(p, q, etas, rho, J, tol)
    elif method == "mc":
        report = _constant_monte_carlo(p, q, etas, rho, N, seed)
    elif method == "closed":
        report = _constant_closed_form(p, q, etas, rho)
    else:
        raise ValidationError(f"unknown method {method!r}")
    if not report.error_bound < report.value:
        report.details["bound_not_below_value"] = True
    return report
