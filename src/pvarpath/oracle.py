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
finite float64 > 0: one that overflows, or underflows to 0.0.

Enumeration splits the J digits into head and tail cross sums a and b, of
q**(J//2) and q**(J - J//2) entries, and averages |a_i + b_j|**p over all
q**J pairs.  For integer p <= POWER_SUM_MAX_P it expands (a_i + b_j)**p
binomially instead and needs only power sums of the sorted b, prefix sums
up to -a_i where odd p flips the sign: O(p q**(J/2)) work, not O(q**J).
That expansion works on power sums of the enumerated sets, not on
moments of the digit distribution, so the closed form and enumeration
still check each other through two different algebras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError, check_branching, check_exponent
from .partition import digits_within
from .schauder import eta_all

ENUMERATION_BUDGET = 2 ** 26
MC_TABLE_CAP = 4096      # entries in one Monte Carlo digit-block table
MC_CHUNK = 1 << 16       # samples drawn and accumulated at a time
POWER_SUM_MAX_P = 16     # largest integer p enumerated by binomial power sums
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


def _branch_weights(q: int, a) -> np.ndarray:
    return np.ones(q - 1) if a is None else np.asarray(a, dtype=np.float64)


def _series_weights(p: float, q: int, a) -> tuple[np.ndarray, float]:
    return eta_all(_branch_weights(q, a), q), q ** -(1.0 - 1.0 / p)


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
    """``value`` if it is a finite float64 > 0, the only kind of moment a
    route reports; one that overflows or underflows to 0.0 raises."""
    if not math.isfinite(value):
        raise ValidationError(f"the p={p} moment by {method} overflows float64")
    if not value > 0:
        raise ValidationError(f"the p={p} moment by {method} underflows float64 to {value}")
    return value


def _cross_sums(weights: list) -> np.ndarray:
    """All sums picking one entry from each weight set (iterated cross sum)."""
    sums = np.zeros(1, dtype=np.float64)
    for w in weights:
        sums = (sums[:, None] + w[None, :]).ravel()
    return sums


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
    j_half = J // 2
    head = _cross_sums([rho ** j * etas for j in range(1, j_half + 1)])
    tail = _cross_sums([rho ** j * etas for j in range(j_half + 1, J + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        if float(p).is_integer() and p <= POWER_SUM_MAX_P:
            value = _mean_abs_pow_binomial(head, tail, int(p))
        else:
            value = _mean_abs_pow(head, tail, p)
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
    in blocks of k, where q**k <= MC_TABLE_CAP: each block has a table of
    its q**k cross sums (a short last block is padded with zero-weight
    digits, which repeats its table), and one uniform index into the table
    is k independent uniform digits.  So the estimator and its distribution
    are those of drawing digit by digit, at about Jt/k draws per sample.
    Per-stratum sums and sums of squares are accumulated one 2**16-sample
    chunk at a time, so memory does not grow with N.  A seed's stream is not
    that of the earlier digit-by-digit sampler.
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
    for start in range(0, N, MC_CHUNK):
        size = min(N, start + MC_CHUNK) - start
        strata = np.arange(start, start + size) % S
        draws = rng.integers(0, q ** k, size=(len(tables), size))
        z = heads[strata]
        for table, idx in zip(tables, draws):
            z += table.take(idx)
        np.abs(z, out=z)
        z **= p
        sums += np.bincount(strata, weights=z, minlength=S)
        z *= z
        sumsq += np.bincount(strata, weights=z, minlength=S)
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
    O(p q**(J/2)) work; other p pair every head with every tail, O(q**J).
    Both report the same J, ``terms`` and ``error_bound``.  Against a
    ``math.fsum`` of all pairs (q = 2, 3, 4; unit and mixed-sign weights),
    the power sums are off by at most 5.8e-16 relative for p <= 16 and the
    pairwise sum by 3.8e-16.  The power-sum error grows about linearly in p,
    and past p = 1029 the binomial coefficients overflow float64, hence the
    cap; for 16 < p <= 100 the default ``tol`` needs J <= 18 at q = 2 (and
    less at larger q), so pairing there costs milliseconds.  The expansion
    is of power sums of the enumerated cross sums, not of digit moments, so
    "exact" and "closed" still check each other through two different
    algebras.  A moment that overflows float64 or underflows to 0.0, a
    truncation bound or a Monte Carlo standard error that overflows raises
    ``ValidationError``.

    Monte Carlo draws its sampled digits in blocks of k, one uniform index
    per block into a table of the block's q**k cross sums (q**k <=
    MC_TABLE_CAP = 4096), and accumulates per-stratum sums one chunk at a
    time, so its memory does not depend on N.  The estimator and its
    distribution are those of digit-by-digit draws, but the values a seed
    gives differ from those of earlier releases, which drew digit by digit.
    """
    check_exponent(p)
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance tol must be finite and > 0, got {tol}")
    check_branching(q)
    if J is not None and J < 1:
        raise ValidationError(f"truncation depth J must be >= 1, got {J}")
    etas, rho = _series_weights(p, q, a)
    if method == "exact":
        return _constant_exact(p, q, etas, rho, J, tol)
    if method == "mc":
        return _constant_monte_carlo(p, q, etas, rho, N, seed)
    if method == "closed":
        return _constant_closed_form(p, q, etas, rho)
    raise ValidationError(f"unknown method {method!r}")
