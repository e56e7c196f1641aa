"""Reference paths with linear p-th variation and constructions on top.

The reference construction fixes one magnitude per level (default
c_m = q**(m(1/2 - 1/p)), which normalizes the level diagnostic to 1) and
spreads it over all positions: theta_m[k, l] = c_m * sigma_m[k] * a_l, with
branch weights a (a = (1,) for q = 2) and per-position signs sigma (free
for q = 2, all +1 for q >= 3).  Scaled increments of such a path are
partial sums of a geometric series with sign/digit-dependent terms:

    q**(n/p) * (x((k+1)/q**n) - x(k/q**n)) = sum_{j=1..n} rho**j y_{n-j} w_j(k)

with rho = q**-(1-1/p), y_m the normalized magnitude, and the single weight
formula w_j(k) = sigma_{n-j}[k // q**j] * eta_{d_j(k)}, where d_j(k) is the
j-th base-q digit of k and eta_d = sum_l a_l gamma[l, d] (eta = (1, -1) for
q = 2).  Because k -> (w_1(k), ..., w_n(k)) enumerates all possibilities
exactly once, level sums equal expectations over independent uniform
digits, and the limiting slope of the variation is the p-th absolute moment
of the full series.  That moment is computed here by three independent
routes: truncated exact enumeration with a certified tail bound, stratified
Monte Carlo, and a cumulant-based closed form for even p.

Enumeration splits the J digits into head and tail cross sums a and b, of
q**(J//2) and q**(J - J//2) entries, and averages |a_i + b_j|**p over all
q**J pairs.  For integer p <= POWER_SUM_MAX_P it expands (a_i + b_j)**p
binomially instead and needs only power sums of the sorted b, prefix sums
up to -a_i where odd p flips the sign: O(p q**(J/2)) work, not O(q**J).
That expansion works on power sums of the enumerated sets, not on
cumulants of the digit distribution, so the closed form and enumeration
still check each other through two different algebras.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError, check_exponent
from .partition import (
    MAX_INTERVALS_ENV,
    PartitionGrid,
    check_interval_budget,
    digits_matrix,
    interval_budget,
    qadic_grid,
)
from .schauder import (
    CoefficientArray,
    SampledPath,
    analyze,
    eta_all,
    synthesize,
)
from .variation import (
    VariationProfile,
    pvar_profile,
    stieltjes_against_profile,
    variation_index_estimate,
)

ENUMERATION_BUDGET = 2 ** 26
SIGN_MATRIX_BUDGET = 2 ** 20
MC_TABLE_CAP = 4096      # entries in one Monte Carlo digit-block table
MC_CHUNK = 1 << 16       # samples drawn and accumulated at a time
POWER_SUM_MAX_P = 16     # largest integer p enumerated by binomial power sums


# ---------------------------------------------------------------------------
# Reference specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformMagnitudeSpec:
    """Parameters of a uniform-magnitude reference path.

    c_rule "default" means c_m = q**(m(1/2 - 1/p)); an explicit sequence may
    be supplied for convergence studies.  ``signs`` is "plus" or an integer
    seed of random per-position signs; ``a`` holds the q-1 branch
    weights (default all ones).  q = 2 takes no weights (a = (1,)), and
    q >= 3 takes no signs: a sign flip permutes the two dyadic child values
    but not the q >= 3 ones, and the bijection behind the variation constant
    needs that permutation.
    """

    q: int = 2
    p: float = 2.0
    levels: int = 16
    c_rule: object = "default"
    signs: object = "plus"
    a: tuple | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValidationError(f"q must be >= 2, got {self.q}")
        check_exponent(self.p)
        if self.levels < 1:
            raise ValidationError(f"levels must be >= 1, got {self.levels}")
        if not (isinstance(self.signs, (int, np.integer))
                or isinstance(self.signs, str) and self.signs == "plus"):
            raise ValidationError("signs must be 'plus' or an integer seed")
        if self.q == 2 and self.a is not None:
            raise ValidationError("branch weights apply only to q >= 3")
        if self.q >= 3:
            a = tuple(float(v) for v in (self.a if self.a is not None else np.ones(self.q - 1)))
            eta_all(a, self.q)
            object.__setattr__(self, "a", a)
            if self.signs != "plus":
                raise ValidationError("random signs apply only to q = 2")
        if isinstance(self.c_rule, str):
            if self.c_rule != "default":
                raise ValidationError(f"unknown c_rule {self.c_rule!r}")
        else:
            rule = tuple(float(v) for v in self.c_rule)
            if len(rule) < self.levels:
                raise ValidationError("explicit c_rule must cover all levels")
            if any(v < 0 for v in rule):
                raise ValidationError("magnitudes must be nonnegative")
            object.__setattr__(self, "c_rule", rule)

    @property
    def rho(self) -> float:
        return self.q ** -(1.0 - 1.0 / self.p)

    def c(self, m: int) -> float:
        if self.c_rule == "default":
            return self.q ** (m * (0.5 - 1.0 / self.p))
        return self.c_rule[m]

    def y(self, m: int) -> float:
        """Normalized magnitude q**(m(1/p - 1/2)) c_m (exactly 1 by default)."""
        if self.c_rule == "default":
            return 1.0
        return self.q ** (m * (1.0 / self.p - 0.5)) * self.c(m)

    def eta_values(self) -> np.ndarray:
        """The q per-child values eta_d driven by digits; (1, -1) when q = 2."""
        return eta_all(_branch_weights(self.q, self.a), self.q)

    def sign_arrays(self) -> list:
        """Per-level +-1 arrays sigma_m of length q**m; deterministic in the seed.

        "plus" arrays are read-only broadcast views, so they cost no memory
        at any level count.
        """
        if self.signs == "plus":
            one = np.ones(1, dtype=np.int8)
            return [np.broadcast_to(one, (self.q ** m,)) for m in range(self.levels)]
        rng = np.random.default_rng(int(self.signs))
        return [
            (rng.integers(0, 2, size=self.q ** m, dtype=np.int8) * 2 - 1).astype(np.int8)
            for m in range(self.levels)
        ]

    def to_config(self) -> dict:
        signs = self.signs if self.signs == "plus" else {"seed": int(self.signs)}
        c_rule = self.c_rule if isinstance(self.c_rule, str) else list(self.c_rule)
        return {
            "q": int(self.q),
            "p": float(self.p),
            "levels": int(self.levels),
            "c_rule": c_rule,
            "signs": signs,
            "a": None if self.a is None else list(self.a),
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_reference(spec: UniformMagnitudeSpec) -> CoefficientArray:
    """Coefficient array of the reference path: theta_m[k, l] = c_m * sigma_m[k] * a_l."""
    check_interval_budget(spec.q, spec.levels)
    a = _branch_weights(spec.q, spec.a)
    levels = [spec.c(m) * np.outer(signs, a) for m, signs in enumerate(spec.sign_arrays())]
    return CoefficientArray(q=spec.q, boundary=(0.0, 0.0), levels=tuple(levels))


def reference_path(spec: UniformMagnitudeSpec, n: int) -> SampledPath:
    """Reference path sampled on the level-``n`` grid (requires n <= levels)."""
    if n > spec.levels:
        raise ValidationError(
            f"target level {n} exceeds the spec truncation level {spec.levels}"
        )
    path = synthesize(build_reference(spec), n)
    path.meta.update({"spec": spec.to_config(), "spec_digest": spec.digest(),
                      "truncation_level": spec.levels})
    return path


# ---------------------------------------------------------------------------
# The limiting variation constant: three independent oracles
# ---------------------------------------------------------------------------


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
    """
    if tail_sup == 0.0:
        return 0.0
    if p >= 2:
        smooth = 0.5 * p * (p - 1) * (head_sup + tail_sup) ** (p - 2) * tail_sup ** 2
    else:
        smooth = (2 ** (2 - p) / p) * tail_sup ** p
    total = head_sup + tail_sup
    lipschitz = p * (2 * total) ** (p - 1) * tail_sup
    return float(min(smooth, lipschitz))


def _sup_partial(rho: float, eta_sup: float, j_from: int, j_to) -> float:
    """sup of |sum_{j=j_from..j_to} rho^j W_j| with |W| <= eta_sup."""
    if j_to is None:
        return eta_sup * rho ** j_from / (1.0 - rho)
    if j_to < j_from:
        return 0.0
    return eta_sup * rho ** j_from * (1.0 - rho ** (j_to - j_from + 1)) / (1.0 - rho)


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

    def bound_for(j):
        head = _sup_partial(rho, eta_sup, 1, j)
        tail = _sup_partial(rho, eta_sup, j + 1, None)
        return _truncation_bound(p, head, tail)

    if J is None:
        J = 1
        while bound_for(J) > tol:
            J += 1
            if q ** J > ENUMERATION_BUDGET:
                raise BudgetError(
                    f"enumeration to tail bound {tol:g} needs more than budget "
                    f"{ENUMERATION_BUDGET} digit strings (q={q}); best reachable bound is "
                    f"{bound_for(int(math.log(ENUMERATION_BUDGET, q))):.3g}"
                )
    if q ** J > ENUMERATION_BUDGET:
        raise BudgetError(f"q**J = {q ** J} exceeds enumeration budget {ENUMERATION_BUDGET}")
    j_half = J // 2
    head = _cross_sums([rho ** j * etas for j in range(1, j_half + 1)])
    tail = _cross_sums([rho ** j * etas for j in range(j_half + 1, J + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        if float(p).is_integer() and p <= POWER_SUM_MAX_P:
            value = _mean_abs_pow_binomial(head, tail, int(p))
        else:
            value = _mean_abs_pow(head, tail, p)
    if not math.isfinite(value):
        raise ValidationError(f"the p={p} moment of the J={J} enumeration overflows float64")
    return VariationConstant(
        value=value,
        method="exact-enumeration",
        error_bound=bound_for(J),
        details={"J": int(J), "terms": int(q) ** int(J)},
    )


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
    strata_cap = min(1024, max(1, N // 64))
    J0 = 0
    while q ** (J0 + 1) <= strata_cap:
        J0 += 1
    heads = _cross_sums([rho ** j * etas for j in range(1, J0 + 1)])
    S = heads.size

    def dropped_bound(jt):
        return _truncation_bound(p, _sup_partial(rho, eta_sup, 1, J0 + jt),
                                 _sup_partial(rho, eta_sup, J0 + jt + 1, None))

    # digits beyond J0 + Jt are dropped; pick Jt so the leftover is negligible
    Jt = 1
    while dropped_bound(Jt) > 1e-10 and Jt < 512:
        Jt += 1
    k = 1   # digits per block: the largest k >= 1 with q**k <= MC_TABLE_CAP
    while q ** (k + 1) <= MC_TABLE_CAP:
        k += 1
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
    value = float(np.mean(means))
    stderr = float(np.sqrt(np.sum(variances / counts)) / S)
    return VariationConstant(
        value=value,
        method="monte-carlo",
        error_bound=dropped_bound(Jt),
        stderr=stderr,
        details={"N": int(N), "seed": int(seed), "strata": int(S), "tail_digits": int(Jt)},
    )


def _constant_closed_form(p, q, etas, rho) -> VariationConstant:
    if not (float(p).is_integer() and int(p) % 2 == 0 and p >= 2):
        raise ValidationError(
            "closed-form moments require an even integer p; use exact or monte-carlo"
        )
    p = int(p)
    # raw moments of the per-digit value, exact up to float rounding
    mu = [float(np.mean(etas ** r)) for r in range(p + 1)]
    # cumulants of the per-digit value
    kappa = [0.0] * (p + 1)
    for n in range(1, p + 1):
        acc = mu[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * kappa[k] * mu[n - k]
        kappa[n] = acc
    # cumulants add over the independent scaled terms: geometric factors
    big_k = [0.0] * (p + 1)
    for r in range(1, p + 1):
        big_k[r] = kappa[r] * rho ** r / (1.0 - rho ** r)
    # moments of the series from its cumulants
    mom = [1.0] + [0.0] * p
    for n in range(1, p + 1):
        mom[n] = sum(math.comb(n - 1, k - 1) * big_k[k] * mom[n - k] for k in range(1, n + 1))
    return VariationConstant(value=float(mom[p]), method="closed-form", error_bound=0.0,
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
    chosen so a certified truncation bound is below ``tol`` (the bound uses
    that the omitted tail has mean zero, which beats the raw Lipschitz
    estimate by an order of tail); "mc" is a seeded stratified Monte Carlo
    estimator with standard error; "closed" evaluates even moments through
    cumulants of the digit distribution in closed form.

    For integer p <= POWER_SUM_MAX_P = 16, "exact" sums the q**J strings
    through binomial power sums over the sorted head/tail split, in
    O(p q**(J/2)) work; other p pair every head with every tail, O(q**J).
    Both report the same J, ``terms`` and ``error_bound``.  Against a
    ``math.fsum`` of all pairs (q = 2, 3, 4; unit and mixed-sign weights),
    the power sums are off by at most 5.8e-16 relative for p <= 16 and the
    pairwise sum by 3.8e-16.  The power-sum error grows about linearly in p,
    and past p = 1029 the binomial coefficients overflow float64, hence the
    cap; for 16 < p <= 100 the default ``tol`` needs J <= 18 at q = 2 (and
    less at larger q), so pairing there costs milliseconds.  The expansion is of power sums of the enumerated cross
    sums, not of cumulants, so "exact" and "closed" still check each other
    through two different algebras.  A moment that overflows float64 raises
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
    if q < 2:
        raise ValidationError(f"q must be >= 2, got {q}")
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


# ---------------------------------------------------------------------------
# Weight patterns and the sign/digit matrix
# ---------------------------------------------------------------------------


def weight_patterns(spec: UniformMagnitudeSpec, n: int, ks=None) -> tuple[np.ndarray, np.ndarray]:
    """Digits and signs behind the series weights of level-``n`` increments.

    Returns (D, sigma), both (len(ks), n) with column j-1 for level n-j:
    D holds d_j(k) and sigma holds sigma_{n-j}[k // q**j], the sign of the
    coefficient whose tent spans increment k.  The weights are
    w = sigma * eta[D].  ``ks`` defaults to every increment.
    """
    q = spec.q
    ks = np.arange(q ** n, dtype=np.int64) if ks is None else np.asarray(ks, dtype=np.int64)
    signs = spec.sign_arrays()
    sigma = np.stack([signs[n - j][ks // q ** j] for j in range(1, n + 1)], axis=1)
    return digits_matrix(n, q, ks), sigma


@dataclass(frozen=True)
class SignMatrixReport:
    n: int
    q: int
    bijection: bool
    distinct: int
    profile_path: float
    profile_expected: float
    gap: float


def sign_matrix(spec: UniformMagnitudeSpec, n: int) -> SignMatrixReport:
    """Exhaustively verify the weight-pattern bijection at level ``n``.

    Checks that k -> (w_1(k), ..., w_n(k)) hits every pattern exactly once,
    and that the level-n variation of the synthesized path equals the
    average of |sum_j rho^j y_{n-j} w_j|^p over all enumerated patterns.
    """
    if spec.q ** n > SIGN_MATRIX_BUDGET:
        raise BudgetError(
            f"sign matrix at level {n} needs {spec.q ** n} rows, budget {SIGN_MATRIX_BUDGET}"
        )
    if not 1 <= n <= spec.levels:
        raise ValidationError(f"level n must lie in [1, {spec.levels}]")
    q = spec.q
    D, sigma = weight_patterns(spec, n)
    # sigma * eta_d = eta_{q-1-d} when sigma = -1 (q = 2, eta = (1, -1));
    # sigma is +1 for q >= 3, so the pattern is indexed by its digits
    effective = np.where(sigma > 0, D, q - 1 - D)
    codes = effective @ (q ** np.arange(n, dtype=np.int64))
    order = np.sort(codes)
    bijection = bool(np.array_equal(order, np.arange(q ** n)))
    distinct = int(np.unique(codes).size)

    weights = [spec.rho ** j * spec.y(n - j) * spec.eta_values() for j in range(1, n + 1)]
    sums = _cross_sums(weights)
    expected = float(np.mean(np.abs(sums) ** spec.p))
    path = reference_path(spec, n)
    observed = pvar_profile(path, spec.p, eval_level=0).terminal
    return SignMatrixReport(
        n=n,
        q=q,
        bijection=bijection,
        distinct=distinct,
        profile_path=observed,
        profile_expected=expected,
        gap=abs(observed - expected),
    )


# ---------------------------------------------------------------------------
# Multiplicative transport and the prescribed-variation recipe
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransportResult:
    y: SampledPath
    predicted: VariationProfile


def transport_multiply(
    g: SampledPath, x: SampledPath, x_profile: VariationProfile, p: float
) -> TransportResult:
    """Pointwise product y = g*x plus its predicted variation profile.

    The prediction integrates |g|^p against the increments of the supplied
    profile of x (left-point sums), which is the exact discrete counterpart
    of the transport identity for multipliers of vanishing variation; it is
    reported where ``x_profile`` is.
    """
    if not g.grid.same_as(x.grid):
        raise ValidationError("g and x must share one grid")
    y = SampledPath(
        grid=x.grid,
        values=g.values * x.values,
        meta={"source": "transport_multiply"},
    )
    gp = SampledPath(grid=g.grid, values=np.abs(g.values) ** p)
    pred = stieltjes_against_profile(gp, x_profile)
    predicted = VariationProfile(p=p, grid=x_profile.grid, eval_level=x_profile.eval_level,
                                 values=pred)
    return TransportResult(y=y, predicted=predicted)


# The target variations the CLI and the acceptance checks prescribe:
# name -> (hprime(t, rate), h(t, rate)), with h(0) = 0 and h' = hprime.
TARGET_DENSITIES = {
    "linear": (lambda t, r: np.full_like(t, r), lambda t, r: r * t),
    "exp": (lambda t, r: r * np.exp(r * t), lambda t, r: np.exp(r * t) - 1.0),
    "log": (lambda t, r: r / (1.0 + r * t), lambda t, r: np.log1p(r * t)),
}


@dataclass(frozen=True, eq=False)
class RecipeResult:
    y: SampledPath
    g: SampledPath
    x: SampledPath
    constant: VariationConstant
    target: np.ndarray          # cumulative integral of the supplied density
    multiplier_trend: object    # TrendRow for the multiplier, or None


def recipe(
    hprime,
    spec: UniformMagnitudeSpec,
    n: int,
    constant: VariationConstant | None = None,
) -> RecipeResult:
    """Build y with prescribed variation t -> integral of ``hprime``.

    ``hprime`` is a callable or an array of q**n + 1 finite nonnegative
    samples.
    The multiplier g = (hprime / C)^(1/p) must itself have vanishing p-th
    variation for the construction to be exact in the limit; that hypothesis
    is not checkable from samples, so the coefficient-trend diagnostic is
    run on g and a warning is issued if it does not look vanishing.
    """
    if n > spec.levels:
        raise ValidationError(f"grid level {n} exceeds spec truncation {spec.levels}")
    grid = qadic_grid(spec.q, n)
    hp = np.asarray(hprime(grid.points) if callable(hprime) else hprime, dtype=np.float64)
    if hp.shape != grid.points.shape:
        raise ValidationError(f"hprime must provide {grid.points.size} samples")
    if not (np.all(np.isfinite(hp)) and np.all(hp >= 0)):
        raise ValidationError("hprime samples must be finite and nonnegative")
    if constant is None:
        constant = variation_constant(spec.p, spec.q, spec.a, method="exact")
    g_vals = (hp / constant.value) ** (1.0 / spec.p)
    g = SampledPath(grid=grid, values=g_vals, meta={"source": "recipe-multiplier"})
    x = reference_path(spec, n)
    y = SampledPath(
        grid=grid,
        values=g_vals * x.values,
        meta={"source": "recipe", "spec_digest": spec.digest(), "level": n},
    )
    dt = np.diff(grid.points)
    target = np.concatenate(([0.0], np.cumsum(0.5 * (hp[:-1] + hp[1:]) * dt)))
    trend = None
    if n >= 4:
        trend = variation_index_estimate(analyze(g), [spec.p])[0]
        if trend.trend != "vanishing":
            warnings.warn(
                f"multiplier variation diagnostic is {trend.trend!r} "
                f"(slope {trend.slope:.3g}); the prescribed-variation identity "
                "assumes a vanishing-variation multiplier",
                stacklevel=2,
            )
    return RecipeResult(y=y, g=g, x=x, constant=constant, target=target,
                        multiplier_trend=trend)


def shifted_reference(x: SampledPath, shift: float) -> SampledPath:
    """Strictly positive shift x + shift with shift > sup |x|.

    The shifted values are stored like any path's, so variation profiles of
    the shifted path agree with those of ``x`` to rounding, not bit for bit.
    On q=2 (n=20, random signs seed 1) and q=3 (n=12, a=(1, 1)) reference
    paths, for p in {1.5, 2, 3.5, 4} and shift sup|x| + 1 or + 2, the full
    profiles differ by at most 15 ulp of the terminal value (2.6e-15
    relative), and by 4.2e-14 relative at shift sup|x| + 100.
    """
    if shift <= x.sup_norm():
        raise ValidationError(
            f"shift {shift} must exceed the sup norm {x.sup_norm():.6g} strictly"
        )
    return SampledPath(
        grid=x.grid,
        values=x.values + shift,
        meta={**x.meta, "shifted_by": float(shift)},
    )


# ---------------------------------------------------------------------------
# Bernstein smoothing and coefficient splicing
# ---------------------------------------------------------------------------


def bernstein(z, degree: int, grid: PartitionGrid) -> SampledPath:
    """Degree-``degree`` Bernstein polynomial of ``z`` sampled on ``grid``.

    ``z`` may be a callable or a SampledPath (linearly interpolated at the
    nodes k/degree).  Evaluation folds convex combinations in place, which
    is numerically stable and reproduces constants bitwise.  The work array
    of ``(degree + 1) * grid.points.size`` entries may hold at most the
    interval budget.
    """
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    work = (degree + 1) * grid.points.size
    budget = interval_budget()
    if work > budget:
        raise BudgetError(
            f"degree {degree} on {grid.points.size} points needs a {work}-entry work array; "
            f"budget is {budget} (override with {MAX_INTERVALS_ENV})"
        )
    nodes = np.arange(degree + 1, dtype=np.float64) / degree
    if callable(z):
        zv = np.asarray(z(nodes), dtype=np.float64)
    else:
        zv = np.interp(nodes, z.grid.points, z.values)
    t = grid.points
    b = np.repeat(zv[:, None], t.size, axis=1)
    for _ in range(degree):
        b = b[:-1] + t[None, :] * (b[1:] - b[:-1])
    return SampledPath(
        grid=grid,
        values=b[0],
        meta={"source": "bernstein", "degree": int(degree), "node_sup": float(np.max(np.abs(zv)))},
    )


def splice(x_coeffs: CoefficientArray, y_coeffs: CoefficientArray, n: int) -> CoefficientArray:
    """Boundary and levels < n from x, levels >= n from y.

    The result agrees with x at every level-n grid point because the finer
    tent functions vanish there; its level diagnostics at levels >= n are
    those of y because the coefficients coincide levelwise.
    """
    if x_coeffs.q != y_coeffs.q:
        raise ValidationError("cannot splice arrays with different q")
    if n < 0:
        raise ValidationError("crossover level must be >= 0")
    if x_coeffs.num_levels < n:
        raise ValidationError(f"x provides {x_coeffs.num_levels} levels, need {n}")
    if y_coeffs.num_levels < n:
        raise ValidationError(f"y provides {y_coeffs.num_levels} levels, need at least {n}")
    levels = tuple(x_coeffs.levels[:n]) + tuple(y_coeffs.levels[n:])
    return CoefficientArray(q=x_coeffs.q, boundary=x_coeffs.boundary, levels=levels)
