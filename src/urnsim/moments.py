"""Exact occupancy moment series, asymptotic constants, and normalizers.

Occupancy counts after poissonization are sums of independent per-cell
Bernoulli indicators, so means and variances reduce to series over cells:

    mean  = sum_j g(t p_j)          variance = sum_j g(t p_j)(1 - g(t p_j))

with g the per-cell probability (at least k / exactly k events, Poisson or
binomial law).  One routine evaluates every series as an explicit head
over cells with t*p_j above a cut plus an analytic tail: g is expanded
around 0 and the power sums of t*p_j are closed-form/Euler-Maclaurin
quantities of the distribution.  The fixed-n tail and the gap's tail take
one rule: the coefficient of (n p)^r is the Poisson one times
falling(n, r) / n^r.  The residual bound stays far below the 1e-8-relative
budget even at t = 1e8, where direct truncation would need ~1e11 terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy import special

# smoothed_slowly_varying is called through this module's global, which
# perfbench/tracing.py wraps
from .distributions import (
    CellDistribution,
    DistributionError,
    slowly_varying,
    smoothed_slowly_varying,
)

# per-cell scale t*p_j at which the head/tail split happens: tail cells
# satisfy t*p_j <= _TAU and their contribution converges geometrically.
_TAU = 0.5
_MAX_ORDER = 60
_MIN_HEAD = 1000
# head cells per vectorized pass of the binomial-law head
_HEAD_CHUNK = 1 << 15


# Returned by asym_mean_coeff and asym_var_coeff (compare with ``is``) when
# the asymptotic lives on the t L*(t) scale, not a constant multiple of the
# counting function.
T_LSTAR_REGIME = object()


@dataclass(frozen=True)
class MomentReport:
    """Exact vs asymptotic values for one (t, k) pair."""

    t_or_n: float
    k: int
    star: bool
    law: str
    exact_mean: float
    exact_var: float
    asym_mean: float
    asym_var: float
    truncation_error: float

    CSV_HEADER = "t,k,star,exact_mean,exact_var,asym_mean,asym_var,trunc_err"

    def csv_row(self) -> str:
        vals = [self.t_or_n, self.k, int(self.star), self.exact_mean,
                self.exact_var, self.asym_mean, self.asym_var,
                self.truncation_error]
        return ",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                        else str(v) for v in vals)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"t": out.pop("t_or_n"), **out}


# ---------------------------------------------------------------- tails


def binomial_tail_at_least(n: int, p, k: int):
    """P(Binomial(n, p) >= k); 0 when k > n.  Vector friendly in p.

    For k >= 2 this is P(Poisson(np) >= k) plus the cancellation-free
    binomial-minus-Poisson correction of :func:`_binom_minus_poisson`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        return np.zeros_like(p) if np.ndim(p) else 0.0
    if k == 1:
        return -np.expm1(n * np.log1p(-np.asarray(p, dtype=np.float64)))
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = special.gammainc(k, n * p_arr) + _binom_minus_poisson(n, p_arr, k, True)
    return out if np.ndim(p) else float(out[0])


def _poisson_pmf(k: int, lam: np.ndarray) -> np.ndarray:
    out = np.zeros_like(lam)
    pos = lam > 0
    lp = lam[pos]
    out[pos] = np.exp(k * np.log(lp) - lp - special.gammaln(k + 1))
    return out


def _log1p_neg_plus(p: np.ndarray) -> np.ndarray:
    """log1p(-p) + p evaluated without cancellation (= -p^2/2 - p^3/3 - ...)."""
    out = np.empty_like(p)
    big = p > 1e-4
    out[big] = np.log1p(-p[big]) + p[big]
    q = p[~big]
    out[~big] = -q * q * (0.5 + q * (1.0 / 3.0 + q * (0.25 + q * (0.2 + q / 6.0))))
    return out


# ------------------------------------------------- Maclaurin coefficients

@functools.lru_cache(maxsize=64)
def _coeffs(k: int, star: bool) -> np.ndarray:
    """The coefficients c_r of lam^r, r <= _MAX_ORDER, in P(Poisson(lam) >= k)
    for star, else in P(Poisson(lam) = k); cached, so read-only."""
    c = np.zeros(_MAX_ORDER + 1)
    for m in range(0, _MAX_ORDER - k + 1):
        c[k + m] = (-1.0) ** m / (
            math.factorial(m) * (k + m) * math.factorial(k - 1) if star
            else math.factorial(k) * math.factorial(m))
    c.flags.writeable = False
    return c


def _series_square(c: np.ndarray) -> np.ndarray:
    """The coefficients of (sum_r c_r x^r)^2 up to the order of c."""
    out = np.zeros_like(c)
    for i in range(c.size):
        out[i:] += c[i] * c[:c.size - i]
    return out


@functools.lru_cache(maxsize=1 << 12)
def _log_falling_factor(n: int, r: int) -> float:
    """ln of the falling factor n(n-1)...(n-r+1)/n^r; -inf when r > n.
    The series at one n ask for r = 0.._MAX_ORDER, so the last values are
    kept."""
    if r > n:
        return -math.inf
    return float(np.log1p(-np.arange(r, dtype=np.float64) / n).sum())


def _binom_minus_poisson(n: int, p: np.ndarray, k: int, star: bool,
                         pmf_k: np.ndarray | None = None) -> np.ndarray:
    """Per cell P(Bin(n, p) in A) - P(Poisson(np) in A), A = {>= k} for
    star and {k} otherwise, with no cancellation between the two laws.

    Per i, P(Bin = i) / P(Pois = i) = exp(ln falling(n, i) + n (log1p(-p) + p)
    - i log1p(-p)), so the difference is P(Pois = i) expm1(that exponent);
    the at-least-k difference is minus the sum over i < k.  ``pmf_k``, when
    the caller holds it, is P(Pois = k) of the exactly-k term.
    """
    lam = n * p
    nl = n * _log1p_neg_plus(p)
    out = np.zeros_like(p)
    for i in (range(k) if star else (k,)):
        if i == 0:
            out += np.exp(-lam) * np.expm1(nl)
        else:
            pmf = pmf_k if i == k and pmf_k is not None else _poisson_pmf(i, lam)
            out += pmf * np.expm1(_log_falling_factor(n, i) + nl - i * np.log1p(-p))
    return -out if star else out


def _head_sum(f: Callable[[np.ndarray], np.ndarray], p: np.ndarray) -> float:
    """sum of f over the head cells p, in chunks that bound the temporaries."""
    return float(sum(f(p[lo:lo + _HEAD_CHUNK]).sum()
                     for lo in range(0, p.size, _HEAD_CHUNK)))


def _tail_series(d: CellDistribution, t: float, J: int, coeffs: np.ndarray,
                 scale: float) -> tuple[float, float]:
    """sum_{j>J} g(t p_j) from the Maclaurin coefficients of g.

    Valid when t*p_{J+1} <= _TAU; terms decay at least geometrically, so
    the bound on the stopped remainder is the last included term.
    """
    total = 0.0
    last = 0.0
    for r in range(len(coeffs)):
        if coeffs[r] == 0.0:
            continue
        lam_r = d.tail_power_sum(t, J, r)
        term = coeffs[r] * lam_r
        total += term
        last = abs(term)
        if last <= 1e-16 * max(abs(total), scale, 1e-300) and r >= 3:
            break
    return total, last


def _head_length(d: CellDistribution, t: float) -> int:
    """The number J of head cells at t (the distribution keeps it by t)."""
    return d._head_lengths.keep(t, lambda: max(d.counting_function(t / _TAU), _MIN_HEAD))


def _head(d: CellDistribution, t: float, k: int, star: bool,
          name: str) -> tuple[float, int]:
    """The head sum ``name`` of the series at (t, k, star), and the head
    length J.

    Over the cells j <= J, with g = P(Poisson(t p_j) in A) and A = {>= k}
    for star, {k} otherwise: "pois" sums g, "var" g (1 - g), "binom"
    P(Bin(t, p_j) in A) and "gap" that minus g.  The distribution keeps the
    sums by point and the array g of the latest point only; a call records
    every sum that the arrays it builds give, so the series at one point
    build the head once.
    """
    J = _head_length(d, t)
    key = (t, k, star)
    sums = d._head_sums.keep(key, dict)
    if name in sums:
        return sums[name], J
    p = d.probs_prefix(J)
    n = int(t)

    def g() -> np.ndarray:
        if d._head_array is None or d._head_array[0] != key:
            d._head_array = None  # free the last point's array first
            lam = t * p
            d._head_array = (key, special.gammainc(k, lam) if star else _poisson_pmf(k, lam))
        return d._head_array[1]

    if name == "pois":
        sums[name] = float(g().sum())
    elif name == "var":
        gc = special.gammaincc(k, t * p) if star else 1.0 - g()
        sums[name] = float((g() * gc).sum())
    elif name == "binom" and star and k == 1:
        sums[name] = _head_sum(lambda q: binomial_tail_at_least(n, q, 1), p)
    elif name == "binom":
        # per chunk g + correction; the corrections alone are the gap
        binom = gap = 0
        for lo in range(0, p.size, _HEAD_CHUNK):
            gc = g()[lo:lo + _HEAD_CHUNK]
            c = _binom_minus_poisson(n, p[lo:lo + _HEAD_CHUNK], k, star,
                                     None if star else gc)
            binom += (gc + c).sum()
            gap += c.sum()
        sums.update(binom=float(binom), gap=float(gap), pois=float(g().sum()))
    elif star and k > n:
        # the gap, where the fixed-n count is 0
        sums[name] = -_head(d, t, k, star, "pois")[0]
    else:
        # the gap
        sums[name] = _head_sum(lambda q: _binom_minus_poisson(n, q, k, star), p)
    return sums[name], J


# ---------------------------------------------------------- exact series

def _check_series_args(t: float, k: int, law: str) -> None:
    """The arguments every exact series accepts: k >= 1, a finite t >= 0
    and, for the fixed-n (binomial) law, an integer t."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be >= 0 and finite, got {t!r}")
    if law not in ("poisson", "binomial"):
        raise ValueError(f"unknown law {law!r}")
    if law == "binomial" and int(t) != t:
        raise ValueError("binomial law requires integer n")


def _series(d: CellDistribution, t: float, k: int, star: bool,
            name: str) -> tuple[float, float, float]:
    """The head sum ``name`` of :func:`_head` at (t, k, star), the series
    value (head plus the tail beyond it) and the tail's bound.  The tail
    takes the coefficients c of :func:`_coeffs`: "pois" c, "var" c - c^2;
    the fixed-n coefficient of (t p)^r is c_r falling(t, r) / t^r, so
    "binom" takes c * falling and "gap" c * expm1(ln falling)."""
    head, J = _head(d, t, k, star, name)
    c = _coeffs(k, star)
    if name == "var":
        c = c - _series_square(c)
    elif name != "pois":
        ln_falling = np.array([_log_falling_factor(int(t), r) for r in range(_MAX_ORDER + 1)])
        c = c * (np.exp(ln_falling) if name == "binom" else np.expm1(ln_falling))
    tail, bound = _tail_series(d, t, J, c, abs(head) + 1e-12 if name == "gap" else head)
    return head, head + tail, bound


def exact_mean(d: CellDistribution, t: float, k: int, star: bool,
               law: str = "poisson") -> tuple[float, float]:
    """Exact series mean of the occupancy count (cells with >= k balls for
    star, exactly k otherwise) under the poissonized or fixed-n law.

    Returns (value, truncation_error_bound).
    """
    _check_series_args(t, k, law)
    if t == 0 or (law == "binomial" and k > t):
        return 0.0, 0.0
    _, value, bound = _series(d, t, k, star, "pois" if law == "poisson" else "binom")
    return float(value), float(bound + 1e-15 * abs(value))


def exact_var(d: CellDistribution, t: float, k: int, star: bool) -> tuple[float, float]:
    """Exact series variance of the poissonized count (Bernoulli sum
    g(1-g) over independent per-cell indicators)."""
    _check_series_args(t, k, "poisson")
    if t == 0:
        return 0.0, 0.0
    _, value, bound = _series(d, t, k, star, "var")
    return float(value), float(bound + 1e-15 * abs(value))


def mean_difference(d: CellDistribution, n: int, k: int, star: bool) -> tuple[float, float]:
    """E[count under fixed-n law] - E[count under poissonized law],
    evaluated termwise so the tiny difference is not lost to cancellation."""
    _check_series_args(n, k, "binomial")
    if n == 0:
        return 0.0, 0.0
    head, value, bound = _series(d, float(n), k, star, "gap")
    return float(value), float(bound + 1e-14 * abs(head))


def depoissonization_gap(d: CellDistribution, n: int, k: int, star: bool) -> float:
    """The second-order depoissonization prediction -(n/2) m''(n) of
    ``mean_difference``, m the poissonized mean, from the poissonized
    exactly-j means E R_j (Jacquet and Szpankowski 1998):

        at least k:  (k(k+1) E R_{k+1} - k(k-1) E R_k) / (2n)
        exactly k:   (-k(k-1) E R_k + 2k(k+1) E R_{k+1} - (k+1)(k+2) E R_{k+2}) / (2n)

    It matches ``mean_difference`` to a relative O(1/n).
    """
    _check_series_args(n, k, "binomial")
    if n == 0:
        return 0.0
    weights = {k: -k * (k - 1), k + 1: k * (k + 1)} if star else \
        {k: -k * (k - 1), k + 1: 2 * k * (k + 1), k + 2: -(k + 1) * (k + 2)}
    return sum(w * exact_mean(d, float(n), j, False)[0]
               for j, w in weights.items() if w) / (2.0 * n)


def moment_report(d: CellDistribution, t: float, k: int, star: bool,
                  law: str = "poisson") -> MomentReport:
    """Exact mean/variance plus the matching asymptotic predictions.

    Variances are always the poissonized ones; asymptotics on the t*L*(t)
    scale (theta=1, k=1) are reported through that scale's value.
    """
    em, te_m = exact_mean(d, t, k, star, law)
    ev, te_v = exact_var(d, t, k, star)
    cnt = d.counting_function(t) if t >= 1 else 0
    am = _asymptotic(d, t, asym_mean_coeff(d.theta, k, star), cnt)
    try:
        cv = asym_var_coeff(d.theta, k, star)
    except DistributionError:
        cv = math.nan
    av = _asymptotic(d, t, cv, cnt)
    return MomentReport(t_or_n=t, k=k, star=star, law=law, exact_mean=em,
                        exact_var=ev, asym_mean=am, asym_var=av,
                        truncation_error=max(te_m, te_v))


def _asymptotic(d: CellDistribution, t: float, coeff, cnt: int) -> float:
    """coeff * counting_function(t), or t L*(t) when coeff is
    T_LSTAR_REGIME (L* is evaluated only then)."""
    if coeff is T_LSTAR_REGIME:
        return t * smoothed_slowly_varying(d, t) if t >= 1 else math.nan
    return coeff * cnt


# ------------------------------------------------- asymptotic constants

def gamma_tail_partial_sum(theta: float, M: float) -> float:
    """theta * sum_{i=1}^{M} Gamma(i-theta)/i!, via the exact telescoping
    Gamma(i-theta)/Gamma(i) - Gamma(i+1-theta)/Gamma(i+1) per term, so it
    is computable for astronomically large M."""
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must be in (0, 1]")
    if theta == 1.0:
        # sum_{i=2}^{M} 1/(i(i-1)) = 1 - 1/M, with a divergent i=1 term
        raise ValueError("partial sums diverge at theta = 1 (first term)")
    if M > 1e6:
        # gammaln differences cancel catastrophically here; use the ratio
        # asymptotic Gamma(M+1-theta)/Gamma(M+1) ~ M^-theta (1 - theta(1-theta)/(2M))
        rest = M ** -theta * (1.0 - theta * (1.0 - theta) / (2.0 * M))
    else:
        rest = math.exp(special.gammaln(M + 1.0 - theta) - special.gammaln(M + 1.0))
    return float(special.gamma(1.0 - theta) - rest)


def asym_mean_coeff(theta: float, k: int, star: bool):
    """Constant c with E[count] ~ c * counting_function(t), a float; for
    theta = 1, k = 1 the mean lives on the t L*(t) scale instead, and the
    T_LSTAR_REGIME sentinel is returned (test it with ``is``)."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not star:
        if theta == 0.0:
            return 0.0
        if theta == 1.0 and k == 1:
            return T_LSTAR_REGIME
        return theta * special.gamma(k - theta) / math.factorial(k)
    if theta == 0.0:
        return 1.0
    if theta == 1.0:
        if k == 1:
            return T_LSTAR_REGIME
        # theta sum_{i>=k} Gamma(i-1)/i! telescopes to 1/(k-1)
        return 1.0 / (k - 1)
    c = special.gamma(1.0 - theta)
    for i in range(1, k):
        c -= theta * special.gamma(i - theta) / math.factorial(i)
    return float(c)


def asym_var_coeff(theta: float, k: int, star: bool):
    """Constant c with Var[count] ~ c * counting_function(t)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if star:
        if theta == 0.0:
            raise DistributionError(
                "no counting-function variance asymptotic at theta = 0 (star)")
        if k == 1:
            if theta == 1.0:
                return T_LSTAR_REGIME
            return float(special.gamma(1.0 - theta) * (2.0 ** theta - 1.0))
        if not (0.0 < theta <= 1.0):
            raise ValueError("theta must be in (0, 1] for the star variance")
        total = 2.0 ** theta * special.gamma(2.0 - theta) \
            - special.gamma(k - theta) / math.factorial(k - 1)
        double = 0.0
        for s_ in range(k):
            for m_ in range(k):
                r = s_ + m_
                if r >= 2:
                    double += special.gamma(r - theta) / (
                        2.0 ** (r - theta) * math.factorial(s_) * math.factorial(m_))
        return float(total - theta * double)
    if theta == 0.0:
        return 0.0
    if theta == 1.0 and k == 1:
        return T_LSTAR_REGIME
    return float(theta / math.factorial(k) * (
        special.gamma(k - theta)
        - special.gamma(2 * k - theta) / (2.0 ** (2 * k - theta) * math.factorial(k))))


# ---------------------------------------------------------- normalizers

@dataclass(frozen=True)
class NormalizerSpec:
    """Normalizing sequence b(n) for the fixed-n/poissonized gap and the
    window width tprime(n) used in its derivation."""

    b: Callable[[float], float]
    tprime: Callable[[float], float]


def normalizer(d: CellDistribution, k: int) -> NormalizerSpec:
    """The decay normalizer b(n) and window tprime(n) for (d.theta, k), as
    the two evaluators only.

    theta = 1 uses the exact scheme formulas, with L*(n) in place of the
    slowly varying factor L(n) when k = 1; theta < 1 uses a concrete
    representative that is o() of the admissible class:
        b(n) = min(n^(1/2-theta)/(L(n) lnln n), 1/ln n) / lnln n.
    Evaluators require n >= 16 so lnln n > 0.
    """
    theta = d.theta
    if k < 1:
        raise ValueError("k must be >= 1")

    def _check(n: float) -> float:
        if n < 16:
            raise ValueError("normalizer defined for n >= 16")
        return math.log(math.log(n))

    lstar = theta == 1.0 and k == 1

    def slow(n: float) -> float:
        # L* on the t L*(t) scale, looked up as this module's global per call
        return smoothed_slowly_varying(d, n) if lstar else slowly_varying(d, n)

    def b(n: float) -> float:
        ll = _check(n)
        if theta == 1.0:
            return 1.0 / math.sqrt(n * slow(n) * ll)
        return min(n ** (0.5 - theta) / (slow(n) * ll), 1.0 / math.log(n)) / ll

    def tprime(n: float) -> float:
        ll = _check(n)
        if theta == 1.0:
            return math.sqrt(n * ll) * slow(n) ** -0.25
        return math.sqrt(n) * ll

    return NormalizerSpec(b=b, tprime=tprime)


# ---------------------------------------------------- inequality checks

@dataclass(frozen=True)
class IncrementCheck:
    """Both sides of the poissonized mean increment inequality."""

    n: float
    t_n: float
    k: int
    lhs: float
    rhs: float
    holds: bool
    margin: float


def mean_increment_check(d: CellDistribution, n: int, t_n: float, k: int) -> IncrementCheck:
    """|E[count at n + t_n] - E[count at n]| <= (2|t_n|/n) E[count at n]
    for the poissonized at-least-k count; returns both sides and margin."""
    if abs(t_n) >= n:
        raise ValueError("requires |t_n| < n")
    m_shift, e1 = exact_mean(d, n + t_n, k, star=True)
    m_base, e2 = exact_mean(d, float(n), k, star=True)
    lhs = abs(m_shift - m_base)
    rhs = 2.0 * abs(t_n) / n * m_base
    tol = e1 + e2
    return IncrementCheck(n=n, t_n=t_n, k=k, lhs=lhs, rhs=rhs,
                          holds=bool(lhs <= rhs + tol), margin=rhs - lhs)


@dataclass(frozen=True)
class SandwichMargins:
    """Margins of the poissonized variance sandwich at (n, k):

      var_star >= 2^-k * mean_exact(2n)      (lower)
      var_star <= k * mean_exact(n)          (upper)
      var_exact < mean_exact(n)              (strict)
    """

    n: float
    k: int
    lower_margin: float
    upper_margin: float
    strict_margin: float

    @property
    def holds(self) -> bool:
        return self.lower_margin >= 0 and self.upper_margin >= 0 and self.strict_margin > 0


def variance_sandwich_check(d: CellDistribution, n: int, k: int) -> SandwichMargins:
    """Exact-series check of the variance sandwich inequalities."""
    bstar, _ = exact_var(d, float(n), k, star=True)
    b_exact, _ = exact_var(d, float(n), k, star=False)
    m_2n, _ = exact_mean(d, 2.0 * n, k, star=False)
    m_n, _ = exact_mean(d, float(n), k, star=False)
    return SandwichMargins(
        n=n, k=k,
        lower_margin=bstar - m_2n / 2.0 ** k,
        upper_margin=k * m_n - bstar,
        strict_margin=m_n - b_exact,
    )
