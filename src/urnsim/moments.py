"""Exact occupancy moment series, asymptotic constants, and normalizers.

Occupancy counts after poissonization are sums of independent per-cell
Bernoulli indicators, so means and variances reduce to series over cells:

    mean  = sum_j g(t p_j)          variance = sum_j g(t p_j)(1 - g(t p_j))

with g the per-cell probability (at least k / exactly k events, Poisson or
binomial law).  Every series is a head over the N(t) cells that the counting
function counts at t (t p_j >= 1; at least _EM_MIN_INDEX of them), plus an
analytic tail over cells with t p_j < 1: g expanded around 0 times the power
sums of t*p_j, quantities of the distribution; the fixed-n and gap tails
take the Poisson coefficient of (n p)^r times falling(n, r) / n^r.  The head
gives the four series of a point in one pass: its first 2^16 cells (the
sampler table's) one by one, from Poisson pmfs by recurrence, and the cells
past them by midpoint Euler-Maclaurin over the smooth p(x), whose nodes go
through the same kernel, so its cost does not grow with N(t).  The bound
covers rounding, the quadrature's error, proved remainders of the
Euler-Maclaurin sum and of the Maclaurin series, and stays far below 1e-8
relative up to t = 1e12 (at t = 1e8 direct truncation would need ~1e11
terms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

# smoothed_slowly_varying is called through this module's global, which
# perfbench/tracing.py wraps
from .distributions import (
    _EM_MIN_INDEX,
    _GAUSS,
    _MAX_ORDER,
    _TABLE_SIZE,
    CellDistribution,
    DistributionError,
    _gauss_nodes,
    _gauss_sums,
    slowly_varying,
    smoothed_slowly_varying,
)

# head cells per pass: 2^13 keeps a pass's dozen temporaries in L2
_HEAD_CHUNK = 1 << 13
# the largest fall of ln p across one piece of the Euler-Maclaurin head
_EM_STEP = 0.25
# rates whose Poisson pmfs come from logarithms (exp(-lam) is subnormal)
_LAM_LOG = 700.0
# bound, in ulps, on the relative error of _poisson_cells' g and 1 - g, k <= 10
_CELL_ULPS = 64
_LAWS = ("poisson", "binomial")  # of an exact series: poissonized, and fixed n
# Bernoulli numbers B_0..B_20, B_1 = -1/2, of gamma_tail_partial_sum's Stirling series
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0,
              -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0, 43867 / 798, 0.0, -174611 / 330)


# Returned by asym_mean_coeff and asym_var_coeff (compare with ``is``) when
# the asymptotic lives on the t L*(t) scale, not a constant multiple of the
# counting function.
T_LSTAR_REGIME = object()


@dataclass(frozen=True, slots=True)
class MomentReport:
    """Exact vs asymptotic values for one (t, k) pair (slotted: callers
    keep many)."""

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
    """P(Binomial(n, p) >= k); 0 when k > n.  Vector friendly in p.  As in
    the series' head: :func:`_poisson_cells` plus :func:`_binom_minus_poisson`,
    whose falling factors reach order k - 1 <= _MAX_ORDER."""
    if k < 1 or _MAX_ORDER + 1 < k <= n:
        raise ValueError(f"k must be >= 1 and <= {_MAX_ORDER + 1} (or > n), got {k}")
    if k > n:
        return np.zeros_like(p) if np.ndim(p) else 0.0
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    lam = n * p_arr
    g, _, pmf = _poisson_cells(lam, k, True)
    # at p = 1 the correction takes log1p(-1) and -inf + inf
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g + _binom_minus_poisson(n, p_arr, lam, pmf, k, True)[0]
    out[p_arr == 1.0] = 1.0  # Binomial(n, 1) = n >= k
    return out if np.ndim(p) else float(out[0])


def _poisson_cells(lam: np.ndarray, k: int, star: bool) -> tuple[np.ndarray, np.ndarray, list]:
    """Per cell g = P(Poisson(lam) in A), 1 - g and the pmfs P(Poisson(lam)
    = i), i <= k, A = {>= k} for star, {k} otherwise.  The pmfs come by
    pmf_i = pmf_{i-1} lam / i from exp(-lam), or from logarithms past
    _LAM_LOG.  At least 1 is -expm1(-lam); at least k is 1 - S, S the sum
    of the pmfs below k, where S <= 1/2, else the upward series
    pmf_k sum_m lam^m k!/(k+m)! (lam < k there); 1 - g is S or 1 minus that."""
    pmf = [np.exp(-lam)]
    for i in range(1, k + 1):
        pmf.append(pmf[-1] * lam / i)
    if lam.max(initial=0.0) > _LAM_LOG:
        big = np.flatnonzero(lam > _LAM_LOG)
        for i in range(1, k + 1):
            pmf[i][big] = np.exp(_log_pmf(i, lam[big]))
    if not star:
        return pmf[k], 1.0 - pmf[k], pmf
    if k == 1:
        return -np.expm1(-lam), pmf[0], pmf
    below = sum(pmf[1:k], pmf[0])
    g = 1.0 - below
    up = below > 0.5
    if up.any():
        # a head chunk near the cut is all up: a slice.  Horner in y = lam/k
        # over c_m = k^m k!/(k+m)! to the first term below 2^-54 at max y
        up = slice(None) if up.all() else np.flatnonzero(up)
        y = lam[up] / k
        ymax = float(y.max())
        coeffs = [1.0]
        while coeffs[-1] * ymax ** (len(coeffs) - 1) > 2.0 ** -54:
            coeffs.append(coeffs[-1] * k / (k + len(coeffs)))
        acc = np.full(y.size, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc *= y
            acc += c
        g[up] = pmf[k][up] * acc
        below[up] = 1.0 - g[up]
    return g, below, pmf


def _log_pmf(i: int, lam: np.ndarray) -> np.ndarray:
    """ln P(Poisson(lam) = i), i >= 1, as (i - lam) + i log1p((lam - i)/i)
    - ln sqrt(2 pi i) - r_i, r_i the remainder of Stirling's series for
    ln i!, so the large terms of i ln lam - lam - ln i! do not cancel."""
    x = 1.0 / (i * i)
    r = (math.lgamma(i + 1.0) - (i + 0.5) * math.log(i) + i - 0.5 * math.log(2.0 * math.pi)
         if i < 16 else (1 / 12 - x * (1 / 360 - x * (1 / 1260 - x * (1 / 1680 - x / 1188)))) / i)
    return (i - lam) + i * np.log1p((lam - i) / i) - 0.5 * math.log(2.0 * math.pi * i) - r


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


@functools.lru_cache(maxsize=64)
def _var_coeffs(k: int, star: bool) -> np.ndarray:
    """c - c^2 up to the order of c, c the coefficients of :func:`_coeffs`:
    those of g (1 - g); cached, so read-only."""
    c = _coeffs(k, star)
    square = np.zeros_like(c)
    for i in range(c.size):
        square[i:] += c[i] * c[:c.size - i]
    out = c - square
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _log_falling_factors(n: int) -> np.ndarray:
    """ln of the falling factors n(n-1)...(n-r+1)/n^r, r = 0.._MAX_ORDER + 1
    (the tail's orders and k + 1 of :func:`_em_head`); -inf where r > n.
    Cached per n, so read-only."""
    out = np.array([float(np.log1p(-np.arange(r, dtype=np.float64) / n).sum())
                    if r <= n else -math.inf for r in range(_MAX_ORDER + 2)])
    out.flags.writeable = False
    return out


def _binom_logs(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log1p(-p), n (log1p(-p) + p), and the indices of the cells with
    p > 1e-4: up to there log1p(-p) + p is its series to p^5 (the next term
    is below 2^-54 of it), so it does not cancel."""
    l1p = np.log1p(-p)
    big = np.flatnonzero(p > 1e-4)
    # p^2 (-1/2 - p (1/3 + p (1/4 + p/5))) in place
    nl = 0.2 * p
    for c in (0.25, 1.0 / 3.0):
        nl += c
        nl *= p
    np.subtract(-0.5, nl, out=nl)
    nl *= p * p
    nl[big] = l1p[big] + p[big]
    nl *= n
    return l1p, nl, big


def _binom_minus_poisson(n: int, p: np.ndarray, lam: np.ndarray, pmf: list, k: int,
                         star: bool, weights: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Per cell P(Bin(n, p) in A) - P(Poisson(np) in A), A = {>= k} for
    star and {k} otherwise, with no cancellation between the two laws, and
    a bound on the rounding of their sum (p taken as exact), or of their
    sum with ``weights`` >= 0; ``pmf`` holds P(Poisson(lam) = i), i = 0..k,
    of :func:`_poisson_cells` at lam = n p.

    Per i, P(Bin = i) / P(Pois = i) = exp(x_i), x_i = ln falling(n, i) +
    n (log1p(-p) + p) - i log1p(-p) (:func:`_binom_logs`), so the
    difference is P(Pois = i) expm1(x_i); the at-least-k difference is
    minus the sum over i < k.  The bound takes _CELL_ULPS ulps of each
    |term| (pmf_i, expm1 and the sum) and 2^-51 (k + lam) of it (the
    rounding of lam, and the logarithms past _LAM_LOG), plus P(Bin = i) =
    pmf_i e^x_i times the error of x_i: 8 ulps of |n (log1p(-p) + p)|,
    i |log1p(-p)| and |ln falling(n, i)|, and where log1p(-p) + p cancels,
    2 ulps of n |log1p(-p)| (numpy's log1p is within one).
    """
    l1p, nl, big = _binom_logs(n, p)
    ln_falling = _log_falling_factors(n)
    terms = [pmf[i] * np.expm1(nl - i * l1p + ln_falling[i] if i else nl)
             for i in (range(k) if star else (k,))]
    corr = -sum(terms) if star else terms[0]
    mag = sum(map(np.abs, terms[1:]), np.abs(terms[0]))
    # P(Bin < k) = P(Pois < k) - corr for star, P(Bin = k) = pmf_k + corr
    binom = np.abs(sum(pmf[1:k], pmf[0]) - corr if star else pmf[k] + corr)
    if weights is not None:
        mag, binom = mag * weights, binom * weights
    # binom times the terms of x_i, i <= top, whose sizes bound its error,
    # summed over cells: all are <= 0 (ln falling is -inf only where
    # P(Bin = k) = 0, and then counts for nothing)
    top = k - 1 if star else k
    lf = ln_falling[top] if math.isfinite(ln_falling[top]) else 0.0
    x_size = (lf * float(binom.sum()) + float(binom @ nl) + top * float(binom @ l1p)
              + n / 4.0 * float(binom[big] @ l1p[big]))
    return corr, ((_CELL_ULPS * 2.0 ** -52 + 2.0 ** -51 * k) * float(mag.sum())
                  + 2.0 ** -51 * float(mag @ lam) - 8.0 * 2.0 ** -52 * x_size)


def _tail_series(d: CellDistribution, t: float, J: int,
                 coeffs: np.ndarray) -> tuple[float, float, float]:
    """sum_{j>J} g(t p_j) from the Maclaurin coefficients c_r of g (c_0 =
    0), a bound, and the sum of the magnitudes of its terms, from one
    tail_power_sum call: every order r = 1.._MAX_ORDER, summed in order.
    The bound is sum_r |c_r| times the power sums' own bounds, plus
    :func:`_past_orders` at t p_{J+1} >= t p_j, j > J (the p_j taken as
    exact, as in the head)."""
    values, bounds = d.tail_power_sum(t, J)
    terms = coeffs[1:] * values
    # t p_{J+1} rounded up past the rounding of the product
    past = _past_orders(coeffs, values[-1] + bounds[-1], t * d.prob(J + 1) * (1.0 + 2.0 ** -51))
    return (float(np.cumsum(terms)[-1]), float(np.abs(coeffs[1:]) @ bounds + past),
            float(np.abs(terms).sum()))


def _past_orders(coeffs: np.ndarray, s60: float, lam: float) -> float:
    """A bound on the orders r > _MAX_ORDER of sum_r a_r S_r, a_r the
    coefficients ``coeffs`` of one rule of :func:`_tail_coeffs`, S_r =
    sum_{j>J} (t p_j)^r, from ``s60`` >= S_60 and lam >= t p_j, j > J: as
    S_r <= lam^(r-60) S_60, they are at most lam S_60 W, W = sum_{r>60}
    |a_r| lam^(r-61).  The coefficients of P(Poisson in A) are at most b_r =
    1/(k! (r-k)!) (at least k: 1/((k-1)! (r-k)! r)), those of g (1 - g) at
    most b_r + (b*b)_r, (b*b)_r = 2^(r-2k)/(k!^2 (r-2k)!), and the fixed-n
    rules scale c_r by factors in [-1, 1].  By (m+j)! >= m! j!,
    W <= e^lam/(k! (61-k)!) + lam^D 2^M e^(2 lam)/(k!^2 M!),
    M = max(61 - 2k, 0), D = max(2k - 61, 0).  k is the lowest order with
    a_k != 0: the count's k, or 2 for the k = 1 gaps (a_1 = 0), whose
    |a_r| <= 1/(r-1)! lie below b_r at k = 2 past order 2.  2^-44 of the
    product covers its rounding."""
    k, top = int(np.flatnonzero(coeffs)[0]), _MAX_ORDER + 1
    m = max(top - 2 * k, 0)
    w = (math.exp(lam) / (math.factorial(k) * math.factorial(top - k))
         + lam ** max(2 * k - top, 0) * 2.0 ** m * math.exp(2.0 * lam)
         / (math.factorial(k) ** 2 * math.factorial(m)))
    return lam * s60 * w * (1.0 + 2.0 ** -44)


def _count(d: CellDistribution, t: float) -> int:
    """N(t), the number of cells with t p_j >= 1, kept by t: the series at t
    sum them in their head, and moment_report scales its asymptotic
    constants by it."""
    return d._head_lengths.keep(t, lambda: d.counting_function(t))


def _head_length(d: CellDistribution, t: float) -> int:
    """The number J = max(N(t), _EM_MIN_INDEX) of head cells at t, so every
    tail cell has t p_j < 1."""
    return max(_count(d, t), _EM_MIN_INDEX)


def _head_pass(d: CellDistribution, t: float, k: int, star: bool, J: int,
               prefix: np.ndarray | None = None) -> dict:
    """{name: (head sum, bound)} over the cells j <= J at (t, k, star): the
    first min(J, len(prefix)) cells one by one, in one pass by chunks, the
    rest by :func:`_em_head`.  ``prefix`` is p_1, p_2, ..., by default the
    table's _TABLE_SIZE cells.  With g = P(Poisson(t p_j) in A), A = {>= k}
    for star, {k} otherwise: "pois" sums g, "var" g (1 - g) and, for an
    integer t, "binom" P(Bin(t, p_j) in A) and "gap" that minus g.  The bound on a
    sum of f(lam_j) over the explicit cells is 2^-53 sum_j |lam_j f'(lam_j)|
    (the rounding of t p_j) plus _CELL_ULPS ulps of sum_j |f|; g' is
    pmf_{k-1}, or pmf_{k-1} - pmf_k.  The gap's is that of
    :func:`_binom_minus_poisson`, and "binom" adds it to the Poisson one."""
    n = int(t) if t == int(t) else None
    prefix = (d.probs_prefix(_TABLE_SIZE) if prefix is None else prefix)[:J]
    cells = prefix.size
    pois = var = gap = slope = gap_abs = gap_err = 0.0
    for lo in range(0, cells, _HEAD_CHUNK):
        p = prefix[lo:lo + _HEAD_CHUNK]
        lam = t * p
        g, gc, pmf = _poisson_cells(lam, k, star)
        pois += float(g.sum())
        var += float(g @ gc)
        slope += float(lam @ (pmf[k - 1] if star else np.abs(pmf[k - 1] - pmf[k])))
        if n is not None:
            if star and k > n:
                corr = -g
            else:
                corr, err = _binom_minus_poisson(n, p, lam, pmf, k, star)
                gap_err += err
            chunk = float(corr.sum())
            gap += chunk
            gap_abs += abs(chunk)
    u, cell = 2.0 ** -53, _CELL_ULPS * 2.0 ** -52
    sums = {"pois": (pois, u * slope + cell * pois),
            "var": (var, u * slope + 2.0 * cell * var)}
    if n is not None:
        # the cells' rounding (for star k > n, gap = -pois) and that of the
        # sum over chunks: 2^-53 of the chunk sums' magnitudes per chunk
        sums["gap"] = (gap, (sums["pois"][1] if star and k > n else gap_err)
                       + u * (cells // _HEAD_CHUNK) * gap_abs)
    if J > cells:
        for name, (value, bound) in _em_head(d, t, k, star, n, cells, J).items():
            head, rounding = sums[name]
            sums[name] = (head + value, rounding + bound + u * abs(head + value))
    if n is not None:
        sums["binom"] = (sums["pois"][0] + sums["gap"][0], sums["pois"][1] + sums["gap"][1])
    return sums


@functools.lru_cache(maxsize=64)
def _theta_coeffs(k: int, star: bool) -> np.ndarray:
    """|c_i|, i = 0..k+3 (columns), of theta^m g = sum_i c_i pmf_i, m = 1..3
    (rows), theta = lam d/dlam and g = P(Poisson(lam) in A), A = {>= k} for
    star, {k} otherwise; cached, so read-only.  theta pmf_i = i pmf_i -
    (i+1) pmf_{i+1} and theta P(>= k) = k pmf_k.  The same holds for the
    binomial pmfs under p d/dp at fixed n, so with the same c_i theta^m of
    the gap P(Bin(n, p) in A) - g is sum_i c_i (P(Bin = i) - pmf_i)."""
    i = np.arange(k + 4.0)
    c = np.zeros(k + 4)
    c[k] = k if star else 1.0
    rows = []
    for m in range(3):
        if m or not star:
            c = i * (c - np.append(0.0, c[:-1]))
        rows.append(np.abs(c))
    out = np.array(rows)
    out.flags.writeable = False
    return out


def _em_head(d: CellDistribution, t: float, k: int, star: bool, n: int | None,
             cells: int, J: int) -> dict:
    """{name: (sum, bound)} of :func:`_head_pass`'s "pois", "var" and, for an
    integer t = n, "gap" over the cells cells < j <= J, by midpoint
    Euler-Maclaurin over the smooth p(x) = _weights(x) / Z (DLMF 2.10.1):

        sum_j F(j) = int_lo^hi F - (F'(hi) - F'(lo)) / 24 + R,

    lo = cells + 1/2, hi = J + 1/2, F(x) = f(t p(x)).  The integral is one
    composite Gauss rule on the pieces of :meth:`CellDistribution._em_pieces`,
    on each of which ln p falls by at most _EM_STEP; its nodes go through
    the head's kernel, and its error is taken as the lower-order rule's
    distance from it, piece by piece.

    |R| <= (sqrt(3)/216) int |F'''|, sqrt(3)/216 the largest |B_3(x)| / 3!
    on [0, 1].  With l = ln p and theta = lam d/dlam, F''' = l''' theta f +
    3 l' l'' theta^2 f + l'^3 theta^3 f, and on a piece |theta^m f| is at
    most sum_i |c_i| (:func:`_theta_coeffs`) times the largest pmf_i there,
    pmf_i(lam) at lam = i clipped to the piece, for "pois"; for "gap" times
    the smaller of p and pmf_i (1 + (1 - p)^-i) >= |P(Bin = i) - pmf_i| at
    the piece's largest p (the first: the total variation bound of Barbour
    and Hall, 1984; the second, as P(Bin = i) / pmf_i <= (1 - p)^-i); for
    "var" by Leibniz, with |g|, |1 - g| <= 1.

    The bound adds the cells' rounding as the head's, the rounding of lam at
    a node (of p(x) and of the node itself) times |theta f|, and that of
    the sums and of the end terms.
    """
    lo, hi = cells + 0.5, J + 0.5
    edges, slopes, ints, kappa = d._em_pieces(lo, hi, _EM_STEP)
    gauss, high_weights, half = _gauss_nodes(edges)
    ends, nodes = gauss.size, np.concatenate([gauss, edges])
    weights = np.append(high_weights, np.zeros(nodes.size - high_weights.size))
    p = d.prob_array(nodes)
    lam = t * p
    g, gc, pmf = _poisson_cells(lam, k, star)
    theta = lam * (pmf[k - 1] if star else pmf[k - 1] - pmf[k])
    var = g * gc
    # per piece, the largest pmf_i, i = 0..k+3, rounded up
    i = np.arange(k + 4.0)[:, None]
    at = np.clip(i, lam[ends + 1:], lam[ends:-1])
    peak = (1.0 + 1e-9) * np.exp(i * np.log(at) - at - np.array(
        [math.lgamma(v + 1.0) for v in range(k + 4)])[:, None])
    coeffs = _theta_coeffs(k, star)
    sup = coeffs @ peak
    cell = _CELL_ULPS * 2.0 ** -52
    # name: (f, theta f, the cells' rounding, per piece sup |theta^m f|)
    rows = {"pois": (g, theta, cell * float(weights @ g), sup),
            "var": (var, theta * (gc - g), 2.0 * cell * float(weights @ var),
                    np.array([2.0 * sup[0], 2.0 * sup[1] + 2.0 * sup[0] ** 2,
                              2.0 * sup[2] + 6.0 * sup[0] * sup[1]]))}
    if n is not None:
        corr, err = _binom_minus_poisson(n, p, lam, pmf, k, star, weights)
        l1p, nl, _ = _binom_logs(n, p)
        ln_falling = _log_falling_factors(n)[k:k + 2]
        # theta (b - g): k (P(Bin = k) - pmf_k), less (k+1) (P(Bin = k+1) -
        # pmf_{k+1}) for exactly k, each P(= i) expm1(x_i) as in
        # _binom_minus_poisson
        theta_gap = k * pmf[k] * np.expm1(nl - k * l1p + ln_falling[0])
        if not star:
            theta_gap -= lam * pmf[k] * np.expm1(nl - (k + 1) * l1p + ln_falling[1])
        top = p[ends:-1]
        rows["gap"] = (corr, theta_gap, err,
                       coeffs @ np.minimum(top, peak * (1.0 + (1.0 - top) ** -i)))
    # the relative rounding of lam at a node: 2 ulps of the node times
    # kappa, and p(x) by pow and log, 16 (1 + |a|) ulps
    lam_ulps = 2.0 ** -52 * (16.0 * (1.0 + abs(d.a or 0.0)) + 2.0 * kappa)
    out = {}
    for name, (f, th, rounding, sizes) in rows.items():
        high, low = _gauss_sums(f, half)
        edge = (slopes[0] * th[ends] - slopes[1] * th[-1]) / 24.0
        remainder = math.sqrt(3.0) / 216.0 * float((ints * sizes).sum(axis=1) @ (1.0, 3.0, 1.0))
        out[name] = (float(high.sum()) + edge,
                     float(np.abs(high - low).sum()) + rounding + remainder
                     + lam_ulps * float(weights @ np.abs(th))
                     + 2.0 ** -53 * (_GAUSS[0].size + half.size + 4) * float(weights @ np.abs(f))
                     + 2.0 ** -50 * abs(edge))
    return out


# ---------------------------------------------------------- exact series

def _check_series_args(t: float, k: int, law: str) -> None:
    """The arguments every exact series accepts: k in 1.._MAX_ORDER (its
    tail's orders), a finite t >= 0, a law of _LAWS, and for binomial an integer t."""
    if not 1 <= k <= _MAX_ORDER:
        raise ValueError(f"k must be >= 1 and <= {_MAX_ORDER}, got {k}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be >= 0 and finite, got {t!r}")
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}")
    if law == "binomial" and int(t) != t:
        raise ValueError("binomial law requires integer n")


def _tail_coeffs(name: str, t: float, k: int, star: bool) -> np.ndarray:
    """The Maclaurin coefficients of the tail of the series ``name`` at (t,
    k, star), from c of :func:`_coeffs`: "pois" c, "var" c - c^2
    (:func:`_var_coeffs`); the fixed-n coefficient of (t p)^r is c_r
    falling(t, r) / t^r, so "binom" takes c * falling and "gap"
    c * expm1(ln falling)."""
    c = _var_coeffs(k, star) if name == "var" else _coeffs(k, star)
    if name in ("binom", "gap"):
        ln_falling = _log_falling_factors(int(t))[:_MAX_ORDER + 1]
        c = c * (np.exp(ln_falling) if name == "binom" else np.expm1(ln_falling))
    return c


def _series(d: CellDistribution, t: float, k: int, star: bool,
            name: str) -> tuple[float, float]:
    """The series whose head is the sum ``name`` of :func:`_head_pass` at
    (t, k, star) (the distribution keeps them by point) and whose tail takes
    the coefficients of :func:`_tail_coeffs`, and its bound, which adds
    1e-15 of the value for the last addition."""
    J = _head_length(d, t)
    head, rounding = d._head_sums.keep((t, k, star), lambda: _head_pass(d, t, k, star, J))[name]
    c = _tail_coeffs(name, t, k, star)
    tail, bound, size = _tail_series(d, t, J, c)
    if name == "gap":
        # the gap's head may cancel, so its tail's rounding counts on its own:
        # r + 8 ulps of each term (c_r expm1(ln falling) and the sum), r <= 60
        bound += (_MAX_ORDER + 8) * 2.0 ** -52 * size
    value = head + tail
    return float(value), float(bound + rounding + 1e-15 * abs(value))


def exact_mean(d: CellDistribution, t: float, k: int, star: bool,
               law: str = "poisson") -> tuple[float, float]:
    """Exact series mean of the occupancy count (cells with >= k balls for
    star, exactly k otherwise) under the poissonized or fixed-n law.

    Returns (value, truncation_error_bound).
    """
    _check_series_args(t, k, law)
    if t == 0 or (law == "binomial" and k > t):
        return 0.0, 0.0
    return _series(d, t, k, star, "pois" if law == "poisson" else "binom")


def exact_var(d: CellDistribution, t: float, k: int, star: bool) -> tuple[float, float]:
    """Exact series variance of the poissonized count (Bernoulli sum
    g(1-g) over independent per-cell indicators)."""
    _check_series_args(t, k, "poisson")
    if t == 0:
        return 0.0, 0.0
    return _series(d, t, k, star, "var")


def mean_difference(d: CellDistribution, n: int, k: int, star: bool) -> tuple[float, float]:
    """E[count under fixed-n law] - E[count under poissonized law],
    evaluated termwise so the tiny difference is not lost to cancellation.

    Returns (value, bound).  With the p_j taken as exact, the bound covers
    the rounding of each head cell's difference and of their sum
    (:func:`_binom_minus_poisson`), the tail's truncation, the error bounds
    of its power sums and the rounding of its coefficients and sum, and
    1e-15 of the value for the last addition.
    """
    _check_series_args(n, k, "binomial")
    if n == 0:
        return 0.0, 0.0
    return _series(d, float(n), k, star, "gap")


def depoissonization_gap(d: CellDistribution, n: int, k: int, star: bool) -> float:
    """The second-order depoissonization prediction -(n/2) m''(n) of
    ``mean_difference``, m the poissonized mean, from the poissonized
    exactly-j means E R_j (Jacquet and Szpankowski 1998):

        at least k:  (k(k+1) E R_{k+1} - k(k-1) E R_k) / (2n)
        exactly k:   (-k(k-1) E R_k + 2k(k+1) E R_{k+1} - (k+1)(k+2) E R_{k+2}) / (2n)

    It matches ``mean_difference`` to a relative O(1/n).
    """
    _check_series_args(n, k, "binomial")
    if k > (top := _MAX_ORDER - (1 if star else 2)):  # it reads the means of k + 1, or k + 2
        raise ValueError(f"k must be <= {top} for the {'at-least' if star else 'exactly'}-k "
                         f"gap, got {k}")
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
    cnt = _count(d, t) if t >= 1 else 0
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
    if M < 10.0:
        rest = math.exp(math.lgamma(M + 1.0 - theta) - math.lgamma(M + 1.0))
    else:
        # not a difference of two lgamma values of size M ln M, which cancel:
        # ln Gamma(M+1-theta) - ln Gamma(M+1) = -theta ln M + sum_{k>=2}
        # (B_k(theta) - B_k) / (k (k-1) M^(k-1)) (DLMF 5.11.8, with
        # B_k(1 - theta) = (-1)^k B_k(theta)), whose terms past k = 20 stay
        # below 1e-18 from M = 10 on
        series = 0.0
        for k in range(len(_BERNOULLI) - 1, 1, -1):
            c = sum(math.comb(k, j) * _BERNOULLI[j] * theta ** (k - j) for j in range(k))
            series = (series + c / (k * (k - 1))) / M
        rest = M ** -theta * math.exp(series)
    return float(math.gamma(1.0 - theta) - rest)


def asym_mean_coeff(theta: float, k: int, star: bool):
    """Constant c with E[count] ~ c * counting_function(t), a float; for
    theta = 1, k = 1 the mean lives on the t L*(t) scale instead, and the
    T_LSTAR_REGIME sentinel is returned (test it with ``is``)."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError("theta must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    if theta == 1.0 and k == 1:
        return T_LSTAR_REGIME
    if not star:
        return theta * math.gamma(k - theta) / math.factorial(k)
    # Gamma(1-theta) - theta sum_{i<k} Gamma(i-theta)/i! telescopes, as in
    # gamma_tail_partial_sum, to Gamma(k-theta)/Gamma(k): 1.0 at theta = 0
    # for every k math.gamma takes (up to 171)
    return math.gamma(k - theta) / math.gamma(k)


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
            return float(math.gamma(1.0 - theta) * (2.0 ** theta - 1.0))
        if not (0.0 < theta <= 1.0):
            raise ValueError("theta must be in (0, 1] for the star variance")
        total = 2.0 ** theta * math.gamma(2.0 - theta) \
            - math.gamma(k - theta) / math.factorial(k - 1)
        double = 0.0
        for s_ in range(k):
            for m_ in range(k):
                r = s_ + m_
                if r >= 2:
                    double += math.gamma(r - theta) / (
                        2.0 ** (r - theta) * math.factorial(s_) * math.factorial(m_))
        return float(total - theta * double)
    if theta == 0.0:
        return 0.0
    if theta == 1.0 and k == 1:
        return T_LSTAR_REGIME
    return float(theta / math.factorial(k) * (
        math.gamma(k - theta)
        - math.gamma(2 * k - theta) / (2.0 ** (2 * k - theta) * math.factorial(k))))


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
