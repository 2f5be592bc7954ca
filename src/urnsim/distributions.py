"""Heavy-tailed cell-probability families for infinite occupancy schemes.

Four concrete families with known regular-variation exponent theta of the
counting function (number of cells whose probability exceeds a threshold):

    zipf           p_j ~ j^-s                      theta = 1/s, s > 1
    zipf_log       p_j ~ j^-s (ln(j+e))^-a         theta = 1/s, s > 1
    theta_one_log  p_j ~ j^-1 (ln(j+e))^-2         theta = 1
    geometric      p_j = (1-q) q^(j-1)             theta = 0

Everything downstream (exact moment series, samplers, normalizing
sequences) relies on the tail analytics implemented here.  The rigorous
tail-mass bounds and stable power sums of the scaled probabilities of the
power families, and the normalizing constant Z of the log families, all
come from one midpoint Euler-Maclaurin sum past a cut, whose integrals of
every order are one composite Gauss pass with one error estimate
(:func:`_power_integrals`); zipf's Z is the Riemann zeta of :func:`_zeta`,
a port of cephes', and geometric has closed forms.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

_E = math.e
# The parameters of a spec and their meaning; the family table, from each
# family to the parameters that its spec sets; and the s and a that a family
# fixes instead.
_PARAMETERS = {"s": "power exponent s", "a": "log power a", "q": "ratio q"}
_FAMILIES = {"zipf": ("s",), "zipf_log": ("s", "a"), "theta_one_log": (), "geometric": ("q",)}
_FIXED = {"zipf": {"a": 0.0}, "theta_one_log": {"s": 1.0, "a": 2.0}}

# Size of the sampler table, cells 1..2^16; draws beyond it get their ids
# from draw_tail.
_TABLE_SIZE = 1 << 16
# Smallest count J of the cells whose balls a trajectory follows one by one.
_CUT_MIN = 1 << 6
# Balls past the table that a trajectory expects in one run of consecutive
# dyadic ranges of cells, merged so that a small tail costs a few draws and
# folds, not one per range; a range that expects more is a run of its own.
# It also caps the candidates of one rejection round, which bounds the
# sampler's temporaries.  Of 2^12..2^16, 2^12 and 2^13 kept traj_1e6_pair's
# peak RSS lowest.
_TAIL_RUN = 1 << 13
# Bound on the error of the normalizing constant Z of the log families,
# relative to max(1, Z); its head grows until the tail's bound is a quarter of it.
_NORM_TOL = 1e-12
# Smallest cut J of a power family's Euler-Maclaurin tail sums, and so the
# smallest head of an exact series.
_EM_MIN_INDEX = 1 << 10
# Orders r = 1.._MAX_ORDER of the tail power sums sum_{j>J} (t p_j)^r.
_MAX_ORDER = 60
_ORDERS = np.arange(1.0, _MAX_ORDER + 1.0)
_ORDERS.flags.writeable = False
# Gauss-Legendre rule of the tail power integrals on each interval, and the
# lower-order rule whose difference from it bounds its error.
_GAUSS = leggauss(20)
_GAUSS_LOW = leggauss(10)
# Points a distribution keeps: tail power sums by cut J (tail_mass's among
# them) and, for moments, the counts N(t) that set the head lengths by t
# and head sums by (t, k, star).
# A series point cuts once, at its head length; L*(t), which keeps nothing of
# its own, reads the (t, 1, star) sums that moment_report's k = 1 series
# fill; depoissonization_gap and variance_sandwich_check read up to three
# points, so fewer slots would evict one that is about to be used again.
_SLOTS = 4
# Draws that would land beyond this index (per-cell probability < ~1e-21)
# are materialized as unique synthetic cells in [base, 2*base).
_SYNTHETIC_BASE = 1 << 62
# Edges 2^16, 2^17, ..., 2^62 of the ranges of cells past the table that a
# trajectory's balls are drawn by: the dyadic ranges (2^m, 2^(m+1)], then
# the synthetic range past 2^62.
_RANGE_EDGES = _TABLE_SIZE << np.arange(_SYNTHETIC_BASE.bit_length() - _TABLE_SIZE.bit_length() + 1)
# Pieces of the sampler's hat per dyadic range past the table (_tail_ranges)
_PIECES = 4


class DistributionError(ValueError):
    """Invalid family parameters or unsupported evaluation request."""


@dataclass(frozen=True)
class DistributionSpec:
    """Parameters of one cell-probability family, checked when the spec is
    built (directly, by :func:`dataclasses.replace` or from a mapping).

    A spec sets exactly the parameters of its family in _FAMILIES, each
    finite, with s > 1 and q in (0,1).
    """

    family: str
    s: float | None = None
    a: float | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        takes = _FAMILIES.get(self.family)
        if takes is None:
            raise DistributionError(
                f"unknown family {self.family!r}; expected one of {tuple(_FAMILIES)}")
        for name, meaning in _PARAMETERS.items():
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DistributionError(f"{name} must be finite, got {value}")
            if (value is not None) != (name in takes):
                verb = "requires" if value is None else "does not take"
                raise DistributionError(f"{self.family} {verb} the {meaning}")
        if self.s is not None and self.s <= 1.0:
            raise DistributionError(f"{self.family} requires s > 1, got s={self.s}")
        if self.q is not None and not 0.0 < self.q < 1.0:
            raise DistributionError(f"{self.family} requires q in (0,1), got q={self.q}")

    def as_mapping(self) -> dict:
        """Serializable key-value form (shared with the CLI config schema)."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v for name, v in values if v is not None}

    @staticmethod
    def from_mapping(m: dict) -> "DistributionSpec":
        unknown = set(m) - {f.name for f in fields(DistributionSpec)}
        if unknown:
            raise DistributionError(f"unknown distribution keys: {sorted(unknown)}")
        return DistributionSpec(family=str(m["family"]), **{
            k: None if v is None else float(v) for k, v in m.items() if k != "family"})


def _gauss_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the composite _GAUSS rule on the pieces between ``edges``,
    then _GAUSS_LOW's; the weights at the first; the pieces' half widths."""
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    nodes = np.concatenate([(mid[:, None] + np.multiply.outer(half, x)).ravel()
                            for x, _ in (_GAUSS, _GAUSS_LOW)])
    return nodes, np.outer(half, _GAUSS[1]).ravel(), half


def _gauss_sums(f: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per piece, the sums of both rules over f at the nodes of
    :func:`_gauss_nodes` (f's last axis, which may go on past them)."""
    (x, w), (x_low, w_low) = _GAUSS, _GAUSS_LOW
    split, shape = half.size * x.size, f.shape[:-1] + (half.size, -1)
    return (f[..., :split].reshape(shape) @ w * half,
            f[..., split:split + half.size * x_low.size].reshape(shape) @ w_low * half)


def _power_integrals(s: float, a: float, x0: float,
                     r: np.ndarray = _ORDERS) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^inf exp(r dlnf(u) + u) du for every order r = 1.._MAX_ORDER
    at once, dlnf(u) = ln(f(x0 e^u) / f(x0)), f(x) = x^-s (ln(x+e))^-a with
    s > 1, or s = 1 and a > 1, and per order a bound on its error.

    One composite Gauss rule on the dyadic partition 0, 2^k0, ..., 2^m, U
    of u: 2^k0 is below half the decay length 1/(_MAX_ORDER s) of the
    highest order, and past U = 745/lam, lam = r s - 1 of the slowest order
    (1 for s = 1), the integrand is below e^-745 times a power of u.  For
    s = 1 the r = 1 integrand (w/w0)^-a, w = ln(x0 e^u + e), decays only like
    u^-a; as dw/du = 1 - e/(x0 e^u + e), its integral is w0/(a-1) plus that
    of (w/w0)^-a e/(x0 e^u + e), which decays like e^-u and takes the row's
    place on the same nodes.  The bound is the lower-order rule's distance
    from it, interval by interval, plus the rounding, which grows with r as
    the rounding of r dlnf does.  ``r`` may be a prefix of the orders.
    """
    top = 745.0 / (s - 1.0 if s > 1.0 else 1.0)
    k0 = -math.ceil(math.log2(_MAX_ORDER * s)) - 1
    edges = np.concatenate(([0.0], 2.0 ** np.arange(k0, math.ceil(math.log2(top))), [top]))
    u, weights, half = _gauss_nodes(edges)
    split = weights.size
    # ln(x0 e^u + e) - ln(x0 + e), without cancellation near u = 0
    w0 = math.log(x0 + _E)
    e_u = _E * np.exp(-u)
    dw = np.empty_like(u)
    near = u <= 1.0
    dw[near] = np.log1p(x0 / (x0 + _E) * np.expm1(u[near]))
    dw[~near] = u[~near] + np.log(x0 + e_u[~near]) - w0
    lw = np.log1p(dw / w0)
    f = np.multiply.outer(r, -s * u - a * lw)
    f += u
    np.exp(f, out=f)
    if s == 1.0:
        f[0] *= e_u / (x0 + e_u)
    high, low = _gauss_sums(f, half)
    val = high.sum(axis=1)
    if s == 1.0:
        val[0] += w0 / (a - 1.0)
    # rounding, in units of 2^-52 of the integrand: about 7 r (s u + |a| lw)
    # from the exponent r dlnf + u, and 20 from exp, the weights, the sums
    # and, for s = 1, the r = 1 factor and closed form
    size = f[:, :split] @ ((s * u[:split] + abs(a) * lw[:split]) * weights)
    err = np.abs(high - low).sum(axis=1) + 2.0 ** -52 * (8.0 * r * size + 24.0 * val)
    return val, err


def _tail_sums(s: float, a: float, J: int,
               r: np.ndarray = _ORDERS) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j>J} (f(j) / f(x0))^r, f(x) = x^-s (ln(x+e))^-a, x0 = J + 1/2,
    for every order r = 1.._MAX_ORDER and a cut J >= _EM_MIN_INDEX, by
    midpoint Euler-Maclaurin on :func:`_power_integrals`, and per order a
    bound on its error."""
    x0 = J + 0.5
    w0 = math.log(x0 + _E)
    val, qerr = _power_integrals(s, a, x0, r)
    dlog = -s / x0 - a / ((x0 + _E) * w0)
    # Euler-Maclaurin remainder: at most 7/5760 |f^(3)(x0)|, and
    # |f^(3)(x0)| <= f(x0) (r (s + |a|) + 2)^3 / x0^3
    rem = 7.0 / 5760.0 * (r * (s + abs(a)) + 2.0) ** 3 / x0 ** 3
    return val * x0 + r * dlog / 24.0, qerr * x0 + rem


def _zeta(s: float) -> float:
    """The Riemann zeta at s > 1, cephes' Hurwitz zeta at q = 1 step for step (so
    bitwise): terms j <= 10, then Euler-Maclaurin past 10 over (2m)!/B_2m, m <= 12."""
    total = 1.0
    for j in range(2, 11):
        b = float(j) ** -s
        total += b
        if abs(b / total) < 2.0 ** -53:
            return total
    total += b * 10.0 / (s - 1.0)
    total -= 0.5 * b  # merged with the line above, this rounds differently
    rise = 1.0
    for m, divisor in enumerate((12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
                                 -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
                                 1.1646782814350067249e14, -4.5979787224074726105e15,
                                 1.8152105401943546773e17, -7.1661652561756670113e18)):
        rise *= s + 2 * m
        b /= 10.0
        term = rise * b / divisor
        total += term
        if abs(term / total) < 2.0 ** -53:
            break
        rise *= s + 2 * m + 1
        b /= 10.0
    return total


def _at_least(p: np.ndarray, thr):
    """The number of entries >= thr of a nonincreasing array p, per
    threshold; a search in C on a reversed view, which copies nothing."""
    return p.size - np.searchsorted(p[::-1], thr, side="left")


class _Kept(dict):
    """A dict that keeps only its newest ``slots`` keys."""

    def __init__(self, slots: int):
        super().__init__()
        self.slots = slots

    def keep(self, key, make: Callable[[], object]):
        """self[key], made by ``make()`` on a miss; the oldest key is
        evicted to make room."""
        if key not in self:
            if len(self) >= self.slots:
                del self[next(iter(self))]
            self[key] = make()
        return self[key]


# A power family's rejection-inversion hat c x^-sigma past the table: piece i
# holds cells cells[i] + 1..cells[i + 1], where the hat's mass up to x is
# ((x/x0)^om - 1) / rate, rows = (x0 = cells[i] + 1/2, rate, om = 1 - sigma);
# grow: rate times the piece's mass, expm1(om ln(x1/x0)) at its right edge
# x1; past: its mass past each x0 (0 at 2^62); squeeze: a bound below each
# ratio.
_Hat = namedtuple("_Hat", "cells past rows grow squeeze")


class CellDistribution:
    """A concrete infinite discrete law p_1 >= p_2 >= ... > 0.

    Holds p_j of the sampler table's 2^16 cells, which the counting
    function and the series heads read.  Immutable after construction apart
    from internal caches: the sampler's table, made at the first draw; the
    law and hat past the table, made at the first draw past it; the tail
    power sums of the last few cuts J, which tail_mass reads too; and the
    exact-series counts N(t) and head sums of the last few points, which
    L*(t) reads too.  Z and the tail power sums past _EM_MIN_INDEX
    share the sums of :func:`_tail_sums`.  Construct via
    :func:`build_distribution`.
    """

    def __init__(self, spec: DistributionSpec):
        self.family = spec.family
        values = {**_FIXED.get(spec.family, {}), **spec.as_mapping()}
        self.s, self.a, self.q = (float(values[n]) if n in values else None for n in _PARAMETERS)
        self.theta = 0.0 if self.s is None else 1.0 / self.s
        self.Z = self._normalization()
        if self.a is not None and self.a < 0.0:
            self._check_monotone_negative_a()
        self.p1 = float(self.prob(1))
        self._prefix = self.prob_array(np.arange(1, _TABLE_SIZE + 1))
        # J -> the part of tail_power_sum(t, J) that does not depend on t
        self._tail_cuts = _Kept(_SLOTS)
        # filled by moments: t -> N(t), which sets the head length,
        # (t, k, star) -> head sums
        self._head_lengths = _Kept(_SLOTS)
        self._head_sums = _Kept(_SLOTS)
        # filled by the first draw_tail: the law of a ball past the table
        # over its ranges of cells, and the hat its ids are drawn by
        self._ranges = None

    @functools.cached_property
    def _rest(self) -> np.ndarray:
        """The sampler's table: _rest[j] is the mass of the table cells past
        j = 0..table, summed from the far end, so it keeps its precision
        relative to its value (geometric's too).  Made at the first draw, so
        a distribution that only evaluates series never holds it."""
        return np.append(np.cumsum(self._prefix[_TABLE_SIZE - 1::-1])[::-1], 0.0)

    # ---------- construction internals

    def _normalization(self) -> float:
        if self.family == "geometric":
            return 1.0
        if self.family == "zipf":
            # not the log families' sums: their r = 1 rounding term grows like
            # 1/(s - 1) and stalls them below s = 1.0018, and the tail is most of Z
            return _zeta(self.s)
        J = 1 << 14
        while True:
            head = float(self._weights(np.arange(1, J + 1, dtype=np.float64)).sum())
            tail, bound = self._weight_tail(J)
            if bound <= _NORM_TOL / 4.0 * max(1.0, head + tail) or J >= (1 << 22):
                break
            J *= 2
        Z = head + tail
        if bound > _NORM_TOL * max(1.0, Z):
            raise DistributionError(f"normalization stalled at J={J}: bound {bound:.2e} "
                                    f"> {_NORM_TOL:.2e} max(1, Z)")
        return Z

    def _weight_tail(self, J: int) -> tuple[float, float]:
        """sum_{j>J} Z p_j for J >= _EM_MIN_INDEX, f(x0) times the r = 1 sum
        of :meth:`_tail_cut`, and a bound on its error."""
        f0, ulps, values, errors = self._tail_cut(J, _ORDERS[:1])
        est = f0 * float(values[0])
        return est, f0 * float(errors[0]) + est * 2.0 ** -52 * ulps

    def _check_monotone_negative_a(self) -> None:
        # p is eventually decreasing once s*ln(j+e) >= |a|; check the prefix.
        j_star = int(math.ceil(math.exp(abs(self.a) / self.s))) + 2
        if j_star > 10**7:
            raise DistributionError("log power too negative for monotone probabilities")
        vals = self._weights(np.arange(1, j_star + 1, dtype=np.float64))
        if np.any(np.diff(vals) > 0):
            raise DistributionError(
                f"p_j not monotone nonincreasing for s={self.s}, a={self.a}")

    def _weights(self, j: np.ndarray) -> np.ndarray:
        """p_j times Z at float indices j; Z = 1 for geometric."""
        if self.family == "geometric":
            return (1.0 - self.q) * self.q ** (j - 1.0)
        return j ** -self.s * np.log(j + _E) ** -self.a

    # ---------- probabilities

    def prob(self, j: int | float) -> float:
        """Exact p_j for the family; j >= 1.  Bitwise equal to prob_array."""
        if j < 1:
            raise DistributionError(f"cell index must be >= 1, got {j}")
        return float(self.prob_array(j)[0])

    def prob_array(self, j: np.ndarray) -> np.ndarray:
        """p_j elementwise, at least 1-d.  numpy may round pow and log of a
        0-d array differently in the last place, so a scalar is evaluated as
        a length-1 array, as the prefix and the counting function see it."""
        return self._weights(np.atleast_1d(np.asarray(j, dtype=np.float64))) / self.Z

    def probs_prefix(self, J: int) -> np.ndarray:
        """p_1..p_J, a view of the table's 2^16 cells; prob_array gives more,
        with the same bits."""
        if J > _TABLE_SIZE:
            raise DistributionError(f"probs_prefix holds the table's {_TABLE_SIZE} cells, "
                                    f"got J={J}")
        return self._prefix[:J]

    def _em_pieces(self, lo: float, hi: float,
                   step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """What a midpoint Euler-Maclaurin sum over the smooth p(x) on [lo, hi],
        0 < lo < hi, needs of l(x) = ln p(x): edges lo = x_0 < ... < x_m = hi
        such that l falls by at most ``step`` on each piece; l' at lo and hi;
        per piece (columns), bounds on the integrals of |l'''|, |l' l''| and
        |l'|^3 (rows); and kappa >= x |l'(x)| on [lo, hi].

        Geometric has l' = ln q, so its pieces are equal in x.  A power
        family has l = -s ln x - a ln w, w = ln(x + e) >= 1, whose
        derivatives are at most (s + |a|)/x, (s + 2|a|)/x^2 and
        (2s + 7|a|)/x^3 in size, and x |l'| <= kappa = s + |a| / w(lo), so
        its pieces are equal in ln x.
        """
        if self.family == "geometric":
            lq = -math.log(self.q)
            m = max(1, math.ceil(lq * (hi - lo) / step))
            edges = np.linspace(lo, hi, m + 1)
            ints = np.zeros((3, m))
            ints[2] = lq ** 3 * np.diff(edges)
            return edges, np.array([-lq, -lq]), ints, lq * hi
        s, a = self.s, abs(self.a)
        kappa = s + a / math.log(lo + _E)
        m = max(1, math.ceil(kappa * math.log(hi / lo) / step))
        edges = lo * (hi / lo) ** (np.arange(m + 1) / m)
        edges[-1] = hi
        ends = np.array([lo, hi])
        slopes = -s / ends - self.a / ((ends + _E) * np.log(ends + _E))
        ints = np.multiply.outer([2.0 * s + 7.0 * a, (s + a) * (s + 2.0 * a), (s + a) ** 3],
                                 -np.diff(edges ** -2.0) / 2.0)
        return edges, slopes, ints, kappa

    # ---------- counting function and tail analytics

    def counting_function(self, x):
        """Largest index j with p_j >= 1/x (0 if none), for a scalar x or an
        array of x in any order; the predicate is ``prob_array(j) >= 1/x``.

        Each threshold is counted in the table's 2^16 cells by
        :func:`_at_least`.  One past them is bracketed the same way by the
        range edges 2^17..2^62 (one prob_array call), then narrowed by
        bisection on prob_array.
        """
        xs = np.asarray(x, dtype=np.float64)
        out = np.zeros(xs.shape, dtype=np.int64)
        pos = xs > 0.0
        thr = 1.0 / xs[pos]
        count = _at_least(self._prefix, thr)
        past = np.flatnonzero(count == _TABLE_SIZE)
        if past.size:
            t_past = thr[past]
            m = _at_least(self.prob_array(_RANGE_EDGES[1:]), t_past)
            if np.any(m == _RANGE_EDGES.size - 1):
                raise DistributionError("counting function beyond 2^62 cells "
                                        "(threshold below every resolvable p_j)")
            # p_lo >= thr > p_hi
            lo, hi = _RANGE_EDGES[m], _RANGE_EDGES[m + 1]
            todo = np.arange(past.size)
            while todo.size:
                mid = (lo[todo] + hi[todo]) // 2
                ok = self.prob_array(mid) >= t_past[todo]
                lo[todo[ok]] = mid[ok]
                hi[todo[~ok]] = mid[~ok]
                todo = todo[hi[todo] - lo[todo] > 1]
            count[past] = lo
        out[pos] = count
        return int(out) if xs.ndim == 0 else out

    # no caller in urnsim; perfbench/tracing.py wraps this name, so it stays
    # until the tracer drops it
    counting_function_many = counting_function

    def tail_mass(self, J: int) -> float:
        """Upper bound on sum_{j>J} p_j, tight to well within one term: the
        r = 1 tail power sum at t = 1 plus its bound, from the cuts that
        :meth:`tail_power_sum` keeps past max(J, _EM_MIN_INDEX), plus the
        prefix cells J+1.._EM_MIN_INDEX; p_{J+1} / (1 - q) for geometric."""
        if J < 1:
            raise DistributionError("J must be >= 1")
        if self.family == "geometric":
            return self.prob(J + 1) / (1.0 - self.q)
        values, bounds = self.tail_power_sum(1.0, max(J, _EM_MIN_INDEX))
        return float(self._prefix[J:_EM_MIN_INDEX].sum() + values[0] + bounds[0])

    def tail_power_sum(self, t: float, J: int) -> tuple[np.ndarray, np.ndarray]:
        """sum_{j>J} (t p_j)^r for every order r = 1.._MAX_ORDER (entry r - 1),
        stable for large t and r, and per order its error bound.

        Requires t*p_{J+1} <= O(1): the analytic tail of truncated occupancy
        series.  The sum is (t f0 / Z)^r times the sum of :meth:`_tail_cut`;
        t enters only as that factor, so each cut is worked out once, without
        t, and kept (_SLOTS cuts).
        """
        f0, ulps, sums, errors = self._tail_cuts.keep(J, lambda: self._tail_cut(J))
        # (t f0 / Z)^r by repeated IEEE products, the same bits on every
        # numpy dispatch path; the relative rounding, in ulps: ulps + 2 from
        # t f0 / Z, taken to the r-th power by r - 1 products, and one from
        # the product with the sum.  A product that lands below the normal
        # range rounds by up to 2^-1075 absolute instead, which the power
        # carries r times into the sum and the last product once more
        lam = np.cumprod(np.full(_MAX_ORDER, t * f0 / self.Z))
        value = lam * sums
        return value, (lam * errors + np.abs(value) * 2.0 ** -52 * (_ORDERS * (ulps + 3.0) + 1.0)
                       + 2.0 ** -1074 * (_ORDERS * sums + 1.0))

    def _tail_cut(self, J: int, r: np.ndarray = _ORDERS):
        """What tail_power_sum keeps of the cut J, none of it depending on t:
        f0, a bound on its rounding in ulps, and per order r the sum of
        (p_j / p(x0))^r, or of (p_j / p_{J+1})^r for geometric, and its
        bound.  A power family takes J >= _EM_MIN_INDEX, f0 = f(x0),
        x0 = J + 1/2, and the sums of :func:`_tail_sums`; geometric takes
        f0 = p_{J+1} and the sums 1/(1 - q^r).  ``r`` may be a prefix of
        the orders."""
        if self.family == "geometric":
            # libm pow: an ulp each from 1 - q, the pow and the product.  q^r
            # by one pow per order is off by an ulp, which 1 - q^r scales by
            # q^r / (1 - q^r); two more from the difference and the division
            qr = np.array([self.q ** i for i in range(1, r.size + 1)])
            sums = 1.0 / (1.0 - qr)
            return ((1.0 - self.q) * self.q ** J, 3.0, sums,
                    sums * 2.0 ** -52 * (qr * sums + 2.0))
        if J < _EM_MIN_INDEX:
            raise DistributionError(f"power family tail cut J must be >= {_EM_MIN_INDEX}, got {J}")
        # f(x0) by libm: an ulp from x0^-s, 2 |a| + 1 from ln(x0 + e)^-a (two
        # of the log, times |a|, and the pow), one from the product
        x0 = J + 0.5
        f0 = x0 ** -self.s * math.log(x0 + _E) ** -self.a
        return (f0, 2.0 * abs(self.a) + 3.0, *_tail_sums(self.s, self.a, J, r))

    # ---------- sampling

    def draw_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized i.i.d. cell draws, exact in law (no lumped tail bucket):
        the ids of :meth:`draw_past` past cell 0 and of its balls past the
        table by :meth:`draw_tail`, the synthetic range's as fresh ids in
        [2^62, 2^63), put in order by one permutation."""
        ids, _, n_tail = self.draw_past(rng, 0, [size])
        runs = [ids] + [_SYNTHETIC_BASE + rng.integers(0, _SYNTHETIC_BASE, size=int(n.sum()),
                                                       dtype=np.int64) if run is None else run
                        for run, n in self.draw_tail(rng, n_tail)]
        return rng.permutation(np.concatenate(runs))

    def _cut(self, size: int) -> int:
        """The cells 1..J whose balls a trajectory of ``size`` balls follows
        one by one: J is the smallest power of two in [_CUT_MIN, table] at
        which at most J/2 balls are expected in (J, table]."""
        J = _CUT_MIN
        while J < _TABLE_SIZE and size * self._rest[J] > J / 2:
            J *= 2
        return J

    @functools.cached_property
    def _past_table(self) -> float:
        """The mass past the table's cells: its r = 1 tail sum over Z, and
        q^table for geometric."""
        if self.family == "geometric":
            return self.q ** _TABLE_SIZE
        return self._weight_tail(_TABLE_SIZE)[0] / self.Z

    def _mass_past(self, J: int) -> float:
        """The mass of the cells past J, _rest[J] in the table and the rest
        past it."""
        return float(self._rest[J]) + self._past_table

    def draw_past(self, rng: np.random.Generator, J: int,
                  m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The balls past cell J, ``m[s]`` of them at stop s, exact in law:
        the ids of those in (J, table], ``counts[s]`` of them at stop s in
        stop order, and the number past the table per stop, whose ids
        :meth:`draw_tail` makes.

        A binomial per stop splits its balls by the masses of (J, table]
        and past the table.  The ids in (J, table] are made by inversion:
        for u uniform on [0, 1), w = _rest[J] (1 - u) is in (0, _rest[J]],
        and its cell c has _rest[c] < w <= _rest[c-1].  Sorted keys search
        the table several times faster; the balls are i.i.d. given their
        numbers, so a random permutation of the ids deals them to the
        stops (one stop needs none).
        """
        m = np.asarray(m, dtype=np.int64)
        rest = float(self._rest[J])
        mass = rest + self._past_table
        counts = rng.binomial(m, rest / mass if mass > 0.0 else 0.0)
        w = rest * (1.0 - rng.random(int(counts.sum())))
        w.sort()
        ids = _at_least(self._rest, w)
        if counts.size > 1:
            ids = rng.permutation(ids)
        return ids, counts, m - counts

    def draw_tail(self, rng: np.random.Generator, n_tail):
        """The ids of the balls past the table, ``n_tail[s]`` of them at
        stop s, a run of cells at a time: yields ``(ids, counts)``,
        ``counts[s]`` of the run's balls at stop s with their ids in stop
        order, or ids None for the synthetic range past 2^62, whose balls
        each have a cell of their own.

        A run is one dyadic range of :meth:`_tail_ranges` or consecutive
        ones that together expect at most about _TAIL_RUN of the balls (set
        by their total alone).  One multinomial over the stops splits each
        stop's balls across the runs; given those numbers the balls in a run
        are i.i.d., so its ids are drawn for every stop at once.  Geometric
        has one run, drawn by memorylessness.
        """
        n_tail = np.asarray(n_tail, dtype=np.int64)
        if self.family == "geometric":
            m = int(n_tail.sum())
            if m:
                ids = rng.geometric(1.0 - self.q, size=m)
                ids += _TABLE_SIZE  # in place: the one run holds every ball
                yield ids, n_tail
            return
        law = self._tail_ranges()[0]
        # the first range of each run: where the mass of the ranges before
        # it, times the balls, passes a multiple of _TAIL_RUN
        before = np.cumsum(law[:-1]) - law[:-1]
        starts = np.flatnonzero(np.diff(np.floor(before * n_tail.sum() / _TAIL_RUN), prepend=-1.0))
        ends = np.append(starts[1:], law.size - 1)
        split = rng.multinomial(n_tail, np.append(np.add.reduceat(law[:-1], starts), law[-1]))
        for r, counts in enumerate(split.T):
            m = int(counts.sum())
            if m and r == starts.size:
                yield None, counts
            elif m:
                ids = self._draw_tail_block(rng, m, (starts[r], ends[r]))
                yield ids, counts
                del ids  # not held while the next run is drawn

    def _tail_ranges(self) -> tuple[np.ndarray, _Hat, float]:
        """For a power family, the law of a ball past the table over the
        dyadic ranges (2^m, 2^(m+1)], m = 16..61, and the synthetic range
        past 2^62; the hat of :meth:`_draw_tail_block`; and a bound on the
        law's total variation distance from the exact one.  The masses are
        differences of the r = 1 tail sums at the edges, so the bound is twice
        the sum of their bounds and an ulp each, over the mass past the table.

        The hat is c x^-sigma on _PIECES pieces a range, equal in ln x (four
        give a smallest ratio of 0.99994 for theta_one_log, one 0.9991).  In
        y = ln x, l = ln p = -s y - a ln w, w = ln(x + e), has l'' = a (rho^2
        / w^2 - rho (1 - rho) / w), rho = x / (x + e): of the sign of a and at
        most |a| / w^2.  So ln hat is the secant of l through a piece's edges
        for a >= 0 and its tangent at their midpoint for a < 0, above l by at
        most |a| d^2 / (8 w0^2) on a piece d wide, w0 = w at its left edge
        x0; a cell's hat mass is at most 1 + sigma (sigma + 1) / (12 x0^2)
        times the hat at the cell; the squeeze is 1 less both, less 1e-12 for
        rounding.  Worked out at the first call and kept.
        """
        if self._ranges is None:
            tails, bounds = np.array([self._weight_tail(int(J)) for J in _RANGE_EDGES]).T
            mass = np.append(-np.diff(tails), tails[-1])
            total = mass.sum()
            cells = np.append(np.multiply.outer(_RANGE_EDGES[:-1], 2.0 ** (
                np.arange(_PIECES) / _PIECES)).astype(np.int64), _RANGE_EDGES[-1])
            x = cells + 0.5
            x0, d, w = x[:-1], np.log(x[1:] / x[:-1]), np.log(x + _E)
            if self.a >= 0.0:
                ref, sigma = x0, self.s + self.a * np.log(w[1:] / w[:-1]) / d
            else:
                ref = np.sqrt(x0 * x[1:])
                sigma = self.s + self.a * ref / ((ref + _E) * np.log(ref + _E))
            # the hat divides by 1 - sigma: 2^-60 for 0 moves it by under an ulp
            om = np.where(sigma == 1.0, 2.0 ** -60, 1.0 - sigma)
            rate = om / (self._weights(ref) * (ref / x0) ** sigma * x0)
            grow = np.expm1(om * d)
            past = np.append(np.cumsum((grow / rate)[::-1])[::-1], 0.0)
            squeeze = (1.0 - abs(self.a) * d * d / (8.0 * w[:-1] ** 2)
                       - sigma * (sigma + 1.0) / (12.0 * x0 * x0) - 1e-12)
            self._ranges = (mass / total, _Hat(cells, past, (x0, rate, om), grow, squeeze),
                            float(2.0 * (bounds.sum() + 2.0 ** -52 * tails.sum()) / total))
        return self._ranges

    def _accept_ratio(self, j: np.ndarray, piece: np.ndarray) -> np.ndarray:
        """p_j Z over the hat's mass in cell j of its piece ``piece``, (jm/x0)^om
        expm1(om ln(1 + 1/jm)) / rate, jm = j - 1/2, precise for j well past 1/ulp."""
        x0, rate, om = (r[piece] for r in self._tail_ranges()[1].rows)
        jm = j - 0.5
        return self._weights(j.astype(np.float64)) * rate / (
            (jm / x0) ** om * np.expm1(om * np.log1p(1.0 / jm)))

    def _draw_tail_block(self, rng: np.random.Generator, m: int,
                         ranges: tuple[int, int]) -> np.ndarray:
        """Exact draws from the dyadic ranges ``ranges`` (first, one past the
        last) of a power family by rejection-inversion (Hörmann and
        Derflinger, ACM TOMACS 6, 1996) under the hat of :meth:`_tail_ranges`.
        A candidate's piece is the one that holds the point u of the way
        from the run's first edge to its last in hat mass, u uniform on [0,
        1), which a guide table finds.  Its place in the piece is v of the
        way through the piece's hat mass, by a uniform v of its own (u alone
        would resolve a far piece of a long run only to 2^-53 of the run's
        mass), where the hat's mass inverts by log1p and exp, whatever sigma,
        to about an ulp of x.  Past 2^52 the float candidates lie h >= 1
        apart, so the cell is one of the h nearest, uniformly.  An acceptance
        uniform at or below the run's squeeze accepts without the ratio.  A
        round draws at most _TAIL_RUN candidates, which bounds its
        temporaries.

        ``draw_tail`` draws the ranges below 2^62 here and the synthetic
        range by count alone, every ball a single: the chance that two of n
        such balls would truly share a cell is below n^2 p_(2^62) / (2
        T(2^62)), T(2^62) the mass past 2^62: 2.5e-21 n^2 for theta_one_log
        (6e-7 for the 1.5e7 synthetic balls of a trajectory to 1e9, 6e-5 at
        1e10), 2.2e-20 n^2 for zipf s = 1.2, whose synthetic range holds
        0.17% of its balls past the table.
        """
        hat = self._tail_ranges()[1]
        lo, hi = (_PIECES * int(r) for r in ranges)
        first, last = int(hat.cells[lo]) + 1, int(hat.cells[hi])
        squeeze = float(hat.squeeze[lo:hi].min())
        x0, _, om = (r[lo:hi] for r in hat.rows)
        grow = hat.grow[lo:hi]
        # the run's hat mass up to each piece's right edge but the last
        ends = (hat.past[lo] - hat.past[lo + 1:hi]) / (hat.past[lo] - hat.past[hi])
        # the guide table (Chen and Asau, AIIE Transactions 6, 1974): the
        # piece at the start of each of g cells of u, at least 4 per piece;
        # from there a candidate steps up past the piece ends at or below u,
        # at most once unless its cell holds two ends
        after = np.append(ends, np.inf)
        g = 4 << (hi - lo - 1).bit_length()
        at = np.searchsorted(ends, np.arange(g) / g, side="right")
        out, filled = np.empty(m, dtype=np.int64), 0
        while filled < m:
            u = rng.random(min(m - filled, _TAIL_RUN))
            k = at.take((u * g).astype(np.intp))
            up = np.flatnonzero(u >= after.take(k))
            while up.size:
                k[up] += 1
                up = up[u[up] >= after.take(k[up])]
            # x = x0 (1 + v grow)^(1/om), in place (take gathers faster than [])
            x = rng.random(u.size)
            x *= grow.take(k)
            np.log1p(x, out=x)
            x /= om.take(k)
            np.exp(x, out=x)
            x *= x0.take(k)
            j = np.floor(x + 0.5).astype(np.int64)
            wide = np.flatnonzero(x >= 2.0 ** 52)
            if wide.size:
                # the cells x - h/2 .. x + h/2 - 1 (x itself for h = 1)
                h = np.spacing(x[wide])
                j[wide] = x[wide].astype(np.int64) + (
                    np.floor(rng.random(wide.size) * h) - np.floor(h / 2.0)).astype(np.int64)
            # x past the run's edges only by rounding
            np.clip(j, first, last, out=j)
            v = rng.random(j.size)
            slow = np.flatnonzero(v > squeeze)
            if slow.size:
                j = np.delete(j, slow[v[slow] > self._accept_ratio(j[slow], lo + k[slow])])
            out[filled:filled + j.size] = j
            filled += j.size
        return out


def build_distribution(spec: DistributionSpec) -> CellDistribution:
    """Construct the distribution of a spec, which checked its parameters
    when built (normalization, sampler table, analytic caches)."""
    return CellDistribution(spec)


def slowly_varying(d: CellDistribution, x: float) -> float:
    """L(x) = counting_function(x) / x^theta (exact, step-valued)."""
    if x < 1.0:
        raise DistributionError("slowly varying factor defined for x >= 1")
    return d.counting_function(x) / x ** d.theta


def smoothed_slowly_varying(d: CellDistribution, t: float) -> float:
    """L*(t), the exp(-1/y)/y - weighted smoothing of L(ty), theta = 1 only.

    With L(x) = N(x)/x, N the counting function, t L*(t) = int_0^inf
    exp(-1/y) N(ty) y^-2 dy.  By parts with the antiderivative
    exp(-1/y) - 1 (its product with N(ty) vanishes at 0 and, as N(x) =
    o(x), at infinity) this is int (1 - exp(-1/y)) dN(ty).  N(ty) steps
    by one at each y = 1/(t p_j), so t L*(t) = sum_j (1 - exp(-t p_j)),
    the poissonized mean number of occupied cells (Karlin's Phi(t)).  L*
    is that exact series over t, whose bound is below 1e-11 of L*; it
    reads the head sums the distribution keeps at (t, 1, star) and keeps
    nothing of its own.
    """
    if d.theta != 1.0:
        raise DistributionError("smoothed slowly varying transform requires theta = 1")
    if t < 1.0:
        raise DistributionError("transform defined for t >= 1")
    # moments imports this module
    from .moments import exact_mean
    return exact_mean(d, t, 1, True, "poisson")[0] / t
