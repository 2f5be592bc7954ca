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
# from draw_past's runs past it.
_TABLE_SIZE = 1 << 16
# Smallest count J of the cells whose balls a trajectory follows one by one.
_CUT_MIN = 1 << 6
# Balls past the table that one part of them expects at most: draw_past
# groups consecutive hat pieces into parts, so that a small tail costs a few
# draws and folds, not one per piece, and splits a piece that expects more
# than half a part at sub-edges, so that no part's keys, ids or sampler
# temporaries grow with the trajectory.
_TAIL_RUN = 1 << 15
# Bound on the error of the log families' normalizing constant Z, relative to
# max(1, Z); Z takes one cut, 2^14: the tail's bound is rounding-dominated there.
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
# and head sums by (t, k, star).  A series point cuts once, at its head
# length, and sums every order there; L*(t), which keeps nothing of its
# own, reads the (t, 1, star) sums that moment_report's k = 1 series fill;
# depoissonization_gap and variance_sandwich_check read up to three
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
# Balls per cell from which a part past the table places every ball (_draw_part)
_DENSE = 0.25
# A ball's place in its part past the table, one of 2^_PLACE_BITS (_draw_part)
_PLACE_BITS = 62


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


# draw_past's elements: cells first[i]..last[i] under a piece of a power
# family's rejection-inversion hat c x^-sigma past the table, whose mass up
# to x is ((x/x0)^om - 1) / rate, om = 1 - sigma, squeeze a bound below its
# ratios (the first four fields, the piece's rows); the element's hat mass
# runs from x0 times rate lo to lo + width; spread: see _near
_Elements = namedtuple("_Elements", "rate x0 om squeeze lo width first last spread")


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
        if self.a is not None and self.a < 0.0:
            self._check_monotone_negative_a()
        self.Z = self._normalization()
        self._prefix = self.prob_array(np.arange(1, _TABLE_SIZE + 1))
        # J -> the part of tail_power_sum(t, J) that does not depend on t
        self._tail_cuts = _Kept(_SLOTS)
        # filled by moments: t -> N(t), which sets the head length,
        # (t, k, star) -> head sums
        self._head_lengths = _Kept(_SLOTS)
        self._head_sums = _Kept(_SLOTS)

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
        tail, bound = self._weight_tail(J)
        Z = float(self._weights(np.arange(1, J + 1, dtype=np.float64)).sum()) + tail
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

    def _cell_sums(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_{lo < j <= hi} Z p_j of a power family for each pair of cells
        lo < hi past the table, all in one pass, and per sum a bound on its
        error.

        Midpoint Euler-Maclaurin: the integral of f(x) = x^-s ln(x+e)^-a over
        (lo + 1/2, hi + 1/2) by the _GAUSS rule in u = ln x, plus (f'(lo +
        1/2) - f'(hi + 1/2)) / 24; the remainder is at most sqrt(3)/216 times
        the integral of |f'''| <= f (s + |a| + 2)^3 / x^3, and f is largest
        at the left edge, as p decreases past the table.  The bound adds the
        _GAUSS_LOW rule's distance and the rounding: 24 ulps from the nodes,
        exp, log, the products and the sum of positive terms, and 4 (s + 2|a|)
        from the powers.  A sum relies on no difference of tail sums, so its
        bound is a few ulps of it, however many pieces there are.
        """
        xa, xb = lo + 0.5, hi + 0.5
        half = np.log1p((hi - lo) / xa) / 2.0  # precise however few the cells
        (x, w), (x_low, w_low) = _GAUSS, _GAUSS_LOW
        nodes = xa[:, None] * np.exp(np.multiply.outer(half, np.concatenate([x, x_low]) + 1.0))
        f = self._weights(nodes) * nodes  # dx = x du
        high, low = f[:, :x.size] @ w * half, f[:, x.size:] @ w_low * half
        ends = np.stack([xa, xb])
        slopes = self._weights(ends) * (-self.s / ends - self.a / ((ends + _E) * np.log(ends + _E)))
        rem = (math.sqrt(3.0) / 216.0 * (self.s + abs(self.a) + 2.0) ** 3
               * self._weights(xa) * (xa ** -2.0 - xb ** -2.0) / 2.0)
        ulps = 24.0 + 4.0 * (self.s + 2.0 * abs(self.a))
        return high + (slopes[0] - slopes[1]) / 24.0, np.abs(high - low) + rem + 2.0 ** -52 * ulps * high

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
        the ids of every run of :meth:`draw_past` past cell 0, the synthetic
        range's as fresh ids in [2^62, 2^63), put in order by one
        permutation."""
        return rng.permutation(np.concatenate([
            _SYNTHETIC_BASE + rng.integers(0, _SYNTHETIC_BASE, size=int(n.sum()), dtype=np.int64)
            if ids is None else ids for ids, n in self.draw_past(rng, 0, [size])]))

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
        """The mass past the table's cells: its r = 1 tail sum over Z."""
        return self._weight_tail(_TABLE_SIZE)[0] / self.Z

    def _mass_past(self, J: int) -> float:
        """The mass of the cells past J, _rest[J] in the table and the rest
        past it."""
        return float(self._rest[J]) + self._past_table

    def draw_past(self, rng: np.random.Generator, J: int, m, *, alone: bool = False):
        """The balls past cell J, ``m[s]`` of them at stop s, exact in law, a
        run of cells at a time: yields ``(ids, counts)``, ``counts[s]`` of the
        run's balls at stop s with their ids in stop order, or ids None for
        balls with a cell each: the synthetic range past 2^62 and, with
        ``alone`` (run_coupled's form), the balls past the table that no
        other can share a cell with.  The first run, yielded even when empty,
        is the table cells (J, table]; the others lie past the table.

        A binomial per stop splits its balls by the masses of (J, table] and
        past the table.  The ids in (J, table] are made by inversion: for u
        uniform on [0, 1), w = _rest[J] (1 - u) is in (0, _rest[J]], and its
        cell c has _rest[c] < w <= _rest[c-1].  Sorted keys search the table
        several times faster; the balls are i.i.d. given their numbers, so a
        random permutation of the ids deals them to the stops (one stop
        needs none).  Past the table the elements are the hat's pieces
        (:attr:`_tail_ranges`); one that expects more than half of _TAIL_RUN
        of the balls is split first into q sub-pieces of equal hat mass, at
        edges rounded down to cells, which share its mass by their cell sums
        (:meth:`_cell_sums`).  Consecutive elements form parts that expect
        at most _TAIL_RUN balls (past about 1e12 balls, a sub-piece of one
        cell may expect more): a part starts where the mass before it, times
        the balls, passes a multiple of half of _TAIL_RUN.  Both depend on
        the balls' total alone, so one multinomial per stop over the parts
        and the synthetic range keeps the law, and a part's balls, i.i.d.
        given their numbers, are drawn for every stop at once
        (:meth:`_draw_part`).  Two of the synthetic range's n balls would
        share a cell with a chance below n^2 p_(2^62) / (2 T), T its mass:
        2.5e-21 n^2 for theta_one_log, 2.2e-20 n^2 for zipf s = 1.2.
        Geometric splits its balls past the table the same way, over ranges
        (a_i, a_(i+1)] of the cells past it at its quantiles of equal mass,
        rounded down, that expect at most half of _TAIL_RUN balls each: a
        bounded range's ids by inversion of its truncated geometric law, the
        last range's by memorylessness.
        """
        m = np.asarray(m, dtype=np.int64)
        rest, mass = float(self._rest[J]), self._mass_past(J)
        counts = rng.binomial(m, rest / mass if mass > 0.0 else 0.0)
        ids = _at_least(self._rest, np.sort(rest * (1.0 - rng.random(int(counts.sum())))))
        if counts.size > 1:
            ids = rng.permutation(ids)
        yield ids, counts
        del ids  # not held while the next run is drawn
        m = m - counts  # the balls past the table
        if self.family == "geometric":
            lq, parts = math.log(self.q), max(1, math.ceil(2.0 * float(m.sum()) / _TAIL_RUN))
            # range i holds the cells a[i] + 1..a[i] + w[i] past the table, the last all past a[i]
            a = np.unique(np.floor(np.log1p(-np.arange(parts) / parts) / lq).astype(np.int64))
            w = np.diff(a)
            c = np.append(-np.expm1(w * lq), 1.0)  # a range's mass over the mass past a_i
            split = rng.multinomial(m, np.exp(a * lq) * c)
            for i in np.flatnonzero(split.any(axis=0)):
                n = int(split[:, i].sum())
                ids = (rng.geometric(1.0 - self.q, size=n) if i == w.size else np.clip(np.ceil(
                    np.log1p(-c[i] * rng.random(n)) / lq), 1, w[i]).astype(np.int64))
                ids += _TABLE_SIZE + int(a[i])
                yield ids, split[:, i]
            return
        law, e, _ = self._tail_ranges
        p = law[:-1]
        half = 2.0 * float(m.sum()) / _TAIL_RUN  # halves of a part per unit of mass
        q = np.maximum(np.ceil(p * half), 1.0).astype(np.int64)
        if q.max() > 1:
            piece = np.repeat(np.arange(p.size), q)
            share = (np.arange(piece.size) - np.repeat(np.cumsum(q) - q, q)) / q.take(piece)
            edges, sub = e.first.take(piece) - 1, share > 0.0
            at = piece[sub]  # the cells at x0 (1 + share width)^(1/om), rounded down
            edges[sub] = np.floor(e.x0[at] * np.exp(np.log1p(share[sub] * e.width[at]) / e.om[at]))
            keep = np.flatnonzero(np.diff(np.append(edges, e.last[-1])))  # no empty sub-piece
            piece, cells = piece.take(keep), np.append(edges.take(keep), e.last[-1])
            sums = self._cell_sums(cells[:-1], cells[1:])[0]
            p = law.take(piece) * sums / np.bincount(piece, sums).take(piece)
            e = self._elements(cells, [f.take(piece) for f in e[:4]])
        starts = np.flatnonzero(np.diff(np.floor((np.cumsum(p) - p) * half), prepend=-1.0))
        split = rng.multinomial(m, np.append(law[-1], np.add.reduceat(p, starts)))
        for i, (a, b) in enumerate(zip(starts, np.append(starts[1:], p.size)), 1):
            if split[:, i].any():
                yield from self._draw_part(rng, _Elements(*(f[a:b] for f in e)), p[a:b],
                                           split[:, i], alone)
        if split[:, 0].any():
            yield None, split[:, 0]

    @functools.cached_property
    def _tail_ranges(self) -> tuple[np.ndarray, _Elements, float]:
        """For a power family, the law of a ball past the table over the
        pieces of the hat, _PIECES per dyadic range (2^m, 2^(m+1)], m =
        16..61, then over the synthetic range past 2^62; those pieces as
        the sampler's elements (:meth:`_elements`); and a bound on the
        law's total variation distance from the exact one.  A piece's mass
        is its cell sum (:meth:`_cell_sums`, every piece in one pass), the
        synthetic range's the r = 1 tail sum at 2^62, so the bound is twice
        the sum of their bounds over their total, plus an ulp per mass for
        the total and one for the division.  (As differences of the tail
        sums at the 185 edges, the masses would carry their rounding, which
        grows as the tail decays slower: 1.6e-11 for zipf_log (1.05, -1).)

        The hat is c x^-sigma on _PIECES pieces a range, equal in ln x (four
        give a smallest ratio of 0.99994 for theta_one_log, one 0.9991).  In
        y = ln x, l = ln p = -s y - a ln w, w = ln(x + e), has l'' = a (rho^2
        / w^2 - rho (1 - rho) / w), rho = x / (x + e): of the sign of a and at
        most |a| / w^2.  So ln hat is the secant of l through a piece's edges
        for a >= 0 and its tangent at their midpoint for a < 0, above l by at
        most |a| d^2 / (8 w0^2) on a piece d wide, w0 = w at its left edge
        x0; a cell's hat mass is at most 1 + sigma (sigma + 1) / (12 x0^2)
        times the hat at the cell; the squeeze is 1 less both, less 1e-12 for
        rounding.  Worked out at the first use and kept.
        """
        cells = np.append(np.multiply.outer(_RANGE_EDGES[:-1], 2.0 ** (
            np.arange(_PIECES) / _PIECES)).astype(np.int64), _RANGE_EDGES[-1])
        sums, bounds = self._cell_sums(cells[:-1], cells[1:])
        tail, tail_bound = self._weight_tail(_SYNTHETIC_BASE)
        mass = np.append(sums, tail)
        total = mass.sum()
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
        squeeze = (1.0 - abs(self.a) * d * d / (8.0 * w[:-1] ** 2)
                   - sigma * (sigma + 1.0) / (12.0 * x0 * x0) - 1e-12)
        return (mass / total, self._elements(cells, (rate, x0, om, squeeze)),
                float(2.0 * (bounds.sum() + tail_bound) / total + 2.0 ** -52 * (mass.size + 1)))

    def _accept_ratio(self, j: np.ndarray, e: _Elements, at: np.ndarray) -> np.ndarray:
        """p_j Z over the hat's mass in cell j of its element ``at`` of e,
        (jm/x0)^om expm1(om ln(1 + 1/jm)) / rate, jm = j - 1/2, precise for j
        well past 1/ulp."""
        x0, rate, om = (f.take(at) for f in (e.x0, e.rate, e.om))
        jm = j - 0.5
        return self._weights(j.astype(np.float64)) * rate / (
            (jm / x0) ** om * np.expm1(om * np.log1p(1.0 / jm)))

    @staticmethod
    def _elements(cells: np.ndarray, rows) -> _Elements:
        """The elements cells[i] + 1..cells[i + 1] under the hat rows (rate, x0,
        om, squeeze) of their pieces, an entry per element."""
        _, x0, om, _ = rows
        lo, hi = (np.expm1(om * np.log((c + 0.5) / x0)) for c in (cells[:-1], cells[1:]))
        n = np.diff(cells)
        # (x_b / x_a)^|sigma| / n (1 + 2^-44 x_b) (_near), 2^-40 over for its rounding
        spread = (np.exp(np.abs(1.0 - om) * np.log1p(n / (cells[:-1] + 0.5))) / n
                  * (1.0 + 2.0 ** -44 * (cells[1:] + 0.5)) * (1.0 + 2.0 ** -40))
        return _Elements(*rows, lo, hi - lo, cells[:-1] + 1, cells[1:], spread)

    def _draw_part(self, rng: np.random.Generator, e: _Elements, p: np.ndarray,
                   counts: np.ndarray, alone: bool):
        """The balls of a part of :meth:`draw_past`, ``counts[s]`` at stop s,
        in its elements ``e`` of masses in proportion to p, yielded as
        draw_past yields them.  A ball is a candidate of rejection-inversion
        (Hörmann and Derflinger, ACM TOMACS 6, 1996) under its element's hat
        (:meth:`_hat_cells`); a Bernoulli(1 - squeeze) subset, by geometric
        gaps over the i.i.d. balls, takes the ratio against a uniform on
        (squeeze, 1), and a rejected one is drawn again in its element.  Past
        _DENSE balls per cell a multinomial per stop deals the balls to the
        elements.  Else each has a place (:meth:`_edges`) and a uint32 key,
        its place's top 32 - b bits over its stop's b bits, sorted once; the
        balls that another could share a cell with (:meth:`_near`; all
        without ``alone``), take the ratio, or lie within reach of one drawn
        again take their cells (:meth:`_place`).
        """
        n, bits = int(counts.sum()), max(counts.size - 1, 1).bit_length()
        stop, edge, squeeze = (1 << bits) - 1, self._edges(p), float(e.squeeze.min())

        def tested(size):
            at = np.cumsum(rng.geometric(1.0 - squeeze, size=1 + int(2.0 * size * (1.0 - squeeze))))
            while at[-1] <= size:
                at = np.append(at, at[-1] + np.cumsum(rng.geometric(1.0 - squeeze, size=at.size)))
            return at[at <= size] - 1

        def rejected(t, at, j):  # of the candidates t that take the ratio
            return t[squeeze + (1.0 - squeeze) * rng.random(t.size)
                     > self._accept_ratio(j.take(t), e, at.take(t))] if t.size else t

        def accepted(at):  # candidates in the elements at, each v through its hat mass
            v = rng.random(at.size)
            j = self._hat_cells(rng, e, at, v.copy())
            todo = rejected(tested(at.size), at, j)
            while todo.size:
                v[todo] = rng.random(todo.size)
                j[todo] = self._hat_cells(rng, e, at.take(todo), v.take(todo))
                todo = todo.take(rejected(tested(todo.size), at.take(todo), j.take(todo)))
            return v, j

        if n >= _DENSE * (e.last[-1] - e.first[0] + 1):
            yield accepted(np.repeat(np.tile(np.arange(p.size), counts.size), rng.multinomial(
                counts, p / p.sum()).ravel()))[1], counts  # in stop order
            return
        key = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
        key &= np.uint32(0xFFFFFFFF ^ stop)
        key |= np.repeat(np.arange(counts.size, dtype=np.uint32), counts)
        key.sort()
        near, reach = self._near(key, bits, e, edge) if alone else (np.ones(n, dtype=bool), 0)
        t = tested(n)  # by the balls' places in the sort
        near[t] = True
        need = np.flatnonzero(near)
        at, ids = self._place(rng, e, edge, key.take(need), bits)
        t = rejected(need.searchsorted(t), at, ids)
        if t.size:
            (v, j), keep = accepted(at.take(t)), np.ones(need.size, dtype=bool)
            keep[t] = False  # drawn again: their keys from v, within a key of their places
            v *= (edge[1:] - edge[:-1]).take(at.take(t))
            new = (((edge.take(at.take(t)) + v.astype(np.int64)) >> (_PLACE_BITS - 32 + bits))
                   << bits) | (key.take(need.take(t)) & stop)
            lo, hi = (key.searchsorted(np.clip(new + d, 0, 0xFFFFFFFF).astype(np.uint32), side)
                      for d, side in ((-reach, "left"), (reach, "right")))
            more = np.unique(np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]))
            more = more[~near.take(more)]  # within reach of a new key, and without a cell
            ids = np.concatenate([ids[keep], self._place(rng, e, edge, key.take(more), bits)[1]
                                  if more.size else more, j])
            key = np.concatenate([key.take(need[keep]), key.take(more), new.astype(np.uint32)])
        elif need.size < n:
            key = key.take(need)
        key &= stop
        got = np.bincount(key, minlength=counts.size)
        if ids.size:
            yield ids.take(np.argsort(key.astype(np.min_scalar_type(stop)), kind="stable")), got
        del ids, key
        if alone and got.sum() < n:
            yield None, counts - got

    @staticmethod
    def _edges(p: np.ndarray) -> np.ndarray:
        """Places edge[i]..edge[i + 1] - 1 of element i of a part of masses p:
        its share rounded down, the largest taking the rest."""
        steps = (p * (2.0 ** _PLACE_BITS / p.sum())).astype(np.int64)
        steps[steps.argmax()] += (1 << _PLACE_BITS) - int(steps.sum())
        return np.append(0, np.cumsum(steps))

    def _place(self, rng: np.random.Generator, e: _Elements, edge: np.ndarray,
               key: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """The elements and cells of a part's balls of keys ``key``, by one
        64-bit draw each: the rest of the place, then its fraction."""
        shift = _PLACE_BITS - 32 + bits
        low = rng.bit_generator.random_raw(key.size)
        place = (key >> bits).astype(np.int64) << shift
        place |= (low >> np.uint64(64 - shift)).astype(np.int64)
        at = np.searchsorted(edge, place, side="right") - 1
        v = (low & np.uint64((1 << (64 - shift)) - 1)) * 2.0 ** (shift - 64)
        v += place - edge.take(at)
        return at, self._hat_cells(rng, e, at, v / (edge[1:] - edge[:-1]).take(at))

    @staticmethod
    def _near(key: np.ndarray, bits: int, e: _Elements, edge: np.ndarray):
        """Which of a part's sorted keys another ball could share a cell with,
        and the largest ``reach`` of its elements.  Two balls share a cell
        only if their candidates lie within D = 1 + 2^-44 x cells (a cell,
        the h <= 2^-52 x cells a candidate spreads over past 2^52, and the
        map's rounding), x <= the element's top x_b.  The hat c x^-sigma is
        monotone, so a cell of an element of n cells from x_a holds at most
        (x_b / x_a)^|sigma| / n of its places: the two places lie within R =
        D (x_b / x_a)^|sigma| / n of them, plus one, and their keys less than
        reach = (floor(R / 2^shift) + 2) << b apart.  A key counts as in the
        element of its last place, and a pair takes the larger reach of its
        two: two balls of one element share a key's places or the first
        counts as in it."""
        shift, steps = _PLACE_BITS - 32 + bits, edge[1:] - edge[:-1]
        reach = (((np.minimum(steps * e.spread, steps) + 1.0) * 2.0 ** -shift).astype(np.int64)
                 + 2) << bits
        if reach.max() >> 32:  # an element of about one cell holds most of the part
            return np.ones(key.size, dtype=bool), int(reach.max())
        held = np.diff(key.searchsorted(((edge >> shift) << bits)[:-1].astype(np.uint32)),
                       append=key.size)  # the keys from the one of each element's start on
        each = np.repeat(reach.astype(np.uint32), held)
        close = key[1:] - key[:-1] < np.maximum(each[1:], each[:-1])
        near = np.append(close, False)
        near[1:] |= close
        return near, int(reach.max())

    def _hat_cells(self, rng: np.random.Generator, e: _Elements, at: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
        """The cells of candidates v of the way through the hat mass of their
        elements ``at`` (v is overwritten), by log1p and exp whatever sigma,
        to about an ulp of x; past 2^52, where they lie h >= 1 apart, one of
        the h nearest, uniformly; clipped to the element's cells."""
        # x = x0 (1 + lo + v width)^(1/om), in place (take gathers faster than [])
        x = v
        x *= e.width.take(at)
        x += e.lo.take(at)
        np.log1p(x, out=x)
        x /= e.om.take(at)
        np.exp(x, out=x)
        x *= e.x0.take(at)
        wide = np.flatnonzero(x >= 2.0 ** 52) if e.last[-1] > 1 << 51 else ()
        if len(wide):
            # the cells x - h/2 .. x + h/2 - 1 (x itself for h = 1)
            h = np.spacing(x[wide])
            spread = x[wide].astype(np.int64) + (
                np.floor(rng.random(wide.size) * h) - np.floor(h / 2.0)).astype(np.int64)
        x += 0.5
        j = x.astype(np.int64)  # x > 0: truncation is the floor
        if len(wide):
            j[wide] = spread
        return np.clip(j, e.first.take(at), e.last.take(at), out=j)


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
