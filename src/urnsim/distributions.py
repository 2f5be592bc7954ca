"""Heavy-tailed cell-probability families for infinite occupancy schemes.

Four concrete families with known regular-variation exponent theta of the
counting function (number of cells whose probability exceeds a threshold):

    zipf           p_j ~ j^-s                      theta = 1/s, s > 1
    zipf_log       p_j ~ j^-s (ln(j+e))^-a         theta = 1/s, s > 1
    theta_one_log  p_j ~ j^-1 (ln(j+e))^-2         theta = 1
    geometric      p_j = (1-q) q^(j-1)             theta = 0

Everything downstream (exact moment series, samplers, normalizing
sequences) relies on the closed-form tail analytics implemented here:
rigorous tail-mass bounds, Euler-Maclaurin tail sums, and stable power
sums of the scaled probabilities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import quad

_E = math.e
_FAMILIES = ("zipf", "zipf_log", "theta_one_log", "geometric")

# Inversion-table size for power-law samplers; draws beyond the table go
# through exact rejection-inversion in the unbounded tail block.
_TABLE_SIZE = 1 << 16
# Smallest multinomial cut of a count-space draw.
_CUT_MIN = 1 << 6
# Draws per call of the tail sampler in draw_tail, which bounds its
# temporaries; of 2^14..2^16 this one kept traj_1e6_pair's peak RSS flattest.
_TAIL_CHUNK = 1 << 14
# Bound on the error of the normalizing constant Z of the log families.
_NORM_TOL = 1e-12
# Cap on the cached probability prefix (8M float64 = 64 MB).
_PREFIX_CAP = 1 << 23
# Thresholds per pass of the vectorized counting-function search.
_SEARCH_CHUNK = 1 << 15
# Smallest index at which Euler-Maclaurin tail sums take over from
# explicit summation.
_EM_MIN_INDEX = 1 << 10
# Orders r = 1.._MAX_ORDER of the tail power sums sum_{j>J} (t p_j)^r.
_MAX_ORDER = 60
_ORDERS = np.arange(1.0, _MAX_ORDER + 1.0)
_ORDERS.flags.writeable = False
# Cuts J whose tail power sums a distribution keeps: the series at one t cut
# at the head length and at _EM_MIN_INDEX below it, and variance_sandwich_check
# reads two t, so fewer slots would evict a cut that is about to be used again.
_TAIL_SLOTS = 4
# Gauss-Legendre rule of the tail power integrals on each interval, and the
# lower-order rule whose difference from it bounds its error.
_GAUSS = leggauss(20)
_GAUSS_LOW = leggauss(10)
# Exact-series heads a distribution keeps for moments: head lengths by t and
# head sums by point (t, k, star).  The series of one point read one key, and
# L*(t) reads the (t, 1, star) key that moment_report's k = 1 series fill;
# depoissonization_gap and variance_sandwich_check read up to three.
_HEAD_SLOTS = 4
# Draws that would land beyond this index (per-cell probability < ~1e-21)
# are materialized as unique synthetic cells in [base, 2*base).
_SYNTHETIC_BASE = 1 << 62


class DistributionError(ValueError):
    """Invalid family parameters or unsupported evaluation request."""


@dataclass(frozen=True)
class DistributionSpec:
    """Parameters of one cell-probability family, checked when the spec is
    built (directly, by :func:`dataclasses.replace` or from a mapping).

    Exactly the parameters of the chosen family may be set: ``s`` (and
    optionally ``a``) for the zipf types, ``q`` for geometric;
    ``theta_one_log`` takes no parameters.
    """

    family: str
    s: float | None = None
    a: float | None = None
    q: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DistributionError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        for name in ("s", "a", "q"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DistributionError(f"{name} must be finite, got {value}")
        if self.family == "zipf":
            if self.s is None or self.s <= 1.0:
                raise DistributionError(f"zipf requires s > 1, got s={self.s}")
            if self.a is not None or self.q is not None:
                raise DistributionError("zipf takes only the exponent s")
        elif self.family == "zipf_log":
            if self.s is None or self.s <= 1.0:
                raise DistributionError(f"zipf_log requires s > 1, got s={self.s}")
            if self.a is None:
                raise DistributionError("zipf_log requires the log power a")
            if self.q is not None:
                raise DistributionError("zipf_log takes only s and a")
        elif self.family == "theta_one_log":
            if self.s is not None or self.a is not None or self.q is not None:
                raise DistributionError("theta_one_log is parameter free")
        elif self.family == "geometric":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise DistributionError(f"geometric requires q in (0,1), got q={self.q}")
            if self.s is not None or self.a is not None:
                raise DistributionError("geometric takes only the ratio q")

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


def _quad(f, lo, hi) -> tuple[float, float]:
    """scipy.quad with tight tolerances; returns (value, error estimate)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(f, lo, hi, epsabs=1e-16, epsrel=1e-12, limit=200)
    return val, err


def _powerlog_tail_integral(s: float, a: float, x0: float) -> tuple[float, float]:
    """integral_{x0}^inf x^-s (ln(x+e))^-a dx with a rigorous error estimate.

    The semi-infinite integral is transformed so the integrand decays
    exponentially (s > 1) or splits into a closed form plus a bounded
    correction (s == 1, a > 1); a raw quad on [x0, inf) is unreliable for
    these slowly decaying integrands.
    """
    if s > 1.0:
        # past span the integrand is below e^-745 times a power of u; one
        # quad reaches at most u = 700, a second one the rest of the span
        span = 745.0 / (s - 1.0)

        def integrand(u: float) -> float:
            # ln(x0 e^u + e) = u + ln(x0 + e e^-u), safe for huge u
            w = u + math.log(x0 + _E * math.exp(-u))
            return math.exp((1.0 - s) * u) * w ** -a

        val, err = _quad(integrand, 0.0, min(span, 700.0))
        if span > 700.0:
            more, more_err = _quad(integrand, 700.0, span)
            val, err = val + more, err + more_err
        scale = x0 ** (1.0 - s)
        return val * scale, err * scale
    if a <= 1.0:
        raise DistributionError("tail integral diverges for s=1, a<=1")
    main = math.log(x0 + _E) ** (1.0 - a) / (a - 1.0)
    corr, err = _quad(
        lambda u: math.log(x0 / u + _E) ** -a / (x0 + _E * u), 0.0, 1.0)
    return main + _E * corr, err * _E


def _powerlog_tail_sum(s: float, a: float, J: int) -> tuple[float, float]:
    """sum_{j>J} j^-s (ln(j+e))^-a by midpoint Euler-Maclaurin.

    Returns (estimate, bound) where bound covers the quadrature error and
    the Euler-Maclaurin remainder (ratio (s+a+1)^3/x0^3 of one term).
    """
    x0 = J + 0.5
    integ, qerr = _powerlog_tail_integral(s, a, x0)
    f0 = x0 ** -s * math.log(x0 + _E) ** -a
    dlog = -s / x0 - a / ((x0 + _E) * math.log(x0 + _E))
    est = integ + f0 * dlog / 24.0
    rem = f0 * (s + a + 1.0) ** 3 / x0 ** 3
    return est, qerr + rem


def _power_integrals(s: float, a: float, x0: float) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^inf exp(r dlnf(u) + u) du for every order r = 1.._MAX_ORDER
    at once, dlnf(u) = ln(f(x0 e^u) / f(x0)), f(x) = x^-s (ln(x+e))^-a, and
    per order a bound on its error; nan for the orders with r s <= 1, whose
    integrals diverge.

    One composite Gauss rule on the dyadic partition 0, 2^k0, ..., 2^m, U
    of u: 2^k0 is below half the decay length 1/(_MAX_ORDER s) of the
    highest order, and past U = 745/lam, lam = r s - 1 of the slowest order,
    the integrand is below e^-745 times a power of u.  The bound is the
    lower-order rule's distance from it, interval by interval, plus the
    rounding, which grows with r as the rounding of r dlnf does.
    """
    r = _ORDERS
    top = 745.0 / (s - 1.0 if s > 1.0 else 2.0 * s - 1.0)
    k0 = -math.ceil(math.log2(_MAX_ORDER * s)) - 1
    edges = np.concatenate(([0.0], 2.0 ** np.arange(k0, math.ceil(math.log2(top))), [top]))
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    (x, w), (x_low, w_low) = _GAUSS, _GAUSS_LOW
    split = half.size * x.size
    u = np.concatenate([(mid[:, None] + np.multiply.outer(half, nodes)).ravel()
                        for nodes in (x, x_low)])
    # ln(x0 e^u + e) - ln(x0 + e), without cancellation near u = 0
    w0 = math.log(x0 + _E)
    dw = np.empty_like(u)
    near = u <= 1.0
    dw[near] = np.log1p(x0 / (x0 + _E) * np.expm1(u[near]))
    dw[~near] = u[~near] + np.log(x0 + _E * np.exp(-u[~near])) - w0
    lw = np.log1p(dw / w0)
    f = np.multiply.outer(r, -s * u - a * lw)
    f += u
    np.exp(f, out=f)
    high = f[:, :split].reshape(r.size, half.size, x.size) @ w * half
    low = f[:, split:].reshape(r.size, half.size, x_low.size) @ w_low * half
    val = high.sum(axis=1)
    # rounding, in units of 2^-52 of the integrand: about 7 r (s u + |a| lw)
    # from the exponent r dlnf + u, and 20 from exp, the weights and the sums
    size = f[:, :split] @ ((s * u[:split] + abs(a) * lw[:split]) * np.outer(half, w).ravel())
    err = np.abs(high - low).sum(axis=1) + 2.0 ** -52 * (8.0 * r * size + 24.0 * val)
    diverge = r * s <= 1.0
    val[diverge] = err[diverge] = math.nan
    return val, err


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


class CellDistribution:
    """A concrete infinite discrete law p_1 >= p_2 >= ... > 0.

    Immutable after construction apart from internal caches: the grow-only
    probability prefix (idempotent to racing readers), the L*(t) values
    (each the exact at-least-1 Poisson series at t, over t), the tail
    power sums of the last few cuts J and the exact-series head sums of
    the last few points.  Construct via :func:`build_distribution`.
    """

    def __init__(self, spec: DistributionSpec):
        self.spec = spec
        self.family = spec.family
        if spec.family == "zipf":
            self.s, self.a = float(spec.s), 0.0
            self.theta = 1.0 / self.s
        elif spec.family == "zipf_log":
            self.s, self.a = float(spec.s), float(spec.a)
            self.theta = 1.0 / self.s
        elif spec.family == "theta_one_log":
            self.s, self.a = 1.0, 2.0
            self.theta = 1.0
        else:
            self.s = self.a = None
            self.theta = 0.0
        self.q = None if spec.q is None else float(spec.q)
        self.Z = self._normalization()
        if self.a is not None and self.a < 0.0:
            self._check_monotone_negative_a()
        self.p1 = float(self.prob(1))
        self._prefix = self.prob_array(np.arange(1, _TABLE_SIZE + 1))
        # the sampler's inversion table; probs_prefix never grows it
        self._cum = np.cumsum(self._prefix)
        self._lstar_cache: dict[float, float] = {}
        # J -> the part of tail_power_sum(t, J, r) that does not depend on t
        self._tail_cuts = _Kept(_TAIL_SLOTS)
        # filled by moments: t -> head length, (t, k, star) -> head sums
        self._head_lengths = _Kept(_HEAD_SLOTS)
        self._head_sums = _Kept(_HEAD_SLOTS)

    # ---------- construction internals

    def _normalization(self) -> float:
        if self.family == "geometric":
            return 1.0
        if self.family == "zipf":
            # Riemann zeta, library accuracy ~1e-16 relative
            return float(special.zeta(self.s, 1.0))
        J = 1 << 14
        while True:
            head = float(self._weights(np.arange(1, J + 1, dtype=np.float64)).sum())
            tail, bound = _powerlog_tail_sum(self.s, self.a, J)
            if bound <= _NORM_TOL / 4.0 or J >= (1 << 22):
                break
            J *= 2
        # a large Z (s near 1, a < 0) is judged relative to itself where the
        # absolute test fails, so a Z that passes that test keeps its bits
        Z = head + tail
        if bound > _NORM_TOL * max(1.0, Z):
            raise DistributionError(f"normalization stalled at J={J}: bound {bound:.2e} "
                                    f"> {_NORM_TOL:.2e} max(1, Z)")
        return Z

    def _check_monotone_negative_a(self) -> None:
        # p is eventually decreasing once s*ln(j+e) >= |a|; check the prefix.
        j_star = int(math.ceil(math.exp(abs(self.a) / self.s))) + 2
        if j_star > 10**7:
            raise DistributionError("log power too negative for monotone probabilities")
        vals = self._weights(np.arange(1, j_star + 1, dtype=np.float64))
        if np.any(np.diff(vals) > 0):
            raise DistributionError(
                f"p_j not monotone nonincreasing for s={self.s}, a={self.a}")
        s_env = self.s + self.a / math.log(_TABLE_SIZE + 0.5 + _E)
        if s_env <= 1.0:
            raise DistributionError(
                "log power too negative for an integrable sampling envelope: a < 0 needs "
                f"s + a / ln(2^{_TABLE_SIZE.bit_length() - 1} + 1/2 + e) > 1, got {s_env:.6g} "
                f"at s={self.s}, a={self.a}")

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
        """p_1..p_J, cached up to _PREFIX_CAP cells; grown _TABLE_SIZE cells at a time."""
        if J <= self._prefix.size:
            return self._prefix[:J]
        grown = np.empty(J)
        grown[:self._prefix.size] = self._prefix
        for lo in range(self._prefix.size, J, _TABLE_SIZE):
            hi = min(lo + _TABLE_SIZE, J)
            grown[lo:hi] = self.prob_array(np.arange(lo + 1, hi + 1, dtype=np.float64))
        if J <= _PREFIX_CAP:
            self._prefix = grown
        return grown

    # ---------- counting function and tail analytics

    def counting_function(self, x):
        """Largest index j with p_j >= 1/x (0 if none), for a scalar x or an
        array of x in any order; the predicate is ``prob_array(j) >= 1/x``.

        Thresholds inside the cached prefix are found by a vectorized
        bisection over it, the others by doubling and bisection on
        prob_array; the prefix is never grown here.
        """
        xs = np.asarray(x, dtype=np.float64)
        flat = xs.reshape(-1)
        out = np.empty(flat.size, dtype=np.int64)
        for lo in range(0, flat.size, _SEARCH_CHUNK):
            out[lo:lo + _SEARCH_CHUNK] = self._count(flat[lo:lo + _SEARCH_CHUNK])
        return int(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    # no caller in urnsim; perfbench/tracing.py wraps this name, so it stays
    # until the tracer drops it
    counting_function_many = counting_function

    def _count(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.size, dtype=np.int64)
        pos = np.flatnonzero(xs > 0.0)
        thr = 1.0 / xs[pos]
        prefix = self._prefix
        inside = thr > prefix[-1]
        # inside: the number of prefix entries >= thr, by a branch-free
        # bisection (the entries are nonincreasing; no reversed copy)
        t_in = thr[inside]
        base = np.zeros(t_in.size, dtype=np.int64)
        n = prefix.size
        while n > 1:
            half = n // 2
            np.add(base, half, out=base, where=prefix[base + half] >= t_in)
            n -= half
        out[pos[inside]] = base + (prefix[base] >= t_in)
        # beyond: p_lo >= thr > p_hi, first by doubling hi, then by bisection
        t_out = thr[~inside]
        lo = np.full(t_out.size, prefix.size, dtype=np.int64)
        hi = 2 * lo
        todo = np.arange(t_out.size)
        while todo.size:
            grow = self.prob_array(hi[todo]) >= t_out[todo]
            todo = todo[grow]
            if todo.size and hi[todo].max() >= _SYNTHETIC_BASE:
                raise DistributionError("counting function beyond 2^62 cells "
                                        "(threshold below every resolvable p_j)")
            lo[todo] = hi[todo]
            hi[todo] *= 2
        todo = np.flatnonzero(hi - lo > 1)
        while todo.size:
            mid = (lo[todo] + hi[todo]) // 2
            ok = self.prob_array(mid) >= t_out[todo]
            lo[todo[ok]] = mid[ok]
            hi[todo[~ok]] = mid[~ok]
            todo = todo[hi[todo] - lo[todo] > 1]
        out[pos[~inside]] = lo
        return out

    def tail_mass(self, J: int) -> float:
        """Upper bound on sum_{j>J} p_j, tight to well within one term."""
        if J < 1:
            raise DistributionError("J must be >= 1")
        if self.family == "geometric":
            return self.q ** J
        # Euler-Maclaurin remainders only become negligible for large cut
        # indices; bridge small J with explicit summation.
        J2 = max(J, _EM_MIN_INDEX)
        block = 0.0
        if J2 > J:
            block = float(self.prob_array(np.arange(J + 1, J2 + 1)).sum())
        est, bound = _powerlog_tail_sum(self.s, self.a, J2)
        return block + (est + bound) / self.Z

    def tail_power_sum(self, t: float, J: int, r: int) -> tuple[float, float]:
        """sum_{j>J} (t p_j)^r, r = 1.._MAX_ORDER, stable for large t and r,
        and its error bound.

        Requires t*p_{J+1} <= O(1); the result is used as the analytic
        tail of truncated occupancy series.  t enters only as a factor, so
        each cut J is worked out once for every order, without t, and kept
        for the last _TAIL_SLOTS cuts.
        """
        if not 1 <= r <= _MAX_ORDER:
            raise DistributionError(f"power sum order must be in 1..{_MAX_ORDER}, got {r}")
        cut = self._tail_cuts.keep(J, lambda: self._tail_cut(J))
        if self.family == "geometric":
            lam = t * cut
            return lam ** r / (1.0 - self.q ** r), 0.0
        if J < _EM_MIN_INDEX:
            block = float(((t * cut) ** r).sum())
            rest, err = self.tail_power_sum(t, _EM_MIN_INDEX, r)
            return block + rest, err
        log_p0, size, values, errors, powerlog = cut
        if r == 1 and self.s <= 1.0:
            est, bound = powerlog
            return t / self.Z * est, t / self.Z * bound
        # f0 = (t p(x0))^r; the relative rounding of f0 times the sum: 2 ulps
        # of each log term of lmu = ln t + ln p(x0) and one of r lmu, all
        # times r, then exp, the sum's last two steps and the product
        lt = math.log(t)
        f0 = math.exp(r * (lt + log_p0))
        value = f0 * values[r - 1]
        return value, f0 * errors[r - 1] + abs(value) * 2.0 ** -52 * (
            3.0 * r * (abs(lt) + size) + 3.0)

    def _tail_cut(self, J: int):
        """What tail_power_sum keeps of the cut J, none of it depending on t:
        p_{J+1} for geometric; below _EM_MIN_INDEX the probabilities of the
        cells J+1.._EM_MIN_INDEX; otherwise, with x0 = J + 1/2 and
        (t p(x0))^r factored out, ln p(x0) = -ln Z - s ln x0 - a ln ln(x0+e)
        and the sum of its terms' magnitudes, the midpoint Euler-Maclaurin
        sums of every order and their bounds, and, for s <= 1, the estimate
        and bound of _powerlog_tail_sum, which times t / Z give the sum for
        r = 1 (its integral has no exponential decay)."""
        if self.family == "geometric":
            return self.prob(J + 1)
        if J < _EM_MIN_INDEX:
            return self.prob_array(np.arange(J + 1, _EM_MIN_INDEX + 1))
        s, a = self.s, self.a
        x0 = J + 0.5
        w0 = math.log(x0 + _E)
        logs = (math.log(self.Z), s * math.log(x0), a * math.log(w0))
        log_p0, size = -sum(logs), sum(map(abs, logs))
        val, qerr = _power_integrals(s, a, x0)
        r = _ORDERS
        dlog = -s / x0 - a / ((x0 + _E) * w0)
        # Euler-Maclaurin remainder: at most 7/5760 |f^(3)(x0)|, and
        # |f^(3)(x0)| <= f(x0) (r (s + |a|) + 2)^3 / x0^3
        rem = 7.0 / 5760.0 * (r * (s + abs(a)) + 2.0) ** 3 / x0 ** 3
        powerlog = _powerlog_tail_sum(s, a, J) if s <= 1.0 else None
        values, errors = val * x0 + r * dlog / 24.0, qerr * x0 + rem
        return log_p0, size, values.tolist(), errors.tolist(), powerlog

    # ---------- sampling

    def draw_cells(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized i.i.d. cell draws, exact in law (no lumped tail bucket)."""
        if self.family == "geometric":
            return rng.geometric(1.0 - self.q, size=size).astype(np.int64)
        cells = np.searchsorted(self._cum, rng.random(size), side="right").astype(np.int64) + 1
        in_tail = cells > _TABLE_SIZE
        cells[in_tail] = self._draw_tail_block(rng, int(in_tail.sum()))
        return cells

    def draw_counts(self, rng: np.random.Generator,
                    size: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``size`` i.i.d. draws in count space, exact in law as draw_cells:
        the number in each cell 1..J, the table cells beyond J that draws
        land in, and the number of draws past the table, whose ids
        :meth:`draw_tail` makes (later, for many increments at once).

        One multinomial over the cells 1..J, the mass in (J, table] and the
        mass past the table gives the numbers; the draws in (J, table] are
        made by inversion.  J is the smallest power of two in [_CUT_MIN,
        table] at which at most J/2 draws are expected in (J, table]; draws
        past the table cost the same at any J.
        """
        J = _CUT_MIN
        while J < _TABLE_SIZE and size * self._table_mass(J) > J / 2:
            J *= 2
        # the last category, past the table, takes the remaining mass
        counts = rng.multinomial(size, np.append(self._prefix[:J], (self._table_mass(J), 0.0)))
        u = rng.random(int(counts[J]))
        if self.family == "geometric":
            # J + a geometric conditioned on at most table - J
            lq = math.log(self.q)
            g = np.ceil(np.log1p(u * math.expm1((_TABLE_SIZE - J) * lq)) / lq)
            ids = J + np.clip(g, 1, _TABLE_SIZE - J).astype(np.int64)
        else:
            # u in [cum_J, cum_table); one rounded up to cum_table maps past it
            lo, hi = self._cum[J - 1], self._cum[_TABLE_SIZE - 1]
            ids = np.searchsorted(self._cum, lo + (hi - lo) * u, side="right") + 1
            ids = np.minimum(ids, _TABLE_SIZE)
        return counts[:J], ids, int(counts[J + 1])

    def _table_mass(self, J: int) -> float:
        """The mass of the table cells beyond J."""
        if self.family == "geometric":
            # memoryless; not by _cum, which reaches 1.0 after a few dozen cells
            return self.q ** J - self.q ** _TABLE_SIZE
        return float(self._cum[_TABLE_SIZE - 1] - self._cum[J - 1])

    def draw_tail(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """``m`` i.i.d. draws conditioned on landing past the table, made in
        chunks of _TAIL_CHUNK (memorylessness for geometric)."""
        out = np.empty(m, dtype=np.int64)
        for lo in range(0, m, _TAIL_CHUNK):
            part = min(_TAIL_CHUNK, m - lo)
            if self.family == "geometric":
                out[lo:lo + part] = _TABLE_SIZE + rng.geometric(1.0 - self.q, size=part)
            else:
                out[lo:lo + part] = self._draw_tail_block(rng, part)
        return out

    def _tail_envelope(self) -> tuple[Callable, Callable, float]:
        """Rejection-inversion beyond the table of a power family, as
        (inverse, accept_ratio, squeeze): ``inverse`` maps a uniform to a
        point under the convex closed-form envelope (power envelope; log
        factor frozen or absorbed into the exponent depending on its sign),
        ``accept_ratio(j)`` is cell j's mass over the envelope's, and the
        computed ratio is never below ``squeeze`` on j in (table, 2^62]."""
        s, a = self.s, self.a
        x0 = _TABLE_SIZE + 0.5
        w0 = math.log(x0 + _E)
        if s > 1.0:
            # envelope x^-s_env * c: for a>=0 freeze the log factor at x0;
            # for a<0 absorb it via (ln(x+e))^(-a) <= w0^(-a) exp(-a u / w0).
            s_env = s if a >= 0.0 else s + a / w0
            if s_env <= 1.0:
                raise DistributionError("tail envelope not integrable; table too small")
            # for a == 0 the ratio is j^-s over its integral across the cell,
            # 1 - s(s+1)/(24 j^2) to leading order; squeeze at twice that gap
            squeeze = 1.0 - s * (s + 1.0) / (12.0 * x0 * x0) if a == 0.0 else 0.0

            def inverse(u: np.ndarray) -> np.ndarray:
                return x0 * (1.0 - u) ** (1.0 / (1.0 - s_env))

            def accept_ratio(j: np.ndarray) -> np.ndarray:
                # cell mass under the envelope, as jm^(1-s) (1 - (jp/jm)^(1-s))
                # so the difference stays exact for j well beyond 1/ulp
                jm = j - 0.5
                mass = jm ** (1.0 - s_env) * (-np.expm1(
                    (1.0 - s_env) * np.log1p(1.0 / jm))) / (s_env - 1.0)
                mass *= w0 ** -a * x0 ** (s_env - s)
                return self._weights(j.astype(np.float64)) / mass
        else:
            # s == 1, a > 1: envelope h(x) = c0 (ln(x+e))^-a/(x+e), c0 covering
            # the f/h = (x+e)/x excess; exact tail antiderivative
            # c0 (ln(x+e))^(1-a)/(a-1).  f/h >= 1, so the ratio stays at or
            # above 1/c0 up to rounding.
            g0 = w0 ** (1.0 - a) / (a - 1.0)
            c0 = 1.0 + _E / x0
            squeeze = (1.0 - 1e-9) / c0

            def inverse(u: np.ndarray) -> np.ndarray:
                return np.exp(((1.0 - u) * g0 * (a - 1.0)) ** (1.0 / (1.0 - a))) - _E

            def accept_ratio(j: np.ndarray) -> np.ndarray:
                jm = j - 0.5
                lm = np.log(jm + _E)
                # lp - lm = log1p(1/(jm+e)) keeps the mass exact at huge j
                dl = np.log1p(1.0 / (jm + _E))
                mass = c0 * lm ** (1.0 - a) * (-np.expm1(
                    (1.0 - a) * np.log1p(dl / lm))) / (a - 1.0)
                return self._weights(j.astype(np.float64)) / mass

        return inverse, accept_ratio, squeeze

    def _draw_tail_block(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """Exact draws from {j > table} of a power family by
        rejection-inversion under :meth:`_tail_envelope`; a uniform at or
        below the squeeze accepts without the ratio.

        Candidates beyond _SYNTHETIC_BASE (where per-cell probabilities are
        below ~1e-21 and indices exceed what int64/float64 resolve) become
        unique synthetic singleton cells: the neglected chance that two such
        draws would truly coincide is < 1e-11 per 1e7-draw run, far inside
        the sampler's per-draw fidelity budget.
        """
        inverse, accept_ratio, squeeze = self._tail_envelope()
        out = np.empty(m, dtype=np.int64)
        filled = 0
        while filled < m:
            need = m - filled
            u = rng.random(need)
            with np.errstate(over="ignore", invalid="ignore"):
                x = inverse(u)
            huge = ~(x < _SYNTHETIC_BASE)  # catches inf/nan as well
            n_huge = int(huge.sum())
            if n_huge:
                # acceptance ratio is 1 - O(2^-60) out here; mint fresh ids
                ids = _SYNTHETIC_BASE + rng.integers(0, _SYNTHETIC_BASE,
                                                     size=n_huge, dtype=np.int64)
                out[filled:filled + n_huge] = ids
                filled += n_huge
            j = np.floor(x[~huge] + 0.5).astype(np.int64)
            if j.size:
                np.maximum(j, _TABLE_SIZE + 1, out=j)
                v = rng.random(j.size)
                acc = v <= squeeze
                slow = np.flatnonzero(~acc)
                acc[slow] = v[slow] <= accept_ratio(j[slow])
                took = int(acc.sum())
                out[filled:filled + took] = j[acc]
                filled += took
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
    reads the head sums the distribution keeps at (t, 1, star).  Cached
    by t.
    """
    if d.theta != 1.0:
        raise DistributionError("smoothed slowly varying transform requires theta = 1")
    if t < 1.0:
        raise DistributionError("transform defined for t >= 1")
    if t not in d._lstar_cache:
        # moments imports this module
        from .moments import exact_mean
        d._lstar_cache[t] = exact_mean(d, t, 1, True, "poisson")[0] / t
    return d._lstar_cache[t]
