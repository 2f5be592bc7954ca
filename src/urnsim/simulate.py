"""Streaming occupancy simulation with coupled fixed-n / poissonized reads.

One i.i.d. cell stream is read at the deterministic checkpoints n_i and at
K_i = P(n_i) (a unit-rate Poisson process evaluated on the grid).  Reading
the same monotone occupancy profile at both positions realizes the joint
law of the fixed-n and poissonized counts while keeping their difference
pathwise bounded by |K_i - n_i|.  The stream is built in Poisson time, each
cell filling by its own Poisson process (:func:`run_coupled`).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import CellDistribution


class OccupancyState:
    """Per-cell counts and the at-least-k profile, k = 1..k_max+1 (so that
    exactly-k counts are there up to k_max), stop by stop.

    The per-cell reference: a ``Counter`` of each cell's balls, read into a
    row at each ended stop.  ``run_coupled`` does not use it (it reads the
    cells 1..J from their arrival times and folds the rest with
    ``_fold_tail``); the tests check the fold against it, and
    perfbench/tracing.py wraps ``add_cells``.
    """

    def __init__(self, k_max: int = 5):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.k_max = k_max
        self._counts: Counter = Counter()  # cell id -> balls
        self._rows: list[np.ndarray] = []  # at-least-k counts after each ended stop
        self.ball_count = 0

    def add_cells(self, cells: np.ndarray) -> None:
        """Throw one ball into each listed cell."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and cells.min() < 1:
            raise ValueError("cell index must be >= 1")
        self._counts.update(cells.tolist())
        self.ball_count += cells.size

    def add_counts(self, counts: np.ndarray, ids: np.ndarray = ()) -> None:
        """Throw counts[j-1] balls into each cell j = 1..counts.size and one
        into each cell listed in ``ids``."""
        self._counts.update({j: c for j, c in enumerate(counts.tolist(), 1) if c})
        self.ball_count += int(counts.sum())
        self.add_cells(ids)

    def end_stop(self) -> None:
        """Close the current stop; later balls belong to the next one."""
        balls = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))
        self._rows.append((balls[:, None] >= np.arange(1, self.k_max + 2)).sum(axis=0))

    def profile_rows(self) -> np.ndarray:
        """At-least-k counts, k = 1..k_max+1, after each ended stop (one row
        per stop)."""
        return np.array(self._rows, dtype=np.int64).reshape(len(self._rows), self.k_max + 1)


def _fold_tail(ids: np.ndarray | None, counts: np.ndarray, top: int) -> np.ndarray:
    """How many cells reach at least k = 1..top balls at each stop, from
    the balls ``ids`` thrown in stop order, ``counts[s]`` of them at stop s
    (in any order within a stop), into cells that no other ball reaches;
    ids None when each ball has a cell of its own (the synthetic range and
    the balls that ``draw_past`` finds alone in their cells).

    A cell's k-th ball, in stop order, brings it to k balls at that ball's
    stop.  One sort of a key that packs each ball's cell above its stop
    orders the balls by cell, then stop, so a ball has at least c balls of
    its cell before it when the ball c places earlier has its cell.  The
    cell is the id less the smallest one or, where that would not fit
    beside the stop in 63 bits (the far ranges), the id's rank among the
    distinct ids.  No loop runs over the stops.
    """
    if ids is not None and ids.size != counts.sum():
        raise ValueError(f"{ids.size} ids for {counts.sum()} balls")
    reached = np.zeros((counts.size, top), dtype=np.int64)
    reached[:, 0] = counts  # every ball the first of its cell, bar the repeats
    if ids is None or ids.size == 0:
        return reached
    bits = max(counts.size - 1, 1).bit_length()
    lo = int(ids.min())
    if (int(ids.max()) - lo) >> (62 - bits):
        key = np.unique(ids, return_inverse=True)[1].astype(np.int64)
    else:
        key = ids - lo
    key <<= bits
    key |= np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    key.sort()
    stop = key & ((1 << bits) - 1)
    key >>= bits  # the cells, in order
    for c in range(1, top + 1):
        # the balls with at least c balls of their cell before them
        later = np.bincount(stop[c:][key[c:] == key[:-c]], minlength=counts.size)
        reached[:, c - 1] -= later
        if c < top:
            reached[:, c] += later
    return reached


@dataclass(frozen=True)
class CheckpointGrid:
    """Strictly increasing ball-count checkpoints and the profile depth."""

    positions: tuple[int, ...]
    k_max: int = 5

    def __post_init__(self):
        if len(self.positions) < 1:
            raise ValueError("grid needs at least one checkpoint")
        if self.positions[0] < 1:
            raise ValueError("checkpoints start at n >= 1")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    @functools.cached_property
    def position_array(self) -> np.ndarray:
        """The positions as one read-only int64 array, which every
        trajectory on the grid shares."""
        array = np.asarray(self.positions, dtype=np.int64)
        array.flags.writeable = False
        return array

    @staticmethod
    def logspaced(n_min: int, n_max: int, points: int, k_max: int = 5) -> "CheckpointGrid":
        # below 2^62 the counts K_i, which pass n_max, stay inside int64
        if not 1 <= n_min < n_max < 2 ** 62:
            raise ValueError(f"grid needs 1 <= n_min < n_max < 2^62, "
                             f"got n_min={n_min}, n_max={n_max}")
        if points < 2:
            raise ValueError(f"grid needs points >= 2, got points={points}")
        raw = np.unique(np.round(np.exp(np.linspace(
            np.log(n_min), np.log(n_max), points))).astype(np.int64))
        return CheckpointGrid(positions=tuple(int(v) for v in raw), k_max=k_max)


def poisson_increments(grid: CheckpointGrid,
                       rng: np.random.Generator) -> np.ndarray:
    """K_i = P(n_i): cumulative Poisson draws over the grid increments."""
    pos = np.asarray(grid.positions, dtype=np.float64)
    inc = np.diff(np.concatenate([[0.0], pos]))
    return np.cumsum(rng.poisson(inc)).astype(np.int64)


@dataclass(frozen=True, slots=True)
class CoupledTrajectory:
    """Joint fixed-n / poissonized profile readings from one ball stream.

    Each side is one array of at-least-k counts, k = 1..k_max+1 (column
    k-1), a view of the one block both sides share (int32 when the last
    stop fits in 31 bits, as no count exceeds it, else int64: cast before
    multiplying counts); the at-least-k rows up to k_max are views of it and
    the exactly-k rows are made from it on access, so a trajectory holds
    three arrays' data and headers.
    """

    seed: int | tuple[int, ...]  # SeedSequence entropy; (master_seed, index) in studies
    positions: np.ndarray        # n_i, the grid's read-only array
    K: np.ndarray                # P(n_i)
    at_least: np.ndarray         # shape (2, m, k_max + 1): at n_i, then at K_i

    @property
    def at_least_fixed(self) -> np.ndarray:
        return self.at_least[0]

    @property
    def at_least_poisson(self) -> np.ndarray:
        return self.at_least[1]

    @property
    def rstar_fixed(self) -> np.ndarray:
        """At-least-k rows at n_i, shape (m, k_max), column k-1 = at-least-k."""
        return self.at_least_fixed[:, :-1]

    @property
    def rstar_poisson(self) -> np.ndarray:
        return self.at_least_poisson[:, :-1]

    @property
    def r_fixed(self) -> np.ndarray:
        """Exactly-k rows at n_i."""
        return self.at_least_fixed[:, :-1] - self.at_least_fixed[:, 1:]

    @property
    def r_poisson(self) -> np.ndarray:
        return self.at_least_poisson[:, :-1] - self.at_least_poisson[:, 1:]

    def gap(self) -> np.ndarray:
        """|K_i - n_i| per checkpoint."""
        return np.abs(self.K - self.positions)

    def coupling_violations(self) -> int:
        """Number of (i, k) entries breaking |Delta R*| <= |K - n|."""
        gap = self.gap()[:, None]
        return int((np.abs(self.rstar_fixed - self.rstar_poisson) > gap).sum())


def _trajectory_rng(seed: int | tuple[int, ...]) -> tuple[np.random.Generator, np.random.Generator]:
    # Child streams: one for the Poisson clock, one for cell draws, split
    # from a SeedSequence so trajectories are reproducible and independent.
    root = np.random.SeedSequence(entropy=seed)
    clock, cells = root.spawn(2)
    return np.random.default_rng(clock), np.random.default_rng(cells)


# The horizon up to which the first arrivals are drawn lies _MARGIN standard
# deviations, plus _MARGIN^2, past the time the balls still to come take on
# average, so the stream goes on past it with a chance of about 1e-15.
_MARGIN = 8.0
# numpy's hypergeometric takes fewer than 10^9 balls of each kind
_URN_MAX = 10 ** 9


def _arrivals(rng: np.random.Generator, p: np.ndarray, have: np.ndarray, start: float,
              horizon: float, top: int) -> list[np.ndarray]:
    """The arrivals in (start, horizon] among the first ``top`` of each cell
    j (rate p[j]), have[j] of which came by ``start``: the times of each
    cell's k-th arrival, sorted, k = 1..top, then the rates of the last
    column's cells, in its order; counts them in have.

    A cell's arrivals after start are start plus sums of Exp(1) / p[j]
    (the times before it do not matter, as a Poisson process has no
    memory).  One column at a time, the cells whose arrival passes the
    horizon drop out, so the columns hold only times up to it, and the
    temporaries (deleted as soon as they are spent) hold one column.
    """
    had = have.copy()
    cells, t, cols = np.empty(0, dtype=np.int32), np.empty(0), []
    for k in range(top):
        new = np.flatnonzero(had == k).astype(np.int32)
        if new.size:
            cells = np.concatenate([cells, new])
            t = np.concatenate([t, np.full(new.size, start)])
        del new
        step = rng.standard_exponential(cells.size)
        step /= p.take(cells)
        t += step
        del step
        kept = np.flatnonzero(t <= horizon)  # take gathers faster than a mask
        cells, t = cells.take(kept), t.take(kept)
        del kept
        have[cells] = k + 1
        if k + 1 < top:
            cols.append(np.sort(t))
        else:
            order = np.argsort(t)
            cols += [t.take(order), p.take(cells.take(order))]
    return cols


def _y_masses(tops: tuple[np.ndarray, np.ndarray, np.ndarray], lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
    """The integral of Y's intensity over each interval (lo, hi): y(lo) (hi -
    lo) plus p_i (hi - c_i) for each top arrival c_i in (lo, hi].  Each sums
    its own terms, so it keeps its precision however far from time 0 it
    lies; ``tops`` holds the top arrival times in order, their cells' rates
    and Y's intensity after each (0 before the first)."""
    times, rates, after = tops
    first = np.searchsorted(times, lo, side="right")
    count = np.searchsorted(times, hi, side="right") - first
    owner = np.repeat(np.arange(hi.size), count)
    idx = np.arange(owner.size)
    idx += (first - np.cumsum(count) + count).take(owner)
    terms = times.take(idx)
    np.subtract(hi.take(owner), terms, out=terms)
    terms *= rates.take(idx)
    return after.take(first) * (hi - lo) + np.bincount(owner, terms, minlength=hi.size)


def _poisson_time(p: np.ndarray, rate: float, stops: np.ndarray, top: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per stop s, the at-least-k counts k = 1..top of the cells j <= J
    (rates p) and the number of balls past J, among the first stops[s]
    balls of the stream in Poisson time.

    Each cell is a Poisson process of rate p_j, and the cells past J one
    of rate ``rate``.  Each cell j <= J has its first ``top`` arrival
    times drawn (:func:`_arrivals`); the profile of those cells changes
    only at them.  The rest of the stream stays implicit, as two Poisson
    processes independent of them: Y, the arrivals in cells j <= J after
    their top-th, whose intensity is the sum of p_j over the cells whose
    top-th arrival has passed (strong Markov property); and E, the
    arrivals past J.  With F(t) the first arrivals by t, the stream holds
    N(t) = F(t) + Y(t) + E(t) balls by time t, and ball s comes at
    tau_s, found for every stop at once by bisection.  A bracket [a, b)
    knows Y and E at both ends and holds the stops whose tau_s lies in it.
    It splits at its median first arrival m, where Y(m) and E(m) are
    binomial bridges (by the integrals of Y's intensity, :func:`_y_masses`,
    and by time), and a stop goes left when s <= N(m-).  A bracket with no
    first arrival inside it has Y and E homogeneous there: given their
    numbers, their balls come in a uniform random order, so the E balls
    among its first s - N(a) are hypergeometric, drawn in turn for the
    bracket's stops.  (One with 10^9 balls of a kind or more splits at its
    middle time first.)  The first arrivals are drawn up to a horizon, and
    the stream is extended past it (no memory again) until N reaches the
    last stop.
    """
    n = int(stops[-1])
    have = np.zeros(p.size, dtype=np.int8)
    cols: list[np.ndarray] = []  # the k-th arrival times, k = 1..top, then the top rates
    ends = [(0.0, 0, 0, 0)]  # (time, F, Y, E) at 0 and at each horizon
    while sum(ends[-1][1:]) < n:
        start, _, Y, E = ends[-1]
        left = n - sum(ends[-1][1:])
        horizon = start + left + _MARGIN * (math.sqrt(left) + _MARGIN)
        new = _arrivals(rng, p, have, start, horizon, top)
        cols = [np.concatenate(pair) for pair in zip(cols, new)] if cols else new
        y_tops = (cols[-2], cols[-1], np.append(0.0, np.cumsum(cols[-1])))
        y = _y_masses(y_tops, np.array([start]), np.array([horizon]))[0]
        ends.append((horizon, sum(c.size for c in cols[:-1]),
                     Y + int(rng.poisson(y)), E + int(rng.poisson(rate * (horizon - start)))))
    del have
    f = np.concatenate([[-np.inf], *cols[:-1], [np.inf]])
    f[1:-1].sort()
    # the brackets between horizons, as rows lo, hi, Y(a), Y(b), E(a), E(b),
    # first stop, one past the last: first arrivals lo + 1..hi - 1 lie in (a, b)
    t, F, Y, E = (np.array(v) for v in zip(*ends))
    held = np.searchsorted(stops, F + Y + E, side="right")
    held[0] = 0
    ints = np.array([F[:-1], F[1:] + 1, Y[:-1], Y[1:], E[:-1], E[1:], held[:-1], held[1:]])
    keep = ints[7] > ints[6]
    ints, a, b = ints[:, keep], t[:-1][keep], t[1:][keep]
    done = []
    while ints.shape[1]:
        lo, hi, ya, yb, ea, eb, s0, s1 = ints
        inner = hi - lo > 1
        split = inner | (np.maximum(yb - ya, eb - ea) >= _URN_MAX)
        if not split.all():
            done.append(ints[:, ~split])
            ints, a, b, inner = ints[:, split], a[split], b[split], inner[split]
            lo, hi, ya, yb, ea, eb, s0, s1 = ints
        mid = np.where(inner, (lo + hi) // 2, hi)
        m = np.where(inner, f.take(mid), (a + b) / 2.0)
        cuts = np.stack([a, m, b], axis=1)
        y = _y_masses(y_tops, cuts[:, :2].ravel(), cuts[:, 1:].ravel()).reshape(-1, 2)
        total = y.sum(axis=1)
        ym = ya + rng.binomial(yb - ya, np.divide(y[:, 0], total, out=np.zeros_like(total),
                                                  where=total > 0.0))
        em = ea + rng.binomial(eb - ea, (m - a) / (b - a))
        cut = np.searchsorted(stops, mid - 1 + ym + em, side="right")
        left = np.array([lo, np.where(inner, mid, hi), ya, ym, ea, em, s0, cut])
        right = np.array([np.where(inner, mid, lo), hi, ym, yb, em, eb, cut, s1])
        went, stayed = cut > s0, s1 > cut
        ints = np.concatenate([left[:, went], right[:, stayed]], axis=1)
        a, b = np.concatenate([a[went], m[stayed]]), np.concatenate([m[went], b[stayed]])
    lo, ya, yb, ea, eb, s0, s1 = np.concatenate(done, axis=1)[[0, 2, 3, 4, 5, 6, 7]]
    rank, past = np.empty_like(stops), np.empty_like(stops)
    good, bad, drawn, got = eb - ea, yb - ya, np.zeros_like(lo), np.zeros_like(lo)
    for j in range(int((s1 - s0).max())):
        sel = np.flatnonzero(s1 - s0 > j)
        i = s0[sel] + j
        d = stops[i] - (lo + ya + ea)[sel]
        x = rng.hypergeometric(good[sel] - got[sel], bad[sel] - drawn[sel] + got[sel],
                               d - drawn[sel])
        got[sel] += x
        drawn[sel] = d
        rank[i], past[i] = lo[sel], ea[sel] + got[sel]
    at = f.take(rank)
    return np.array([np.searchsorted(c, at, side="right") for c in cols[:-1]]).T, past


def run_coupled(d: CellDistribution, grid: CheckpointGrid, seed: int | tuple[int, ...],
                increments_fn: Callable[[CheckpointGrid, np.random.Generator], np.ndarray] | None = None,
                ) -> CoupledTrajectory:
    """Stream one trajectory, snapshotting the profile at {n_i} and {K_i}.

    The stops are the positions and the K_i; the stream runs to the last of
    them.  It is built in Poisson time (:func:`_poisson_time`): each cell
    fills by its own Poisson process, the embedding of the i.i.d. stream
    (Karlin 1967), so the cells 1..J follow from their first k_max + 1
    arrival times, and the time of each stop's ball from a bisection that
    draws the other arrivals only by their numbers.  J is the cut of
    ``_cut`` at the last stop.  Per stop that gives the profile of the
    cells 1..J and the number of balls past J, which are i.i.d. given
    their numbers.  ``draw_past`` draws those balls for all stops at once,
    a run of cells at a time: the table cells (J, table], then parts of
    the sampler's hat pieces (geometric: ranges) past the table, each
    expecting at most _TAIL_RUN balls, and the synthetic range past
    2^62.  One loop folds each run with ``_fold_tail`` into what it adds
    to each stop's row and drops its ids, so memory holds one run's ids,
    not all of them, and stays flat in n.  Balls with a cell of their own
    need no ids: the synthetic range's, and the balls past the table that
    no other can share a cell with, which draw_past counts (``alone``) and
    never places.  The folded rows, summed over the stops before each, are
    added to those of the cells 1..J.  ``increments_fn`` replaces the
    Poisson clock (a testing hook; e.g. forcing K_i = n_i makes both
    columns identical).
    """
    clock_rng, cell_rng = _trajectory_rng(seed)
    inc_fn = increments_fn if increments_fn is not None else poisson_increments
    K = np.asarray(inc_fn(grid, clock_rng), dtype=np.int64)
    positions = grid.position_array
    schedule = np.unique(np.concatenate([positions, K]))
    top = grid.k_max + 1
    J = d._cut(int(schedule[-1]))
    rows, past = _poisson_time(d.probs_prefix(J), d._mass_past(J), schedule, top, cell_rng)
    past = np.diff(past, prepend=0)
    tail, given = np.zeros_like(rows), np.zeros_like(past)
    for ids, counts in d.draw_past(cell_rng, J, past, alone=True):
        tail += _fold_tail(ids, counts, top)
        given += counts
        del ids  # not held while the next run is drawn
    if not np.array_equal(given, past):
        raise RuntimeError("the balls past cell J do not add up to each stop's")
    rows += np.cumsum(tail, axis=0)
    rows = rows.astype(np.int64 if schedule[-1] >> 31 else np.int32, copy=False)
    return CoupledTrajectory(seed=seed, positions=positions, K=K,
                             at_least=rows[np.searchsorted(schedule, [positions, K])])
