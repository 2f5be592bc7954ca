"""Streaming occupancy simulation with coupled fixed-n / poissonized reads.

One i.i.d. cell stream is read at the deterministic checkpoints n_i and at
K_i = P(n_i) (a unit-rate Poisson process evaluated on the grid).  Reading
the same monotone occupancy profile at both positions realizes the joint
law of the fixed-n and poissonized counts while keeping their difference
pathwise bounded by |K_i - n_i|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import _TABLE_SIZE, CellDistribution

_NO_CELLS = np.empty(0, dtype=np.int64)


class OccupancyState:
    """Per-cell counts and the at-least-k profile, k <= k_max, stop by stop.

    Counts of the sampler-table cells 1..table sit in a dense array whose
    profile is updated at every add; balls that ``add_cells`` throws past
    the table are counted cell by cell.  ``run_coupled`` gives this state
    only the table's balls and folds those past the table itself, after the
    last stop (``_fold_tail``).  Internally tracks k_max + 1 thresholds so
    rows of exactly-k counts are available up to k_max.
    """

    def __init__(self, k_max: int = 5):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.k_max = k_max
        self._table = np.zeros(_TABLE_SIZE + 1, dtype=np.int64)  # indexed by cell id
        # rstar[k] for k = 1..k_max+1 at indices 1..k_max+1
        self._rstar = np.zeros(k_max + 2, dtype=np.int64)
        self._rows: list[np.ndarray] = []  # rstar after each ended stop
        self._by_id: dict[int, int] = {}  # cell past the table -> balls add_cells threw there
        self.ball_count = 0

    def add_cells(self, cells: np.ndarray) -> None:
        """Throw one ball into each listed cell."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and cells.min() < 1:
            raise ValueError("cell index must be >= 1")
        in_table = cells <= _TABLE_SIZE
        past, mult = np.unique(cells[~in_table], return_counts=True)
        self.add_counts(_NO_CELLS, cells[in_table])
        old = np.array([self._by_id.get(c, 0) for c in past.tolist()], dtype=np.int64)
        self._by_id.update(zip(past.tolist(), (old + mult).tolist()))
        self._rstar[1:] += _gained(old, old + mult, self.k_max + 1)
        self.ball_count += int(mult.sum())

    def add_counts(self, counts: np.ndarray, ids: np.ndarray = _NO_CELLS) -> None:
        """Throw counts[j-1] balls into each cell j = 1..counts.size and one
        into each table cell listed in ``ids`` (all beyond counts.size)."""
        # cells 1..J as a slice, then the cells listed in ids (beyond J)
        cells, mult = np.unique(ids, return_counts=True)
        J = counts.size
        old = np.concatenate([self._table[1:J + 1], self._table[cells]])
        new = old + np.concatenate([counts, mult])
        self._table[1:J + 1] = new[:J]
        self._table[cells] = new[J:]
        self._rstar[1:] += _gained(old, new, self.k_max + 1)
        self.ball_count += int(counts.sum()) + ids.size

    def end_stop(self) -> None:
        """Close the current stop; later balls belong to the next one."""
        self._rows.append(self._rstar[1:].copy())

    def profile_rows(self) -> np.ndarray:
        """At-least-k counts, k = 1..k_max+1, after each ended stop (one row
        per stop)."""
        return np.array(self._rows, dtype=np.int64).reshape(len(self._rows), self.k_max + 1)


def _gained(old: np.ndarray, new: np.ndarray, top: int) -> np.ndarray:
    """How many of the cells went from below k balls (``old``) to at least
    k (``new``), for k = 1..top."""
    moved = (np.bincount(np.minimum(new, top), minlength=top + 1)
             - np.bincount(np.minimum(old, top), minlength=top + 1))
    return np.cumsum(moved[:0:-1])[::-1]


def _fold_tail(ids: np.ndarray | None, counts: np.ndarray, top: int) -> np.ndarray:
    """How many cells reach at least k = 1..top balls at each stop, from
    the balls ``ids`` thrown in stop order, ``counts[s]`` of them at stop s
    (in any order within a stop), into cells that no other ball reaches;
    ids None when each ball has a cell of its own.

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


@dataclass(frozen=True)
class CoupledTrajectory:
    """Joint fixed-n / poissonized profile readings from one ball stream."""

    seed: int | tuple[int, ...]  # SeedSequence entropy; (master_seed, index) in studies
    positions: np.ndarray       # n_i
    K: np.ndarray               # P(n_i)
    k_max: int
    rstar_fixed: np.ndarray     # shape (m, k_max), column k-1 = at-least-k
    rstar_poisson: np.ndarray
    r_fixed: np.ndarray         # exactly-k rows
    r_poisson: np.ndarray

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


def run_coupled(d: CellDistribution, grid: CheckpointGrid, seed: int | tuple[int, ...],
                increments_fn: Callable[[CheckpointGrid, np.random.Generator], np.ndarray] | None = None,
                ) -> CoupledTrajectory:
    """Stream one trajectory, snapshotting the profile at {n_i} and {K_i}.

    The total number of draws is max(n_m, K_m).  Balls between two stops
    are i.i.d. and the profile depends only on per-cell counts, so each
    increment is drawn in count space (``draw_counts``: one multinomial
    over the first cells, cut where the increment's table mass runs out,
    the table cells beyond the cut, and the number of balls past the
    table); the state takes the table's balls.  After the last stop
    ``draw_tail`` splits every stop's balls past the table across runs of
    the dyadic ranges of cells (2^m, 2^(m+1)], m = 16..61, and the
    synthetic range past 2^62 by one multinomial, which keeps the law:
    given their numbers, the balls are i.i.d.  Then run by run it draws
    their ids for all stops at once, and ``_fold_tail`` turns them into
    what they add to each stop's row and drops them, so memory holds one
    run's ids, not all of them; the synthetic range's balls need no ids,
    each having a cell of its own.  The runs' rows, summed over the stops
    before each, are added to the state's.  ``increments_fn`` replaces the
    Poisson clock (a testing hook; e.g. forcing K_i = n_i makes both
    columns identical).
    """
    clock_rng, cell_rng = _trajectory_rng(seed)
    inc_fn = increments_fn if increments_fn is not None else poisson_increments
    K = np.asarray(inc_fn(grid, clock_rng), dtype=np.int64)
    positions = np.asarray(grid.positions, dtype=np.int64)
    schedule = np.unique(np.concatenate([positions, K]))
    state = OccupancyState(k_max=grid.k_max)
    n_tail = np.empty(schedule.size, dtype=np.int64)  # balls past the table per stop
    done = 0
    for i, stop in enumerate(schedule.tolist()):
        counts, ids, n_tail[i] = d.draw_counts(cell_rng, stop - done)
        state.add_counts(counts, ids)
        done = stop
        state.end_stop()
    tail = np.zeros((schedule.size, grid.k_max + 1), dtype=np.int64)
    given = np.zeros_like(n_tail)
    for ids, counts in d.draw_tail(cell_rng, n_tail):
        tail += _fold_tail(ids, counts, grid.k_max + 1)
        given += counts
        del ids  # not held while the next run is drawn
    if not np.array_equal(given, n_tail):
        raise RuntimeError("draw_tail's runs do not add up to each stop's balls past the table")
    rows = state.profile_rows() + np.cumsum(tail, axis=0)
    kmax = grid.k_max
    rsf = rows[np.searchsorted(schedule, positions)]
    rsp = rows[np.searchsorted(schedule, K)]
    return CoupledTrajectory(
        seed=seed,
        positions=positions,
        K=K,
        k_max=kmax,
        rstar_fixed=rsf[:, :kmax].copy(),    # not views that keep the k_max + 1 column
        rstar_poisson=rsp[:, :kmax].copy(),
        r_fixed=rsf[:, :kmax] - rsf[:, 1:kmax + 1],
        r_poisson=rsp[:, :kmax] - rsp[:, 1:kmax + 1],
    )
