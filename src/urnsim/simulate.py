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
    profile is updated at every add.  The rarer balls past the table
    (synthetic ids included) are only kept, as ids in stop order and a
    number per stop; ``profile_rows`` folds all of them in one pass.  Their
    ids may follow their numbers (``add_counts``, then ``add_tail``).
    Internally tracks k_max + 1 thresholds so rows of exactly-k counts are
    available up to k_max.
    """

    def __init__(self, k_max: int = 5):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.k_max = k_max
        self._table = np.zeros(_TABLE_SIZE + 1, dtype=np.int64)  # indexed by cell id
        # table part of rstar[k] for k = 1..k_max+1 at indices 1..k_max+1
        self._rstar = np.zeros(k_max + 2, dtype=np.int64)
        self._table_rows: list[np.ndarray] = []  # table part after each ended stop
        self._tail: list[np.ndarray] = []        # ids past the table, in stop order
        self._n_tail = [0]                       # their number per stop, open stop last
        self._pending = 0                        # of those, balls whose ids are to come
        self.ball_count = 0

    def add_cells(self, cells: np.ndarray) -> None:
        """Throw one ball into each listed cell."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and cells.min() < 1:
            raise ValueError("cell index must be >= 1")
        in_table = cells <= _TABLE_SIZE
        self.add_counts(_NO_CELLS, cells[in_table], cells.size - int(in_table.sum()))
        self.add_tail(cells[~in_table])

    def add_counts(self, counts: np.ndarray, ids: np.ndarray = _NO_CELLS,
                   n_tail: int = 0) -> None:
        """Throw counts[j-1] balls into each cell j = 1..counts.size, one
        into each table cell listed in ``ids`` (all beyond counts.size) and
        ``n_tail`` balls past the table, whose ids ``add_tail`` gives later."""
        self._add_table(counts, ids)
        self._n_tail[-1] += n_tail
        self._pending += n_tail
        self.ball_count += int(counts.sum()) + ids.size + n_tail

    def add_tail(self, ids: np.ndarray) -> None:
        """The ids of all the balls past the table that ``add_counts`` has
        given only by number, in stop order."""
        if ids.size != self._pending:
            raise ValueError(f"expected {self._pending} ids past the table, got {ids.size}")
        self._tail.append(ids)
        self._pending = 0

    def _add_table(self, counts: np.ndarray, ids: np.ndarray) -> None:
        # cells 1..J as a slice, then the cells listed in ids (beyond J)
        cells, mult = np.unique(ids, return_counts=True)
        J = counts.size
        old = np.concatenate([self._table[1:J + 1], self._table[cells]])
        new = old + np.concatenate([counts, mult])
        self._table[1:J + 1] = new[:J]
        self._table[cells] = new[J:]
        self._rstar[1:] += _gained(old, new, self.k_max + 1)

    def end_stop(self) -> None:
        """Close the current stop; later balls belong to the next one."""
        self._table_rows.append(self._rstar[1:].copy())
        self._n_tail.append(0)

    def profile_rows(self) -> np.ndarray:
        """At-least-k counts, k = 1..k_max+1, after each ended stop (one row
        per stop)."""
        if self._pending:
            raise ValueError(f"{self._pending} ids past the table are still to come")
        n = len(self._table_rows)
        table = np.array(self._table_rows, dtype=np.int64).reshape(n, self.k_max + 1)
        tail = self._tail[0] if len(self._tail) == 1 else np.concatenate(
            [_NO_CELLS, *self._tail])
        return table + _fold_tail(tail, self._n_tail[:n], self.k_max + 1)


def _gained(old: np.ndarray, new: np.ndarray, top: int) -> np.ndarray:
    """How many of the cells went from below k balls (``old``) to at least
    k (``new``), for k = 1..top."""
    moved = (np.bincount(np.minimum(new, top), minlength=top + 1)
             - np.bincount(np.minimum(old, top), minlength=top + 1))
    return np.cumsum(moved[:0:-1])[::-1]


def _fold_tail(tail: np.ndarray, n_tail: list[int], top: int) -> np.ndarray:
    """Cells holding at least k = 1..top balls after each stop, from the
    ball ids ``tail`` thrown in stop order, ``n_tail[s]`` of them at stop s
    (in any order within a stop; ids after the last stop are ignored).

    The repeated ids come from one sorted copy; a ball whose id is not among
    them is a single of its stop.  The repeated cells keep a count, indexed
    by rank among the repeated ids and updated stop by stop as the table
    is.  Only the ids whose low bits equal a repeated id's are sorted and
    ranked: with more than 8 slots of low bits per repeated id, about 1/8
    of the singles or fewer get through.
    """
    reached = np.zeros((len(n_tail), top), dtype=np.int64)
    reached[:, 0] = n_tail  # every ball a single of its stop, bar the repeats
    ends = np.cumsum(n_tail, dtype=np.int64)
    d = np.sort(tail[:ends[-1]] if len(n_tail) else _NO_CELLS)
    rep = d[1:][d[1:] == d[:-1]]
    del d
    if rep.size:
        rep = rep[np.r_[True, rep[1:] != rep[:-1]]]
        mask = (1 << (8 * rep.size).bit_length()) - 1
        marked = np.zeros(mask + 1, dtype=bool)
        marked[rep & mask] = True
        seen = np.zeros(rep.size, dtype=np.int64)  # balls so far per repeated cell
        for stop, (lo, hi) in enumerate(zip(ends - n_tail, ends)):
            part = tail[lo:hi]
            part = np.sort(part[marked[part & mask]])
            rank = np.searchsorted(rep, part)
            rank = rank[rep[np.minimum(rank, rep.size - 1)] == part]
            cells, mult = np.unique(rank, return_counts=True)
            old = seen[cells]
            seen[cells] = new = old + mult
            reached[stop] += _gained(old, new, top)
            reached[stop, 0] -= rank.size
    return np.cumsum(reached, axis=0)


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
    table).  The ids of all balls past the table are drawn once after the
    last stop and handed to the stops in order, which keeps the law: given
    their numbers, they are i.i.d.  ``increments_fn`` replaces the Poisson
    clock (a testing hook; e.g. forcing K_i = n_i makes both columns
    identical).
    """
    clock_rng, cell_rng = _trajectory_rng(seed)
    inc_fn = increments_fn if increments_fn is not None else poisson_increments
    K = np.asarray(inc_fn(grid, clock_rng), dtype=np.int64)
    positions = np.asarray(grid.positions, dtype=np.int64)
    schedule = np.unique(np.concatenate([positions, K]))
    state = OccupancyState(k_max=grid.k_max)
    done = 0
    for stop in schedule.tolist():
        state.add_counts(*d.draw_counts(cell_rng, stop - done))
        done = stop
        state.end_stop()
    state.add_tail(d.draw_tail(cell_rng, state._pending))
    rows = state.profile_rows()
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
