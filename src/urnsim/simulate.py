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


class OccupancyState:
    """Per-cell counts and the at-least-k profile, k <= k_max, stop by stop.

    Counts of the sampler-table cells 1..table sit in a dense array whose
    profile is updated at every add.  The rarer balls beyond the table
    (synthetic ids included) are only kept, sorted, with the index of their
    stop; ``profile_rows`` folds all of them in one pass.  Internally tracks
    k_max + 1 thresholds so rows of exactly-k counts are available up to k_max.
    """

    def __init__(self, k_max: int = 5):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.k_max = k_max
        self._table = np.zeros(_TABLE_SIZE + 1, dtype=np.int64)  # indexed by cell id
        # table part of rstar[k] for k = 1..k_max+1 at indices 1..k_max+1
        self._rstar = np.zeros(k_max + 2, dtype=np.int64)
        self._table_rows: list[np.ndarray] = []  # table part after each ended stop
        self._tail: list[np.ndarray] = []        # sorted tail ids of each add
        self._tail_stop: list[int] = []          # and the stop they belong to
        self.ball_count = 0

    def add_cells(self, cells: np.ndarray) -> None:
        """Throw one ball into each listed cell."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and cells.min() < 1:
            raise ValueError("cell index must be >= 1")
        in_table = cells <= _TABLE_SIZE
        ids, mult = np.unique(cells[in_table], return_counts=True)
        self._add_table(ids, mult)
        tail = np.sort(cells[~in_table])
        if tail.size:
            self._tail.append(tail)
            self._tail_stop.append(len(self._table_rows))
        self.ball_count += cells.size

    def add_table_counts(self, counts: np.ndarray) -> None:
        """Throw counts[j-1] balls into each cell j = 1..counts.size (at most
        the table)."""
        ids = np.flatnonzero(counts)
        self._add_table(ids + 1, counts[ids])
        self.ball_count += int(counts.sum())

    def _add_table(self, ids: np.ndarray, mult: np.ndarray) -> None:
        old = self._table[ids]
        new = old + mult
        self._table[ids] = new
        top = self.k_max + 1
        moved = (np.bincount(np.minimum(new, top), minlength=top + 1)
                 - np.bincount(np.minimum(old, top), minlength=top + 1))
        # cells with >= k balls gained: sum of moved[c] over c >= k
        self._rstar[1:] += np.cumsum(moved[:0:-1])[::-1]

    def end_stop(self) -> None:
        """Close the current stop; later balls belong to the next one."""
        self._table_rows.append(self._rstar[1:].copy())

    def profile_rows(self) -> np.ndarray:
        """At-least-k counts, k = 1..k_max+1, after each ended stop (one row
        per stop)."""
        n = len(self._table_rows)
        table = np.array(self._table_rows, dtype=np.int64).reshape(n, self.k_max + 1)
        return table + _fold_tail(self._tail, self._tail_stop, n + 1, self.k_max + 1)[:n]

    def rstar(self, k: int) -> int:
        """Number of cells holding at least k balls (k <= k_max + 1)."""
        if not (1 <= k <= self.k_max + 1):
            raise ValueError(f"k must be in 1..{self.k_max + 1}")
        tail = _fold_tail(self._tail, [0] * len(self._tail), 1, self.k_max + 1)
        return int(self._rstar[k] + tail[0, k - 1])


def _fold_tail(parts: list[np.ndarray], stops: list[int], n_stops: int,
               top: int) -> np.ndarray:
    """Cells holding at least k = 1..top balls after each stop 0..n_stops-1,
    from the ball ids ``parts[i]`` thrown at stop ``stops[i]`` (nondecreasing).

    A cell reaches k balls exactly once, with its k-th ball, so row s counts
    the balls thrown up to stop s that were the k-th of their cell.  Cells
    hit once are counted by stop alone.  The balls of repeated cells are
    sorted by (rank of the cell among the repeated ids) << b | stop and
    numbered within their cell; ranks, unlike ids, always leave room for
    the b stop bits.
    """
    reached = np.zeros((n_stops, top + 2), dtype=np.int64)  # columns: 0, 1..top, > top
    every = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    every.sort()
    rep = np.unique(every[1:][every[1:] == every[:-1]])
    del every
    b = (n_stops - 1).bit_length()
    packed = []
    for part, stop in zip(parts, stops):
        if rep.size:
            rank = np.searchsorted(rep, part)
            hit = rep[np.minimum(rank, rep.size - 1)] == part
            packed.append((rank[hit] << b) | stop)
            reached[stop, 1] += part.size - packed[-1].size
        else:
            reached[stop, 1] += part.size
    if packed:
        keys = np.sort(np.concatenate(packed))
        cell = keys >> b
        idx = np.arange(keys.size)
        first = np.maximum.accumulate(
            np.where(np.concatenate(([True], cell[1:] != cell[:-1])), idx, 0))
        nth = np.minimum(idx - first + 1, top + 1)
        reached += np.bincount((keys & ((1 << b) - 1)) * (top + 2) + nth,
                               minlength=reached.size).reshape(reached.shape)
    return np.cumsum(reached[:, 1:top + 1], axis=0)


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
    increment is drawn in count space (one multinomial over the first cells,
    cut where the increment's mass runs out, then the balls beyond the cut).
    ``increments_fn`` replaces the Poisson clock (a testing hook; e.g.
    forcing K_i = n_i makes both columns identical).
    """
    clock_rng, cell_rng = _trajectory_rng(seed)
    inc_fn = increments_fn if increments_fn is not None else poisson_increments
    K = np.asarray(inc_fn(grid, clock_rng), dtype=np.int64)
    positions = np.asarray(grid.positions, dtype=np.int64)
    schedule = np.unique(np.concatenate([positions, K]))
    state = OccupancyState(k_max=grid.k_max)
    done = 0
    for stop in schedule.tolist():
        counts, beyond = d.draw_counts(cell_rng, stop - done)
        state.add_table_counts(counts)
        state.add_cells(beyond)
        done = stop
        state.end_stop()
    rows = state.profile_rows()
    kmax = grid.k_max
    rsf = rows[np.searchsorted(schedule, positions)]
    rsp = rows[np.searchsorted(schedule, K)]
    return CoupledTrajectory(
        seed=seed,
        positions=positions,
        K=K,
        k_max=kmax,
        rstar_fixed=rsf[:, :kmax],
        rstar_poisson=rsp[:, :kmax],
        r_fixed=rsf[:, :kmax] - rsf[:, 1:kmax + 1],
        r_poisson=rsp[:, :kmax] - rsp[:, 1:kmax + 1],
    )
