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

# Increments of at least this many balls are drawn in count space.  One
# multinomial over the sampler table costs O(table), 2-4 ms, which per-ball
# draws match between 2^15 and 2^16 balls; of 2^14..2^17, this value gave
# the fastest trajectories on both the 1e3..1e6 and the 1e4..1e7 grids.
_COUNT_SPACE_MIN = 3 << 14


class OccupancyState:
    """Per-cell counts plus the at-least-k profile, k <= k_max.

    Counts of the sampler-table cells 1..table sit in a dense array; the
    rarer cells beyond it (synthetic ids included) in sorted parallel arrays
    of cell ids and counts.  Internally tracks k_max + 1 thresholds so rows
    of exactly-k counts are available up to k_max.
    """

    def __init__(self, k_max: int = 5):
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.k_max = k_max
        self._table = np.zeros(_TABLE_SIZE + 1, dtype=np.int64)  # indexed by cell id
        self._tail_ids = np.empty(0, dtype=np.int64)
        self._tail_counts = np.empty(0, dtype=np.int64)
        # rstar[k] for k = 1..k_max+1 at indices 1..k_max+1
        self._rstar = np.zeros(k_max + 2, dtype=np.int64)
        self.ball_count = 0

    def count_of(self, cell: int) -> int:
        if cell <= _TABLE_SIZE:
            return int(self._table[cell])
        i = int(np.searchsorted(self._tail_ids, cell))
        if i < self._tail_ids.size and self._tail_ids[i] == cell:
            return int(self._tail_counts[i])
        return 0

    def add_cells(self, cells: np.ndarray) -> None:
        """Throw one ball into each listed cell."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size and cells.min() < 1:
            raise ValueError("cell index must be >= 1")
        in_table = cells <= _TABLE_SIZE
        ids, mult = np.unique(cells[in_table], return_counts=True)
        self._add_table(ids, mult)
        ids, mult = np.unique(cells[~in_table], return_counts=True)
        self._add_tail(ids, mult)

    def add_table_counts(self, counts: np.ndarray) -> None:
        """Throw counts[j-1] balls into each table cell j = 1..table."""
        ids = np.flatnonzero(counts)
        self._add_table(ids + 1, counts[ids])

    def _add_table(self, ids: np.ndarray, mult: np.ndarray) -> None:
        old = self._table[ids]
        new = old + mult
        self._table[ids] = new
        self._bump(old, new)

    def _add_tail(self, ids: np.ndarray, mult: np.ndarray) -> None:
        """Merge sorted distinct ids with their multiplicities."""
        if not ids.size:
            return
        keys = self._tail_ids
        pos = np.searchsorted(keys, ids)
        found = (keys[np.minimum(pos, keys.size - 1)] == ids if keys.size
                 else np.zeros(ids.size, dtype=bool))
        old = np.zeros_like(mult)
        old[found] = self._tail_counts[pos[found]]
        new = old + mult
        self._tail_counts[pos[found]] = new[found]
        fresh = ~found
        self._tail_ids = np.insert(keys, pos[fresh], ids[fresh])
        self._tail_counts = np.insert(self._tail_counts, pos[fresh], mult[fresh])
        self._bump(old, new)

    def _bump(self, old: np.ndarray, new: np.ndarray) -> None:
        """Update the profile for cells whose counts went from old to new."""
        top = self.k_max + 1
        moved = (np.bincount(np.minimum(new, top), minlength=top + 1)
                 - np.bincount(np.minimum(old, top), minlength=top + 1))
        # cells with >= k balls gained: sum of moved[c] over c >= k
        self._rstar[1:] += np.cumsum(moved[:0:-1])[::-1]
        self.ball_count += int(new.sum() - old.sum())

    def rstar(self, k: int) -> int:
        """Number of cells holding at least k balls (k <= k_max + 1)."""
        if not (1 <= k <= self.k_max + 1):
            raise ValueError(f"k must be in 1..{self.k_max + 1}")
        return int(self._rstar[k])

    def _profile_row(self) -> np.ndarray:
        return self._rstar[1:self.k_max + 2].copy()


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
    are i.i.d. and the profile depends only on per-cell counts, so an
    increment of at least _COUNT_SPACE_MIN balls is drawn in count space
    (one multinomial over the sampler table, then the balls beyond it);
    smaller ones ball by ball.  ``increments_fn`` replaces the Poisson
    clock (a testing hook; e.g. forcing K_i = n_i makes both columns
    identical).
    """
    clock_rng, cell_rng = _trajectory_rng(seed)
    inc_fn = increments_fn if increments_fn is not None else poisson_increments
    K = np.asarray(inc_fn(grid, clock_rng), dtype=np.int64)
    positions = np.asarray(grid.positions, dtype=np.int64)
    schedule = np.unique(np.concatenate([positions, K]))
    state = OccupancyState(k_max=grid.k_max)
    snaps: dict[int, np.ndarray] = {}
    done = 0
    for stop in schedule.tolist():
        take = stop - done
        if take >= _COUNT_SPACE_MIN:
            table_counts, beyond = d.draw_counts(cell_rng, take)
            state.add_table_counts(table_counts)
            state.add_cells(beyond)
        elif take:
            state.add_cells(d.draw_cells(cell_rng, take))
        done = stop
        snaps[stop] = state._profile_row()
    kmax = grid.k_max
    rsf = np.stack([snaps[int(n)] for n in positions])
    rsp = np.stack([snaps[int(k)] for k in K])
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
