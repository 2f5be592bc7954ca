import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnsim import (
    CheckpointGrid,
    OccupancyState,
    exact_mean,
    exact_var,
    poisson_increments,
    run_coupled,
)
from urnsim import simulate
from urnsim.distributions import _SYNTHETIC_BASE, _TABLE_SIZE

# cells on both sides of the table boundary and synthetic ids beyond 2^62,
# few enough per region that blocks repeat cells and revisit stored ones
_CELLS = st.one_of(st.integers(min_value=1, max_value=40),
                   st.integers(min_value=_TABLE_SIZE - 5, max_value=_TABLE_SIZE + 30),
                   st.integers(min_value=_SYNTHETIC_BASE, max_value=_SYNTHETIC_BASE + 8))


def _one_at_a_time(cells, k_max=3) -> OccupancyState:
    state = OccupancyState(k_max=k_max)
    for c in cells:
        state.add_cells(np.array([c], dtype=np.int64))
    return state


def _rstar(state: OccupancyState) -> tuple[int, ...]:
    return tuple(state.rstar(k) for k in range(1, state.k_max + 1))


def _exactly(state: OccupancyState) -> tuple[int, ...]:
    return tuple(state.rstar(k) - state.rstar(k + 1) for k in range(1, state.k_max + 1))


class TestOccupancyState:
    def test_single_ball(self):
        state = _one_at_a_time([7])
        assert state.rstar(1) == 1 and state.rstar(2) == 0
        assert state.ball_count == 1

    def test_two_balls_same_cell(self):
        state = _one_at_a_time([4, 4])
        assert state.rstar(1) == 1 and state.rstar(2) == 1 and state.rstar(3) == 0

    def test_distinct_cells(self):
        state = _one_at_a_time(range(1, 26), k_max=2)
        assert state.rstar(1) == 25 and state.rstar(2) == 0

    def test_snapshot_example(self):
        state = _one_at_a_time([11, 11, 11, 29], k_max=2)
        assert _rstar(state) == (2, 1)
        # exactly-k rows follow r[k] = rstar[k] - rstar[k+1]: the 3-ball
        # cell is counted in rstar[2] and rstar[3], so exactly-2 is empty
        assert _exactly(state) == (1, 0)
        assert state.ball_count == 4

    def test_empty_snapshot(self):
        state = OccupancyState(k_max=4)
        assert _rstar(state) == (0, 0, 0, 0) and _exactly(state) == (0, 0, 0, 0)
        assert state.ball_count == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            OccupancyState(k_max=0)
        with pytest.raises(ValueError):
            OccupancyState(k_max=2).add_cells(np.array([0]))

    @given(blocks=st.lists(st.lists(_CELLS, max_size=60), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_block_equals_sequential(self, blocks):
        cells = [c for block in blocks for c in block]
        one = _one_at_a_time(cells)
        two = OccupancyState(k_max=3)
        # the count-space form run_coupled uses for large increments
        three = OccupancyState(k_max=3)
        for block in blocks:
            arr = np.asarray(block, dtype=np.int64)
            two.add_cells(arr)
            in_table = arr[arr <= _TABLE_SIZE]
            three.add_table_counts(np.bincount(in_table - 1, minlength=_TABLE_SIZE))
            three.add_cells(arr[arr > _TABLE_SIZE])
        rows = [(s.ball_count, _rstar(s), _exactly(s)) for s in (one, two, three)]
        assert rows[0] == rows[1] == rows[2]
        for c in set(cells):
            assert one.count_of(c) == two.count_of(c) == three.count_of(c)

    @given(cells=st.lists(_CELLS, min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_and_conservation(self, cells):
        state = OccupancyState(k_max=3)
        prev = np.array([state.rstar(k) for k in (1, 2, 3)])
        for c in cells:
            state.add_cells(np.array([c], dtype=np.int64))
            cur = np.array([state.rstar(k) for k in (1, 2, 3)])
            assert np.all((cur - prev) >= 0) and np.all((cur - prev) <= 1)
            prev = cur
        counts = [state.count_of(c) for c in set(cells)]
        assert sum(counts) == state.ball_count == len(cells)
        # exactly-k rows weighted by k recover the ball count (full histogram)
        hist = {}
        for c in set(cells):
            hist[state.count_of(c)] = hist.get(state.count_of(c), 0) + 1
        assert sum(k * v for k, v in hist.items()) == len(cells)
        for k in (1, 2, 3):
            assert state.rstar(k) == sum(v for c, v in hist.items() if c >= k)


class TestCheckpointGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointGrid(positions=())
        with pytest.raises(ValueError):
            CheckpointGrid(positions=(0, 5))
        with pytest.raises(ValueError):
            CheckpointGrid(positions=(5, 5))
        with pytest.raises(ValueError):
            CheckpointGrid(positions=(5,), k_max=0)

    def test_logspaced(self):
        grid = CheckpointGrid.logspaced(10, 10_000, 7)
        assert grid.positions[0] == 10 and grid.positions[-1] == 10_000
        assert all(b > a for a, b in zip(grid.positions, grid.positions[1:]))


class TestPoissonIncrements:
    def test_mean_scale(self, rng):
        grid = CheckpointGrid(positions=(1_000_000,))
        vals = np.array([poisson_increments(grid, rng)[0] for _ in range(10_000)])
        se = math.sqrt(1e6 / 10_000)
        assert abs(vals.mean() - 1e6) < 4 * se

    def test_disjoint_independence(self, rng):
        grid = CheckpointGrid(positions=(10_000, 20_000))
        a = np.empty(10_000)
        b = np.empty(10_000)
        for i in range(10_000):
            k = poisson_increments(grid, rng)
            a[i] = k[0]
            b[i] = k[1] - k[0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_reproducible(self):
        grid = CheckpointGrid(positions=(100, 1000, 10_000))
        k1 = poisson_increments(grid, np.random.default_rng(11))
        k2 = poisson_increments(grid, np.random.default_rng(11))
        assert np.array_equal(k1, k2)

    def test_nondecreasing(self, rng):
        grid = CheckpointGrid(positions=(10, 100, 1000, 10_000))
        k = poisson_increments(grid, rng)
        assert np.all(np.diff(k) >= 0)


class TestRunCoupled:
    def test_single_ball_grid(self, zipf2):
        traj = run_coupled(zipf2, CheckpointGrid(positions=(1,), k_max=2), seed=3)
        assert traj.rstar_fixed[0, 0] == 1
        assert traj.r_fixed[0, 0] == 1

    def test_coupling_bound(self, zipf2):
        grid = CheckpointGrid.logspaced(100, 10_000, 6, k_max=4)
        for seed in range(30):
            traj = run_coupled(zipf2, grid, seed=(77, seed))
            assert traj.coupling_violations() == 0

    def test_profiles_monotone(self, zipf2):
        grid = CheckpointGrid.logspaced(10, 10_000, 8, k_max=3)
        traj = run_coupled(zipf2, grid, seed=5)
        for col in (traj.rstar_fixed, traj.rstar_poisson):
            assert np.all(np.diff(col, axis=0) >= 0)       # monotone in n
            assert np.all(np.diff(col, axis=1) <= 0)       # nonincreasing in k
        assert np.all(traj.r_fixed >= 0) and np.all(traj.r_poisson >= 0)

    def test_deterministic(self, zipf2):
        grid = CheckpointGrid.logspaced(10, 3_000, 5, k_max=3)
        t1 = run_coupled(zipf2, grid, seed=(42, 0))
        t2 = run_coupled(zipf2, grid, seed=(42, 0))
        assert np.array_equal(t1.K, t2.K)
        assert np.array_equal(t1.rstar_fixed, t2.rstar_fixed)
        assert np.array_equal(t1.rstar_poisson, t2.rstar_poisson)
        t3 = run_coupled(zipf2, grid, seed=(42, 1))
        assert not np.array_equal(t1.K, t3.K)

    def test_forced_equal_clock_hook(self, zipf2):
        grid = CheckpointGrid.logspaced(10, 3_000, 5, k_max=3)
        forced = lambda g, rng: np.asarray(g.positions, dtype=np.int64)
        traj = run_coupled(zipf2, grid, seed=9, increments_fn=forced)
        assert np.array_equal(traj.positions, traj.K)
        assert np.array_equal(traj.rstar_fixed, traj.rstar_poisson)
        assert traj.gap().max() == 0

    @pytest.mark.slow
    def test_poissonized_law_matches_exact_series(self, zipf2):
        # splitting-property check: the poissonized column's mean must match
        # the exact series within Monte Carlo error.
        n = 10_000
        grid = CheckpointGrid(positions=(n,), k_max=2)
        vals = np.empty((400, 2))
        for i in range(vals.shape[0]):
            traj = run_coupled(zipf2, grid, seed=(1234, i))
            vals[i] = traj.rstar_poisson[0]
        for kk in (1, 2):
            m, _ = exact_mean(zipf2, float(n), kk, star=True)
            v, _ = exact_var(zipf2, float(n), kk, star=True)
            z = (vals[:, kk - 1].mean() - m) / math.sqrt(v / vals.shape[0])
            assert abs(z) < 4.0

    @pytest.mark.slow
    def test_theta_one_log_law_matches_exact_series(self, theta_one_log):
        # splitting-property check through the count-space path: the first
        # increment (about n balls) is one multinomial over the sampler table
        # plus rejection-inversion draws beyond it.  Poissonized-column mean
        # and variance of R*_1, R*_2 against the exact series.
        n = 300_000
        assert 2 * simulate._COUNT_SPACE_MIN < n
        grid = CheckpointGrid(positions=(n,), k_max=2)
        vals = np.empty((300, 2))
        for i in range(vals.shape[0]):
            vals[i] = run_coupled(theta_one_log, grid, seed=(2718, i)).rstar_poisson[0]
        for kk in (1, 2):
            sample = vals[:, kk - 1]
            m, _ = exact_mean(theta_one_log, float(n), kk, star=True)
            v, _ = exact_var(theta_one_log, float(n), kk, star=True)
            z_mean = (sample.mean() - m) / math.sqrt(v / sample.size)
            centered = sample - sample.mean()
            m2 = float((centered ** 2).mean())
            m4 = float((centered ** 4).mean())
            se_var = math.sqrt(max(m4 - m2 * m2 * (sample.size - 3) / (sample.size - 1),
                                   0.0) / sample.size)
            z_var = (sample.var(ddof=1) - v) / se_var
            assert abs(z_mean) < 4.0 and abs(z_var) < 4.0, (kk, z_mean, z_var)

    def test_geometric_trajectory(self, geometric_half):
        grid = CheckpointGrid.logspaced(16, 5_000, 5, k_max=3)
        traj = run_coupled(geometric_half, grid, seed=1)
        assert traj.coupling_violations() == 0
        # occupied cells grow like log2(n)
        assert 8 <= traj.rstar_fixed[-1, 0] <= 30
