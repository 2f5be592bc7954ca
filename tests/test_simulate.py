import bisect
import copy
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnsim import (
    CheckpointGrid,
    DistributionSpec,
    build_distribution,
    exact_mean,
    exact_var,
    poisson_increments,
    run_coupled,
)
from urnsim import simulate
from urnsim.distributions import (_DENSE, _RANGE_EDGES, _SYNTHETIC_BASE, _TABLE_SIZE,
                                  CellDistribution)
from urnsim.simulate import OccupancyState, _fold_tail

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


def _row(state: OccupancyState) -> list[int]:
    """At-least-k counts, k = 1..k_max+1, of every ball thrown so far: the
    last profile row once the open stop is closed."""
    state.end_stop()
    return state.profile_rows()[-1].tolist()


def _rstar(state: OccupancyState) -> tuple[int, ...]:
    return tuple(_row(state)[:-1])


def _exactly(state: OccupancyState) -> tuple[int, ...]:
    row = _row(state)
    return tuple(a - b for a, b in zip(row, row[1:]))


class TestOccupancyState:
    def test_single_ball(self):
        state = _one_at_a_time([7])
        assert _row(state)[:2] == [1, 0]
        assert state.ball_count == 1

    def test_two_balls_same_cell(self):
        state = _one_at_a_time([4, 4])
        assert _row(state)[:3] == [1, 1, 0]

    def test_distinct_cells(self):
        state = _one_at_a_time(range(1, 26), k_max=2)
        assert _row(state)[:2] == [25, 0]

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
        # a run's ids are one per ball it counts
        with pytest.raises(ValueError):
            _fold_tail(np.array([_TABLE_SIZE + 1] * 3), np.array([1, 1]), 3)
        assert _fold_tail(None, np.array([2, 0]), 3).tolist() == [[2, 0, 0], [0, 0, 0]]

    @given(blocks=st.lists(st.lists(_CELLS, max_size=60), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_block_equals_sequential(self, blocks):
        cells = [c for block in blocks for c in block]
        one = _one_at_a_time(cells)
        two = OccupancyState(k_max=3)
        # the count-space form: counts of the cells up to a cut (inside the
        # table or the whole of it), then the ids beyond it
        three = OccupancyState(k_max=3)
        for i, block in enumerate(blocks):
            arr = np.asarray(block, dtype=np.int64)
            two.add_cells(arr)
            cut = (32, _TABLE_SIZE)[i % 2]
            three.add_counts(np.bincount(arr[arr <= cut] - 1, minlength=cut))
            three.add_cells(arr[arr > cut])
        rows = [(s.ball_count, _rstar(s), _exactly(s)) for s in (one, two, three)]
        assert rows[0] == rows[1] == rows[2]
        counts = Counter(cells)
        assert rows[0][1] == tuple(sum(v >= k for v in counts.values()) for k in (1, 2, 3))

    @given(cells=st.lists(_CELLS, min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_and_conservation(self, cells):
        state = OccupancyState(k_max=3)
        for c in cells:
            state.add_cells(np.array([c], dtype=np.int64))
            state.end_stop()
        rows = state.profile_rows()[:, :3]
        step = np.diff(rows, axis=0, prepend=0)
        assert np.all(step >= 0) and np.all(step <= 1)
        counts = Counter(cells)
        assert sum(counts.values()) == state.ball_count == len(cells)
        # exactly-k rows weighted by k recover the ball count (full histogram)
        hist = Counter(counts.values())
        assert sum(k * v for k, v in hist.items()) == len(cells)
        for k in (1, 2, 3):
            assert rows[-1, k - 1] == sum(v for c, v in hist.items() if c >= k)


def _var_z(sample: np.ndarray, v: float) -> float:
    """z of the sample variance against v, by the sample's fourth moment."""
    centered = sample - sample.mean()
    m2 = float((centered ** 2).mean())
    m4 = float((centered ** 4).mean())
    se_var = math.sqrt(max(m4 - m2 * m2 * (sample.size - 3) / (sample.size - 1),
                           0.0) / sample.size)
    return (sample.var(ddof=1) - v) / se_var


def _law_matches_exact_series(d, n: int, trajectories: int, seed: int) -> None:
    """Mean and variance z-tests of the poissonized column's R*_1, R*_2 at
    one checkpoint n, over seeds (seed, i), against the exact series."""
    grid = CheckpointGrid(positions=(n,), k_max=2)
    vals = np.empty((trajectories, 2))
    for i in range(trajectories):
        vals[i] = run_coupled(d, grid, seed=(seed, i)).rstar_poisson[0]
    for kk in (1, 2):
        sample = vals[:, kk - 1]
        m, _ = exact_mean(d, float(n), kk, star=True)
        v, _ = exact_var(d, float(n), kk, star=True)
        z_mean = (sample.mean() - m) / math.sqrt(v / sample.size)
        z_var = _var_z(sample, v)
        assert abs(z_mean) < 4.0 and abs(z_var) < 4.0, (kk, z_mean, z_var)


def _merge_rows(stops, k_max):
    """Per-stop at-least-k rows, k = 1..k_max+1, by merging each stop's
    cells into running per-cell counts."""
    counts: Counter = Counter()
    rows = []
    for cells in stops:
        counts.update(cells)
        rows.append([sum(v >= k for v in counts.values()) for k in range(1, k_max + 2)])
    return np.array(rows, dtype=np.int64).reshape(len(stops), k_max + 1)


def _expand_trajectory(d, grid, seed):
    """One trajectory by a scalar expansion of run_coupled's stream: K, the
    stops, their at-least-k rows (k = 1..k_max+1) from per-cell counts, and
    what the stream reached (the cut J, the runs and synthetic balls past the
    table, the balls inverted into the table past J).

    It draws the same numbers in the same order.  Per cell j <= J its
    arrival times up to the horizon, one column at a time; the intensities
    of Y cell by cell; the bisection bracket by bracket, level by level,
    each level's Y bridges before its E bridges and its left children
    before its right ones; the hypergeometric draws stop by stop within
    each final bracket, the brackets in the order they finished; then the
    balls past J by draw_past's runs, in run_coupled's form: a ball alone in
    its cell past the table comes as a count, as the synthetic ones do, and
    takes a cell of its own here.  A copy of the generator draws the same
    runs in the form that places every ball; its per-stop split comes before
    any part, so its ids-None runs count the synthetic balls alone.
    """
    clock_rng, rng = simulate._trajectory_rng(seed)
    K = poisson_increments(grid, clock_rng)
    stops = sorted(set(grid.positions) | set(K.tolist()))
    n, top = stops[-1], grid.k_max + 1
    J = d._cut(n)
    p, rate = d.probs_prefix(J).tolist(), d._mass_past(J)
    horizon = n + 8.0 * (math.sqrt(n) + 8.0)
    arrivals = [[] for _ in range(J)]
    active = list(range(J))
    for _ in range(top):
        steps = rng.standard_exponential(len(active))
        going = []
        for cell, step in zip(active, steps):
            t = (arrivals[cell][-1] if arrivals[cell] else 0.0) + step / p[cell]
            if t <= horizon:
                arrivals[cell].append(t)
                going.append(cell)
        active = going
    firsts = [-math.inf] + sorted(t for times in arrivals for t in times) + [math.inf]
    tops = sorted((times[-1], p[cell]) for cell, times in enumerate(arrivals)
                  if len(times) == top)
    top_times = [t for t, _ in tops]
    after = list(itertools.accumulate((r for _, r in tops), initial=0.0))

    def y_mass(lo, hi):
        # Y's intensity integrated over (lo, hi), term by term in time order
        first, last = bisect.bisect_right(top_times, lo), bisect.bisect_right(top_times, hi)
        own = 0.0
        for t, r in tops[first:last]:
            own += r * (hi - t)
        return after[first] * (hi - lo) + own

    F = len(firsts) - 2
    Y, E = int(rng.poisson(y_mass(0.0, horizon))), int(rng.poisson(rate * horizon))
    assert F + Y + E >= n  # no second horizon
    # a bracket: lo, hi, a, b, Y(a), Y(b), E(a), E(b) and its stops
    brackets, finished = [(0, F + 1, 0.0, horizon, 0, Y, 0, E, stops)], []
    final = lambda br: br[1] - br[0] == 1 and max(br[5] - br[4], br[7] - br[6]) < 10 ** 9
    while brackets:
        finished += [br for br in brackets if final(br)]
        brackets = [br for br in brackets if not final(br)]
        at = []
        for lo, hi, a, b, ya, yb, ea, eb, held in brackets:
            mid = (lo + hi) // 2 if hi - lo > 1 else hi
            m = firsts[mid] if hi - lo > 1 else (a + b) / 2.0
            y1, y2 = y_mass(a, m), y_mass(m, b)
            share = y1 / (y1 + y2) if y1 + y2 > 0 else 0.0
            at.append((mid, m, ya + int(rng.binomial(yb - ya, share))))
        lefts, rights = [], []
        for (lo, hi, a, b, ya, yb, ea, eb, held), (mid, m, ym) in zip(brackets, at):
            em = ea + int(rng.binomial(eb - ea, (m - a) / (b - a)))
            before = mid - 1 + ym + em  # N(m-)
            inner = hi - lo > 1
            lefts.append((lo, mid if inner else hi, a, m, ya, ym, ea, em,
                          [s for s in held if s <= before]))
            rights.append((mid if inner else lo, hi, m, b, ym, yb, em, eb,
                           [s for s in held if s > before]))
        brackets = [br for br in lefts + rights if br[8]]
    rank, past = {}, {}
    state = [[0, 0] for _ in finished]  # per bracket: balls dealt, E among them
    for j in range(max(len(br[8]) for br in finished)):
        for (lo, hi, a, b, ya, yb, ea, eb, held), dealt in zip(finished, state):
            if len(held) > j:
                d_s = held[j] - (lo + ya + ea)
                x = int(rng.hypergeometric(eb - ea - dealt[1], yb - ya - dealt[0] + dealt[1],
                                           d_s - dealt[0]))
                dealt[0], dealt[1] = d_s, dealt[1] + x
                rank[held[j]], past[held[j]] = lo, ea + dealt[1]
    # each stop's cells: the first arrivals since the last stop, then the
    # balls past J in stop order
    ends = [firsts[rank[s]] for s in stops]
    cells = [[] for _ in stops]
    for cell, times in enumerate(arrivals):
        for t in times:
            if t <= ends[-1]:
                cells[bisect.bisect_left(ends, t)].append(cell + 1)
    m = np.diff([0] + [past[s] for s in stops])
    placed = list(d.draw_past(copy.deepcopy(rng), J, m))[1:]
    (ids, counts), *past_table = d.draw_past(rng, J, m, alone=True)
    seen = Counter(J=J, inverted=ids.size, runs=len(past_table),
                   parts=sum(ids is not None for ids, _ in placed),
                   synthetic=sum(int(c.sum()) for ids, c in placed if ids is None))
    runs = [(ids, counts)]
    for ids, counts in past_table:
        if ids is None:
            ids = -1 - seen["alone"] - np.arange(counts.sum())
            seen["alone"] += int(counts.sum())
        else:
            seen["drawn"] += ids.size
            seen["repeats"] += ids.size - np.unique(ids).size
        runs.append((ids, counts))
    for ids, counts in runs:
        for stop_cells, lo, hi in zip(cells, np.cumsum(counts) - counts, np.cumsum(counts)):
            stop_cells += ids[lo:hi].tolist()
    return K, np.array(stops), _merge_rows(cells, grid.k_max), seen


def _matched_digest(d, grid, seed=(2024, 7)):
    """The sha256 of run_coupled's (K, rstar_fixed, rstar_poisson) once its
    rows match _expand_trajectory's, and what the expansion's stream reached."""
    tr = run_coupled(d, grid, seed=seed)
    K, schedule, rows, seen = _expand_trajectory(d, grid, seed)
    assert np.array_equal(K, tr.K)
    for at, got in ((tr.positions, tr.rstar_fixed), (tr.K, tr.rstar_poisson)):
        assert np.array_equal(rows[np.searchsorted(schedule, at), :3], got)
    text = repr((tr.K.tolist(), tr.rstar_fixed.tolist(), tr.rstar_poisson.tolist()))
    return hashlib.sha256(text.encode()).hexdigest(), seen


# tail ids where the fold's ranks and packing could go wrong: next to the
# table boundary, at 2^57, and synthetic ids (one of them often repeated)
_TAIL_CELLS = st.one_of(st.integers(min_value=_TABLE_SIZE - 1, max_value=_TABLE_SIZE + 1),
                        st.integers(min_value=(1 << 57) - 1, max_value=(1 << 57) + 1),
                        st.sampled_from([_SYNTHETIC_BASE, _SYNTHETIC_BASE + 3,
                                         (1 << 63) - 1]),
                        st.integers(min_value=1, max_value=6))


# more than 64 stops, an empty one, a repeated synthetic id
_LONG_RUN = ([[_SYNTHETIC_BASE, 7], [], [_TABLE_SIZE + 1] * 3]
             + [[(1 << 57) + s % 2] for s in range(70)] + [[_SYNTHETIC_BASE]])


class TestTailFold:
    @given(stops=st.lists(st.lists(_TAIL_CELLS, max_size=12), min_size=1, max_size=80),
           k_max=st.sampled_from([1, 5]), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(stops=_LONG_RUN, k_max=1, seed=0)
    @example(stops=_LONG_RUN, k_max=5, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_fold_equals_per_stop_merge(self, stops, k_max, seed):
        # each stop's balls in a random order, thrown two ways: split into a
        # ball-by-ball add and a count-space add cut at cell 4; and the
        # table cells by count and by id into the state, then, as
        # run_coupled folds its runs, the balls past the table, after the
        # last stop, one range of cells at a time, each folded into what it
        # adds to every stop's row and those rows summed over the stops
        # before each
        rng = np.random.default_rng(seed)
        state, later = OccupancyState(k_max=k_max), OccupancyState(k_max=k_max)
        tail = []
        for cells in stops:
            arr = rng.permutation(np.asarray(cells, dtype=np.int64))
            state.add_cells(arr[::2])
            rest = arr[1::2]
            state.add_counts(np.bincount(rest[rest <= 4] - 1, minlength=4))
            state.add_cells(rest[rest > 4])
            state.end_stop()
            past = arr > _TABLE_SIZE
            later.add_counts(np.bincount(arr[arr <= 4] - 1, minlength=4), arr[(arr > 4) & ~past])
            later.end_stop()
            tail.append(arr[past])
        by_range = [np.searchsorted(_RANGE_EDGES, ids) for ids in tail]
        folded = np.zeros((len(stops), k_max + 1), dtype=np.int64)
        for r in np.unique(np.concatenate(by_range)):
            folded += _fold_tail(np.concatenate([ids[at == r] for ids, at in zip(tail, by_range)]),
                                 np.array([(at == r).sum() for at in by_range]), k_max + 1)
        expect = _merge_rows(stops, k_max)
        assert np.array_equal(state.profile_rows(), expect)
        assert np.array_equal(later.profile_rows() + np.cumsum(folded, axis=0), expect)
        assert later.ball_count + sum(map(len, tail)) == sum(map(len, stops))
        # an open stop is not in the rows; closing it adds the current state
        state.add_cells(np.asarray(stops[0], dtype=np.int64))
        assert np.array_equal(state.profile_rows(), expect)
        now = _merge_rows([sum(stops, []) + stops[0]], k_max)[0]
        assert _row(state) == now.tolist()
        assert state.ball_count == sum(map(len, stops)) + len(stops[0])

    def test_no_stops(self):
        assert OccupancyState(k_max=3).profile_rows().shape == (0, 4)


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
        # splitting-property check through the Poisson-time path: the cells
        # 1..2^13 by their arrival times, about 4,000 balls in the table
        # cells beyond them and 17,000 past the table.  Poissonized-column
        # mean and variance of R*_1, R*_2 against the exact series.
        assert theta_one_log._cut(300_000) == 1 << 13
        _law_matches_exact_series(theta_one_log, 300_000, 300, 2718)

    @pytest.mark.slow
    @pytest.mark.parametrize("spec,n", [
        (DistributionSpec(family="zipf", s=2.0), 10 ** 9),
        (DistributionSpec(family="zipf_log", s=2.0, a=1.0), 2 * 10 ** 10),
        (DistributionSpec(family="geometric", q=0.9999), 10 ** 6),
    ], ids=["zipf", "zipf_log", "geometric"])
    def test_count_space_law_matches_exact_series(self, spec, n):
        # the same check for the other families; the cells followed by their
        # arrival times are 1..2^15 (zipf) or the whole table
        _law_matches_exact_series(build_distribution(spec), n, 300, 3141)

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", [
        DistributionSpec(family="zipf", s=2.0),
        DistributionSpec(family="theta_one_log"),
        DistributionSpec(family="zipf_log", s=1.5, a=1.0),
        DistributionSpec(family="geometric", q=0.9999),
    ], ids=["zipf", "theta_one_log", "zipf_log", "geometric"])
    def test_last_checkpoint_law(self, spec):
        # both columns at the last checkpoint n = 1e5 of a five-point grid,
        # over 300 seeds, for k = 1..3: the fixed-n column's mean against the
        # binomial exact mean (z by its sample variance); the poissonized
        # column's mean and variance against the Poisson exact mean and
        # exact_var.  The cells followed by their arrival times are 1..512
        # (zipf), 1..4096 (theta_one_log), 1..1024 (zipf_log) and 1..32768
        # (geometric), so every path past them is drawn too.  Power: |z| < 4
        # over 300 seeds flags a mean off by 4 / sqrt(300) = 0.23 standard
        # deviations, which is 0.07-0.10% of R*_k for geometric, 0.2-0.5% for
        # theta_one_log, 0.5-0.6% for zipf_log and 0.7-0.8% for zipf; and a
        # variance off by about a third
        d = build_distribution(spec)
        n = 100_000
        grid = CheckpointGrid.logspaced(1_000, n, 5, k_max=3)
        trajectories = [run_coupled(d, grid, seed=(4242, i)) for i in range(300)]
        for k in (1, 2, 3):
            fixed, poissonized = (np.array([row[-1, k - 1] for row in rows], dtype=np.float64)
                                  for rows in ([t.rstar_fixed for t in trajectories],
                                               [t.rstar_poisson for t in trajectories]))
            m_fixed, _ = exact_mean(d, n, k, True, "binomial")
            m_poisson, _ = exact_mean(d, float(n), k, True, "poisson")
            v, _ = exact_var(d, float(n), k, True)
            z = ((fixed.mean() - m_fixed) / math.sqrt(fixed.var(ddof=1) / fixed.size),
                 (poissonized.mean() - m_poisson) / math.sqrt(v / poissonized.size),
                 _var_z(poissonized, v))
            assert max(map(abs, z)) < 4.0, (k, z)

    def test_stops_sharing_a_bracket(self, theta_one_log):
        # forty consecutive positions near 5e4: many of them share a bracket
        # with no first arrival inside, whose balls past J are dealt to its
        # stops in turn from one urn.  Each stop adds one ball, so between
        # stops the rows of the cells <= J and the count past J rise by one
        # at most, all together; the coupling holds and the rows stay
        # monotone and 1-Lipschitz in n
        positions = np.arange(50_000, 50_040)
        J = theta_one_log._cut(int(positions[-1]))
        shared = []  # the steps past J between stops with no first arrival between
        for seed in range(5):
            rows, past = simulate._poisson_time(
                theta_one_log.probs_prefix(J), theta_one_log._mass_past(J), positions, 4,
                np.random.default_rng(seed))
            steps = np.diff(rows, axis=0).sum(axis=1) + np.diff(past)
            assert np.all(np.diff(rows, axis=0) >= 0) and np.all(np.diff(past) >= 0)
            assert np.all((steps >= 0) & (steps <= 1)), steps
            shared += np.diff(past)[np.all(np.diff(rows, axis=0) == 0, axis=1)].tolist()
        assert len(shared) >= 150 and set(shared) == {0, 1}
        grid = CheckpointGrid(positions=tuple(positions.tolist()), k_max=3)
        for seed in range(10):
            tr = run_coupled(theta_one_log, grid, seed=(99, seed))
            assert tr.coupling_violations() == 0
            assert np.all((np.diff(tr.at_least_fixed, axis=0) >= 0)
                          & (np.diff(tr.at_least_fixed, axis=0) <= 1))
            order = np.argsort(tr.K, kind="stable")
            assert np.all(np.diff(tr.at_least_poisson[order], axis=0)
                          <= np.diff(tr.K[order])[:, None])

    def test_horizon_extension(self, zipf2, monkeypatch):
        # a horizon short of the last stop's ball (a negative margin) makes
        # the stream go on past it by fresh arrivals, which must keep the
        # law: the poissonized column at n = 2,000 over 400 seeds
        horizons = []
        arrivals = simulate._arrivals
        monkeypatch.setattr(simulate, "_MARGIN", -1.0)
        monkeypatch.setattr(simulate, "_arrivals",
                            lambda *args: horizons.append(args[4]) or arrivals(*args))
        _law_matches_exact_series(zipf2, 2_000, 400, 77)
        assert len(horizons) > 2 * 400  # more than two horizons a trajectory

    def test_billion_balls_between_first_arrivals(self, geometric_half):
        # geometric q = 1/2 follows its cells 1..64, which have all their
        # first arrivals within a few hundred balls; past them a bracket
        # holds about 3e9 balls, more than the urn takes (10^9 of a kind),
        # so it splits at its middle time until it does
        grid = CheckpointGrid(positions=(1_000_000, 3_000_000_000, 3_000_000_001), k_max=3)
        tr = run_coupled(geometric_half, grid, seed=12)
        assert tr.coupling_violations() == 0
        assert np.all(np.diff(tr.at_least_fixed, axis=0) >= 0)
        assert 25 <= tr.rstar_fixed[-1, 0] <= 40  # occupied cells grow like log2(n)

    def test_trajectories_frozen(self, zipf2, theta_one_log, geometric_half):
        # hashes of (K, rstar_fixed, rstar_poisson), pinned after the rows
        # matched _expand_trajectory, an independent scalar expansion of the
        # same seed's stream merged into per-cell counts stop by stop.
        # Re-pinned when trajectories were built in Poisson time (each cell's
        # first k_max + 1 arrival times and a bisection of the clock) in place
        # of a multinomial per stop, when the balls past the table were split
        # by one multinomial over the sampler's hat pieces, each drawn by one
        # uniform in its own piece, and when that multinomial ran over parts
        # of the pieces and the balls alone in their cells were counted, not
        # drawn: the stream changed, not its law.  The last change kept the
        # zipf rows, whose few balls past the table all lie alone
        grid = CheckpointGrid.logspaced(1_000, 1_000_000, 7, k_max=3)
        near_one = build_distribution(DistributionSpec(family="geometric", q=0.9999))
        frozen = {
            "zipf": "110f538c5ea9b9b5e91e8bf441155fbfabee8e2e345761d921c988cd152625d6",
            "theta_one_log": "b16880cfcbaa54456c5626c955ea98c70c6451bdd5d5a6f54df14a92d00b1e64",
            "geometric": "ccb8a42ee3ec7898e152d2dd212b761c833755d6f51d37aaa1b15e971a6871ac",
            "geometric_near_one":
                "d928a2d443fc4e6417d7d7f96ebd78a960edcdb17582d2eac022b37c1219c20b",
        }
        cuts, facts = set(), Counter()
        for name, d in (("zipf", zipf2), ("theta_one_log", theta_one_log),
                        ("geometric", geometric_half), ("geometric_near_one", near_one)):
            digest, seen = _matched_digest(d, grid)
            assert digest == frozen[name], name
            cuts.add(seen["J"])
            facts.update({f"{name} {key}": v for key, v in seen.items() if key != "J"})

        # the grid reaches cuts short of the table and (geometric near one)
        # the whole table; theta_one_log's balls past the table come in more
        # than one part and in the synthetic range, some alone in their
        # cells and some drawn, and some of its balls land in the table
        # cells past its cut
        assert min(cuts) < _TABLE_SIZE and _TABLE_SIZE in cuts
        assert facts["theta_one_log parts"] >= 2 and facts["theta_one_log synthetic"] > 0
        assert facts["theta_one_log alone"] > facts["theta_one_log synthetic"]
        assert facts["theta_one_log drawn"] > 0 and facts["theta_one_log inverted"] > 0

    def test_crowded_parts_frozen(self, theta_one_log, monkeypatch):
        # on the 1e4..1e7 grid theta_one_log's balls past the table fill 27
        # parts: three crowded ones, past _DENSE balls per cell, where every
        # ball takes its cell, and keyed ones; 67,431 balls take cells there,
        # some of them sharing one.  Pinned as test_trajectories_frozen pins,
        # so the crowded parts' stream and the repeats past the table are in
        # the hash
        crowded = []
        draw_part = CellDistribution._draw_part

        def spy(self, rng, e, p, counts, alone):
            crowded.append(counts.sum() >= _DENSE * (e.last[-1] - e.first[0] + 1))
            return draw_part(self, rng, e, p, counts, alone)

        monkeypatch.setattr(CellDistribution, "_draw_part", spy)
        grid = CheckpointGrid.logspaced(10_000, 10_000_000, 13, k_max=3)
        digest, seen = _matched_digest(theta_one_log, grid)
        assert digest == "f1a12aafacb9feb4857a9f67a8293243c3ed1381845664878b04442307df7618"
        assert any(crowded) and not all(crowded)
        assert seen["drawn"] == 67_431 and seen["repeats"] > 0

    @pytest.mark.parametrize("spec, n, dense", [
        (DistributionSpec(family="theta_one_log"), 5_000_000, True),
        (DistributionSpec(family="zipf", s=1.2), 1_500_000, True),
        (DistributionSpec(family="zipf", s=1.2), 1_000_000, False)])
    def test_balls_past_cut_law(self, spec, n, dense, monkeypatch):
        # the balls past the cut J in run_coupled's own form: draw_past with
        # alone, every run folded by _fold_tail, Poisson(mu_s) balls at stop
        # s for the three stops of a trajectory of n balls.  They fill each
        # cell j > J by its own Poisson(t p_j), t the stops' cumulative mean
        # over the mass past J, so the at-least-1 and at-least-2 counts of
        # those cells have the exact series' poissonized mean and variance at
        # t less the terms of the cells 1..J: z-tests at the first and the
        # last stop over 200 draws.  At 5e6 and 1.5e6 J is the table, the
        # first part past it crowded (past _DENSE balls per cell) and the
        # others keyed; at 1e6 J lies inside the table, whose cells past it
        # take balls by inversion, and every part is keyed
        d = build_distribution(spec)
        crowded = []
        draw_part = CellDistribution._draw_part

        def spy(self, rng, e, p, counts, alone):
            crowded.append(counts.sum() >= _DENSE * (e.last[-1] - e.first[0] + 1))
            return draw_part(self, rng, e, p, counts, alone)

        monkeypatch.setattr(CellDistribution, "_draw_part", spy)
        J = d._cut(n)
        assert (J == _TABLE_SIZE) == dense
        mass = d._mass_past(J)
        mu = np.array([0.3, 0.0, 0.7]) * n * mass
        rng = np.random.default_rng(np.random.SeedSequence((808, n)))
        rows = np.array([np.cumsum(sum(_fold_tail(ids, counts, 2) for ids, counts in
                                       d.draw_past(rng, J, rng.poisson(mu), alone=True)), axis=0)
                         for _ in range(200)])
        assert any(crowded) == dense and not all(crowded)
        for s in (0, 2):
            t = mu[:s + 1].sum() / mass
            lam = t * d.probs_prefix(J)
            g1 = -np.expm1(-lam)
            for k, g in ((1, g1), (2, g1 - lam * np.exp(-lam))):  # P(Poisson(lam) >= k)
                mean = exact_mean(d, t, k, True)[0] - g.sum()
                var = exact_var(d, t, k, True)[0] - g @ (1.0 - g)
                sample = rows[:, s, k - 1].astype(np.float64)
                z = ((sample.mean() - mean) / math.sqrt(var / sample.size), _var_z(sample, var))
                assert max(map(abs, z)) < 4.0, (s, k, mean, sample.mean(), z)

    def test_memory_holds_one_range(self, theta_one_log):
        # the balls past the table are drawn, folded and dropped a part of
        # the hat's pieces at a time: one trajectory on the 1e4..1e7 grid,
        # with about 584,000 such balls, peaks at 3.3 MB of allocations (the first
        # arrival times of its 2^16 cells, 142,000 of them, held twice while
        # they are merged), 10.6 MB when all their ids were held at once
        grid = CheckpointGrid.logspaced(10_000, 10_000_000, 13, k_max=3)
        run_coupled(theta_one_log, grid, seed=(1, 1))  # the piece masses, kept
        tracemalloc.start()
        try:
            run_coupled(theta_one_log, grid, seed=(1, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak

    def test_geometric_trajectory(self, geometric_half):
        grid = CheckpointGrid.logspaced(16, 5_000, 5, k_max=3)
        traj = run_coupled(geometric_half, grid, seed=1)
        assert traj.coupling_violations() == 0
        # occupied cells grow like log2(n)
        assert 8 <= traj.rstar_fixed[-1, 0] <= 30
