import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from urnsim import (
    CheckpointGrid,
    DistributionError,
    DistributionSpec,
    ExperimentConfig,
    StudyResult,
    aggregate,
    normalizer,
    run_coupled,
    run_study,
    write_study_outputs,
)
from urnsim.moments import exact_mean
from urnsim.simulate import CoupledTrajectory
from urnsim.studies import (
    generate_trajectories,
    median_band,
    study_coupling_decay,
    study_increment_bound,
    study_lil_bound,
    study_mean_convergence,
    study_rate_ratio,
    study_variance_sandwich,
    theta_estimate,
)

ZIPF = DistributionSpec(family="zipf", s=2.0)
GEO = DistributionSpec(family="geometric", q=0.5)
T1L = DistributionSpec(family="theta_one_log")


def scipy_median_band(d, n, seeds, k=1):
    """median_band as it was with scipy.stats: the Poisson and binomial
    pmfs and CDFs from scipy, and the band's edges from beta quantiles."""
    b = normalizer(d, k).b(float(n))
    rate = k * exact_mean(d, float(n), k, star=False)[0] / n
    gaps = np.arange(int(12 * math.sqrt(n)) + 10)
    gap_pmf = sps.poisson.pmf(n + gaps, n)
    gap_pmf[1:] += sps.poisson.pmf(n - gaps[1:], n)
    median_gap = gaps[np.searchsorted(np.cumsum(gap_pmf), 0.5)]

    def smallest(holds):
        lo, hi = -1, int(gaps[-1])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(float(gap_pmf @ sps.binom.cdf(mid, gaps, rate))):
                hi = mid
            else:
                lo = mid
        return hi

    tail, half = 0.0005, seeds // 2
    p_lo = sps.beta.ppf(tail, half, seeds - half + 1)
    p_hi = sps.beta.ppf(1.0 - tail, half + 1, seeds - half)
    return (b * rate * median_gap, b * smallest(lambda f: f > p_lo),
            b * smallest(lambda f: f >= p_hi))


def small_cfg(**kw):
    base = dict(distribution=ZIPF, n_min=1_000, n_max=50_000, points=7,
                ks=(1, 2), seeds=12, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestAggregate:
    def test_single_row(self):
        out = aggregate([(0, [1.0, 2.0, 3.0])])
        assert out["median"].tolist() == [1.0, 2.0, 3.0]
        assert out["q05"].tolist() == [1.0, 2.0, 3.0]

    def test_constant_rows(self):
        rows = [(i, [4.0, 4.0]) for i in range(9)]
        out = aggregate(rows)
        assert np.ptp(out["q95"] - out["q05"]) == 0.0

    def test_permutation_invariant(self):
        rows = [(i, [float(i), float(i * i)]) for i in range(11)]
        shuffled = [rows[i] for i in (3, 0, 10, 5, 1, 7, 2, 9, 4, 8, 6)]
        a = aggregate(rows)
        b = aggregate(shuffled)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestCouplingDecay:
    def test_structure_and_clock_column(self):
        cfg = small_cfg()
        res = study_coupling_decay(cfg)
        assert res.study == "coupling_decay"
        assert set(res.pass_flags) == {"decay_k1", "decay_k2"}
        assert len(res.stats["scaled_gap_median_k1"]) == len(res.checkpoints)
        assert "scaled_clock_gap_median_k1" in res.stats

    def test_forced_equal_clock_gives_zero(self, zipf2):
        cfg = small_cfg(seeds=5)
        grid = CheckpointGrid.logspaced(cfg.n_min, cfg.n_max, cfg.points)
        forced = lambda g, rng: np.asarray(g.positions, dtype=np.int64)
        trajs = [run_coupled(zipf2, grid, seed=(7, i), increments_fn=forced)
                 for i in range(cfg.seeds)]
        res = study_coupling_decay(cfg, trajectories=trajs)
        assert all(v == 0.0 for v in res.stats["scaled_gap_median_k1"])
        assert res.pass_flags["decay_k1"]  # 0 <= 0.5 * 0

    def test_theta_one_judged_by_median_band(self, theta_one_log):
        # at theta = 1 the flag asks for the seed median inside the band of
        # median_band at both ends and a fall, not for a halving
        cfg = small_cfg(distribution=T1L, n_min=10_000, n_max=1_000_000, points=2,
                        ks=(1,), seeds=30)
        grid = CheckpointGrid.logspaced(cfg.n_min, cfg.n_max, cfg.points)
        ends = np.asarray(grid.positions)
        b = np.array([normalizer(theta_one_log, 1).b(float(n)) for n in ends])
        (p0, lo0, hi0), (p1, lo1, hi1) = (median_band(theta_one_log, int(n), cfg.seeds)
                                          for n in ends)
        assert p1 < p0 and lo0 < p0 < hi0 and lo1 < p1 < hi1
        with pytest.raises(ValueError):
            median_band(theta_one_log, int(ends[0]), 1)

        def run(diffs):
            trajs = [CoupledTrajectory(
                seed=(cfg.master_seed, i), positions=ends, K=ends,
                at_least=np.stack([np.zeros((2, grid.k_max + 1), dtype=np.int64),
                                   np.tile(np.asarray(diffs)[:, None], (1, grid.k_max + 1))]))
                for i in range(cfg.seeds)]
            return study_coupling_decay(cfg, trajectories=trajs)

        # every seed at the predicted level: passes, although no halving
        res = run(np.round(np.array([p0, p1]) / b).astype(np.int64))
        first, last = res.stats["scaled_gap_median_k1"]
        assert last > 0.5 * first
        assert res.pass_flags["decay_k1"] and not res.margins["degenerate_median_k1"]
        assert res.margins["predicted_first_k1"] == p0
        assert res.margins["band_hi_last_k1"] == hi1
        assert res.stats["zero_fraction_k1"] == [0.0, 0.0]
        # zero gaps halve vacuously but lie below the band
        res = run([0, 0])
        assert not res.pass_flags["decay_k1"] and res.margins["degenerate_median_k1"]
        assert res.stats["mean_k1"] == [0.0, 0.0]
        assert res.stats["zero_fraction_k1"] == [1.0, 1.0]
        # a gap that does not fall fails
        d0 = round(p0 / b[0])
        res = run([d0, math.ceil(d0 * b[0] / b[1])])
        assert not res.pass_flags["decay_k1"]
        assert not res.margins["vacuous_low_first_k1"]
        assert not res.margins["vacuous_low_last_k1"]

    @pytest.mark.parametrize("n, seeds, k", [
        (10_000, 100, 1), (10_000_000, 100, 1), (10_000, 30, 2), (1_000_000, 30, 2),
        (16, 2, 1), (1000, 1000, 1), (100_000, 2000, 1)])
    def test_median_band_is_scipys(self, theta_one_log, n, seeds, k):
        # the pmf ratios, the binomial sums and the order-statistic identity
        # give scipy.stats' band float for float
        assert median_band(theta_one_log, n, seeds, k) == scipy_median_band(
            theta_one_log, n, seeds, k)

    def test_theta_one_vacuous_low_band_edge(self, theta_one_log):
        # |dR*_2| is 0 in most seeds at n = 1e4, so the band's low edge is 0
        # there and that end cannot fail low; at 1e6 it is not
        cfg = small_cfg(distribution=T1L, n_min=10_000, n_max=1_000_000, points=2,
                        ks=(2,), seeds=30)
        grid = CheckpointGrid.logspaced(cfg.n_min, cfg.n_max, cfg.points)
        ends = np.asarray(grid.positions)
        (_, lo0, _), (_, lo1, _) = (median_band(theta_one_log, int(n), cfg.seeds, k=2)
                                    for n in ends)
        assert lo0 == 0.0 < lo1
        trajs = [CoupledTrajectory(
            seed=(cfg.master_seed, i), positions=ends, K=ends,
            at_least=np.stack([np.zeros((2, grid.k_max + 1), dtype=np.int64),
                               np.ones((2, grid.k_max + 1), dtype=np.int64)]))
            for i in range(cfg.seeds)]
        res = study_coupling_decay(cfg, trajectories=trajs)
        assert res.margins["vacuous_low_first_k2"] is True
        assert res.margins["vacuous_low_last_k2"] is False
        assert res.margins["band_lo_first_k2"] == 0.0

    def test_scaling_monotone_in_b(self):
        # the scaled statistic can only shrink under a smaller normalizer
        cfg = small_cfg(seeds=6)
        res = study_coupling_decay(cfg)
        med = np.asarray(res.stats["scaled_gap_median_k1"])
        clock = np.asarray(res.stats["scaled_clock_gap_median_k1"])
        assert np.all(med <= clock + 1e-12)


class TestLilBound:
    def test_zipf_small_run(self):
        cfg = small_cfg(n_max=20_000, points=6, seeds=15)
        res = study_lil_bound(cfg)
        for k in (1, 2):
            for label in ("at_least", "exactly"):
                assert res.margins[f"seed_fraction_{label}_k{k}"] >= 0.8
        assert all(np.isfinite(res.stats["ratio_median_at_least_k1"]))

    def test_refuses_theta_zero(self):
        cfg = small_cfg(distribution=GEO)
        with pytest.raises(DistributionError):
            study_lil_bound(cfg)

    def test_single_checkpoint_scale(self):
        # with one checkpoint the normalized deviations sit on the
        # |Z|/sqrt(2 ln n) scale, far below 1 + slack
        cfg = ExperimentConfig(distribution=ZIPF, n_min=9_999, n_max=10_000,
                               points=2, ks=(1,), seeds=30, master_seed=3,
                               n_floor=9_999)
        res = study_lil_bound(cfg)
        assert res.passed
        assert max(res.stats["ratio_median_at_least_k1"]) < 0.5


class TestRateRatio:
    def test_deterministic_stub_exact_zero(self):
        cfg = small_cfg(rate_t_values=(1e4, 1e6), seeds=10)
        res = study_rate_ratio(cfg, increments_fn=lambda seg, rng: seg)
        assert res.stats["deviation_median"] == [0.0, 0.0]

    def test_medians_decrease(self):
        cfg = small_cfg(rate_t_values=(1e4, 1e6, 1e8), seeds=40)
        res = study_rate_ratio(cfg)
        med = res.stats["deviation_median"]
        assert med[0] > med[1] > med[2]
        assert res.pass_flags["final_below_threshold"]

    def test_deterministic_given_seed(self):
        cfg = small_cfg(rate_t_values=(1e4,), seeds=20)
        a = study_rate_ratio(cfg).stats["deviation_median"]
        b = study_rate_ratio(cfg).stats["deviation_median"]
        assert a == b


class TestMeanConvergence:
    def test_zipf_grid(self):
        cfg = small_cfg(n_max=100_000, points=9)
        res = study_mean_convergence(cfg)
        assert res.pass_flags["nonincreasing_at_least_1"]
        assert res.pass_flags["band_ratio_at_least_1"]
        assert 0.9 <= res.margins["ratio_at_least_1"] <= 1.1

    def test_geometric_theta0_trend(self):
        cfg = small_cfg(distribution=GEO, n_min=100, n_max=100_000, points=7,
                        n_floor=100)
        res = study_mean_convergence(cfg)
        assert res.pass_flags["theta0_ratio_trend"]
        assert "count_scaled_mean" in res.stats

    def test_zero_checkpoint_diff(self, zipf2):
        from urnsim.moments import mean_difference
        assert mean_difference(zipf2, 0, 1, True) == (0.0, 0.0)


class TestInequalStudies:
    def test_increment_bound_zipf_and_geometric(self):
        for dist in (ZIPF, GEO):
            cfg = small_cfg(distribution=dist, ks=(1, 2, 3))
            res = study_increment_bound(cfg)
            assert res.passed, res.margins

    def test_variance_sandwich_zipf_and_geometric(self):
        for dist in (ZIPF, GEO):
            cfg = small_cfg(distribution=dist, n_min=100, ks=(1, 2, 3))
            res = study_variance_sandwich(cfg)
            assert res.passed, res.margins

    @pytest.mark.parametrize("study", [study_lil_bound, study_increment_bound])
    def test_one_head_pass_per_point(self, study, monkeypatch):
        # a distribution keeps the head sums of its last few points; a study
        # that reads a point again must do so before it is evicted
        from urnsim import moments
        passes = []
        head_pass = moments._head_pass

        def spy(d, t, k, star, J):
            passes.append((t, k, star))
            return head_pass(d, t, k, star, J)

        monkeypatch.setattr(moments, "_head_pass", spy)
        study(small_cfg(distribution=T1L, n_max=100_000, points=6, seeds=2))
        assert passes and len(passes) == len(set(passes)), len(passes) - len(set(passes))


def last_fixed_estimate(traj: CoupledTrajectory) -> float:
    """theta_estimate on the last fixed-n row, as estimate-theta reads it."""
    return theta_estimate(int(traj.positions[-1]), int(traj.rstar_fixed[-1, 0]))


class TestEstimateTheta:
    def test_all_distinct_stub(self):
        n = 512
        traj_kwargs = dict(
            seed=0,
            positions=np.array([n]),
            K=np.array([n]),
            at_least=np.array([[[n, 0]], [[0, 0]]]),
        )
        traj = CoupledTrajectory(**traj_kwargs)
        assert last_fixed_estimate(traj) == 1.0

    def test_rejects_small_or_empty(self, zipf2):
        grid = CheckpointGrid(positions=(50,), k_max=1)
        traj = run_coupled(zipf2, grid, seed=4)
        with pytest.raises(ValueError):
            last_fixed_estimate(traj)
        with pytest.raises(ValueError):
            theta_estimate(1000, 0)

    @pytest.mark.slow
    def test_zipf_recovers_exponent(self, zipf2):
        grid = CheckpointGrid.logspaced(1_000, 10_000_000, 8, k_max=2)
        traj = run_coupled(zipf2, grid, seed=(2024, 0))
        assert abs(last_fixed_estimate(traj) - 0.5) < 0.1


class TestResultPlumbing:
    def test_json_schema_and_csv(self, tmp_path):
        cfg = small_cfg(distribution=GEO, ks=(1,), seeds=2)
        res = study_variance_sandwich(cfg)
        csv_path, json_path = write_study_outputs(res, tmp_path, "demo")
        payload = json.loads(open(json_path).read())
        assert payload["schema_version"] == 1
        assert payload["study"] == "variance_sandwich"
        header = open(csv_path).readline().strip().split(",")
        assert header == ["study", "checkpoint", "statistic", "value"]

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        res = StudyResult(study="bad", checkpoints=[1.0],
                          stats={"x": [1.0]}, pass_flags={"ok": True},
                          margins={}, meta={"oops": object()})
        with pytest.raises(TypeError):
            write_study_outputs(res, tmp_path, "bad")
        assert not list(tmp_path.iterdir())

    def test_run_study_dispatch(self):
        cfg = small_cfg(ks=(1,), seeds=3, rate_t_values=(1e4,))
        res = run_study("prop1", cfg)
        assert res.study == "rate_ratio"
        with pytest.raises(ValueError):
            run_study("nope", cfg)

    def test_worker_pool_matches_serial(self, zipf2):
        cfg = small_cfg(seeds=4, n_max=5_000, points=4)
        grid = CheckpointGrid.logspaced(cfg.n_min, cfg.n_max, cfg.points)
        serial = generate_trajectories(cfg, zipf2, grid)
        cfg2 = small_cfg(seeds=4, n_max=5_000, points=4, workers=2)
        parallel = generate_trajectories(cfg2, zipf2, grid)
        assert len(serial) == len(parallel) == 4
        for i, (a, b) in enumerate(zip(serial, parallel)):
            assert a.seed == b.seed == (cfg.master_seed, i)
            assert np.array_equal(a.K, b.K)
            assert np.array_equal(a.rstar_fixed, b.rstar_fixed)
            assert np.array_equal(a.rstar_poisson, b.rstar_poisson)
            assert np.array_equal(a.r_fixed, b.r_fixed)
            assert np.array_equal(a.r_poisson, b.r_poisson)
