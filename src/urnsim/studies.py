"""Verification studies: decay of the poissonization gap, LIL-type bounds,
rate ratios, mean convergence, and the exact-series inequality sweeps.

Almost-sure limits are not finitely observable; each study replaces one
with an explicit finite-grid decay or threshold criterion (the constants
below, named in the study docstrings) and reports margins alongside the
pass flags.  Every study is deterministic given (config, master seed).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentConfig
from .distributions import (
    CellDistribution,
    DistributionError,
    DistributionSpec,
    build_distribution,
)
from .moments import (
    T_LSTAR_REGIME,
    asym_mean_coeff,
    exact_mean,
    exact_var,
    mean_difference,
    mean_increment_check,
    normalizer,
    variance_sandwich_check,
)
from .simulate import CheckpointGrid, CoupledTrajectory, run_coupled

SCHEMA_VERSION = 1

# Pass criteria: the fixed finite-grid stand-ins for the almost-sure limits.
DECAY_FACTOR = 0.5          # theorem1: median at n_max <= this x median at n_min
DECAY_ABS_THRESHOLD = 0.5   # theorem1: and median at n_max <= this
SLACK = 0.1                 # corollary1: envelope ratio at most 1 + SLACK
PASS_FRACTION = 0.95        # corollary1: share of seeds within the envelope
RATE_V_EXPONENT = 0.6       # prop1: witness window floor t^RATE_V_EXPONENT
RATE_THRESHOLD = 0.05       # prop1: final median deviation below this
RATIO_BAND = (0.95, 1.05)   # remark1: exact/asymptotic mean ratio at n_max
CONVERGENCE_FACTOR = 0.1    # remark1: final |difference| < this x initial


@dataclass
class StudyResult:
    """Aggregated outcome of one study."""

    study: str
    checkpoints: list[float]
    stats: dict[str, list[float]]
    pass_flags: dict[str, bool]
    margins: dict[str, float]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.pass_flags.values())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "study": self.study,
            "passed": self.passed,
            "pass_flags": self.pass_flags,
            "margins": self.margins,
            "checkpoints": list(self.checkpoints),
            "stats": {k: list(v) for k, v in self.stats.items()},
            "meta": self.meta,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["study", "checkpoint", "statistic", "value"]
        rows = []
        for name, series in sorted(self.stats.items()):
            for x, v in zip(self.checkpoints, series):
                rows.append([self.study, x, name, v])
        return header, rows


def aggregate(indexed_rows: Sequence[tuple[int, Sequence[float]]]) -> dict[str, np.ndarray]:
    """Order-stable per-checkpoint quantiles over seed-indexed rows.

    Rows are sorted by their index first, so any permutation of the input
    yields identical output.
    """
    if not indexed_rows:
        raise ValueError("aggregate needs at least one row")
    ordered = sorted(indexed_rows, key=lambda pair: pair[0])
    data = np.asarray([row for _, row in ordered], dtype=np.float64)
    return {
        "median": np.median(data, axis=0),
        "q05": np.quantile(data, 0.05, axis=0),
        "q95": np.quantile(data, 0.95, axis=0),
    }


# ------------------------------------------------------------ trajectories

def _one_trajectory(args) -> CoupledTrajectory:
    spec_map, positions, k_max, seed = args
    d = build_distribution(DistributionSpec.from_mapping(spec_map))
    return run_coupled(d, CheckpointGrid(positions=positions, k_max=k_max), seed=seed)


def generate_trajectories(cfg: ExperimentConfig, d: CellDistribution,
                          grid: CheckpointGrid) -> list[CoupledTrajectory]:
    """Trajectories i = 0..seeds-1 with seed (master_seed, i), in index
    order; fan out to workers when configured.  The result does not depend
    on the worker count.
    """
    seeds = [(cfg.master_seed, i) for i in range(cfg.seeds)]
    if cfg.workers > 1 and cfg.seeds > 1:
        spec_map = cfg.distribution.as_mapping()
        args = [(spec_map, grid.positions, grid.k_max, seed) for seed in seeds]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_one_trajectory, args, chunksize=1))
    return [run_coupled(d, grid, seed=seed) for seed in seeds]


def _grid_for(cfg: ExperimentConfig) -> CheckpointGrid:
    return CheckpointGrid.logspaced(cfg.n_min, cfg.n_max, cfg.points, max(cfg.ks))


# ------------------------------------------------------------- studies

def median_band(d: CellDistribution, n: int, seeds: int,
                k: int = 1) -> tuple[float, float, float]:
    """Predicted level and 99.9% band of the seed median of b(n)|dR*_k(n)|.

    Between n and the clock reading K = Poisson(n) each ball raises R*_k by
    one when it lands in a cell holding k - 1 balls, with probability
    m'_k(n) = k E_pois[R_k(n)] / n (the slope of E_pois[R*_k] at n; for
    k = 1 the new-cell rate).  So |dR*_k| is modelled as
    X = Binomial(|K - n|, m'_k(n)) under the exact law of |K - n|.  The
    predicted level is b(n) m'_k(n) median|K - n|.  The median of ``seeds``
    draws of X lies between their (seeds//2)-th and (seeds//2 + 1)-th order
    statistics, whose laws are binomial in the CDF F of X; each side of the
    band gets probability 0.0005.
    """
    # imported here: scipy.stats takes ~0.4 s to import, and only the
    # theta = 1 rows of the decay study need it
    from scipy import stats as sps

    if seeds < 2:
        raise ValueError("the median band needs at least 2 seeds")
    b = normalizer(d, k).b(float(n))
    rate = k * exact_mean(d, float(n), k, star=False)[0] / n
    gaps = np.arange(int(12 * math.sqrt(n)) + 10)
    gap_pmf = sps.poisson.pmf(n + gaps, n)
    gap_pmf[1:] += sps.poisson.pmf(n - gaps[1:], n)
    median_gap = gaps[np.searchsorted(np.cumsum(gap_pmf), 0.5)]

    def smallest(holds) -> int:
        # smallest x with holds(F(x)); F(-1) = 0 and F(max gap) = 1
        lo, hi = -1, int(gaps[-1])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(float(gap_pmf @ sps.binom.cdf(mid, gaps, rate))):
                hi = mid
            else:
                lo = mid
        return hi

    tail = 0.0005
    half = seeds // 2
    # P(X_(half) < x) = P(Bin(seeds, F(x-1)) >= half) <= tail while F(x-1) <= p_lo
    p_lo = sps.beta.ppf(tail, half, seeds - half + 1)
    # P(X_(half+1) > x) = P(Bin(seeds, F(x)) <= half) <= tail once F(x) >= p_hi
    p_hi = sps.beta.ppf(1.0 - tail, half + 1, seeds - half)
    return (b * rate * median_gap, b * smallest(lambda f: f > p_lo),
            b * smallest(lambda f: f >= p_hi))


def study_coupling_decay(cfg: ExperimentConfig,
                         trajectories: list[CoupledTrajectory] | None = None) -> StudyResult:
    """Decay of b(n) * |fixed-n count - poissonized count| along the grid.

    Pass (per k): the seed-median at n_max is <= DECAY_FACTOR times its
    value at n_min and <= DECAY_ABS_THRESHOLD.  At theta = 1 the
    expected median falls only like the new-cell rate, and halving it takes
    decades beyond reach; there the median must lie at n_min and at n_max in
    the 99.9% band of :func:`median_band`, and both the predicted and the
    observed median must fall; a band whose low edge is 0 at an end cannot
    fail low there, which is flagged as ``vacuous_low_first`` or
    ``vacuous_low_last``.  The seed mean and the fraction of zero gaps
    are reported per checkpoint; a median of 0 at either end makes the
    halving hold vacuously and is flagged as ``degenerate_median``.  The
    scaled coupling gap b(n)|K - n| is reported as a consistency column.
    """
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    if trajectories is None:
        trajectories = generate_trajectories(cfg, d, grid)
    ns = np.asarray(grid.positions, dtype=np.float64)
    stats: dict[str, list[float]] = {}
    flags: dict[str, bool] = {}
    margins: dict[str, float] = {}
    for k in cfg.ks:
        spec = normalizer(d, k)
        b = np.array([spec.b(float(n)) for n in ns])
        diffs = np.array([np.abs(t.rstar_fixed[:, k - 1] - t.rstar_poisson[:, k - 1])
                          for t in trajectories])
        scaled = b * diffs
        agg = aggregate([(t.seed, row) for t, row in zip(trajectories, scaled)])
        gap_agg = aggregate([(t.seed, b * t.gap()) for t in trajectories])
        med = agg["median"]
        stats[f"scaled_gap_median_k{k}"] = med.tolist()
        stats[f"scaled_gap_q95_k{k}"] = agg["q95"].tolist()
        stats[f"scaled_clock_gap_median_k{k}"] = gap_agg["median"].tolist()
        stats[f"mean_k{k}"] = scaled.mean(axis=0).tolist()
        stats[f"zero_fraction_k{k}"] = (diffs == 0).mean(axis=0).tolist()
        first, last = float(med[0]), float(med[-1])
        margins[f"degenerate_median_k{k}"] = first == 0 or last == 0
        margins[f"final_median_k{k}"] = last
        if d.theta == 1.0:
            (p0, lo0, hi0), (p1, lo1, hi1) = (median_band(d, int(n), len(trajectories), k)
                                              for n in (ns[0], ns[-1]))
            flags[f"decay_k{k}"] = bool(lo0 <= first <= hi0 and lo1 <= last <= hi1
                                        and p1 < p0 and last < first)
            margins.update({f"predicted_first_k{k}": p0, f"predicted_last_k{k}": p1,
                            f"band_lo_first_k{k}": lo0, f"band_hi_first_k{k}": hi0,
                            f"band_lo_last_k{k}": lo1, f"band_hi_last_k{k}": hi1,
                            f"vacuous_low_first_k{k}": lo0 == 0,
                            f"vacuous_low_last_k{k}": lo1 == 0})
        else:
            flags[f"decay_k{k}"] = bool(last <= DECAY_FACTOR * first
                                        and last <= DECAY_ABS_THRESHOLD)
            margins[f"decay_margin_k{k}"] = DECAY_FACTOR * first - last
    return StudyResult(
        study="coupling_decay", checkpoints=ns.tolist(), stats=stats,
        pass_flags=flags, margins=margins,
        meta={"distribution": cfg.distribution.as_mapping(),
              "seeds": cfg.seeds, "master_seed": cfg.master_seed,
              "decay_factor": DECAY_FACTOR})


def study_lil_bound(cfg: ExperimentConfig,
                    trajectories: list[CoupledTrajectory] | None = None) -> StudyResult:
    """Normalized centered counts against the sqrt(2 * var * ln n) envelope.

    Centering uses exact fixed-n means; envelopes use exact poissonized
    variances.  Pass (per k, both count types): at least PASS_FRACTION of
    seeds keep their maximum over checkpoints n >= n_floor at or below
    1 + SLACK.  Refuses theta = 0 families (their mean grows too slowly
    for the envelope's precondition).
    """
    d = build_distribution(cfg.distribution)
    if d.theta == 0.0:
        raise DistributionError(
            "bound study requires theta > 0: the per-k poissonized mean must "
            "outgrow ln n, which fails for geometric-type tails")
    grid = _grid_for(cfg)
    if trajectories is None:
        trajectories = generate_trajectories(cfg, d, grid)
    ns = np.asarray(grid.positions, dtype=np.float64)
    keep = ns >= cfg.n_floor
    stats: dict[str, list[float]] = {}
    flags: dict[str, bool] = {}
    margins: dict[str, float] = {}
    lnn = np.log(ns)
    for k in cfg.ks:
        mean_star = np.array([exact_mean(d, float(n), k, star=True, law="binomial")[0]
                              for n in grid.positions])
        mean_exact = np.array([exact_mean(d, float(n), k, star=False, law="binomial")[0]
                               for n in grid.positions])
        var_star = np.array([exact_var(d, float(n), k, star=True)[0]
                             for n in grid.positions])
        var_exact = np.array([exact_var(d, float(n), k, star=False)[0]
                              for n in grid.positions])
        den_star = np.sqrt(2.0 * var_star * lnn)
        den_exact = np.sqrt(2.0 * var_exact * lnn)
        for label, mean_vec, den_vec, col in (
                ("at_least", mean_star, den_star, "rstar_fixed"),
                ("exactly", mean_exact, den_exact, "r_fixed")):
            per_seed = []
            rows = []
            for traj in trajectories:
                series = getattr(traj, col)[:, k - 1].astype(np.float64)
                ratio = np.abs(series - mean_vec) / den_vec
                per_seed.append(float(ratio[keep].max()))
                rows.append((traj.seed, ratio))
            agg = aggregate(rows)
            stats[f"ratio_median_{label}_k{k}"] = agg["median"].tolist()
            stats[f"ratio_q95_{label}_k{k}"] = agg["q95"].tolist()
            frac = float(np.mean(np.asarray(per_seed) <= 1.0 + SLACK))
            flags[f"bound_{label}_k{k}"] = bool(frac >= PASS_FRACTION)
            margins[f"seed_fraction_{label}_k{k}"] = frac
            margins[f"worst_seed_{label}_k{k}"] = float(max(per_seed))
    return StudyResult(
        study="lil_bound", checkpoints=ns.tolist(), stats=stats,
        pass_flags=flags, margins=margins,
        meta={"distribution": cfg.distribution.as_mapping(),
              "seeds": cfg.seeds, "master_seed": cfg.master_seed,
              "slack": SLACK, "n_floor": cfg.n_floor})


def study_rate_ratio(cfg: ExperimentConfig,
                     increments_fn: Callable | None = None) -> StudyResult:
    """Uniform closeness of Poisson increment ratios to one.

    For each t, the witness window floor is v = t^RATE_V_EXPONENT and the
    statistic is max over the doubling window grid {v, 2v, ..., t} of
    |increment/width - 1|.  Pass: seed-medians decrease along rate_t_values
    and the final median is below RATE_THRESHOLD.
    """
    t_values = cfg.rate_t_values
    medians = []
    stats: dict[str, list[float]] = {"deviation_median": [], "deviation_q95": []}
    for t in t_values:
        v = t ** RATE_V_EXPONENT
        widths = [v]
        while widths[-1] * 2.0 < t:
            widths.append(widths[-1] * 2.0)
        widths.append(float(t))
        edges = np.concatenate([[0.0], np.asarray(widths)])
        seg = np.diff(edges)
        devs = []
        for i in range(cfg.seeds):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(cfg.master_seed, int(t), i)))
            if increments_fn is None:
                incs = rng.poisson(seg)
            else:
                incs = increments_fn(seg, rng)
            cum = np.cumsum(incs)
            devs.append(float(np.max(np.abs(cum / np.asarray(widths) - 1.0))))
        medians.append(float(np.median(devs)))
        stats["deviation_median"].append(medians[-1])
        stats["deviation_q95"].append(float(np.quantile(devs, 0.95)))
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    final_ok = medians[-1] < RATE_THRESHOLD
    return StudyResult(
        study="rate_ratio", checkpoints=list(t_values), stats=stats,
        pass_flags={"medians_decreasing": bool(decreasing),
                    "final_below_threshold": bool(final_ok)},
        margins={"final_median": medians[-1],
                 "threshold": RATE_THRESHOLD},
        meta={"seeds": cfg.seeds, "master_seed": cfg.master_seed,
              "v_exponent": RATE_V_EXPONENT})


def study_mean_convergence(cfg: ExperimentConfig) -> StudyResult:
    """Fixed-n vs poissonized exact means, plus exact/asymptotic ratios.

    The absolute fixed-n minus poissonized differences (at-least-1 count
    and each exactly-k count) must be nonincreasing for n >= n_floor with
    final value below CONVERGENCE_FACTOR times the initial one.  At n_max
    the exact/asymptotic mean ratios must sit in RATIO_BAND (theta > 0;
    for theta = 0 the ratio must instead trend to zero).
    """
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    ns = np.asarray(grid.positions, dtype=np.float64)
    keep = ns >= cfg.n_floor
    stats: dict[str, list[float]] = {}
    flags: dict[str, bool] = {}
    margins: dict[str, float] = {}

    def _check_decay(label: str, series: np.ndarray) -> None:
        stats[f"abs_diff_{label}"] = np.abs(series).tolist()
        sub = np.abs(series[keep])
        slack = 1e-9 * max(1.0, float(sub[0]))
        monotone = bool(np.all(np.diff(sub) <= slack))
        final_ok = bool(sub[-1] < CONVERGENCE_FACTOR * sub[0])
        flags[f"nonincreasing_{label}"] = monotone
        flags[f"final_small_{label}"] = final_ok
        margins[f"final_over_initial_{label}"] = float(sub[-1] / sub[0]) if sub[0] else 0.0

    diffs1 = np.array([mean_difference(d, int(n), 1, star=True)[0] for n in grid.positions])
    _check_decay("at_least_1", diffs1)
    for k in cfg.ks:
        dk = np.array([mean_difference(d, int(n), k, star=False)[0] for n in grid.positions])
        _check_decay(f"exactly_{k}", dk)

    n_max = float(grid.positions[-1])
    count_max = d.counting_function(n_max)
    if d.theta > 0.0:
        lo, hi = RATIO_BAND
        for k in cfg.ks:
            for star in (True, False):
                coeff = asym_mean_coeff(d.theta, k, star)
                if coeff is T_LSTAR_REGIME:
                    continue
                value, _ = exact_mean(d, n_max, k, star)
                ratio = value / (coeff * count_max)
                label = f"ratio_{'at_least' if star else 'exactly'}_{k}"
                flags[f"band_{label}"] = bool(lo <= ratio <= hi)
                margins[label] = float(ratio)
    else:
        # theta = 0: the exactly-k means are negligible against the
        # counting function, so their scaled ratios must trend to zero
        ratios = np.array([exact_mean(d, float(n), 1, star=False)[0]
                           / max(d.counting_function(float(n)), 1)
                           for n in grid.positions])
        stats["count_scaled_mean"] = ratios.tolist()
        flags["theta0_ratio_trend"] = bool(ratios[-1] < 0.5 * ratios[0])
        margins["theta0_final_ratio"] = float(ratios[-1])
    return StudyResult(
        study="mean_convergence", checkpoints=ns.tolist(), stats=stats,
        pass_flags=flags, margins=margins,
        meta={"distribution": cfg.distribution.as_mapping(),
              "n_floor": cfg.n_floor,
              "convergence_factor": CONVERGENCE_FACTOR})


_INCREMENT_RULES: tuple[tuple[str, Callable[[float], float]], ...] = (
    ("sqrt_n", lambda n: math.sqrt(n)),
    ("n_pow_06", lambda n: n ** 0.6),
    ("n_over_log", lambda n: n / math.log(n)),
)


def study_increment_bound(cfg: ExperimentConfig) -> StudyResult:
    """Exact-series sweep of the poissonized mean increment inequality
    over the grid (n >= n_floor), the window rules of _INCREMENT_RULES
    (sqrt(n), n^0.6, n/ln n), and each configured k.  Pass: the inequality holds everywhere."""
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    ns = [n for n in grid.positions if n >= cfg.n_floor]
    stats: dict[str, list[float]] = {}
    flags: dict[str, bool] = {}
    margins: dict[str, float] = {}
    for rule_name, rule in _INCREMENT_RULES:
        for k in cfg.ks:
            rel_margins = []
            ok = True
            for n in ns:
                chk = mean_increment_check(d, int(n), rule(float(n)), k)
                ok = ok and chk.holds
                rel_margins.append(chk.margin / chk.rhs if chk.rhs else 0.0)
            stats[f"rel_margin_{rule_name}_k{k}"] = rel_margins
            flags[f"holds_{rule_name}_k{k}"] = bool(ok)
            margins[f"min_rel_margin_{rule_name}_k{k}"] = float(min(rel_margins))
    return StudyResult(
        study="increment_bound", checkpoints=[float(n) for n in ns],
        stats=stats, pass_flags=flags, margins=margins,
        meta={"distribution": cfg.distribution.as_mapping(),
              "n_floor": cfg.n_floor})


def study_variance_sandwich(cfg: ExperimentConfig) -> StudyResult:
    """Exact-series sweep of the three poissonized variance inequalities
    over the grid and each configured k.  Pass: all margins positive."""
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    ns = list(grid.positions)
    stats: dict[str, list[float]] = {}
    flags: dict[str, bool] = {}
    margins: dict[str, float] = {}
    for k in cfg.ks:
        lower, upper, strict = [], [], []
        for n in ns:
            m = variance_sandwich_check(d, int(n), k)
            lower.append(m.lower_margin)
            upper.append(m.upper_margin)
            strict.append(m.strict_margin)
        stats[f"lower_margin_k{k}"] = lower
        stats[f"upper_margin_k{k}"] = upper
        stats[f"strict_margin_k{k}"] = strict
        flags[f"sandwich_k{k}"] = bool(min(lower) >= 0 and min(upper) >= 0
                                       and min(strict) > 0)
        margins[f"min_margin_k{k}"] = float(min(min(lower), min(upper), min(strict)))
    return StudyResult(
        study="variance_sandwich", checkpoints=[float(n) for n in ns],
        stats=stats, pass_flags=flags, margins=margins,
        meta={"distribution": cfg.distribution.as_mapping()})


def theta_estimate(n: int, occupied: int) -> float:
    """Crude regular-variation exponent estimate log(occupied)/log(n) from
    the at-least-1 count ``occupied`` at a final checkpoint n >= 100."""
    if n < 100:
        raise ValueError("need a final checkpoint with n >= 100")
    if occupied < 1:
        raise ValueError("no occupied cells recorded")
    return math.log(occupied) / math.log(n)


STUDIES: dict[str, Callable[[ExperimentConfig], StudyResult]] = {
    "theorem1": study_coupling_decay,
    "corollary1": study_lil_bound,
    "prop1": study_rate_ratio,
    "remark1": study_mean_convergence,
    "lemma2": study_increment_bound,
    "lemma5": study_variance_sandwich,
}


def run_study(name: str, cfg: ExperimentConfig) -> StudyResult:
    try:
        fn = STUDIES[name]
    except KeyError:
        raise ValueError(f"unknown study {name!r}; expected one of {sorted(STUDIES)}")
    return fn(cfg)


def write_study_outputs(result: StudyResult, out_dir, stem: str) -> tuple[str, str]:
    """Write <stem>.csv and <stem>.json under out_dir; returns the paths."""
    import csv as _csv
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    header, rows = result.csv_rows()
    try:
        with open(csv_path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        with open(json_path, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception:
        for path in (csv_path, json_path):
            Path(path).unlink(missing_ok=True)
        raise
    return str(csv_path), str(json_path)
