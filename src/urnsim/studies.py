"""Verification studies: decay of the poissonization gap, LIL-type bounds,
rate ratios, mean convergence, and the exact-series inequality sweeps.

Almost-sure limits are not finitely observable; each study replaces one
with an explicit finite-grid decay or threshold criterion (the constants
below, named in the study docstrings) and reports margins alongside the
pass flags.  Every study is deterministic given (config, master seed).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
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
    _log_pmf,
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
    stats: dict[str, list[float]] = field(default_factory=dict)
    pass_flags: dict[str, bool] = field(default_factory=dict)
    margins: dict[str, float] = field(default_factory=dict)
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

@functools.lru_cache(maxsize=1)
def _worker_inputs(spec: DistributionSpec, positions: tuple[int, ...],
                   k_max: int) -> tuple[CellDistribution, CheckpointGrid]:
    """The distribution and grid of a worker's trajectories, built once per
    process (and again only for other arguments), so that its sampler
    table, hat and cell sums serve every trajectory it runs."""
    return build_distribution(spec), CheckpointGrid(positions=positions, k_max=k_max)


def _one_trajectory(args) -> CoupledTrajectory:
    spec, positions, k_max, seed = args
    return run_coupled(*_worker_inputs(spec, positions, k_max), seed=seed)


def generate_trajectories(cfg: ExperimentConfig, d: CellDistribution,
                          grid: CheckpointGrid) -> list[CoupledTrajectory]:
    """Trajectories i = 0..seeds-1 with seed (master_seed, i), in index
    order; fan out to workers when configured.  The result does not depend
    on the worker count.
    """
    seeds = [(cfg.master_seed, i) for i in range(cfg.seeds)]
    if cfg.workers > 1 and cfg.seeds > 1:
        args = [(cfg.distribution, grid.positions, grid.k_max, seed) for seed in seeds]
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
    if seeds < 2:
        raise ValueError("the median band needs at least 2 seeds")
    b = normalizer(d, k).b(float(n))
    rate = k * exact_mean(d, float(n), k, star=False)[0] / n
    gaps = np.arange(int(12 * math.sqrt(n)) + 10)
    # P(|K - n| = g): P(K = n) times n/(n+i), and (n-i+1)/n (0 at i = n + 1), i = 1..g
    gap_pmf = math.exp(_log_pmf(n, n)) * np.cumprod(np.concatenate(([1.0], n / (n + gaps[1:]))))
    gap_pmf[1:] += gap_pmf[0] * np.cumprod((n + 1 - gaps[1:]) / n)
    median_gap = gaps[np.searchsorted(np.cumsum(gap_pmf), 0.5)]
    ln_factorial = np.array([math.lgamma(i + 1.0) for i in range(max(gaps.size, seeds + 1))])

    def binom_pmf(m, x, p):
        # P(Bin(m, p) = x), elementwise in m or x; 0 < p < 1
        return np.exp(ln_factorial[m] - ln_factorial[x] - ln_factorial[m - x]
                      + x * math.log(p) + (m - x) * math.log1p(-p))

    def smallest(holds, h: int) -> int:
        # smallest x with holds(P(Bin(seeds, F(x)) >= h)), F(max gap) = 1; past g = x,
        # P(Bin(g, rate) <= x) = 1 - rate sum_{j=x}^{g-1} P(Bin(j, rate) = x); F may pass 1
        lo, hi = -1, int(gaps[-1])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            below = np.ones(gaps.size)
            below[mid + 1:] -= rate * np.cumsum(binom_pmf(gaps[mid:-1], mid, rate))
            f = float(gap_pmf @ below)
            if f >= 1.0 or holds(float(binom_pmf(seeds, np.arange(h, seeds + 1), f).sum())):
                hi = mid
            else:
                lo = mid
        return hi

    tail = 0.0005
    half = seeds // 2
    # P(X_(half) < x) = P(Bin(seeds, F(x-1)) >= half) <= tail up to the low edge;
    # P(X_(half+1) > x) = P(Bin(seeds, F(x)) <= half) <= tail from the high one
    return (b * rate * median_gap, b * smallest(lambda p: p > tail, half),
            b * smallest(lambda p: p >= 1.0 - tail, half + 1))


def study_coupling_decay(cfg: ExperimentConfig,
                         trajectories: list[CoupledTrajectory] | None = None) -> StudyResult:
    """Decay of b(n) * |fixed-n count - poissonized count| along the grid.

    Pass (per k): the seed-median at n_max is <= DECAY_FACTOR times its
    value at n_min and <= DECAY_ABS_THRESHOLD.  At theta = 1 the expected
    median falls only like the new-cell rate, and halving it takes decades
    beyond reach; there the median must lie at n_min and at n_max in the
    99.9% band of :func:`median_band`, and the predicted and the observed
    median must fall (the observed one unless it starts at 0); a band whose
    low edge is 0 at an end cannot fail low there (``vacuous_low_first``,
    ``vacuous_low_last``).  The seed mean and the fraction of zero gaps are
    reported per checkpoint; a median of 0 at either end makes the decay
    hold vacuously there (``degenerate_median``).  The scaled coupling gap
    b(n)|K - n| is reported as a consistency column.
    """
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    if trajectories is None:
        trajectories = generate_trajectories(cfg, d, grid)
    ns = np.asarray(grid.positions, dtype=np.float64)
    result = StudyResult("coupling_decay", ns.tolist(), meta={
        "distribution": cfg.distribution.as_mapping(), "seeds": cfg.seeds,
        "master_seed": cfg.master_seed, "decay_factor": DECAY_FACTOR})
    stats, flags, margins = result.stats, result.pass_flags, result.margins
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
                                        and p1 < p0 and (last < first or first == 0))
            margins.update({f"predicted_first_k{k}": p0, f"predicted_last_k{k}": p1,
                            f"band_lo_first_k{k}": lo0, f"band_hi_first_k{k}": hi0,
                            f"band_lo_last_k{k}": lo1, f"band_hi_last_k{k}": hi1,
                            f"vacuous_low_first_k{k}": lo0 == 0,
                            f"vacuous_low_last_k{k}": lo1 == 0})
        else:
            flags[f"decay_k{k}"] = bool(last <= DECAY_FACTOR * first
                                        and last <= DECAY_ABS_THRESHOLD)
            margins[f"decay_margin_k{k}"] = DECAY_FACTOR * first - last
    return result


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
    result = StudyResult("lil_bound", ns.tolist(), meta={
        "distribution": cfg.distribution.as_mapping(), "seeds": cfg.seeds,
        "master_seed": cfg.master_seed, "slack": SLACK, "n_floor": cfg.n_floor})
    stats, flags, margins = result.stats, result.pass_flags, result.margins
    lnn = np.log(ns)
    for k in cfg.ks:
        # the four series of one (n, k) together, so each point's head is
        # summed once while the distribution keeps it
        mean_star, mean_exact, var_star, var_exact = np.array([
            [exact_mean(d, float(n), k, True, "binomial")[0],
             exact_mean(d, float(n), k, False, "binomial")[0],
             exact_var(d, float(n), k, True)[0], exact_var(d, float(n), k, False)[0]]
            for n in grid.positions]).T
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
    return result


def study_rate_ratio(cfg: ExperimentConfig,
                     increments_fn: Callable | None = None) -> StudyResult:
    """Uniform closeness of Poisson increment ratios to one.

    For each t, the witness window floor is v = t^RATE_V_EXPONENT and the
    statistic is max over the doubling window grid {v, 2v, ..., t} of
    |increment/width - 1|.  Pass: seed-medians decrease along rate_t_values
    and the final median is below RATE_THRESHOLD.
    """
    t_values = cfg.rate_t_values
    result = StudyResult("rate_ratio", list(t_values), meta={
        "seeds": cfg.seeds, "master_seed": cfg.master_seed, "v_exponent": RATE_V_EXPONENT})
    medians = result.stats["deviation_median"] = []
    q95 = result.stats["deviation_q95"] = []
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
        q95.append(float(np.quantile(devs, 0.95)))
    result.pass_flags["medians_decreasing"] = all(b < a for a, b in zip(medians, medians[1:]))
    result.pass_flags["final_below_threshold"] = medians[-1] < RATE_THRESHOLD
    result.margins.update(final_median=medians[-1], threshold=RATE_THRESHOLD)
    return result


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
    result = StudyResult("mean_convergence", ns.tolist(), meta={
        "distribution": cfg.distribution.as_mapping(), "n_floor": cfg.n_floor,
        "convergence_factor": CONVERGENCE_FACTOR})
    stats, flags, margins = result.stats, result.pass_flags, result.margins

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
    return result


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
    result = StudyResult("increment_bound", [float(n) for n in ns], meta={
        "distribution": cfg.distribution.as_mapping(), "n_floor": cfg.n_floor})
    for k in cfg.ks:
        # every window rule at one n before the next, so the point n, which
        # each rule reads, is summed once while the distribution keeps it
        checks = [[mean_increment_check(d, int(n), rule(float(n)), k)
                   for _, rule in _INCREMENT_RULES] for n in ns]
        for (rule_name, _), column in zip(_INCREMENT_RULES, zip(*checks)):
            rel_margins = [chk.margin / chk.rhs if chk.rhs else 0.0 for chk in column]
            result.stats[f"rel_margin_{rule_name}_k{k}"] = rel_margins
            result.pass_flags[f"holds_{rule_name}_k{k}"] = all(chk.holds for chk in column)
            result.margins[f"min_rel_margin_{rule_name}_k{k}"] = float(min(rel_margins))
    return result


def study_variance_sandwich(cfg: ExperimentConfig) -> StudyResult:
    """Exact-series sweep of the three poissonized variance inequalities
    over the grid and each configured k.  Pass: all margins positive."""
    d = build_distribution(cfg.distribution)
    grid = _grid_for(cfg)
    result = StudyResult("variance_sandwich", [float(n) for n in grid.positions],
                         meta={"distribution": cfg.distribution.as_mapping()})
    for k in cfg.ks:
        checks = [variance_sandwich_check(d, int(n), k) for n in grid.positions]
        lower = [m.lower_margin for m in checks]
        upper = [m.upper_margin for m in checks]
        strict = [m.strict_margin for m in checks]
        result.stats[f"lower_margin_k{k}"] = lower
        result.stats[f"upper_margin_k{k}"] = upper
        result.stats[f"strict_margin_k{k}"] = strict
        result.pass_flags[f"sandwich_k{k}"] = all(m.holds for m in checks)
        result.margins[f"min_margin_k{k}"] = float(min(min(lower), min(upper), min(strict)))
    return result


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


@contextlib.contextmanager
def output_files(*paths):
    """Open a ``.partial`` file beside each path for writing and yield
    them; once the block ends, move each into place by ``os.replace``.  An
    exception of any kind, KeyboardInterrupt too, removes them instead, so
    what stood at the paths before stays as it was."""
    partial = [Path(f"{path}.partial") for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", newline="")) for tmp in partial]
        for tmp, path in zip(partial, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in partial:
            tmp.unlink(missing_ok=True)
        raise


def write_study_outputs(result: StudyResult, out_dir, stem: str) -> tuple[str, str]:
    """Write <stem>.csv and <stem>.json under out_dir by :func:`output_files`,
    so a failure leaves what stood there; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
    header, rows = result.csv_rows()
    with output_files(csv_path, json_path) as (csv_fh, json_fh):
        writer = csv.writer(csv_fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        json.dump(result.to_json_dict(), json_fh, indent=2, sort_keys=True)
        json_fh.write("\n")
    return str(csv_path), str(json_path)
