"""The benchmark's workloads: inputs drawn from the seed, the timed op, and
the correctness checks that decide which ops failed.

Every urnsim function is looked up through its module at call time
(``simulate.run_coupled``, ``moments.exact_mean``), so the traced run sees
the same calls the untraced run makes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from urnsim import distributions, moments, simulate

SPECS = {
    "zipf": distributions.DistributionSpec(family="zipf", s=2.0),
    "zipf_log": distributions.DistributionSpec(family="zipf_log", s=1.5, a=1.0),
    "theta_one_log": distributions.DistributionSpec(family="theta_one_log"),
}
REFERENCE_FILE = Path(__file__).with_name("series_reference.json")
# Seed at which series_reference.json holds every op of the first passes.
REFERENCE_SEED = 1

# Law check: |z| of the sample mean of R*_k at the last checkpoint against
# the exact fixed-n mean, with the poissonized exact variance (to first
# order above the fixed-n one, so |z| errs low) as the per-trajectory
# variance.
Z_LIMIT = 5.0
# Relative budget of the exact series.
SERIES_REL = 1e-8
# Asymptotic values on the t L*(t) scale carry L*'s own refinement target.
ASYM_REL = 1e-6


class TrajPair:
    """One op: one zipf s=2 and one theta_one_log coupled trajectory on the
    same grid, both with seed (seed, i), default block and dense limit."""

    block = 1
    families = ("zipf", "theta_one_log")

    def __init__(self, n_min: float, n_max: float, points: int):
        self.grid = simulate.CheckpointGrid.logspaced(n_min, n_max, points, k_max=3)
        self.dists: dict = {}

    def setup(self, seed: int) -> None:
        self.dists = {f: distributions.build_distribution(SPECS[f]) for f in self.families}
        # op indices count up from 0, so this warm-up pair shares no seed with them
        self._pair(seed, 1 << 30)

    def _pair(self, seed: int, i: int):
        return tuple(simulate.run_coupled(self.dists[f], self.grid, seed=(seed, i))
                     for f in self.families)

    def ops(self, seed: int):
        for i in itertools.count():
            yield functools.partial(self._pair, seed, i)

    def check(self, results: list) -> tuple[list[bool], list[str]]:
        bad = {"coupling": 0, "monotone_n": 0, "monotone_k": 0, "rstar1_le_n": 0}
        entries = 0
        failed = []
        for pair in results:
            ok = True
            for tr in pair:
                rf, rp = tr.rstar_fixed, tr.rstar_poisson
                entries += rf.size
                found = {
                    "coupling": tr.coupling_violations() != 0,
                    "monotone_n": bool((np.diff(rf, axis=0) < 0).any()
                                       or (np.diff(rp, axis=0) < 0).any()),
                    "monotone_k": bool((np.diff(rf, axis=1) > 0).any()
                                       or (np.diff(rp, axis=1) > 0).any()),
                    "rstar1_le_n": bool((rf[:, 0] > tr.positions).any()
                                        or (rp[:, 0] > tr.K).any()),
                }
                for key, hit in found.items():
                    bad[key] += hit
                    ok = ok and not hit
            failed.append(not ok)
        lines = [f"check paths: {2 * len(results)} trajectories, {entries} (n_i, k) "
                 f"entries; failures: " + ", ".join(f"{k}={v}" for k, v in bad.items())]
        n_last = self.grid.positions[-1]
        worst = 0.0
        for j, fam in enumerate(self.families):
            d = self.dists[fam]
            for k in range(1, self.grid.k_max + 1):
                sample = np.array([pair[j].rstar_fixed[-1, k - 1] for pair in results],
                                  dtype=np.float64)
                exact, _ = moments.exact_mean(d, n_last, k, True, "binomial")
                var, _ = moments.exact_var(d, float(n_last), k, True)
                z = (sample.mean() - exact) / math.sqrt(var / sample.size)
                worst = max(worst, abs(z))
                lines.append(f"check law {fam} k={k} n={n_last}: mean {sample.mean():.3f} "
                             f"exact {exact:.3f} sd {math.sqrt(var):.3f} "
                             f"m={sample.size} z={z:+.3f}")
        law_ok = worst <= Z_LIMIT
        lines.append(f"check law: max|z| = {worst:.3f} (limit {Z_LIMIT}), "
                     f"{'pass' if law_ok else 'FAIL: every op counts as failed'}")
        if not law_ok:
            failed = [True] * len(failed)
        return failed, lines


def _series_point(d, t: int, k: int) -> tuple:
    rep = moments.moment_report(d, t, k, star=True, law="binomial")
    e_pois = moments.exact_mean(d, t, k, True, "poisson")
    diff = moments.mean_difference(d, t, k, True)
    return d.family, t, k, rep, e_pois, diff


class SeriesSweep:
    """One op: moment_report (binomial law), then the poissonized exact mean,
    then mean_difference, at one point (family, t, k) with at-least-k counts.

    A pass is 9 values of t x 3 families x k = 1, 2, 3 on freshly built
    distributions, one t near each half decade 10^4, 10^4.5, ..., 10^8.
    Below t = 1e6 the cost of L*(t) jumps between 0.1 s and 6 s from t to
    t + 1, so the four t there are fixed.  At and above 1e6 the cost grows
    smoothly with t (the head length of the series), so each pass draws
    those five t from the seed within 0.04 decade below their half decade;
    a wider draw would make the pass cost, and every end-to-end metric,
    depend on the seed.
    """

    block = 9 * 3 * 3
    fixed_t = (10_000, 31_623, 100_000, 316_228)
    drawn_exponents = (6.0, 6.5, 7.0, 7.5, 8.0)
    jitter_decades = 0.04
    warmup_t = 2_000_003

    def setup(self, seed: int) -> None:
        # separate instances, so nothing cached here reaches a timed pass
        for spec in SPECS.values():
            _series_point(distributions.build_distribution(spec), self.warmup_t, 1)

    @staticmethod
    def pass_ts(rng: np.random.Generator) -> list[int]:
        u = rng.random(len(SeriesSweep.drawn_exponents))
        drawn = 10.0 ** (np.array(SeriesSweep.drawn_exponents) - SeriesSweep.jitter_decades * u)
        return list(SeriesSweep.fixed_t) + [int(t) for t in drawn]

    def ops(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            ts = self.pass_ts(rng)
            dists = [distributions.build_distribution(spec) for spec in SPECS.values()]
            for d in dists:
                if getattr(d, "_lstar_cache", None):
                    raise RuntimeError("L* cache is not empty at the start of a pass")
            for t in ts:
                for d in dists:
                    for k in (1, 2, 3):
                        yield functools.partial(_series_point, d, t, k)

    def check(self, results: list) -> tuple[list[bool], list[str]]:
        bad = {"truncation": 0, "identity": 0, "reference": 0}
        checked_ref = 0
        worst_resid = worst_ref = 0.0
        failed = []
        reference = json.loads(REFERENCE_FILE.read_text())
        for fam, t, k, rep, (ep, bp), (md, bmd) in results:
            eb, ev = rep.exact_mean, rep.exact_var
            scale = max(abs(eb), abs(ep))
            trunc = (rep.truncation_error <= SERIES_REL * min(abs(eb), abs(ev))
                     and bp <= SERIES_REL * abs(ep) and bmd <= SERIES_REL * scale)
            tol = rep.truncation_error + bp + bmd + SERIES_REL * scale
            resid = abs((eb - ep) - md) / tol
            worst_resid = max(worst_resid, resid)
            ref_ok = True
            ref = reference.get(f"{fam}|{t}|{k}")
            if ref is not None:
                checked_ref += 1
                got = (eb, ev, ep, md, rep.asym_mean, rep.asym_var)
                scales = (abs(ref[0]), abs(ref[1]), abs(ref[2]), scale,
                          abs(ref[4]), abs(ref[5]))
                rels = (SERIES_REL,) * 4 + (ASYM_REL,) * 2
                for g, r, s, rel in zip(got, ref, scales, rels):
                    if math.isnan(r):
                        dev = 0.0 if math.isnan(g) else math.inf
                    else:
                        dev = abs(g - r) / (rel * s) if s else abs(g - r)
                    worst_ref = max(worst_ref, dev)
                    ref_ok = ref_ok and dev <= 1.0
            found = {"truncation": not trunc, "identity": not resid <= 1.0,
                     "reference": not ref_ok}
            for key, hit in found.items():
                bad[key] += hit
            failed.append(any(found.values()))
        lines = [
            f"check series: {len(results)} ops; failures: "
            + ", ".join(f"{k}={v}" for k, v in bad.items()),
            f"check identity: largest |(E_binom - E_pois) - mean_difference| / tolerance "
            f"= {worst_resid:.3e}",
            f"check reference: {checked_ref} of {len(results)} ops compared, largest "
            f"deviation / tolerance = {worst_ref:.3e}",
        ]
        return failed, lines


def reference_row(result: tuple) -> tuple[str, list[float]]:
    """Key and values that series_reference.json stores for one op."""
    fam, t, k, rep, (ep, _), (md, _) = result
    return f"{fam}|{t}|{k}", [rep.exact_mean, rep.exact_var, ep, md,
                              rep.asym_mean, rep.asym_var]


def fingerprint(result: tuple) -> str:
    """Exact text form of one op's outputs, for comparing two runs of it."""
    if isinstance(result[0], simulate.CoupledTrajectory):
        return "|".join(repr((tr.K.tolist(), tr.rstar_fixed.tolist(),
                              tr.rstar_poisson.tolist())) for tr in result)
    fam, t, k, rep, e_pois, diff = result
    return repr((fam, t, k, rep.to_dict(), e_pois, diff))


WORKLOADS = {
    # criterion-4/5 grid: increments between stops reach ~2.7e6 balls
    "traj_1e7_pair": lambda: TrajPair(1e4, 1e7, 13),
    # criterion-6 grid: ~50 stops per trajectory, most increments < 2^16
    "traj_1e6_pair": lambda: TrajPair(1e3, 1e6, 25),
    # exact series alone: no sampler, no occupancy update
    "series_sweep": SeriesSweep,
}
