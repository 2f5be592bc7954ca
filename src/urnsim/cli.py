"""Command-line front end: moment tables, trajectory simulation,
verification studies, and the exponent estimator.

Exit status: 0 on success (and for ``verify``, only if every pass flag of
the requested study is true), 1 for a failed study, 2 for usage, config,
or runtime errors.  Partial output files are removed on failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    load_config,
    override_config,
)
from .distributions import DistributionError, DistributionSpec, build_distribution
from .moments import moment_report, normalizer
from .simulate import CheckpointGrid, run_coupled
from .studies import STUDIES, run_study, theta_estimate, write_study_outputs

TRAJECTORY_HEADER = ["seed", "n", "K", "k", "rstar_fixed", "rstar_poisson",
                     "r_fixed", "r_poisson", "b_n", "scaled_diff"]


def spec_from_args(args: argparse.Namespace) -> DistributionSpec:
    """The DistributionSpec of the flags add_family_flags adds."""
    return DistributionSpec(family=args.family, s=args.s, a=args.a, q=args.q)


def add_family_flags(parser: argparse.ArgumentParser) -> None:
    """--family and its parameters --s, --a, --q (no defaults)."""
    parser.add_argument("--family", required=True,
                        choices=["zipf", "zipf_log", "theta_one_log", "geometric"])
    parser.add_argument("--s", type=float, default=None, help="power exponent (zipf types)")
    parser.add_argument("--a", type=float, default=None, help="log power (zipf_log)")
    parser.add_argument("--q", type=float, default=None, help="ratio (geometric)")


def _cmd_moments(args: argparse.Namespace) -> int:
    d = build_distribution(spec_from_args(args))
    report = moment_report(d, args.t, args.k, star=args.star, law=args.law)
    if args.json:
        import json
        print(json.dumps({"schema_version": 1, **report.to_dict()}, sort_keys=True))
    else:
        print(report.CSV_HEADER)
        print(report.csv_row())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not math.isfinite(args.n_max):
        raise ConfigError("--n-max must be finite")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    d = build_distribution(spec_from_args(args))
    grid = CheckpointGrid.logspaced(args.n_min, int(args.n_max), args.points,
                                    k_max=args.k_max)
    ks = list(range(1, args.k_max + 1))
    b_cols = {}
    for k in ks:
        spec = normalizer(d, k)
        b_cols[k] = [spec.b(float(n)) for n in grid.positions]
    out_path = Path(args.out)
    tmp_path = out_path.with_name(out_path.name + ".partial")
    try:
        with open(tmp_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRAJECTORY_HEADER)
            for index in range(args.seeds):
                traj = run_coupled(d, grid, seed=(args.seed, index))
                for i, n in enumerate(grid.positions):
                    for k in ks:
                        diff = abs(int(traj.rstar_fixed[i, k - 1])
                                   - int(traj.rstar_poisson[i, k - 1]))
                        writer.writerow([
                            index, int(n), int(traj.K[i]), k,
                            int(traj.rstar_fixed[i, k - 1]),
                            int(traj.rstar_poisson[i, k - 1]),
                            int(traj.r_fixed[i, k - 1]),
                            int(traj.r_poisson[i, k - 1]),
                            repr(b_cols[k][i]),
                            repr(b_cols[k][i] * diff),
                        ])
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    print(f"wrote {args.seeds} trajectories x {len(grid.positions)} checkpoints "
          f"x {len(ks)} k-values to {out_path}")
    return 0


def _default_config() -> ExperimentConfig:
    return ExperimentConfig(distribution=DistributionSpec(family="zipf", s=2.0))


# study margins that mark a check as passing without a test on one side
_VACUOUS_NOTES = {
    "degenerate_median": "median 0 at an end, so the halving holds vacuously",
    "vacuous_low_first": "band low edge 0 at n_min, so this end cannot fail low",
    "vacuous_low_last": "band low edge 0 at n_max, so this end cannot fail low",
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.config == "default" and not Path(args.config).exists():
        cfg = _default_config()
    else:
        cfg = load_config(args.config)
    cfg = override_config(
        cfg, seeds=args.seeds, master_seed=args.seed, workers=args.workers,
        out_dir=args.out)
    result = run_study(args.study, cfg)
    csv_path, json_path = write_study_outputs(
        result, cfg.resolved_out_dir(), f"{args.study}_{cfg.distribution.family}")
    status = "PASS" if result.passed else "FAIL"
    print(f"{args.study}: {status}")
    for name, ok in sorted(result.pass_flags.items()):
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
    for name, hit in sorted(result.margins.items()):
        note = _VACUOUS_NOTES.get(name.rpartition("_k")[0])
        if note and hit:
            print(f"  {name}: {note}")
    print(f"  outputs: {csv_path} {json_path}")
    return 0 if result.passed else 1


def _cmd_estimate_theta(args: argparse.Namespace) -> int:
    last_rows: dict[int, tuple[int, int]] = {}
    with open(args.traj, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames != TRAJECTORY_HEADER:
            raise ConfigError(f"{args.traj} is not a trajectory CSV")
        for row in reader:
            if int(row["k"]) != 1:
                continue
            seed = int(row["seed"])
            n = int(row["n"])
            if seed not in last_rows or n > last_rows[seed][0]:
                last_rows[seed] = (n, int(row["rstar_fixed"]))
    if not last_rows:
        raise ConfigError("trajectory CSV holds no k=1 rows")
    estimates = []
    print("seed,theta_estimate")
    for seed in sorted(last_rows):
        est = theta_estimate(*last_rows[seed])
        estimates.append(est)
        print(f"{seed},{est!r}")
    print(f"median,{float(np.median(estimates))!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnsim",
        description="Occupancy-scheme simulation and verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moments", help="print one exact/asymptotic moment row")
    add_family_flags(p_mom)
    p_mom.add_argument("--t", type=float, required=True, help="poissonization scale / sample size")
    p_mom.add_argument("--k", type=int, required=True)
    p_mom.add_argument("--star", action="store_true", help="at-least-k count (else exactly k)")
    p_mom.add_argument("--law", choices=["poisson", "binomial"], default="poisson")
    p_mom.add_argument("--json", action="store_true", help="emit a JSON document instead of CSV")
    p_mom.set_defaults(fn=_cmd_moments)

    p_sim = sub.add_parser("simulate", help="write coupled trajectories as CSV")
    add_family_flags(p_sim)
    p_sim.add_argument("--n-min", type=int, default=16)
    p_sim.add_argument("--n-max", type=float, required=True)
    p_sim.add_argument("--points", type=int, default=20)
    p_sim.add_argument("--seeds", type=int, default=10)
    p_sim.add_argument("--k-max", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=42, help="master seed")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a verification study")
    p_ver.add_argument("study", choices=sorted(STUDIES))
    p_ver.add_argument("--config", required=True,
                       help="config file path, or 'default' for zipf s=2 defaults")
    p_ver.add_argument("--seeds", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None, help="master seed override")
    p_ver.add_argument("--workers", type=int, default=None)
    p_ver.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or cwd)")
    p_ver.set_defaults(fn=_cmd_verify)

    p_est = sub.add_parser("estimate-theta", help="estimate the tail exponent from a trajectory CSV")
    p_est.add_argument("--traj", required=True)
    p_est.set_defaults(fn=_cmd_estimate_theta)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, DistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
