#!/usr/bin/env python3
"""Time one coupled trajectory per run and report its peak memory.

The grid is logspaced(1e4, n_max, points) with k_max = 3; run r uses seed
r.  Each run is a fresh process, so its ru_maxrss (the peak resident set
of that process: interpreter, numpy, the distribution and the
trajectory) is its own.  The wall time covers run_coupled only.

Example:
    python scripts/traj_scale.py --family theta_one_log --n-max 1e8 --runs 3
"""
from __future__ import annotations

import argparse
import math
import multiprocessing
import resource
import sys
import time

from urnsim import CheckpointGrid, DistributionError, build_distribution, run_coupled
from urnsim.cli import add_family_flags, spec_from_args

N_MIN = 10_000


def _one_run(spec, n_max: int, points: int, seed: int) -> tuple[float, float]:
    d = build_distribution(spec)
    grid = CheckpointGrid.logspaced(N_MIN, n_max, points, k_max=3)
    start = time.perf_counter()
    run_coupled(d, grid, seed=seed)
    wall = time.perf_counter() - start
    return wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    add_family_flags(parser)
    parser.add_argument("--n-max", type=float, required=True,
                        help=f"last checkpoint, above {N_MIN}")
    parser.add_argument("--points", type=int, default=None,
                        help="checkpoints, at least 2 (default: 4 per decade, plus one)")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    if not (math.isfinite(args.n_max) and N_MIN < args.n_max < 2 ** 62):
        parser.error(f"--n-max must be in ({N_MIN}, 2^62), got {args.n_max}")
    n_max = int(args.n_max)
    points = args.points
    if points is None:
        points = max(2, round(4 * math.log10(n_max / N_MIN)) + 1)
    # the grid is built in a spawned worker, so its checks come first here
    if points < 2 or args.runs < 1:
        parser.error("--points must be >= 2 and --runs >= 1")
    try:
        spec = spec_from_args(args)
    except DistributionError as exc:
        parser.error(str(exc))

    print(f"family={spec.family} n_max={n_max} points={points}")
    print("run,seconds,peak_rss_mb")
    ctx = multiprocessing.get_context("spawn")
    for seed in range(args.runs):
        with ctx.Pool(1) as pool:
            wall, rss = pool.apply(_one_run, (spec, n_max, points, seed))
        print(f"{seed},{wall:.3f},{rss:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
