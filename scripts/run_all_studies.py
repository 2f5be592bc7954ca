#!/usr/bin/env python3
"""Run every verification study for one family and collect the outputs.

Examples:
    python scripts/run_all_studies.py --family zipf --s 2 --out results/
    python scripts/run_all_studies.py --family theta_one_log --seeds 50
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from urnsim import DistributionError, ExperimentConfig
from urnsim.cli import add_family_flags, spec_from_args
from urnsim.studies import STUDIES, run_study, write_study_outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_family_flags(parser)
    parser.add_argument("--n-min", type=int, default=1_000)
    parser.add_argument("--n-max", type=int, default=1_000_000)
    parser.add_argument("--points", type=int, default=17)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="study_outputs")
    args = parser.parse_args()

    try:
        dist = spec_from_args(args)
        cfg = ExperimentConfig(distribution=dist, n_min=args.n_min, n_max=args.n_max,
                               points=args.points, seeds=args.seeds, master_seed=args.seed,
                               workers=args.workers, out_dir=args.out)
    except ValueError as exc:  # DistributionError and ConfigError
        parser.error(str(exc))
    out_dir = Path(args.out)
    failures = []
    for name in sorted(STUDIES):
        start = time.monotonic()
        try:
            result = run_study(name, cfg)
        except DistributionError as exc:
            print(f"{name:<12} SKIP ({exc})")
            continue
        paths = write_study_outputs(result, out_dir, f"{name}_{dist.family}")
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures.append(name)
        print(f"{name:<12} {status}  {time.monotonic()-start:6.1f}s  -> {paths[1]}")
    if failures:
        print(f"failing studies: {', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
