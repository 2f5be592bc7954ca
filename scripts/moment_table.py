#!/usr/bin/env python3
"""Print an exact-vs-asymptotic moment table over a scale grid.

Example:
    python scripts/moment_table.py --family zipf --s 2 --k 1 2 3 --star
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from urnsim import DistributionError, build_distribution
from urnsim.cli import add_family_flags, spec_from_args
from urnsim.moments import MomentReport, moment_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_family_flags(parser)
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--star", action="store_true")
    parser.add_argument("--t-min", type=float, default=1e3)
    parser.add_argument("--t-max", type=float, default=1e8)
    parser.add_argument("--points", type=int, default=6)
    args = parser.parse_args()

    try:
        d = build_distribution(spec_from_args(args))
    except DistributionError as exc:
        parser.error(str(exc))

    print(MomentReport.CSV_HEADER)
    for t in np.logspace(np.log10(args.t_min), np.log10(args.t_max), args.points):
        for k in args.k:
            print(moment_report(d, float(t), k, star=args.star).csv_row())
    return 0


if __name__ == "__main__":
    sys.exit(main())
