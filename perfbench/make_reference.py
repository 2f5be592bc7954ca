"""Record series_reference.json: the series_sweep outputs at the reference
seed for the first PASSES passes (the fixed-t points of every pass included).

    python3 perfbench/make_reference.py

Run it only on a commit whose series outputs are trusted; the benchmark
compares every later run against the file it writes.
"""

import itertools
import json
import sys
from pathlib import Path

PASSES = 4

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    sweep = workloads.SeriesSweep()
    ops = itertools.islice(sweep.ops(workloads.REFERENCE_SEED), PASSES * sweep.block)
    rows = dict(workloads.reference_row(op()) for op in ops)
    workloads.REFERENCE_FILE.write_text(json.dumps(rows, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} points to {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
