#!/usr/bin/env python3
"""Time the growth sampler and write BENCH_<label>.json.

Two tables, both in CPU seconds of this process (time.process_time):

  grow     trees/s of ``grow`` per family: the Monte-Carlo gate's sizes
           (binary n=5, ordered m=10 n=4, tbar depth:2,3 n=4) and the
           ``sample`` sizes (n=24; ordered with m=24); 25 rounds over all
           rows, reporting the best round (trees/s) and the median
  census   ``run_census`` on the three configurations of acceptance
           criterion 10 (200000 draws, seed 1), the category masses timed
           apart, as ``cmd_mc`` computes them once beforehand

Shared hosts switch between fast and slow spells lasting 10-30 s, which
moves back-to-back repeats together; rounds spread each row's repeats over
the run, and the best round compares two commits at the host's fast speed.
The file also records the machine, the number of cores, the Python version
and the commit of the checkout the script sits in.

Usage:
    python3 scripts/bench.py --label NAME
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

from hooklab import (
    BinaryFamily,
    DepthBranching,
    OrderedFamily,
    TbarFamily,
    category_masses,
    grow,
    run_census,
)

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 25
SAMPLES = 200_000  # criterion 10's

# (row, family, n, trees per repeat)
GROW = [
    ("binary n=5", BinaryFamily(), 5, 4000),
    ("ordered m=10 n=4", OrderedFamily(10), 4, 4000),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4, 4000),
    ("binary n=24", BinaryFamily(), 24, 400),
    ("ordered m=24 n=24", OrderedFamily(24), 24, 100),
    ("tbar depth:2,3 n=24", TbarFamily(DepthBranching((2, 3))), 24, 200),
]

CENSUS = [
    ("binary n=5", BinaryFamily(), 5),
    ("ordered m=10 n=4", OrderedFamily(10), 4),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4),
]


def _seconds(work) -> float:
    started = time.process_time()
    work()
    return time.process_time() - started


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    times = {row: [] for row, *_ in GROW}
    for _ in range(ROUNDS):
        for row, family, n, count in GROW:
            rng = random.Random(1)
            times[row].append(_seconds(lambda: [grow(family, n, rng) for _ in range(count)]))
    grow_rows = []
    for row, _, _, count in GROW:
        best, median = min(times[row]), statistics.median(times[row])
        grow_rows.append({"row": row, "trees": count, "best_seconds": round(best, 4),
                          "median_seconds": round(median, 4),
                          "trees_per_s": round(count / best)})
        print(json.dumps(grow_rows[-1]), flush=True)

    census_rows = []
    for row, family, n in CENSUS:
        masses = {}
        masses_s = _seconds(lambda: masses.update(category_masses(family, n)))
        census_s = _seconds(lambda: run_census(family, n, SAMPLES, 1, masses=masses))
        census_rows.append({"row": row, "samples": SAMPLES,
                            "masses_seconds": round(masses_s, 4),
                            "census_seconds": round(census_s, 3)})
        print(json.dumps(census_rows[-1]), flush=True)

    doc = {
        "label": args.label,
        "commit": _commit(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),  # what nproc prints
        "python": platform.python_version(),
        "clock": "CPU seconds of the benchmark process",
        "rounds": ROUNDS,
        "grow": grow_rows,
        "census": census_rows,
        "census_total_seconds": round(sum(r["census_seconds"] for r in census_rows), 3),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
