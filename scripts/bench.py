#!/usr/bin/env python3
"""Time the growth sampler, the exhaustive sweeps, the tree enumerators and
the identity checks, write BENCH_<label>.json.

Five tables, all in CPU seconds of this process (time.process_time):

  grow     trees/s of ``grow`` per family: the Monte-Carlo gate's sizes
           (binary n=5, ordered m=10 n=4, tbar depth:2,3 n=4) and the
           ``sample`` sizes (n=24; ordered with m=24); 25 rounds over all
           rows, reporting the best round (trees/s) and the median
  census   ``run_census`` on the three configurations of acceptance
           criterion 10 (200000 draws, seed 1) and on binary n=7 (50000
           draws over 5040 labeled trees, so building the table of growth
           histories, fresh in every call, is a large share); 5 rounds, best
           and median; the category masses are timed once apart, as
           ``cmd_mc`` computes them once beforehand
  sweeps   ``verify lemma`` and ``verify labelprob`` through ``cli.main``
           with stdout discarded: binary to n=7, tbar depth:2,3 to n=6 and
           ordered with symbolic m to n=5 and to n=7 (the slowest sweeps);
           5 rounds, best and median
  enum     a count-only loop over ``enum_binary(12)``, ``enum_ordered(10)``
           and ``enum_tbar`` at n=8 with const:3 and depth:2,3; 5 rounds,
           best and median
  identities  ``verify han --n-max 12``, ``han2 --n-max 11``, ``tbar
           --n-max 8`` with const:3 and depth:2,3 and ``yang --n-max 8``
           through ``cli.main`` with stdout discarded; 5 rounds, best and
           median

Shared hosts switch between fast and slow spells lasting 10-30 s, which
moves back-to-back repeats together; rounds spread each row's repeats over
the run, and the best round compares two commits at the host's fast speed.
The file also records the machine, the number of cores, the Python version,
the commit of the checkout the script sits in and ``src_lines``, the line
count of its src/hooklab/*.py.

Usage:
    python3 scripts/bench.py --label NAME
"""

import argparse
import contextlib
import json
import os
import platform
import random
import statistics
import subprocess
import time
from functools import partial
from pathlib import Path

from hooklab import (
    BinaryFamily,
    ConstantBranching,
    DepthBranching,
    OrderedFamily,
    TbarFamily,
    category_masses,
    enum_binary,
    enum_ordered,
    enum_tbar,
    grow,
    run_census,
)
from hooklab.cli import main as cli_main

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

SWEEP_ROUNDS = 5
SWEEPS = [
    (f"{check} {name}", ["verify", check, *args])
    for name, args in [
        ("binary n<=7", ["--family", "binary", "--n-max", "7"]),
        ("tbar depth:2,3 n<=6", ["--family", "tbar", "--oracle", "depth:2,3", "--n-max", "6"]),
        ("ordered symbolic n<=5", ["--family", "ordered", "--m", "symbolic", "--n-max", "5"]),
        ("ordered symbolic n<=7", ["--family", "ordered", "--m", "symbolic", "--n-max", "7"]),
    ]
    for check in ("lemma", "labelprob")
]

ENUM_ROUNDS = 5
# (row, enumerator call)
ENUM = [
    ("binary n=12", lambda: enum_binary(12)),
    ("ordered n=10", lambda: enum_ordered(10)),
    ("tbar const:3 n=8", lambda: enum_tbar(ConstantBranching(3), 8)),
    ("tbar depth:2,3 n=8", lambda: enum_tbar(DepthBranching((2, 3)), 8)),
]

IDENTITY_ROUNDS = 5
IDENTITIES = [
    (" ".join(args), ["verify", *args])
    for args in [
        ["han", "--n-max", "12"],
        ["han2", "--n-max", "11"],
        ["tbar", "--n-max", "8", "--oracle", "const:3"],
        ["tbar", "--n-max", "8", "--oracle", "depth:2,3"],
        ["yang", "--n-max", "8"],
    ]
]

CENSUS_ROUNDS = 5
# (row, family, n, draws); the first three are criterion 10's gates
CENSUS = [
    ("binary n=5", BinaryFamily(), 5, SAMPLES),
    ("ordered m=10 n=4", OrderedFamily(10), 4, SAMPLES),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4, SAMPLES),
    ("binary n=7", BinaryFamily(), 7, 50_000),
]


def _seconds(work) -> float:
    started = time.process_time()
    work()
    return time.process_time() - started


def _sweep(argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        status = cli_main(argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {status}")


def _grow(family, n: int, count: int) -> None:
    rng = random.Random(1)
    for _ in range(count):
        grow(family, n, rng)


def _rounds(works, rounds: int) -> dict[str, list[float]]:
    """The CPU seconds of every (row, work) pair in each of ``rounds`` rounds."""
    times = {row: [] for row, _ in works}
    for _ in range(rounds):
        for row, work in works:
            times[row].append(_seconds(work))
    return times


def _row(row: str, times: list[float], **fields) -> dict:
    """A table row: its name, ``fields``, then the best and median seconds."""
    doc = {"row": row, **fields, "best_seconds": round(min(times), 4),
           "median_seconds": round(statistics.median(times), 4)}
    print(json.dumps(doc), flush=True)
    return doc


def _cli_rows(commands, rounds: int) -> list[dict]:
    """Best and median CPU seconds of each (row, argv) through ``cli.main``."""
    times = _rounds([(row, partial(_sweep, argv)) for row, argv in commands], rounds)
    return [_row(row, times[row], argv=argv) for row, argv in commands]


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

    times = _rounds([(row, partial(_grow, family, n, count))
                     for row, family, n, count in GROW], ROUNDS)
    grow_rows = [_row(row, times[row], trees=count, trees_per_s=round(count / min(times[row])))
                 for row, _, _, count in GROW]

    masses = {row: {} for row, *_ in CENSUS}
    masses_s = {row: _seconds(lambda: masses[row].update(category_masses(family, n)))
                for row, family, n, _ in CENSUS}
    times = _rounds([(row, partial(run_census, family, n, draws, 1, masses=masses[row]))
                     for row, family, n, draws in CENSUS], CENSUS_ROUNDS)
    census_rows = [_row(row, times[row], samples=draws, masses_seconds=round(masses_s[row], 4))
                   for row, _, _, draws in CENSUS]

    sweep_rows = _cli_rows(SWEEPS, SWEEP_ROUNDS)

    times = _rounds(
        [(row, lambda call=call: sum(1 for _ in call())) for row, call in ENUM], ENUM_ROUNDS)
    enum_rows = [_row(row, times[row], trees=sum(1 for _ in call())) for row, call in ENUM]

    identity_rows = _cli_rows(IDENTITIES, IDENTITY_ROUNDS)

    doc = {
        "label": args.label,
        "commit": _commit(),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in (ROOT / "src" / "hooklab").glob("*.py")),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),  # what nproc prints
        "python": platform.python_version(),
        "clock": "CPU seconds of the benchmark process",
        "rounds": ROUNDS,
        "grow": grow_rows,
        "census_rounds": CENSUS_ROUNDS,
        "census": census_rows,
        # criterion 10's three gates, best rounds
        "census_total_seconds": round(sum(r["best_seconds"] for r in census_rows[:3]), 3),
        "sweep_rounds": SWEEP_ROUNDS,
        "sweeps": sweep_rows,
        "enum_rounds": ENUM_ROUNDS,
        "enum": enum_rows,
        "identity_rounds": IDENTITY_ROUNDS,
        "identities": identity_rows,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
