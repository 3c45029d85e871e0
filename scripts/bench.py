#!/usr/bin/env python3
"""Time the growth sampler, the census, the exhaustive sweeps, the tree
enumerators and the identity reports, write BENCH_<label>.json.

Every row is timed on perfbench/speed.py's ``SpeedClock``: CPU seconds of
this thread scaled to a reference host speed, so the host's fast and slow
spells mostly cancel (see that file).  Each table runs its rows in turn,
ROUNDS rounds over all rows, and reports each row's best and median round.

  grow     trees/s of ``grow`` per family: the Monte-Carlo gate's sizes
           (binary n=5, ordered m=10 n=4, tbar depth:2,3 n=4) and the
           ``sample`` sizes (n=24; ordered with m=24), from the best round
  census   ``run_census`` on the three configurations of acceptance
           criterion 10 (200000 draws, seed 1) and on binary n=7 (50000
           draws over 5040 labeled trees, so building the table of growth
           histories, fresh in every call, is a large share); the category
           masses are timed apart, as ``cmd_mc`` computes them once
           beforehand.  A round runs each census ``repeats`` times in a row,
           so that a round lasts about half a second; the seconds reported
           are per census
  sweeps   ``verify lemma`` and ``verify labelprob`` through ``cli.main``
           with stdout discarded: binary to n=7, tbar depth:2,3 to n=6 and
           ordered with symbolic m to n=5 and to n=7 (the slowest sweeps)
  enum     a count-only loop over ``enum_binary(12)``, ``enum_ordered(10)``
           and ``enum_tbar`` at n=8 with const:3 and depth:2,3
  count    ``sampler._labeling_count``, the number of labeled trees that
           ``verify lemma|labelprob`` print and ``mc`` checks before it
           builds its masses, at the sweeps' largest sizes (binary n=7,
           tbar depth:2,3 n=6 and n=7, ordered with symbolic m n=7), and
           its refusal of tbar const:50 at n=5, which has more than
           ``identities.TERM_LIMIT`` labeled trees.  A round runs each
           count ``repeats`` times in a row; the seconds are per count
  identities  the reports ``verify_han`` to n=12, ``verify_han2`` to n=11,
           ``verify_tbar`` to n=8 with const:3 and depth:2,3 and
           ``verify_yang`` to n=8.  A round runs each n of a sweep
           ``repeats`` times in a row, so that even the fastest sweep keeps
           a round near half a second or more; the seconds reported are per
           sweep (a round's time over ``repeats``): the median of each n and
           the best and median of the whole sweep.  An untimed pass first
           runs each sweep once under ``tracemalloc`` and records its peak
           of traced memory in MB.  Exits if a report does not hold

The file also records the machine, the number of cores, the Python version,
the commit of the checkout the script sits in (``git describe --always
--dirty``, so a run from an edited tree ends in "-dirty") and ``src_lines``,
the line count of its src/hooklab/*.py, which is also what the script imports.

Usage:
    python3 scripts/bench.py --label NAME
"""

import argparse
import contextlib
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hooklab import (  # noqa: E402
    BinaryFamily,
    ConstantBranching,
    DepthBranching,
    OrderedFamily,
    SizeLimitError,
    TbarFamily,
    category_masses,
    enum_binary,
    enum_ordered,
    enum_tbar,
    grow,
    run_census,
    verify_han,
    verify_han2,
    verify_tbar,
    verify_yang,
)
from hooklab.cli import main as cli_main  # noqa: E402
from hooklab.sampler import _labeling_count  # noqa: E402
from speed import SpeedClock  # noqa: E402

ROUNDS = 5
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

# (row, family, n, draws, censuses per round); the first three are
# criterion 10's gates
CENSUS = [
    ("binary n=5", BinaryFamily(), 5, SAMPLES, 2),
    ("ordered m=10 n=4", OrderedFamily(10), 4, SAMPLES, 3),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4, SAMPLES, 3),
    ("binary n=7", BinaryFamily(), 7, 50_000, 3),
]

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

# (row, enumerator call)
ENUM = [
    ("binary n=12", lambda: enum_binary(12)),
    ("ordered n=10", lambda: enum_ordered(10)),
    ("tbar const:3 n=8", lambda: enum_tbar(ConstantBranching(3), 8)),
    ("tbar depth:2,3 n=8", lambda: enum_tbar(DepthBranching((2, 3)), 8)),
]

# (row, family, n, counts per round); the last is refused
COUNT = [
    ("binary n=7", BinaryFamily(), 7, 20),
    ("tbar depth:2,3 n=6", TbarFamily(DepthBranching((2, 3))), 6, 20),
    ("tbar depth:2,3 n=7", TbarFamily(DepthBranching((2, 3))), 7, 5),
    ("ordered symbolic n=7", OrderedFamily(), 7, 20),
    ("tbar const:50 n=5 refused", TbarFamily(ConstantBranching(50)), 5, 1),
]

# (row, report of one n, largest n, sweeps per round)
IDENTITIES = [
    ("han", verify_han, 12, 2),
    ("han2", verify_han2, 11, 4),
    ("tbar const:3", partial(verify_tbar, ConstantBranching(3)), 8, 3),
    ("tbar depth:2,3", partial(verify_tbar, DepthBranching((2, 3))), 8, 5),
    ("yang", verify_yang, 8, 10),
]


def _sweep(argv: list[str]) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        status = cli_main(argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {status}")


def _grow(family, n: int, count: int) -> None:
    rng = random.Random(1)
    for _ in range(count):
        grow(family, n, rng)


def _repeat(repeats: int, work, *args) -> None:
    for _ in range(repeats):
        work(*args)


def _count(family, n: int) -> int | None:
    """The number of labeled trees of size ``n``, None when it is refused."""
    try:
        return _labeling_count(family, n)
    except SizeLimitError:
        return None


def _peak_mb(verify, n_max: int) -> float:
    """The peak of memory traced by ``tracemalloc`` over one sweep of the
    reports ``verify`` to ``n_max``, in MB."""
    tracemalloc.start()
    try:
        for n in range(1, n_max + 1):
            _holds(verify, n, 1)
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def _holds(verify, n: int, repeats: int) -> None:
    for _ in range(repeats):
        report = verify(n)
        if not report.holds:
            raise SystemExit(f"{report.identity} at n={n}: lhs={report.lhs}, "
                             f"expected {report.expected}")


def _rounds(works) -> dict[object, list[float]]:
    """The scaled CPU seconds of every (key, work) pair in each of ROUNDS rounds."""
    times = {key: [] for key, _ in works}
    with SpeedClock() as clock:
        for _ in range(ROUNDS):
            for key, work in works:
                mark = clock.mark()
                work()
                times[key].append(clock.seconds_since(mark)[0])
    return times


def _s(seconds: float) -> float:
    return round(seconds, 6)


def _row(row: str, times: list[float], **fields) -> dict:
    """A table row: its name, ``fields``, then the best and median seconds."""
    doc = {"row": row, **fields, "best_seconds": _s(min(times)),
           "median_seconds": _s(median(times))}
    print(json.dumps(doc), flush=True)
    return doc


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
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
    commit = _commit()

    times = _rounds([(row, partial(_grow, family, n, count))
                     for row, family, n, count in GROW])
    grow_rows = [_row(row, times[row], trees=count, trees_per_s=round(count / min(times[row])))
                 for row, _, _, count in GROW]

    masses = {row: category_masses(family, n) for row, family, n, _, _ in CENSUS}
    times = _rounds([(row, partial(_repeat, repeats, run_census, family, n, draws, 1,
                                   masses[row]))
                     for row, family, n, draws, repeats in CENSUS]
                    + [((row, "masses"), partial(category_masses, family, n))
                       for row, family, n, _, _ in CENSUS])
    census_rows = [_row(row, [t / repeats for t in times[row]], samples=draws, repeats=repeats,
                        masses_median_seconds=_s(median(times[row, "masses"])))
                   for row, _, _, draws, repeats in CENSUS]

    times = _rounds([(row, partial(_sweep, argv)) for row, argv in SWEEPS])
    sweep_rows = [_row(row, times[row], argv=argv) for row, argv in SWEEPS]

    times = _rounds([(row, lambda call=call: sum(1 for _ in call())) for row, call in ENUM])
    enum_rows = [_row(row, times[row], trees=sum(1 for _ in call())) for row, call in ENUM]

    times = _rounds([(row, partial(_repeat, repeats, _count, family, n))
                     for row, family, n, repeats in COUNT])
    count_rows = [_row(row, [t / repeats for t in times[row]], repeats=repeats,
                       labeled_trees=_count(family, n))
                  for row, family, n, repeats in COUNT]

    peaks = {row: _peak_mb(verify, n_max) for row, verify, n_max, _ in IDENTITIES}
    times = _rounds([((row, n), partial(_holds, verify, n, repeats))
                     for row, verify, n_max, repeats in IDENTITIES
                     for n in range(1, n_max + 1)])
    identity_rows = []
    for row, _, n_max, repeats in IDENTITIES:
        per_n = [[t / repeats for t in times[row, n]] for n in range(1, n_max + 1)]
        identity_rows.append(_row(
            row, [sum(sweep) for sweep in zip(*per_n)], n_max=n_max, repeats=repeats,
            tracemalloc_peak_mb=peaks[row],
            median_seconds_by_n={n: _s(median(t)) for n, t in enumerate(per_n, 1)},
        ))

    doc = {
        "label": args.label,
        "commit": commit,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in (ROOT / "src" / "hooklab").glob("*.py")),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),  # what nproc prints
        "python": platform.python_version(),
        "clock": "CPU seconds of the benchmark thread scaled to a reference host speed "
                 "by the SpeedClock of perfbench/speed.py",
        "rounds": ROUNDS,
        "grow": grow_rows,
        "census": census_rows,
        # criterion 10's three gates, best rounds
        "census_total_seconds": _s(sum(r["best_seconds"] for r in census_rows[:3])),
        "sweeps": sweep_rows,
        "enum": enum_rows,
        "count": count_rows,
        "identities": identity_rows,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
