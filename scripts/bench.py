#!/usr/bin/env python3
"""Time the growth sampler, the census, the exhaustive sweeps, the tree
enumerators and the identity reports, write BENCH_<label>.json.

Every row is timed on perfbench/speed.py's ``SpeedClock``: CPU seconds of
this thread scaled to a reference host speed, so the host's fast and slow
spells mostly cancel (see that file).  Each table runs its rows in turn,
ROUNDS rounds over all rows, and reports each row's best and median round.

  grow     trees/s of ``grow`` per family: the Monte-Carlo gate's sizes
           (binary n=5, ordered m=10 n=4, tbar depth:2,3 n=4) and the
           ``sample`` sizes (n=24; ordered with m=24), from the best round.
           A row passes one family object to every round, so from the
           second round on it times a warm weight memo, which no CLI
           command sees: each command builds its family afresh
  sample   trees/s of the growth benchmark's three n=24 ``sample`` commands
           (binary 400 trees, ordered m=24 100, tbar depth:2,3 200, seed 1)
           through ``cli.main`` with stdout discarded, each call with a
           fresh family object, from the best round
  mc       the growth benchmark's three ``mc`` commands (criterion 10's
           configurations at that benchmark's sample counts, with the seeds
           perfbench/workloads.py derives from its default seed 1) through
           ``cli.main`` with stdout discarded, each call with a fresh family
           object, so a command's masses and table of growth histories are
           timed with its draws.  A round runs each command ``repeats``
           times in a row; the seconds reported are per command
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
           ordered with symbolic m to n=5 and to n=7 (the slowest sweeps).
           A round runs each sweep ``repeats`` times in a row, so that a
           round lasts about half a second; the seconds are per sweep
  enum     a count-only loop over ``enum_binary(12)``, ``enum_ordered(10)``
           and ``enum_tbar`` at n=8 with const:3 and depth:2,3
  count    ``sampler._labeling_count``, the number of labeled trees that
           ``verify lemma|labelprob`` print and ``mc`` checks before it
           builds its masses, at the sweeps' largest sizes (binary n=7,
           tbar depth:2,3 n=6 and n=7, ordered with symbolic m n=7), and
           its refusal of tbar const:50 at n=5, which has more than
           ``identities.TERM_LIMIT`` labeled trees.  A round runs each
           count ``repeats`` times in a row; the seconds are per count
  identities  the sweeps ``verify han`` to n=12, ``han2`` to n=11, ``tbar``
           to n=8 with const:3 and depth:2,3 and ``yang`` to n=8, each one
           ``cli.main`` call with stdout discarded.  A round runs each sweep
           ``repeats`` times in a row; the seconds reported are per sweep.
           An untimed pass first runs each sweep once under ``tracemalloc``
           and records its peak of traced memory in MB
  reach    the largest n to which each identity sweep of ``identities``
           (with ``--json``) runs within REACH_BUDGET scaled seconds, by
           doubling n and then bisecting; a row also ends where the sweep
           exits nonzero, past its ``--n-max`` bound (``stop`` "cap") or
           refused (``stop`` "refused"), else ``stop`` is "budget"
  tier1_wall_seconds  the wall seconds of one ``python -m pytest -q -p
           no:cacheprovider`` subprocess from the root of the checkout,
           the whole test suite, run last

The script stops unless each timed sweep exits 0 and the suite passes.

The file also records the machine, the number of cores, the Python version,
the commit of the checkout the script sits in (``git describe --always
--dirty``, so a run from an edited tree ends in "-dirty") and ``src_lines``,
the line count of its src/hooklab/*.py, which is also what the script imports.

Usage:
    python3 scripts/bench.py --label NAME
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import time
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
    identities,
    run_census,
)
from hooklab.cli import VERIFY  # noqa: E402
from hooklab.cli import main as cli_main  # noqa: E402
from hooklab.sampler import _labeling_count  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import DEFAULT_SEED, MC_BINARY, MC_ORDERED, MC_TBAR  # noqa: E402

ROUNDS = 5
SAMPLES = 200_000  # criterion 10's
REACH_BUDGET = 1.0  # scaled seconds, about what one sweep at a --n-max bound takes

# (row, family, n, trees per repeat)
GROW = [
    ("binary n=5", BinaryFamily(), 5, 4000),
    ("ordered m=10 n=4", OrderedFamily(10), 4, 4000),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4, 4000),
    ("binary n=24", BinaryFamily(), 24, 400),
    ("ordered m=24 n=24", OrderedFamily(24), 24, 100),
    ("tbar depth:2,3 n=24", TbarFamily(DepthBranching((2, 3))), 24, 200),
]

# (row, sample arguments, trees): the growth benchmark's n=24 sample commands
SAMPLE = [
    (row, ["sample", *args.split(), "--count", str(count), "--seed", "1"], count)
    for row, args, count in [
        ("binary n=24", "--family binary --n 24", 400),
        ("ordered m=24 n=24", "--family ordered --m 24 --n 24", 100),
        ("tbar depth:2,3 n=24", "--family tbar --oracle depth:2,3 --n 24", 200),
    ]
]

# (row, mc arguments, commands per round): the growth benchmark's mc commands
MC = [
    ("binary n=5", MC_BINARY.argv(DEFAULT_SEED), 10),
    ("ordered m=10 n=4", MC_ORDERED.argv(DEFAULT_SEED), 20),
    ("tbar depth:2,3 n=4", MC_TBAR.argv(DEFAULT_SEED), 20),
]

# (row, family, n, draws, censuses per round); the first three are
# criterion 10's gates
CENSUS = [
    ("binary n=5", BinaryFamily(), 5, SAMPLES, 2),
    ("ordered m=10 n=4", OrderedFamily(10), 4, SAMPLES, 3),
    ("tbar depth:2,3 n=4", TbarFamily(DepthBranching((2, 3))), 4, SAMPLES, 3),
    ("binary n=7", BinaryFamily(), 7, 50_000, 3),
]

# (row, verify arguments, sweeps per round)
SWEEPS = [
    (f"{check} {name}", ["verify", check, *args], repeats)
    for name, args, repeats in [
        ("binary n<=7", ["--family", "binary", "--n-max", "7"], 20),
        ("tbar depth:2,3 n<=6", ["--family", "tbar", "--oracle", "depth:2,3", "--n-max", "6"], 10),
        ("ordered symbolic n<=5", ["--family", "ordered", "--m", "symbolic", "--n-max", "5"], 250),
        ("ordered symbolic n<=7", ["--family", "ordered", "--m", "symbolic", "--n-max", "7"], 25),
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

# (row, verify arguments, largest n, sweeps per round)
IDENTITIES = [
    ("han", ["han"], 12, 20),
    ("han2", ["han2"], 11, 40),
    ("tbar const:3", ["tbar", "--oracle", "const:3"], 8, 40),
    ("tbar depth:2,3", ["tbar", "--oracle", "depth:2,3"], 8, 40),
    ("yang", ["yang"], 8, 40),
]


def _argv(args: list[str], n_max: int) -> list[str]:
    return ["verify", *args, "--n-max", str(n_max), "--json"]


def _sweep(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli_main(argv)


def _passes(argv: list[str]) -> None:
    if _sweep(argv) != 0:
        raise SystemExit(f"{' '.join(argv)} did not exit 0")


def _grow(family, n: int, count: int) -> None:
    rng = random.Random(1)
    for _ in range(count):
        grow(family, n, rng)


def _repeat(repeats: int, work, *args) -> None:
    for _ in range(repeats):
        work(*args)


def _count(family, n: int) -> int | None:
    """The number of labeled trees of size ``n``, None past
    ``identities.TERM_LIMIT``.  ``_labeling_count`` yields the count of each
    size 1..n; at older commits it returned the one count, or refused, so
    this runs there too."""
    try:
        count = _labeling_count(family, n)
    except SizeLimitError:
        return None
    if not isinstance(count, int):
        *_, count = count
    return count if count <= identities.TERM_LIMIT else None


def _peak_mb(argv: list[str]) -> float:
    """The peak of memory traced by ``tracemalloc`` over one sweep, in MB."""
    tracemalloc.start()
    try:
        _passes(argv)
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)
    finally:
        tracemalloc.stop()


def _reach(clock: SpeedClock, args: list[str]) -> dict:
    """The largest n whose sweep exits 0 within REACH_BUDGET scaled seconds,
    its seconds, what stopped the next n, and every run's exit status and
    seconds by n."""
    bound = VERIFY[args[0]][1]
    runs = {}

    def run(n: int) -> bool:
        mark = clock.mark()
        with contextlib.redirect_stderr(io.StringIO()):
            status = _sweep(_argv(args, n))
        runs[n] = status, _s(clock.seconds_since(mark)[0])
        return status == 0 and runs[n][1] <= REACH_BUDGET

    good, bad = 0, 1
    while run(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:
        middle = (good + bad) // 2
        good, bad = (middle, bad) if run(middle) else (good, middle)
    status, _ = runs[bad]
    stop = "budget" if status == 0 else "cap" if bad > bound else "refused"
    return {"reach": good, "seconds": runs[good][1] if good else None, "stop": stop,
            "runs": {n: list(runs[n]) for n in sorted(runs)}}


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


def _tier1_wall_seconds() -> float:
    """The wall seconds of one run of the whole test suite in a subprocess."""
    started = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if run.returncode != 0:
        raise SystemExit(f"the test suite exited {run.returncode}:\n{run.stdout[-2000:]}")
    return _s(seconds)


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

    times = _rounds([(row, partial(_passes, argv)) for row, argv, _ in SAMPLE])
    sample_rows = [_row(row, times[row], argv=argv, trees=count,
                        trees_per_s=round(count / min(times[row])))
                   for row, argv, count in SAMPLE]

    times = _rounds([(row, partial(_repeat, repeats, _passes, argv)) for row, argv, repeats in MC])
    mc_rows = [_row(row, [t / repeats for t in times[row]], argv=argv, repeats=repeats)
               for row, argv, repeats in MC]

    masses = {row: category_masses(family, n) for row, family, n, _, _ in CENSUS}
    times = _rounds([(row, partial(_repeat, repeats, run_census, family, n, draws, 1,
                                   masses[row]))
                     for row, family, n, draws, repeats in CENSUS]
                    + [((row, "masses"), partial(category_masses, family, n))
                       for row, family, n, _, _ in CENSUS])
    census_rows = [_row(row, [t / repeats for t in times[row]], samples=draws, repeats=repeats,
                        masses_median_seconds=_s(median(times[row, "masses"])))
                   for row, _, _, draws, repeats in CENSUS]

    times = _rounds([(row, partial(_repeat, repeats, _passes, argv))
                     for row, argv, repeats in SWEEPS])
    sweep_rows = [_row(row, [t / repeats for t in times[row]], argv=argv, repeats=repeats)
                  for row, argv, repeats in SWEEPS]

    times = _rounds([(row, lambda call=call: sum(1 for _ in call())) for row, call in ENUM])
    enum_rows = [_row(row, times[row], trees=sum(1 for _ in call())) for row, call in ENUM]

    times = _rounds([(row, partial(_repeat, repeats, _count, family, n))
                     for row, family, n, repeats in COUNT])
    count_rows = [_row(row, [t / repeats for t in times[row]], repeats=repeats,
                       labeled_trees=_count(family, n))
                  for row, family, n, repeats in COUNT]

    peaks = {row: _peak_mb(_argv(identity, n_max)) for row, identity, n_max, _ in IDENTITIES}
    times = _rounds([(row, partial(_repeat, repeats, _passes, _argv(identity, n_max)))
                     for row, identity, n_max, repeats in IDENTITIES])
    identity_rows = [_row(row, [t / repeats for t in times[row]], argv=_argv(identity, n_max),
                          repeats=repeats, tracemalloc_peak_mb=peaks[row])
                     for row, identity, n_max, repeats in IDENTITIES]

    reach_rows = []
    with SpeedClock() as clock:
        for row, identity, _, _ in IDENTITIES:
            reach_rows.append({"row": row, "budget_seconds": REACH_BUDGET,
                               **_reach(clock, identity)})
            print(json.dumps(reach_rows[-1]), flush=True)

    tier1 = _tier1_wall_seconds()
    print(json.dumps({"tier1_wall_seconds": tier1}), flush=True)

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
        "sample": sample_rows,
        "mc": mc_rows,
        "census": census_rows,
        # criterion 10's three gates, best rounds
        "census_total_seconds": _s(sum(r["best_seconds"] for r in census_rows[:3])),
        "sweeps": sweep_rows,
        "enum": enum_rows,
        "count": count_rows,
        "identities": identity_rows,
        "reach": reach_rows,
        "tier1_wall_seconds": tier1,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
