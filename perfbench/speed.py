"""CPU time scaled to a reference host speed.

On a shared host the same single-threaded work takes up to twice the CPU
time while neighbours load the core, in spells that last 10-30 s, so runs
a minute apart differ by more than any change worth measuring.  While
commands run, a profiling timer therefore interrupts every ``INTERVAL`` CPU
seconds to time ``reference_work``, fixed interpreter work that never calls
hooklab.  A command's CPU time, less those samples' own cost, is multiplied
by ``(REFERENCE_SECONDS / s) ** SENSITIVITY``, s being the median sample
taken during it.  Host speed mostly cancels; a change to hooklab does not.

CPU time is read per thread (the workloads run on one): while a profiling
timer is armed, Linux serves the process-wide CPU clock from a cache
updated once per scheduler tick.

``SENSITIVITY`` is the elasticity of hooklab's CPU time to the reference
work's: on a 2-core shared x86_64 host, regressing the log CPU time of
hooklab commands on the log reference time gave slopes of 0.56-0.81, and
over 18 benchmark runs of the three workloads 0.7 gave the smallest spread
across seeds (mean (q3-q1)/median 0.058, against 0.106 at 1 and 0.217
unscaled).  ``REFERENCE_SECONDS`` is about a sample's duration there when
the core is not contended, so scaled seconds read like uncontended CPU
seconds on that host.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import thread_time

INTERVAL = 0.02
REFERENCE_SECONDS = 1.7e-4
SENSITIVITY = 0.7
MIN_SAMPLES = 5


class _Node:
    __slots__ = ("key", "pair", "table")

    def __init__(self, key, pair, table):
        self.key = key
        self.pair = pair
        self.table = table


_BIG = 3 ** 400
_DIVISOR = 7 ** 300 + 1


def reference_work() -> tuple:
    """About 0.3 ms of what hooklab spends its time on, none of it
    hooklab's: Fractions, small objects, tuples, dicts, strings, sorting and
    big-integer arithmetic.  The mix tracks the host's slowdown of hooklab's
    commands better than any one of its parts."""
    table: dict[tuple, int] = {}
    total = Fraction(0)
    for k in range(1, 40):
        key = (k, k % 3, f"x{k}")
        table[key] = table.get(key, 0) + k
        total += Fraction(k, 2 ** (k % 9))
    nodes = [_Node(i, (i, i + 1), {i: i}) for i in range(60)]
    by_pair = {node.pair: node for node in nodes}
    picked = [by_pair[(i, i + 1)].table for i in range(0, 60, 2)]
    nodes.sort(key=lambda node: -node.key)
    residue = sum(_BIG * (k + 1) // _DIVISOR % 1000003 for k in range(20))
    return "".join(str(v) for v in table.values()), total, picked, residue


def scale(reference: float) -> float:
    """Factor for CPU time measured while a reference sample took
    ``reference`` seconds."""
    return (REFERENCE_SECONDS / reference) ** SENSITIVITY


def time_reference() -> float:
    started = thread_time()
    reference_work()
    return thread_time() - started


def reference_median(count: int = 15) -> float:
    """Median duration of ``count`` back-to-back reference samples."""
    return statistics.median(time_reference() for _ in range(count))


class SpeedClock:
    """Measures scaled CPU seconds between ``mark()`` and ``seconds_since()``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples themselves took

    def __enter__(self) -> "SpeedClock":
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame) -> None:
        elapsed = time_reference()
        self.samples.append(elapsed)
        self.spent += elapsed

    def mark(self) -> tuple[float, float, int]:
        return thread_time(), self.spent, len(self.samples)

    def factor(self, first: int) -> float:
        """The scale for CPU time spent since sample ``first``, from the
        samples taken since, widened to the last MIN_SAMPLES when fewer."""
        window = self.samples[min(first, len(self.samples) - MIN_SAMPLES):]
        return scale(statistics.median(window))

    def seconds_since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(scaled, unscaled) CPU seconds since ``mark``, less the samples."""
        cpu_start, spent_start, first = mark
        cpu = thread_time() - cpu_start - (self.spent - spent_start)
        return cpu * self.factor(first), cpu
