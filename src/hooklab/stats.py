"""Monte-Carlo validation of the growth sampler.

A census enumerates every reachable labeled tree of a family at size n with
its exact probability, its shape's closed form ``shape_probability``,
draws N samples through a table of growth histories, a block at a time, and
tallies observed counts per labeled tree (the finest possible categories).
A chi-squared test then compares observed against N * p.

Sampling is deterministic for a fixed (seed, n, family, N): samples are
split into fixed-size blocks, and each block gets its own generator seeded
by hashing (seed, block index).
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional

from .families import Family
from .identities import ConsistencyError
from .sampler import _Table, enumerate_labelings, shape_probability

BLOCK_SIZE = 10_000
EXPECTED_FLOOR = 5


class LowExpectedCountWarning(UserWarning):
    """Some category's expected count is below the classical floor of 5."""


def category_masses(family: Family, n: int) -> dict[str, Fraction]:
    """Exact probability of each labeled tree, keyed by its encoding: its
    shape's closed form, computed once per shape.

    Refuses families that cannot grow to size ``n`` and, through
    ``enumerate_labelings``, more than ``identities.TERM_LIMIT`` labeled
    trees; the masses always sum to exactly 1, anything else is a bug.
    """
    family.check_growable(n)
    masses: dict[str, Fraction] = {}
    for shape, labeled in groupby(enumerate_labelings(family, n), lambda lt: lt.shape):
        p = shape_probability(shape, family)
        masses.update((lt.enc, p) for lt in labeled)
    total = sum(masses.values())
    if total != 1:
        raise ConsistencyError(f"labeled-tree masses sum to {total}, not 1")
    return masses


def min_samples(masses: dict[str, Fraction]) -> int:
    """Smallest N keeping every expected count ``N * p`` of the category
    masses ``masses`` at or above the floor."""
    return math.ceil(EXPECTED_FLOOR / min(masses.values()))


@dataclass(frozen=True)
class CensusEntry:
    category: str
    observed: int
    expected: Fraction


@dataclass(frozen=True)
class Census:
    family_label: str
    n: int
    samples: int
    seed: int
    entries: tuple[CensusEntry, ...]


def _block_rng(seed: int, block: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{block}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def run_census(
    family: Family,
    n: int,
    samples: int,
    seed: int,
    masses: Optional[dict[str, Fraction]] = None,
) -> Census:
    """Draw ``samples`` trees through one ``sampler._Table``, one
    ``_Table.draws`` call per block on the block's own generator, and tally
    them against the exact masses: ``masses`` when the caller already has
    ``category_masses(family, n)``, which the exhaustive path computes here
    otherwise."""
    if samples < 1:
        raise ValueError("need at least one sample")
    table = _Table(family, n)
    if masses is None:
        masses = category_masses(family, n)
    tally: Counter = Counter()
    for block in range((samples + BLOCK_SIZE - 1) // BLOCK_SIZE):
        tally.update(table.draws(_block_rng(seed, block),
                                 min(BLOCK_SIZE, samples - block * BLOCK_SIZE)))
    unknown = set(tally) - set(masses)
    if unknown:
        raise ConsistencyError(f"sampler produced trees outside the census: {sorted(unknown)[:3]}")
    entries = tuple(
        CensusEntry(enc, tally.get(enc, 0), samples * p)
        for enc, p in sorted(masses.items())
    )
    return Census(family.label, n, samples, seed, entries)


def chi_squared_statistic(census: Census) -> float:
    stat = 0.0
    for entry in census.entries:
        expected = float(entry.expected)
        if expected == 0.0:
            raise ValueError(f"category {entry.category!r} has zero expected count")
        diff = entry.observed - expected
        stat += diff * diff / expected
    return stat


@dataclass(frozen=True)
class GofReport:
    family: str
    n: int
    samples: int
    seed: int
    categories: int
    statistic: float
    dof: int
    p_value: float
    alpha: float
    min_expected: float
    passed: bool

    def to_json_dict(self) -> dict:
        """The fields in order, ``samples`` keyed "N" and ``passed`` "pass"."""
        keys = {"samples": "N", "passed": "pass"}
        return {keys.get(name, name): value for name, value in vars(self).items()}


def chi_squared_gof(census: Census, alpha: float = 0.001) -> GofReport:
    """Test the census; passes when the tail probability is >= alpha."""
    if len(census.entries) < 2:
        raise ValueError("need at least two categories for a chi-squared test")
    min_expected = min(float(e.expected) for e in census.entries)
    if min_expected < EXPECTED_FLOOR:
        warnings.warn(
            f"smallest expected count is {min_expected:.3g} < {EXPECTED_FLOOR}; "
            "the chi-squared approximation may be poor",
            LowExpectedCountWarning,
            stacklevel=2,
        )
    stat = chi_squared_statistic(census)
    dof = len(census.entries) - 1
    p = chi2_sf(stat, dof)
    return GofReport(
        census.family_label,
        census.n,
        census.samples,
        census.seed,
        len(census.entries),
        stat,
        dof,
        p,
        alpha,
        min_expected,
        p >= alpha,
    )


def chi2_sf(x: float, dof: int) -> float:
    """Chi-squared survival function: P(X >= x) with ``dof`` degrees."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if x < 0:
        return 1.0
    return regularized_gamma_q(dof / 2.0, x / 2.0)


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a).

    Series for the lower function when x < a+1, Lentz's continued fraction
    for the upper one otherwise; both converge fast in that split.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_contfrac(a, x)


def _lower_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k))
    term = 1.0 / a
    total = term
    k = a
    for _ in range(1000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    else:
        raise ArithmeticError("lower incomplete gamma series failed to converge")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_contfrac(a: float, x: float) -> float:
    # Q(a,x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- ...))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError("upper incomplete gamma fraction failed to converge")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
