import json
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hooklab import addable_sites, attach, families, parse_oracle, start
from hooklab.exact import TermSum

# The CLI tests run hooklab in subprocesses; let them import it
# from this checkout's src/ as the test process does (pyproject's pythonpath).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def catalan(n: int) -> int:
    """Catalan numbers by the additive recurrence, independent of any
    tree code."""
    c = [1]
    for i in range(n):
        c.append(sum(c[j] * c[i - j] for j in range(i + 1)))
    return c[n]


def odd_double_factorial(k: int) -> int:
    """1*3*5*...*k for odd k; 1 when k < 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def history_products(family, n: int) -> dict:
    """Every growth history to size n, walked through start, addable_sites
    and attach: {size: [(labeled tree it reaches, product of its site
    masses)]}.  No state of size n lists its sites."""
    reached = {}

    def walk(state, product):
        reached.setdefault(state.tree.size, []).append((state.tree, product))
        if state.tree.size < n:
            for site, p in addable_sites(state):
                walk(attach(state, site), product * p)

    walk(start(family), Fraction(1))
    return reached


class Multiset(Counter):
    """A value of the term folds for the tests: each exact summand mapped to
    the number of shapes that have it.  ``+`` adds the counts, ``*`` takes
    the product of every summand of one with every summand of the other, and
    an integer scales the counts, so a fold of these keeps every summand
    that production's sums add up."""

    @classmethod
    def of(cls, term) -> "Multiset":
        return cls({term: 1})

    def __add__(self, other: "Multiset") -> "Multiset":
        out = Multiset(self)
        out.update(other)
        return out

    def __mul__(self, other: "Multiset | int") -> "Multiset":
        if isinstance(other, int):
            return Multiset({term: other * count for term, count in self.items()})
        out = Multiset()
        for a, a_count in self.items():
            for b, b_count in other.items():
                out[a * b] += a_count * b_count
        return out

    __rmul__ = __mul__

    def term_sum(self) -> TermSum:
        """The sum and count that production folds in place of this multiset."""
        return TermSum(sum(count * term for term, count in self.items()), sum(self.values()))


def multiset_sizes(sizes, *args) -> list:
    """``list(sizes(*args))`` with the term folds run on ``Multiset`` values:
    ``sizes`` is a family's ``term_sizes`` or ``hook_sizes``, whose vertex
    factors (and ordered's weights C(m, k)) stay production's, each made the
    multiset that holds it once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "TermSum", Multiset.of)
        hook_factor = families._hook_factor
        patch.setattr(families, "_hook_factor", lambda width, h: Multiset.of(hook_factor(width, h)))
        return list(sizes(*args))


MIXED_ORACLE_TABLE = {"": 2, "0": 3, "1": 1, "default": "const:2"}


@pytest.fixture
def mixed_oracle(tmp_path):
    """Infinite tree with 2 root children, 3 under the first, 1 under the
    second, 2 everywhere else."""
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(MIXED_ORACLE_TABLE))
    return parse_oracle(f"file:{path}")
