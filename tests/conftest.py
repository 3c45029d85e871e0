import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from hooklab import addable_sites, attach, parse_oracle, start

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


MIXED_ORACLE_TABLE = {"": 2, "0": 3, "1": 1, "default": "const:2"}


@pytest.fixture
def mixed_oracle(tmp_path):
    """Infinite tree with 2 root children, 3 under the first, 1 under the
    second, 2 everywhere else."""
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(MIXED_ORACLE_TABLE))
    return parse_oracle(f"file:{path}")
