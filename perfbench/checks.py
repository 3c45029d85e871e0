"""Correctness checks that do not trust the code under test.

Reference values come from ``math.factorial`` and closed-form counts
computed here: every verify ``lhs`` against 1/n! or 1/(2n+1)!, every sweep's
term, shape and labeling counts, every mc gate's category count and verdict,
and every sampled tree's labeling.  Each condition tested is one attempted
check; a false one is a failed check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial


class Tally:
    """Checks attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def oracle_counts(spec: str) -> tuple[int, ...]:
    """Child count by depth for ``const:K`` and ``depth:K1,K2,...`` specs."""
    kind, _, rest = spec.partition(":")
    if kind == "const":
        return (int(rest),)
    if kind == "depth":
        return tuple(int(tok) for tok in rest.split(","))
    raise ValueError(f"the benchmark has no reference for oracle {spec!r}")


def width_at(counts: tuple[int, ...], depth: int) -> int:
    return counts[min(depth, len(counts) - 1)]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def subtree_count(counts: tuple[int, ...], n: int) -> int:
    """Size-n rooted subtrees of the infinite tree with these child counts."""
    memo: dict[tuple[int, int], int] = {}

    def count(depth: int, size: int) -> int:
        if size == 1:
            return 1
        key = (min(depth, len(counts) - 1), size)
        if key not in memo:
            # coefficient of x^(size-1) in (1 + sum_t count(depth+1, t) x^t)^width
            slot = [1] + [count(depth + 1, t) for t in range(1, size)]
            poly = [1] + [0] * (size - 1)
            for _ in range(width_at(counts, depth)):
                poly = [sum(poly[i] * slot[k - i] for i in range(k + 1)) for k in range(size)]
            memo[key] = poly[size - 1]
        return memo[key]

    return count(0, n)


def labeling_count(family: str, oracle: str | None, n: int) -> int:
    """Increasing labelings of all size-n trees of a growth family.

    Whatever its shape, a k-vertex state has r + (b-1)(k-1) addable sites
    when every vertex offers b child slots and the root r: binary trees
    have r = b = 2 (k+1 sites), ordered trees r = 1, b = 3 (2k-1 sites:
    c+1 gaps at a vertex with c children), and a two-level oracle
    ``depth:r,b`` (or ``const:b``) its own counts.  The number of growth
    histories, one per labeling, is the product over k < n.
    """
    if family == "binary":
        root, below = 2, 2
    elif family == "ordered":
        root, below = 1, 3
    else:
        counts = oracle_counts(oracle)
        if len(counts) > 2:
            raise ValueError(f"no closed-form labeling count for oracle {oracle!r}")
        root, below = counts[0], counts[-1]
    total = 1
    for k in range(1, n):
        total *= root + (below - 1) * (k - 1)
    return total


def shape_count(family: str, oracle: str | None, n: int) -> int:
    if family == "binary":
        return catalan(n)
    if family == "ordered":
        return catalan(n - 1)
    return subtree_count(oracle_counts(oracle), n)


def reference_sum(identity: str, n: int) -> Fraction:
    """The closed form each hook-length sum must equal."""
    if identity == "han2":
        return Fraction(1, factorial(2 * n + 1))
    return Fraction(1, factorial(n))


def identity_terms(identity: str, oracle: str | None, n: int) -> int:
    if identity in ("han", "han2"):
        return catalan(n)
    if identity == "yang":
        return catalan(n - 1)
    return subtree_count(oracle_counts(oracle), n)


def _records(stdout: str, tally: Tally, what: str) -> list[dict]:
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        tally.check(False, f"{what}: output is not JSON lines ({exc})")
        return []


def _fraction(text: str) -> Fraction | None:
    """A printed constant such as ``1/720``; None for anything else."""
    try:
        return Fraction(text)
    except ValueError:
        return None


def check_verify(cmd, stdout: str, tally: Tally, perturb: bool = False) -> None:
    """One line per n = 1..n-max, each holding and matching its reference.

    ``perturb`` shifts the reference of the first line by 1/10^30, to show
    that a wrong value is caught.
    """
    records = _records(stdout, tally, cmd.key)
    tally.check([r.get("n") for r in records] == list(range(1, cmd.n + 1)),
                f"{cmd.key}: expected lines for n = 1..{cmd.n}")
    for r in records:
        n = r.get("n")
        where = f"{cmd.key} n={n}"
        tally.check(r.get("holds") is True, f"{where}: holds is not true")
        if "identity" in r:
            identity = r["identity"]
            ref = reference_sum(identity, n)
            if perturb:
                ref += Fraction(1, 10 ** 30)
                perturb = False
            tally.check(_fraction(r["lhs"]) == ref, f"{where}: lhs {r['lhs']} != {ref}")
            tally.check(_fraction(r["expected"]) == ref, f"{where}: expected {r['expected']} != {ref}")
            tally.check(r["term_count"] == identity_terms(identity, cmd.oracle, n),
                        f"{where}: term_count {r['term_count']}")
        elif r.get("check") == "lemma":
            tally.check(r["states"] == labeling_count(cmd.family, cmd.oracle, n),
                        f"{where}: states {r['states']}")
        else:
            tally.check(r.get("total_mass") == "1", f"{where}: total mass {r.get('total_mass')}")
            tally.check(r.get("equal_per_shape") is True and r.get("matches_closed_form") is True,
                        f"{where}: labelings of a shape disagree")
            tally.check(r.get("shapes") == shape_count(cmd.family, cmd.oracle, n),
                        f"{where}: shapes {r.get('shapes')}")
            tally.check(r.get("labelings") == labeling_count(cmd.family, cmd.oracle, n),
                        f"{where}: labelings {r.get('labelings')}")


def check_bridge(results: list[tuple[int, Fraction, Fraction]], n_max: int, tally: Tally) -> None:
    """(n, yang_sum_at(n, 2), han_lhs(n)) for n = 1..n_max."""
    tally.check([n for n, _, _ in results] == list(range(1, n_max + 1)), "bridge: missing n")
    for n, at_two, han in results:
        tally.check(at_two == han, f"bridge n={n}: yang_sum_at(n, 2) = {at_two} != han_lhs = {han}")
        tally.check(han == reference_sum("han", n), f"bridge n={n}: han_lhs = {han} != 1/n!")


def check_mc(cmd, argv: list[str], stdout: str, tally: Tally) -> None:
    records = _records(stdout, tally, cmd.key)
    if not tally.check(len(records) == 1, f"{cmd.key}: expected one record"):
        return
    r = records[0]
    seed = int(argv[argv.index("--seed") + 1])
    tally.check(r.get("pass") is True, f"{cmd.key} seed={seed}: pass is not true (p={r.get('p_value')})")
    tally.check(r.get("N") == cmd.count and r.get("n") == cmd.n and r.get("seed") == seed,
                f"{cmd.key}: record does not echo N, n and seed")
    tally.check(r.get("categories") == labeling_count(cmd.family, cmd.oracle, cmd.n),
                f"{cmd.key}: categories {r.get('categories')}")


def check_sample(cmd, stdout: str, tally: Tally, hooklab) -> None:
    """Each tree round-trips through decode and is an increasing labeling
    of a size-n tree of the family."""
    lines = stdout.splitlines()
    tally.check(len(lines) == cmd.count, f"{cmd.key}: {len(lines)} trees printed")
    kind = "slotted" if cmd.family == "tbar" else cmd.family
    counts = oracle_counts(cmd.oracle) if cmd.oracle else None
    for line in lines:
        try:
            tree = hooklab.decode(line, family=kind)
            hooklab.check_labeling(tree)
        except ValueError as exc:
            tally.check(False, f"{cmd.key}: {line}: {exc}")
            continue
        ok = isinstance(tree, hooklab.LabeledTree) and tree.enc == line and tree.size == cmd.n
        if ok and counts is not None:
            ok = _within_oracle(tree.shape, 0, counts)
        tally.check(ok, f"{cmd.key}: {line} is not a size-{cmd.n} {cmd.family} tree")


def _within_oracle(node, depth: int, counts: tuple[int, ...]) -> bool:
    return all(
        slot < width_at(counts, depth) and _within_oracle(child, depth + 1, counts)
        for slot, child in node.children
    )
