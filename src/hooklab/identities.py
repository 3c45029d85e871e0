"""Exact hook-length sums over whole tree families.

Each verifier enumerates a family exhaustively, accumulates the hook-length
terms in exact arithmetic, and compares against the closed form:

  binary   sum of prod 1/(h_v * 2^(h_v-1))            equals 1/n!
  ordered  sum of prod C(m,c_v) / (h_v * m^(h_v-1))   equals 1/n!  (in m)
  tbar     sum of prod 1/(h_v * cbar_v^(h_v-1))       equals 1/n!
  binary'  sum of prod 1/((2h_v+1) * 2^(2h_v-1))      equals 1/(2n+1)!

h_v is the hook length of v (vertices in the subtree rooted at v, including
v itself), c_v its child count, cbar_v the branching oracle's child count at
v's ambient address.  The ordered sum is a rational function of m that is
secretly constant; it is summed symbolically and compared as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Union

from .exact import RationalFunction, binomial_poly
from .families import BranchingOracle, enum_binary, enum_ordered, enum_tbar
from .trees import Address, BinaryTree, OrderedTree, SlottedTree, Tree

BRUTE_FORCE_BOUND = 11


class ConsistencyError(RuntimeError):
    """An exact-arithmetic invariant failed; indicates a bug, not bad input."""


class SizeLimitError(ValueError):
    """Input exceeds a hard size bound for an exponential-cost routine."""


def _hooks(node: Tree, out: list[int]) -> int:
    """Append the hook lengths of ``node``'s subtree to ``out``; return its size."""
    h = 1
    for _, child in node.child_items():
        h += _hooks(child, out)
    out.append(h)
    return h


def hook_values(t: Tree) -> list[int]:
    """Hook lengths of all vertices, as a multiset in no particular order."""
    out: list[int] = []
    _hooks(t, out)
    return out


def han_lhs(n: int) -> Fraction:
    return _han_sum(n)[0]


def _han_sum(n: int) -> tuple[Fraction, int]:
    # All terms divide n! * 2^(n(n-1)/2): hook products divide n! (the
    # labeling count n!/prod h_v is an integer) and the 2-exponent
    # sum(h_v - 1) is at most n(n-1)/2.  Accumulate an integer numerator.
    common = factorial(n) * 2 ** (n * (n - 1) // 2)
    num = 0
    count = 0
    for t in enum_binary(n):
        hooks = hook_values(t)
        den = 1
        shift = 0
        for h in hooks:
            den *= h
            shift += h - 1
        num += common // (den << shift)
        count += 1
    return Fraction(num, common), count


def han2_lhs(n: int) -> Fraction:
    return _han2_sum(n)[0]


def _han2_sum(n: int) -> tuple[Fraction, int]:
    # prod(2h_v+1) divides (2n+1)! because it is the hook product of the
    # completed tree's non-leaf hooks times the 2n+1 leaf hooks of 1; the
    # 2-exponent sum(2h_v-1) is at most n^2.
    common = factorial(2 * n + 1) * 2 ** (n * n)
    num = 0
    count = 0
    for t in enum_binary(n):
        hooks = hook_values(t)
        den = 1
        shift = 0
        for h in hooks:
            den *= 2 * h + 1
            shift += 2 * h - 1
        num += common // (den << shift)
        count += 1
    return Fraction(num, common), count


def tbar_lhs(oracle: BranchingOracle, n: int) -> Fraction:
    return _tbar_sum(oracle, n)[0]


def _tbar_sum(oracle: BranchingOracle, n: int) -> tuple[Fraction, int]:
    total = Fraction(0)
    count = 0
    for t in enum_tbar(oracle, n):
        total += Fraction(1, _tbar_denominator(oracle, t, ()))
        count += 1
    return total, count


def _tbar_denominator(oracle: BranchingOracle, node: SlottedTree, addr: Address) -> int:
    den = 1
    h = 1
    for slot, child in node.children:
        den *= _tbar_denominator(oracle, child, addr + (slot,))
        h += child.size
    return den * h * oracle.child_count(addr) ** (h - 1) if h > 1 else den * h


def yang_term(t: OrderedTree) -> RationalFunction:
    """The ordered-tree summand prod C(m,c_v) / (h_v * m^(h_v-1)), in m."""
    hooks: list[int] = []
    _hooks(t, hooks)
    hook_prod = 1
    shift = 0
    for h in hooks:
        hook_prod *= h
        shift += h - 1
    term = RationalFunction.monomial(-shift, Fraction(1, hook_prod))
    for c in _child_counts(t):
        term = term * binomial_poly(c)
    return term


def _child_counts(node: OrderedTree) -> Iterator[int]:
    yield len(node.children)
    for child in node.children:
        yield from _child_counts(child)


def yang_lhs(n: int) -> RationalFunction:
    return _yang_sum(n)[0]


def _yang_sum(n: int) -> tuple[RationalFunction, int]:
    total = RationalFunction.constant(0)
    count = 0
    for t in enum_ordered(n):
        total = total + yang_term(t)
        count += 1
    return total, count


def yang_sum_at(n: int, point: Fraction) -> Fraction:
    """Evaluate the ordered-tree sum term by term at a concrete m."""
    total = Fraction(0)
    for t in enum_ordered(n):
        total += yang_term(t).evaluate(point)
    return total


def hook_count(t: Tree) -> int:
    """Number of increasing labelings, n! / prod h_v, checked integral."""
    hooks = hook_values(t)
    prod = 1
    for h in hooks:
        prod *= h
    q, r = divmod(factorial(t.size), prod)
    if r:
        raise ConsistencyError(f"hook product {prod} does not divide {t.size}!")
    return q


def completion_count(t: BinaryTree) -> int:
    """Increasing labelings of the completion, (2n+1)! / prod (2h_v+1).

    Filling every empty child slot with a leaf gives a tree on 2n+1
    vertices whose new leaves all have hook 1 and whose old vertices have
    hook 2h_v+1.
    """
    hooks = hook_values(t)
    prod = 1
    for h in hooks:
        prod *= 2 * h + 1
    q, r = divmod(factorial(2 * t.size + 1), prod)
    if r:
        raise ConsistencyError(f"completion hooks {prod} do not divide {2 * t.size + 1}!")
    return q


def brute_force_labelings(t: Tree, max_size: int = BRUTE_FORCE_BOUND) -> int:
    """Count increasing labelings by direct backtracking.

    Places labels 1..n in order; a vertex is eligible once its parent is
    labeled.  Independent of the hook formula, so it can cross-check it.
    Refuses trees larger than ``max_size``.
    """
    if t.size > max_size:
        raise SizeLimitError(
            f"brute-force labeling count is limited to {max_size} vertices, got {t.size}"
        )

    def go(frontier: list[Tree]) -> int:
        if not frontier:
            return 1
        total = 0
        for i, node in enumerate(frontier):
            rest = frontier[:i] + frontier[i + 1 :]
            rest.extend(child for _, child in node.child_items())
            total += go(rest)
        return total

    return go([t])


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    n: int
    lhs: Union[Fraction, RationalFunction]
    expected: Fraction
    holds: bool
    term_count: int

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "lhs": str(self.lhs),
            "expected": str(self.expected),
            "holds": self.holds,
            "term_count": self.term_count,
        }


def verify_han(n: int) -> IdentityReport:
    lhs, count = _han_sum(n)
    expected = Fraction(1, factorial(n))
    return IdentityReport("han", n, lhs, expected, lhs == expected, count)


def verify_yang(n: int) -> IdentityReport:
    lhs, count = _yang_sum(n)
    expected = Fraction(1, factorial(n))
    return IdentityReport("yang", n, lhs, expected, lhs == expected, count)


def verify_tbar(oracle: BranchingOracle, n: int) -> IdentityReport:
    lhs, count = _tbar_sum(oracle, n)
    expected = Fraction(1, factorial(n))
    return IdentityReport("tbar", n, lhs, expected, lhs == expected, count)


def verify_han2(n: int) -> IdentityReport:
    lhs, count = _han2_sum(n)
    expected = Fraction(1, factorial(2 * n + 1))
    return IdentityReport("han2", n, lhs, expected, lhs == expected, count)


@dataclass(frozen=True)
class CompletionRow:
    """One binary tree's contribution to the completion-count identity.

    weight is prod 1/2^(2h_v-1); labelings * weight summed over the family
    telescopes to 1.
    """

    encoding: str
    hooks: tuple[int, ...]
    labelings: int
    weight: Fraction
    running_total: Fraction


def completion_census(n: int) -> list[CompletionRow]:
    rows = []
    total = Fraction(0)
    for t in enum_binary(n):
        hooks = sorted(hook_values(t))
        labelings = completion_count(t)
        shift = sum(2 * h - 1 for h in hooks)
        weight = Fraction(1, 1 << shift)
        total += labelings * weight
        rows.append(CompletionRow(t.enc, tuple(hooks), labelings, weight, total))
    return rows
