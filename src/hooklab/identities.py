"""Exact hook-length sums over whole tree families.

The identities are one statement.  Growth lands on each of the n!/prod h_v
increasing labelings of a shape T with the same probability P(T) = prod w_v,
so summing the hook-length summand P(T)/prod h_v over every shape of size n
gives 1/n!:

  binary   sum of prod 1/(h_v * 2^(h_v-1))            equals 1/n!
  ordered  sum of prod C(m,c_v) / (h_v * m^(h_v-1))   equals 1/n!  (in m)
  tbar     sum of prod 1/(h_v * cbar_v^(h_v-1))       equals 1/n!
  binary'  sum of prod 1/((2h_v+1) * 2^(2h_v-1))      equals 1/(2n+1)!

h_v is the hook length of v (vertices in the subtree rooted at v, including
v itself, stored as ``node.size``), c_v its child count, cbar_v the
branching oracle's child count at v's ambient address.  The first three
summands are the families' ``hook_term`` methods (families.py).  binary' has
the same form over the hooks 2h_v+1 of the completed tree (see
``completion_count``); its vertex factor ``_han2_den`` lives here.  The
ordered sum is a Laurent polynomial in m that is secretly constant; it is
summed symbolically and compared as such.

A summand is a product of per-vertex factors, so a shape's summand is its
root's factor times its children's summands.  The sums never build a tree:
``Family.term_sizes(n)`` (for binary', ``families.slotted_term_sizes`` on
the complete binary tree with ``_han2_den``) yields, for each size 1..n in
turn, the sum of the summands of its shapes and the number of shapes, made
from the smaller sizes by the root decomposition.  That work grows with n
polynomially, not with the number of shapes, so no shape count bounds a sum,
and one pass of the fold reports on every size of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterator

from .exact import RationalFunction, TermSum
from .families import (
    BinaryFamily,
    BranchingOracle,
    Family,
    OrderedFamily,
    Probability,
    TbarFamily,
    enum_binary,
    slotted_term_sizes,
    _COMPLETE_BINARY,
)
from .trees import BinaryTree, OrderedTree, Tree, _labelings, _subtrees

BRUTE_FORCE_BOUND = 11
TERM_LIMIT = 10 ** 6  # labeled trees one enumeration yields or one count admits


class ConsistencyError(RuntimeError):
    """An exact-arithmetic invariant failed; indicates a bug, not bad input."""


class SizeLimitError(ValueError):
    """Input exceeds a hard size bound for an exponential-cost routine."""


def hook_values(t: Tree) -> list[int]:
    """Hook lengths of all vertices, as a multiset in no particular order."""
    return [node.size for node in _subtrees(t)]


def _han2_den(h: int) -> int:
    """A vertex's factor 1/((2h+1) * 2^(2h-1)) of the binary' summand, by
    its denominator."""
    return (2 * h + 1) << (2 * h - 1)


def han_lhs(n: int) -> Fraction:
    return verify_han(n).lhs


def han2_lhs(n: int) -> Fraction:
    return verify_han2(n).lhs


def tbar_lhs(oracle: BranchingOracle, n: int) -> Fraction:
    return verify_tbar(oracle, n).lhs


def yang_term(t: OrderedTree) -> RationalFunction:
    """The ordered-tree summand prod C(m,c_v) / (h_v * m^(h_v-1)), in m."""
    return OrderedFamily().hook_term(t)


def yang_lhs(n: int) -> RationalFunction:
    return verify_yang(n).lhs


def yang_sum_at(n: int, point: Fraction) -> Fraction:
    """The ordered-tree sum with every summand evaluated at a concrete m."""
    return _last(_verify("yang", n, OrderedFamily(point))).lhs


def hook_count(t: Tree) -> int:
    """Number of increasing labelings, n! / prod h_v, checked integral."""
    hook_prod = prod(hook_values(t))
    q, r = divmod(factorial(t.size), hook_prod)
    if r:
        raise ConsistencyError(f"hook product {hook_prod} does not divide {t.size}!")
    return q


def completion_count(t: BinaryTree) -> int:
    """Increasing labelings of the completion, (2n+1)! / prod (2h_v+1).

    Filling every empty child slot with a leaf gives a tree on 2n+1
    vertices whose new leaves all have hook 1 and whose old vertices have
    hook 2h_v+1.
    """
    hook_prod = prod(2 * h + 1 for h in hook_values(t))
    q, r = divmod(factorial(2 * t.size + 1), hook_prod)
    if r:
        raise ConsistencyError(f"completion hooks {hook_prod} do not divide {2 * t.size + 1}!")
    return q


def brute_force_labelings(t: Tree) -> int:
    """Count increasing labelings by direct backtracking.

    Places labels 1..n in order; a vertex is eligible once its parent is
    labeled.  Independent of the hook formula, so it can cross-check it.
    Refuses trees larger than ``BRUTE_FORCE_BOUND``.
    """
    if t.size > BRUTE_FORCE_BOUND:
        raise SizeLimitError(f"brute-force labeling count is limited to {BRUTE_FORCE_BOUND} "
                             f"vertices, got {t.size}")
    return sum(1 for _ in _labelings(t))


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    n: int
    lhs: Probability
    expected: Fraction
    holds: bool
    term_count: int

    def to_json_dict(self) -> dict:
        """The fields in order, the sums ``lhs`` and ``expected`` as strings."""
        exact = ("lhs", "expected")
        return {name: str(value) if name in exact else value for name, value in vars(self).items()}


def _verify(identity: str, n: int, family: Family | None = None) -> Iterator[IdentityReport]:
    """A report on ``sum == 1/n!`` for each n = 1..``n``, in turn, from one pass
    of ``family.term_sizes(n)``; with no family, on binary' against 1/(2n+1)!."""
    sizes = slotted_term_sizes(_COMPLETE_BINARY, n, lambda width, h: TermSum(
        Fraction(1, _han2_den(h)))) if family is None else family.term_sizes(n)
    for size, terms in enumerate(sizes, 1):
        expected = Fraction(1, factorial(2 * size + 1 if family is None else size))
        yield IdentityReport(identity, size, terms.total, expected, terms.total == expected,
                             terms.count)


def _last(reports: Iterator[IdentityReport]) -> IdentityReport:
    *_, report = reports
    return report


def verify_han(n: int) -> IdentityReport:
    return _last(_verify("han", n, BinaryFamily()))


def verify_yang(n: int) -> IdentityReport:
    return _last(_verify("yang", n, OrderedFamily()))


def verify_tbar(oracle: BranchingOracle, n: int) -> IdentityReport:
    return _last(_verify("tbar", n, TbarFamily(oracle)))


def verify_han2(n: int) -> IdentityReport:
    return _last(_verify("han2", n))


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
