"""Random growth of increasing trees, one leaf per step.

A state is a tree with an increasing labeling (root 1, parents before
children).  Step k attaches a new leaf labeled k+1 at one of the addable
sites, chosen with the family's weight for a new child of the site's parent
p, which depends on p's address and on c_p, p's child count before the
attachment.  The weights, and every other family-specific rule, are methods
of the family objects in families.py; the chain here is the same for all
families.  At every state the site probabilities sum to exactly 1, so each
step is a genuine distribution; the chain's n-th state is a uniformly chosen
increasing labeling, and the probability of landing on a given labeled tree
depends only on its shape.

Draws consume one 64-bit integer per step: the unit interval is split at
the exact cumulative probabilities and u/2^64 is located among them, so the
per-step bias is below 2^-64 with no floating point involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Iterator, Optional

from .families import Family, Probability
from .identities import ConsistencyError, hook_values
from .trees import Address, LabeledTree, Tree, _preorder, check_labeling


@dataclass(frozen=True)
class AddableSite:
    """A place a new leaf can go: under ``parent``, at child slot ``slot``."""

    parent: Address
    slot: int

    @property
    def address(self) -> Address:
        return self.parent + (self.slot,)


@dataclass(frozen=True)
class GrowthState:
    tree: LabeledTree
    family: Family


def single_root(family: Family) -> LabeledTree:
    return LabeledTree(family.root(), {(): 1})


def start(family: Family) -> GrowthState:
    return GrowthState(single_root(family), family)


def addable_sites(state: GrowthState) -> list[tuple[AddableSite, Probability]]:
    """Every site a new leaf may occupy with its probability, ordered by
    parent address then slot."""
    family = state.family
    sites = []
    for parent, node in _preorder(state.tree.shape):
        slots = family.open_slots(parent, node)
        if slots:
            p = family.weight(parent, len(node.child_items()))
            for slot in slots:
                sites.append((AddableSite(parent, slot), p))
    return sites


def lemma_check(state: GrowthState) -> bool:
    """Do the site probabilities of this state sum to exactly 1?"""
    return sum(p for _, p in addable_sites(state)) == 1


def attach(state: GrowthState, site: AddableSite) -> GrowthState:
    """Grow a new leaf at ``site``, labeling it with the next integer."""
    tree = state.tree
    shape, labels = state.family.attach(tree.shape, tree.labels, site.parent, site.slot)
    labels[site.address] = tree.shape.size + 1
    return GrowthState(LabeledTree(shape, labels), state.family)


StepCallback = Callable[[int, AddableSite, Fraction], None]


def grow(
    family: Family,
    n: int,
    rng: random.Random,
    on_step: Optional[StepCallback] = None,
) -> LabeledTree:
    """Run the growth chain to ``n`` vertices; returns the labeled tree."""
    if n < 1:
        raise ValueError("n must be at least 1")
    family.check_growable(n)
    state = start(family)
    while state.tree.shape.size < n:
        sites = addable_sites(state)
        site, p = _draw(sites, rng)
        if on_step is not None:
            on_step(state.tree.shape.size + 1, site, p)
        state = attach(state, site)
    return state.tree


def _draw(
    sites: list[tuple[AddableSite, Probability]], rng: random.Random
) -> tuple[AddableSite, Fraction]:
    """Pick a site: locate u/2^64 among the exact cumulative probabilities."""
    u = rng.getrandbits(64)
    cum = Fraction(0)
    for site, p in sites:
        cum += p
        if u * cum.denominator < cum.numerator << 64:
            return site, p
    # when the masses sum to 1 the final test is u < 2^64, which always holds
    raise ConsistencyError(f"site masses sum to {cum}, not 1; u/2^64 = {u}/2^64 lies past them")


def labeling_probability(tree: LabeledTree, family: Family) -> Probability:
    """Chance that growth produces exactly this labeled tree.

    Reconstructed from the labeling alone: vertex k+1's attachment
    probability at step k is determined by its parent's state among the
    vertices labeled 1..k, so c_p counts the siblings with smaller labels.
    For ordered trees the product comes out independent of which slots
    those siblings sit in.
    """
    check_labeling(tree)
    family.check_shape(tree.shape)
    siblings: dict[Address, list[int]] = {}
    for addr, label in tree.labels.items():
        if addr:
            siblings.setdefault(addr[:-1], []).append(label)
    total: Probability = Fraction(1)
    for parent, born in siblings.items():
        for label in born:
            earlier = sum(1 for other in born if other < label)
            total = total * family.weight(parent, earlier)
    return total


def shape_probability(shape: Tree, family: Family) -> Probability:
    """Chance of any one fixed increasing labeling of ``shape``.

    Growth lands on every increasing labeling of a shape with the same
    probability: the family's hook-length summand times prod h_v.
    """
    family.check_shape(shape)
    num, den = family.hook_term(shape)
    return num * Fraction(prod(hook_values(shape)), den)


def enumerate_labelings(family: Family, n: int) -> Iterator[LabeledTree]:
    """Every reachable size-``n`` labeled tree, by depth-first growth.

    Each increasing labeling has exactly one growth history, so there are
    no repeats.  Probabilities are never computed, so the ordered family
    may be symbolic or have any m here.
    """
    if n < 1:
        raise ValueError("n must be at least 1")

    def rec(state: GrowthState) -> Iterator[LabeledTree]:
        if state.tree.shape.size == n:
            yield state.tree
            return
        for parent, node in _preorder(state.tree.shape):
            for slot in family.open_slots(parent, node):
                yield from rec(attach(state, AddableSite(parent, slot)))

    yield from rec(start(family))
