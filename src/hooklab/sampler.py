"""Random growth of increasing trees, one leaf per step.

A state is a tree with an increasing labeling (root 1, parents before
children).  Step k attaches a new leaf labeled k+1 at one of the addable
sites, chosen with the family's weight for a new child of the site's parent
p, which depends on p's address and on c_p, p's child count before the
attachment.  The weights, and every other family-specific rule, are methods
of the family objects in families.py; the chain here is the same for all
families.  A family object keeps the weights it has computed, so the trees it
grows, and the shapes a sweep walks with it, compute each weight once.  At
every state the site probabilities sum to exactly 1, so each step is a
genuine distribution; ``lemma_check`` sums them per vertex, open-slot
count times weight, in integers for Fractions, and ``_lemma``, the ``verify lemma``
sweep, does so once per shape.  The probability of landing on a given labeled tree
depends only on its shape: ``shape_probability`` gives it in closed form, and
``_labelprob``, the ``verify labelprob`` sweep, checks it against the chain's own law
on shapes, a map from encoding to mass pushed forward per vertex of the shapes the
family enumerates, each grown shape keyed by splicing (``_grown_keys``).

``grow`` runs on a flat state private to the call (``start``,
``addable_sites`` and ``attach`` certify it).  It keeps each vertex's open
slots, its weight as an integer over one common denominator D of the whole
growth, and its mass, that weight times its open-slot count.  A move marks
stale its parent, the new leaf and every vertex it re-addresses, and the
next step weighs only those anew (a vertex with no open slot gets unit and
mass 0 without a weight); where a new weight's denominator does not
divide D, D becomes their lcm and every kept weight and mass is scaled by
the same factor.  Every step then sums the masses of all vertices, in
preorder, into cumulative integers cum and raises ``ConsistencyError``
unless the last cum is D.  A draw takes one 64-bit integer u and picks the
first site with u/2^64 < cum/D: its vertex by bisection, then its slot.
That rule depends only on the value cum/D, not on the denominator that
holds it, so the draws are those of the step's own lcm; the per-step bias
is below 2^-64 with no floating point involved.  A census draws through
``_Table``, the same step by site, with each state's cuts kept, reading one
``randbytes`` call per chunk of draws as the ``getrandbits(64)`` words in turn.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm, prod
from struct import unpack
from typing import Callable, Iterator, Optional

from .families import Family, Probability, insert_child
from . import identities
from .identities import ConsistencyError, SizeLimitError, hook_values
from .trees import Address, LabeledTree, Tree, _labelings, _preorder, addresses


@dataclass(frozen=True)
class AddableSite:
    """A place a new leaf can go: under ``parent``, at child slot ``slot``."""

    parent: Address
    slot: int


@dataclass(frozen=True)
class GrowthState:
    tree: LabeledTree
    family: Family


def start(family: Family) -> GrowthState:
    return GrowthState(LabeledTree(family.node([]), (1,)), family)


def addable_sites(state: GrowthState) -> list[tuple[AddableSite, Probability]]:
    """Every site a new leaf may occupy with its probability, by parent address then slot."""
    return [(AddableSite(addr, slot), p) for _, addr, _, _, free, p
            in _open_vertices(state.family, state.tree.shape) for slot in free]


def _open_vertices(family: Family, shape: Tree) -> Iterator[tuple]:
    """Per vertex of ``shape`` with an open slot, in preorder: its preorder index, address,
    node, child items, open slots and weight."""
    for i, (addr, node) in enumerate(_preorder(shape)):
        items = node.child_items()
        free = family.open_slots(addr, items)
        if free:
            yield i, addr, node, items, free, family.weight(addr, len(items))


def _site_total(family: Family, shape: Tree) -> Probability:
    """The sum of ``shape``'s site probabilities, one term per vertex: its open-slot
    count times its weight; Fractions as integers over one lcm, symbolic ones exactly."""
    terms = [(len(free), p) for *_, free, p in _open_vertices(family, shape)]
    if all([type(p) is Fraction for _, p in terms]):
        D = lcm(*[p.denominator for _, p in terms])
        return Fraction(sum([k * p.numerator * (D // p.denominator) for k, p in terms]), D)
    return sum([p if k == 1 else k * p for k, p in terms])


def lemma_check(state: GrowthState) -> bool:
    """Do the site probabilities of this state sum to exactly 1?"""
    return _site_total(state.family, state.tree.shape) == 1


def _lemma(family: Family, n_max: int) -> Iterator[tuple[dict, bool]]:
    """``verify lemma``: does the lemma hold at every reachable state of size n, n = 1..n_max?
    A state's sites depend on its shape alone, so each shape is checked once, none
    skipped, by ``lemma_check``'s per-vertex total."""
    for n, count in enumerate(_labeling_count(family, n_max), 1):
        states = _within_limit(family, n, count)
        holds = all([_site_total(family, shape) == 1 for shape in family.shapes(n)])
        yield {"check": "lemma", "family": family.label, "n": n, "states": states,
               "holds": holds}, holds


def _grown_keys(family: Family, shape: Tree) -> Iterator[tuple]:
    """Per vertex of ``shape`` with an open slot, in preorder: its address, weight and,
    per open slot, the ``_grown(...).enc`` of a leaf there, spliced: ``shape.enc`` with
    the vertex's subtree (from the i-th "(", i its preorder index) as its node grown."""
    enc, leaf = shape.enc, family.node([])
    opens = [j for j, ch in enumerate(enc) if ch == "("]
    for i, addr, node, items, free, p in _open_vertices(family, shape):
        head, tail = enc[:opens[i]], enc[opens[i] + len(node.enc):]
        yield addr, p, [(slot, head + family.node(insert_child(items, slot, leaf)).enc + tail)
                        for slot in free]


def _labelprob(family: Family, n_max: int) -> Iterator[tuple[dict, bool]]:
    """``verify labelprob``: does the growth chain's law on shapes match the closed form,
    n = 1..n_max?  The law maps encodings to masses.  Pushed forward a step at a time, each
    vertex of each of ``family.shapes(n-1)`` gives the shape's mass times its weight to the
    keys ``_grown_keys`` splices for a leaf at each open slot.  The law must sit on exactly
    ``family.shapes(n)``, giving each shape S n! times its summand (hook_count(S) *
    shape_probability(S)), and sum to 1.  Being on shapes, it cannot compare labelings:
    ``equal_per_shape`` is always true."""
    law, kept = {family.node([]).enc: Fraction(1)}, []
    for n, count in enumerate(_labeling_count(family, n_max), 1):
        labelings = _within_limit(family, n, count)
        if n > 1:
            law, pushed = {}, law
            for shape in kept:
                p = pushed.get(shape.enc, 0)
                for _, q, keys in _grown_keys(family, shape):
                    mass = p * q
                    for _, key in keys:
                        law[key] = law.get(key, 0) + mass
        shapes, matches, kept = 0, True, []
        for shapes, shape in enumerate(family.shapes(n), 1):
            matches &= law.get(shape.enc, 0) == factorial(n) * family.hook_term(shape)
            if n < n_max:  # the shapes of size n_max are never grown from
                kept.append(shape)
        matches &= shapes == len(law)
        total = sum(law.values())
        holds = matches and total == 1
        yield {"check": "labelprob", "family": family.label, "n": n, "shapes": shapes,
               "labelings": labelings, "equal_per_shape": True, "matches_closed_form": matches,
               "total_mass": total, "holds": holds}, holds


def attach(state: GrowthState, site: AddableSite) -> GrowthState:
    """Grow a new leaf at ``site``, labeling it with the next integer."""
    shape = _grown(state.family, state.tree.shape, site.parent, site.slot)
    i = addresses(shape).index(site.parent + (site.slot,))
    labels = state.tree.preorder
    return GrowthState(LabeledTree(shape, labels[:i] + (len(labels) + 1,) + labels[i:]),
                       state.family)


def _grown(family: Family, node: Tree, parent: Address, slot: int) -> Tree:
    """``node`` with a new leaf at ``slot`` of the vertex at ``parent``, as
    ``insert_child`` puts it."""
    items = node.child_items()
    if not parent:
        return family.node(insert_child(items, slot, family.node([])))
    i = bisect_left(items, (parent[0],))
    items[i] = (parent[0], _grown(family, items[i][1], parent[1:], slot))
    return family.node(items)


StepCallback = Callable[[int, AddableSite, Fraction], None]


class _Flat:
    """One growth to ``n`` vertices, changed in place: per vertex (label - 1)
    its current address, (slot, child vertex) pairs by slot, open slots,
    ``unit`` (its weight times D) and ``mass`` (unit times its open-slot
    count); ``stale`` holds the vertices to weigh anew at the next step and
    ``order`` is preorder, i.e. address order."""

    def __init__(self, family: Family, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        family.check_growable(n)
        self.family, self.n, self.D = family, n, 1
        self.addr, self.kids, self.order, self.stale = [()], [[]], [0], {0}
        self.free, self.unit, self.mass = [[]], [0], [0]

    def step(self) -> tuple[list[int], int]:
        """The cumulative masses of the vertices in preorder and D: a vertex's
        cum / D is the mass of its sites and every earlier site.  Refreshes
        the stale vertices, then sums every vertex's mass and raises unless
        the total is exactly D, i.e. the site masses sum to exactly 1."""
        family, addr, kids, unit, mass, D = (self.family, self.addr, self.kids, self.unit,
                                             self.mass, self.D)
        for v in self.stale:
            free = self.free[v] = family.open_slots(addr[v], kids[v])
            if not free:
                unit[v] = mass[v] = 0
                continue
            p = family.weight(addr[v], len(kids[v]))
            q = p.denominator
            if D % q:
                scale = lcm(D, q) // D
                D *= scale
                unit[:] = [w * scale for w in unit]
                mass[:] = [w * scale for w in mass]
            w = unit[v] = p.numerator * (D // q)
            mass[v] = w * len(free)
        self.stale, self.D = set(), D
        cums = list(accumulate(map(mass.__getitem__, self.order)))
        if cums[-1] != D:
            raise ConsistencyError(f"site masses sum to {Fraction(cums[-1], D)}, not 1, growing "
                                   f"{family.label} trees to n={self.n} at {self.tree().enc}")
        return cums, D

    def sites(self) -> tuple[list[tuple[int, int, int]], int]:
        """``step`` by site: (vertex, slot, cum) per site in ``addable_sites`` order, and D."""
        cums, D = self.step()
        return [(v, slot, cum - self.mass[v] + self.unit[v] * j)
                for v, cum in zip(self.order, cums) for j, slot in enumerate(self.free[v], 1)], D

    def attach(self, v: int, slot: int) -> None:
        """Grow the next vertex at ``slot`` of ``v`` as ``insert_child`` puts
        it; the subtrees of children it moves on are re-addressed."""
        depth, new = len(self.addr[v]), len(self.addr)
        self.kids[v] = insert_child(self.kids[v], slot, new)
        self.addr.append(self.addr[v] + (slot,))
        self.kids.append([])
        self.free.append([])
        self.unit.append(0)
        self.mass.append(0)
        self.stale.update((v, new))
        todo = [child for s, child in self.kids[v] if self.addr[child][depth] != s]
        for x in todo:
            a = self.addr[x]
            self.addr[x] = a[:depth] + (a[depth] + 1,) + a[depth + 1 :]
            self.stale.add(x)
            todo += [child for _, child in self.kids[x]]
        insort(self.order, new, key=self.addr.__getitem__)

    def tree(self) -> LabeledTree:
        nodes: list = [None] * len(self.addr)
        for v in reversed(range(len(nodes))):  # children have larger labels
            nodes[v] = self.family.node([(s, nodes[c]) for s, c in self.kids[v]])
        return LabeledTree(nodes[0], [v + 1 for v in self.order])


def grow(family: Family, n: int, rng: random.Random,
         on_step: Optional[StepCallback] = None) -> LabeledTree:
    """Run the growth chain to ``n`` vertices; returns the labeled tree."""
    flat = _Flat(family, n)
    for label in range(2, n + 1):
        cums, D = flat.step()
        # the first site with u/2^64 < cum/D; for integers, u*D < cum << 64 iff (u*D) >> 64 < cum:
        # its vertex is the first whose cum exceeds x, its slot the one whose unit spans x
        x = (rng.getrandbits(64) * D) >> 64
        i = bisect_right(cums, x)
        v = flat.order[i]
        slot = flat.free[v][(x - cums[i] + flat.mass[v]) // flat.unit[v]]
        if on_step is not None:
            on_step(label, AddableSite(flat.addr[v], slot), Fraction(flat.unit[v], D))
        flat.attach(v, slot)
    return flat.tree()


_CHUNK = 128  # draws per randbytes call: a bounded buffer, few calls


class _Table:
    """The growth histories to size ``n`` that draws reach, built as they do:
    a node is [cuts, kids, path], a leaf the labeled encoding.  ``path`` is
    the node's (vertex, slot) moves from the root, and ``kids`` holds a site's
    move until a draw first takes it.  A site's cut ceil((cum << 64) / D)
    exceeds an integer u exactly when u/2^64 < cum/D, so ``draws`` lands where
    ``grow`` would: one ``randbytes`` call's little-endian 64-bit words are, in
    CPython, the ``getrandbits(64)`` calls it replaces, in turn."""

    def __init__(self, family: Family, n: int):
        self.family, self.n = family, n
        self.root = self._node(())  # its _Flat checks n

    def _node(self, path: tuple[tuple[int, int], ...]):
        """The node of ``path`` by replay; only the node's own state is
        stepped, so it is listed and its masses checked once."""
        flat = _Flat(self.family, self.n)
        for v, slot in path:
            flat.attach(v, slot)
        if len(path) == self.n - 1:
            return flat.tree().enc
        sites, D = flat.sites()
        cuts = [-((-cum << 64) // D) for _, _, cum in sites]
        return [cuts, [(v, slot) for v, slot, _ in sites], path]

    def draws(self, rng: random.Random, count: int) -> Iterator[str]:
        """``count`` trees' encodings: per step one 64-bit word, one bisection."""
        root, steps = self.root, self.n - 1
        if not steps:
            yield from repeat(root, count)
            return
        node = root
        for done in range(0, count, _CHUNK):
            k = min(_CHUNK, count - done)
            for u in unpack(f"<{steps * k}Q", rng.randbytes(8 * steps * k)):
                cuts, kids, path = node
                i = bisect_right(cuts, u)
                node = kids[i]  # the last cut is 2^64 > u
                if type(node) is not list:  # most steps reach a built inner node
                    if type(node) is tuple:  # a move not yet taken
                        node = kids[i] = self._node(path + (node,))
                    if type(node) is str:
                        yield node
                        node = root


def shape_probability(shape: Tree, family: Family) -> Probability:
    """Chance of any one fixed increasing labeling of ``shape``.

    Growth lands on every increasing labeling of a shape with the same
    probability: the family's hook-length summand times prod h_v.
    """
    family.check_shape(shape)
    return prod(hook_values(shape)) * family.hook_term(shape)


def _labeling_count(family: Family, n: int) -> Iterator[int]:
    """The number of reachable labeled trees of each size 1..``n`` in turn:
    size! times the sum of 1/prod h_v over its shapes, from one pass of
    ``family.hook_sizes(n)``, which makes no shape.  A sum that size! does
    not make an integer raises ``ConsistencyError``."""
    for size, hooks in enumerate(family.hook_sizes(n), 1):
        total = factorial(size) * hooks
        if total.denominator != 1:
            raise ConsistencyError(f"{size}! times the sum of 1/prod h_v over the {family.label} "
                                   f"shapes of size {size}{family.where} is {total}: a hook "
                                   f"product does not divide {size}!")
        yield total.numerator


def _within_limit(family: Family, n: int, count: int) -> int:
    """``count``, the labeled trees of size ``n``, unless it passes ``identities.TERM_LIMIT``;
    counts never fall with the size, so a sweep stops at its first size past it."""
    if count > identities.TERM_LIMIT:
        raise SizeLimitError(f"more than {identities.TERM_LIMIT} labeled {family.label} trees "
                             f"at n={n}{family.where}")
    return count


def enumerate_labelings(family: Family, n: int) -> Iterator[LabeledTree]:
    """Every reachable size-``n`` labeled tree: each increasing labeling of
    each of ``family.shapes(n)``, which growth reaches by one history each.
    Weights are never computed, so symbolic or out-of-range ones do no harm.
    The labelings are counted first, by ``_labeling_count``, which makes no
    shape, so past ``identities.TERM_LIMIT`` of them ``SizeLimitError`` comes
    before any shape is made."""
    for count in _labeling_count(family, n):
        _within_limit(family, n, count)
    for shape in family.shapes(n):
        for labels in _labelings(shape):
            yield LabeledTree(shape, labels)
