"""Tree families: branching oracles, family specs, exhaustive enumerators.

Each family spec also owns its rules for the growth chain (see sampler.py),
so the chain itself never branches on the family, and its hook-length
summand (see identities.py).

The three families are binary trees, ordered trees weighted by a variable m,
and rooted subtrees of a fixed infinite ordered tree.  The infinite tree is
never materialized: a branching oracle maps each vertex address to its child
count (always finite and at least 1), and enumeration and sampling query it
lazily, never deeper than the tree size they are producing.  The binary
trees are the rooted subtrees of the complete binary tree, so the binary
family is the tbar family on ``const:2``, with binary nodes in place of
slotted ones; it keeps its own enumerator and its own walk for the summand.

Enumerators yield each tree exactly once in lexicographic order of its
canonical encoding, and they stream: all they hold is the chain of
recursive generators down to the tree they yield next.  Encodings are
prefix-free, so two trees compare at their first differing child, and the
character after a shared prefix decides: for binary trees a present child
"(" sorts before an absent one ".", for ordered trees another child "("
before the closing ")", for slotted trees the closing ")" before another
"[slot]".  So one generator per family yields every tree of sizes 1..k at
an address in encoding order, and the exact-size stream draws its first
child from it; no merge of per-size streams is needed.

The identity sums enumerate nothing.  A shape's hook-length summand is its
root's factor times its children's summands, so the sum over the shapes of
size n follows from the sums of the smaller sizes by the root decomposition:
the root's factor times the product of its children's sums, over the ways to
fill the root by subtree sizes (an ordered root's sequence of children, the
filled slots of a slotted root).  Every family takes one fold, the slotted
one.  An ordered tree with child counts c_v stands for the prod C(m, c_v)
rooted subtrees of the complete m-ary tree that fill c_v slots at each v, so
the ordered sums run on the complete n-ary tree, which has room for every
child count of a tree on n vertices, with the weight C(m, k) where a group
of q slots has C(q, k).  The fold uses only ``+`` and ``*`` on the values the
vertex factor and the weight return: ``hook_sizes`` folds Fractions and
``term_sizes`` a ``TermSum``, the sum with its number of shapes.  So
``term_sizes(n)``, which yields the sizes 1..n in turn, builds no tree and
asks the oracle once per subtree key.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from operator import add
from typing import Callable, Hashable, Iterator, Union

from .exact import RationalFunction, TermSum, binomial_poly
from .trees import Address, BinaryTree, OrderedTree, SlottedTree, Tree, _preorder, _subtrees

COUNT_LIMIT = 10 ** 6  # the most children a parsed oracle gives one vertex
WEIGHT_MEMO = 1 << 16  # the most weights a family object keeps before it clears them


class FamilyConfigError(ValueError):
    """Family parameters that cannot define a valid growth process."""


class OracleSyntaxError(ValueError):
    """Malformed branching-oracle string."""


class BranchingOracle:
    """Lazy description of an infinite ordered tree by child counts."""

    def child_count(self, addr: Address) -> int:
        raise NotImplementedError

    def subtree_key(self, addr: Address) -> Hashable:
        """A key for the part of the infinite tree at and below ``addr``:
        two addresses with equal keys have equal child counts at every
        address relative to them, so the tbar fold shares their sums.
        The address is always a safe key; a subclass returns a coarser one
        where its rule allows."""
        return addr


@dataclass(frozen=True)
class ConstantBranching(BranchingOracle):
    """Every vertex has the same number of children."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise FamilyConfigError("child counts must be at least 1")

    def child_count(self, addr: Address) -> int:
        return self.count

    def subtree_key(self, addr: Address) -> Hashable:
        return ()

    def __str__(self) -> str:
        return f"const:{self.count}"


# the complete binary tree, whose rooted subtrees are the binary trees
_COMPLETE_BINARY = ConstantBranching(2)


@dataclass(frozen=True)
class DepthBranching(BranchingOracle):
    """Child count depends on depth; the last entry repeats below."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise FamilyConfigError("depth rule needs at least one count")
        if any(c < 1 for c in self.counts):
            raise FamilyConfigError("child counts must be at least 1")

    def child_count(self, addr: Address) -> int:
        return self.counts[min(len(addr), len(self.counts) - 1)]

    def subtree_key(self, addr: Address) -> Hashable:
        return min(len(addr), len(self.counts) - 1)

    def __str__(self) -> str:
        return "depth:" + ",".join(str(c) for c in self.counts)


@dataclass(frozen=True)
class TableBranching(BranchingOracle):
    """Explicit counts for listed addresses, a fallback rule elsewhere."""

    entries: tuple[tuple[Address, int], ...]
    default: BranchingOracle

    def __post_init__(self):
        if any(c < 1 for _, c in self.entries):
            raise FamilyConfigError("child counts must be at least 1")
        object.__setattr__(self, "_lookup", dict(self.entries))
        # the addresses at or above a listed one; below any other, the default rules
        above = {addr[:depth] for addr, _ in self.entries for depth in range(len(addr) + 1)}
        object.__setattr__(self, "_above", above)

    def child_count(self, addr: Address) -> int:
        count = self._lookup.get(addr)
        if count is not None:
            return count
        return self.default.child_count(addr)

    def subtree_key(self, addr: Address) -> Hashable:
        """The address at or above a listed address, else the default's key:
        no listed address lies at or below ``addr`` then.  Without it the sum
        groups the slots of a wide default vertex one by one."""
        if addr in self._above:
            return addr
        return "default", self.default.subtree_key(addr)

    def __str__(self) -> str:
        listed = ",".join(
            "{}={}".format("/".join(map(str, a)), c) for a, c in self.entries
        )
        return f"table:{{{listed}}};default:{self.default}"


def parse_oracle(spec: str) -> BranchingOracle:
    """Parse an oracle spec: ``const:K``, ``depth:K1,K2,...`` or ``file:PATH``.

    The file form is a JSON object mapping slash-joined addresses such as
    ``"0/2/1"`` (the root is ``""``; no leading zeros, each step below its
    parent's child count) to child counts, which are JSON integers, plus a
    mandatory ``"default"`` entry holding a const/depth spec string for
    unlisted addresses.  No key may appear twice.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise OracleSyntaxError(f"oracle spec {spec!r} has no ':'")
    if kind == "const":
        return ConstantBranching(_parse_count(rest))
    if kind == "depth":
        counts = tuple(_parse_count(tok) for tok in rest.split(","))
        return DepthBranching(counts)
    if kind == "file":
        try:
            with open(rest, encoding="ascii") as fh:
                data = json.load(fh, object_pairs_hook=_distinct_keys, parse_int=_json_int)
        except OSError as exc:
            raise OracleSyntaxError(f"cannot read oracle file {rest!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise OracleSyntaxError(f"oracle file {rest!r} is not ASCII: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise OracleSyntaxError(f"oracle file {rest!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or "default" not in data:
            raise OracleSyntaxError(f"oracle file {rest!r} must be an object with a 'default' entry")
        default_spec = data.pop("default")
        if not isinstance(default_spec, str) or default_spec.startswith("file:"):
            raise OracleSyntaxError(f"the 'default' entry of oracle file {rest!r} must be a "
                                    f"const or depth spec string, got {default_spec!r}")
        default = parse_oracle(default_spec)
        entries = []
        for key, value in sorted(data.items()):
            if type(value) is not int:  # JSON true is a bool, which Python counts as an int
                raise OracleSyntaxError(f"child count {value!r} at {key!r} is not a JSON integer")
            entries.append((_parse_address(key), _parse_count(value)))
        oracle = TableBranching(tuple(entries), default)
        for key, (addr, _) in zip(sorted(data), entries):
            for depth, step in enumerate(addr):
                if step >= oracle.child_count(addr[:depth]):
                    raise OracleSyntaxError(f"address key {key!r} steps past its parent's children")
        return oracle
    raise OracleSyntaxError(f"unknown oracle kind {kind!r}")


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key it gives twice is an error, not the last one."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise OracleSyntaxError(f"oracle file repeats the key {key!r}")
        data[key] = value
    return data


def _json_int(digits: str) -> int:
    """An oracle file's integer; past the digits of ``COUNT_LIMIT`` it is refused before
    ``int()``, which refuses more than 4300, as ``_parse_count`` does."""
    if len(digits.lstrip("-0")) > len(str(COUNT_LIMIT)):
        raise OracleSyntaxError(f"child count of {len(digits)} characters is beyond the bound "
                                f"{COUNT_LIMIT}")
    return int(digits)


def _parse_count(token: str | int) -> int:
    """A child count: ASCII digits in a spec, a JSON integer in a file, at
    most ``COUNT_LIMIT``: a vertex with more already has more than
    ``identities.TERM_LIMIT`` (10^6) labeled trees of size 2."""
    if isinstance(token, str) and not (token.isascii() and token.isdigit()):
        raise OracleSyntaxError(f"bad child count {token!r}")
    # the length first, as int() refuses more than 4300 digits
    if len(str(token).lstrip("0")) > len(str(COUNT_LIMIT)) or int(token) > COUNT_LIMIT:
        raise OracleSyntaxError(f"child count {token!r} is above the bound {COUNT_LIMIT}")
    count = int(token)
    if count < 1:
        raise OracleSyntaxError(f"child count {token!r} must be at least 1")
    return count


def _parse_address(key: str) -> Address:
    if key == "":
        return ()
    steps = key.split("/")
    if not all(step.isascii() and step.isdigit() and step == str(int(step)) for step in steps):
        raise OracleSyntaxError(f"bad address key {key!r}: steps are nonnegative integers "
                                "without leading zeros")
    return tuple(map(int, steps))


Probability = Union[Fraction, RationalFunction]


class ProbabilityRangeError(ValueError):
    """A site probability left [0, 1]; the family parameters are unusable."""


def _hook_factor(_, h: int) -> Fraction:
    """A vertex's factor 1/h of the hook products' fold."""
    return Fraction(1, h)


def _tbar_factor(width: int | None, h: int) -> TermSum:
    """A vertex's factor of the tbar summand, from ``TbarFamily.hook_den``, in the term fold."""
    return TermSum(Fraction(1, TbarFamily.hook_den(width, h)))


# Each family owns its growth rules: its shapes of size n, a vertex's open
# slots from its address and (slot, child) pairs (a used slot puts the leaf
# before its child), the probability ("weight") of a new vertex, building a
# node (``node([])`` is a leaf), and the shape and growability checks.  A
# weight depends on the parent's address and child count c alone, not on the
# slot, the labels or the rest of the tree, so each family object keeps the
# weights its ``_rule`` has computed by (parent, c), in the one memo of the
# base class ``_Memoized``, and every tree one command grows with it reads
# them from there.  Binary growth is tbar's on ``const:2``: ``BinaryFamily``
# inherits tbar's rules and changes only its shapes, nodes and shape check
# (slot 0 is the left child, slot 1 the right), and its hook_term walk.
# The hook-length summand hook_term(shape) is prod w_v/h_v, an exact value,
# with h_v = node.size: growth lands on each of a shape's n!/prod h_v
# increasing labelings with probability prod w_v.  Its per-vertex factor is
# one family rule (tbar's ``hook_den``, which binary reads at width 2;
# ordered's ``binomial`` times ``hook_factor``), which hook_term multiplies
# over a shape and term_sizes(n) over the root decomposition: for each size
# 1..n in turn it yields the sum of the summands of shapes(size) with their
# number, and builds no tree.
# hook_sizes(n) runs the same fold with the factor 1/h_v, so size! times its
# sum counts the labelings.  Shapes never get fewer as the size grows: a first
# child below a shape's last vertex in preorder is the new last vertex, so
# distinct shapes grow into distinct shapes.
# Messages name a family by its label followed by ``where``, the parameter a
# user would change ("" when the label says it all).


@dataclass(frozen=True)
class _Memoized:
    """A family's weights, each kept once its ``_rule`` computes it."""

    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weight(self, parent: Address, c: int) -> Probability:
        """``self._rule(parent, c)``, kept in ``self._weights``, which holds at
        most ``WEIGHT_MEMO`` weights: a full memo is cleared before the next is
        kept.  A rule that raises keeps nothing, so the next call raises again."""
        weights = self._weights
        key = parent, c
        p = weights.get(key)
        if p is None:
            p = self._rule(parent, c)
            if len(weights) >= WEIGHT_MEMO:
                weights.clear()
            weights[key] = p
        return p


@dataclass(frozen=True)
class OrderedFamily(_Memoized):
    """Ordered trees; ``m`` is the weight value, None meaning symbolic."""

    m: Fraction | None = None

    label = "ordered"
    where = ""

    def __post_init__(self):
        if self.m is not None:
            object.__setattr__(self, "m", Fraction(self.m))
            if self.m == 0:
                raise FamilyConfigError(
                    "ordered weights divide by m^depth, so m must be nonzero, got m=0"
                )

    def shapes(self, n: int) -> Iterator[OrderedTree]:
        return enum_ordered(n)

    def open_slots(self, addr: Address, children) -> range:
        return range(len(children) + 1)

    def _rule(self, parent: Address, c: int) -> Probability:
        """(m - c) / ((c + 1) * m^depth) with the depth of the new vertex;
        raises unless it lies in [0, 1]."""
        depth = len(parent) + 1
        if self.m is None:
            return RationalFunction.from_ints((-c, 1), c + 1, -depth)
        # m = a/b: (a - cb) b^(depth-1) / ((c+1) a^depth), one Fraction
        a, b = self.m.numerator, self.m.denominator
        p = Fraction((a - c * b) * b ** (depth - 1), (c + 1) * a ** depth)
        if p.numerator < 0 or p.numerator > p.denominator:
            raise ProbabilityRangeError(
                f"ordered growth with m={self.m} gives probability {p} to a "
                f"depth-{depth} vertex whose parent has {c} earlier children"
            )
        return p

    def node(self, children) -> OrderedTree:
        return OrderedTree([child for _, child in children])

    def check_shape(self, shape: Tree) -> None:
        if not isinstance(shape, OrderedTree):
            raise FamilyConfigError("shape is not an ordered tree")

    def check_growable(self, n: int) -> None:
        if self.m is None:
            raise FamilyConfigError("growing ordered trees needs a concrete m")
        if self.m < n - 1:
            raise FamilyConfigError(
                f"ordered growth to size {n} needs m >= {n - 1}, got {self.m}"
            )

    def binomial(self, c: int) -> Probability:
        """C(m, c), the ways a vertex of the complete m-ary tree fills c of its
        slots: symbolic m, a polynomial; m = p/q, p(p-q)...(p-(c-1)q) / (q^c c!)."""
        if self.m is None:
            return binomial_poly(c)
        return Fraction(*self._parts(c, 1))

    def hook_factor(self, h: int) -> Probability:
        """1 / (h * m^(h-1)) for hook h, tbar's vertex factor at width m."""
        if self.m is None:
            return RationalFunction.monomial(1 - h, Fraction(1, h))
        return Fraction(*self._parts(0, h))

    def _parts(self, c: int, h: int) -> tuple[int, int]:
        """C(m, c) / (h * m^(h-1)) at m = p/q as an unreduced (numerator, denominator)."""
        p, q = self.m.numerator, self.m.denominator
        return (prod([p - i * q for i in range(c)]) * q ** (h - 1),
                q ** c * factorial(c) * h * p ** (h - 1))

    def term_sizes(self, n: int) -> Iterator[TermSum]:
        # on the complete n-ary tree; n < 1 is the fold's to refuse
        return slotted_term_sizes(ConstantBranching(max(n, 1)), n,
                                  lambda width, h: TermSum(self.hook_factor(h)),
                                  lambda q, k: TermSum(self.binomial(k)))

    def hook_sizes(self, n: int) -> Iterator[Fraction]:
        return slotted_term_sizes(ConstantBranching(max(n, 1)), n, _hook_factor, lambda q, k: 1)

    def hook_term(self, shape: OrderedTree) -> Probability:
        """prod C(m,c_v) / (h_v * m^(h_v-1)), a leaf's factor being 1; at a
        concrete m the numerators and the denominators are multiplied apart."""
        inner = [(len(node.children), node.size) for node in _subtrees(shape) if node.children]
        if self.m is None:
            return prod([self.binomial(c) * self.hook_factor(h) for c, h in inner])
        parts = [self._parts(c, h) for c, h in inner]
        return Fraction(prod([a for a, _ in parts]), prod([b for _, b in parts]))


@dataclass(frozen=True)
class TbarFamily(_Memoized):
    oracle: BranchingOracle

    label = "tbar"

    @property
    def where(self) -> str:
        return f" with oracle {self.oracle}"

    def shapes(self, n: int) -> Iterator[SlottedTree]:
        return enum_tbar(self.oracle, n)

    def open_slots(self, addr: Address, children) -> list[int]:
        free = list(range(self.oracle.child_count(addr)))
        for slot, _ in reversed(children):  # highest first, so each index still holds its slot
            del free[slot]
        return free

    def _rule(self, parent: Address, c: int) -> Fraction:
        """prod over proper ancestors x of the new vertex of 1 / cbar_x."""
        widths = 1
        for depth in range(len(parent) + 1):
            widths *= self.oracle.child_count(parent[:depth])
        return Fraction(1, widths)

    def node(self, children) -> SlottedTree:
        return SlottedTree(tuple(children))

    def check_shape(self, shape: Tree) -> None:
        if not isinstance(shape, SlottedTree):
            raise FamilyConfigError("shape is not a slotted tree")
        for addr, node in _preorder(shape):
            if not node.children:
                continue
            width = self.oracle.child_count(addr)
            for slot, _ in node.children:
                if slot >= width:
                    raise FamilyConfigError(
                        f"slot {slot} at {addr} exceeds the oracle's {width} children"
                    )

    def check_growable(self, n: int) -> None:
        pass

    @staticmethod
    def hook_den(width: int | None, h: int) -> int:
        """A vertex's factor 1/(h * cbar^(h-1)) of the summand, for cbar =
        ``width`` children in the infinite tree and hook h, by its
        denominator; a leaf's is 1 whatever its width (None in the fold)."""
        return h * width ** (h - 1) if h > 1 else 1

    def term_sizes(self, n: int) -> Iterator[TermSum]:
        return slotted_term_sizes(self.oracle, n, _tbar_factor)

    def hook_sizes(self, n: int) -> Iterator[Fraction]:
        return slotted_term_sizes(self.oracle, n, _hook_factor)

    def hook_term(self, shape: SlottedTree) -> Fraction:
        """prod 1/(h_v * cbar_v^(h_v-1))."""
        count = self.oracle.child_count
        return Fraction(1, prod([self.hook_den(count(addr), node.size)
                                 for addr, node in _preorder(shape) if node.children]))


@dataclass(frozen=True)
class BinaryFamily(TbarFamily):
    """Binary trees: tbar's growth rules on the complete binary tree
    ``const:2``, with slot 0 the left child and slot 1 the right."""

    oracle: BranchingOracle = field(default=_COMPLETE_BINARY, init=False, repr=False)

    label = "binary"
    where = ""

    def shapes(self, n: int) -> Iterator[BinaryTree]:
        return enum_binary(n)

    def node(self, children) -> BinaryTree:
        kids = [None, None]
        for slot, child in children:
            kids[slot] = child
        return BinaryTree(*kids)

    def check_shape(self, shape: Tree) -> None:
        if not isinstance(shape, BinaryTree):
            raise FamilyConfigError("shape is not a binary tree")

    def hook_term(self, shape: BinaryTree) -> Fraction:
        """prod 1/(h_v * 2^(h_v-1)), the tbar summand at width 2."""
        return Fraction(1, prod([self.hook_den(2, node.size) for node in _subtrees(shape)]))


Family = Union[BinaryFamily, OrderedFamily, TbarFamily]


def insert_child(children: list, slot: int, child) -> list:
    """``children``, (slot, child) pairs by slot, with ``child`` put at
    ``slot``; a child already there and its later siblings move one slot on.
    Only ordered trees offer used slots."""
    i = bisect_left(children, (slot,))
    later = children[i:]
    if later and later[0][0] == slot:
        later = [(s + 1, c) for s, c in later]
    return children[:i] + [(slot, child)] + later


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")


def enum_binary(n: int) -> Iterator[BinaryTree]:
    """All binary trees on ``n`` vertices, once each, encoding-ordered."""
    _check_size(n)
    return _binary(n, True)


def _binary(n: int, exact: bool) -> Iterator[BinaryTree]:
    """The binary trees of size ``n``, or unless ``exact`` of sizes 1..n, in
    encoding order: a present child's "(" sorts before an absent one's "."."""
    if n > 1:
        for left in _binary(n - 1, False):
            rest = n - 1 - left.size
            if rest:
                for right in _binary(rest, exact):
                    yield BinaryTree(left, right)
            if not (exact and rest):
                yield BinaryTree(left, None)
        for right in _binary(n - 1, exact):
            yield BinaryTree(None, right)
    if n == 1 or not exact:
        yield BinaryTree(None, None)


def enum_ordered(n: int) -> Iterator[OrderedTree]:
    """All ordered trees on ``n`` vertices, once each, encoding-ordered."""
    _check_size(n)
    return _ordered(n, True)


def _ordered(n: int, exact: bool) -> Iterator[OrderedTree]:
    """The ordered trees of size ``n``, or unless ``exact`` of sizes 1..n, in
    encoding order."""
    for children in _ordered_seq(n - 1, exact):
        yield OrderedTree(children)


def _ordered_seq(total: int, exact: bool) -> Iterator[tuple[OrderedTree, ...]]:
    """The child sequences of combined size ``total`` (unless ``exact``, at
    most ``total``), ordered by concatenated encoding with the parent's ")"
    after it: another child's "(" sorts before that ")", so a sequence comes
    after every longer one it starts."""
    if total:
        for first in _ordered(total, False):
            for rest in _ordered_seq(total - first.size, exact):
                yield (first,) + rest
    if total == 0 or not exact:
        yield ()


def _sequence_step(seqs: dict, k: int, t: int):
    """The sum over the sequences of k >= 2 subtrees of t vertices in all: a
    first subtree of s vertices from ``seqs[1][s]``, then k-1 more of t-s
    from ``seqs[k-1][t-s]``, where ``seqs[j][u]`` sums the sequences of j
    subtrees of u vertices, j <= u < t."""
    first, rest = seqs[1], seqs[k - 1]
    return reduce(add, [first[s] * rest[t - s] for s in range(1, t - k + 2)])


def enum_tbar(oracle: BranchingOracle, n: int) -> Iterator[SlottedTree]:
    """All size-``n`` rooted subtrees of the oracle's infinite tree.

    Subtrees are identified by their ambient vertex sets, which the slot
    paths preserve.  The oracle is queried only at vertices that may receive
    children, so never at depth n-1 or beyond.
    """
    _check_size(n)
    return _slotted(oracle, (), n, True)


def _slotted(oracle: BranchingOracle, addr: Address, size: int,
             exact: bool) -> Iterator[SlottedTree]:
    """The subtrees at ``addr`` of ``size`` vertices, or unless ``exact`` of
    1..size, in encoding order: the leaf "()" first, as ")" sorts before
    "["."""
    if size == 1 or not exact:
        yield SlottedTree()
    if size > 1:
        width = oracle.child_count(addr)
        for children in _slot_seq(oracle, addr, 0, width, size - 1, exact):
            yield SlottedTree(children)


def _slot_seq(
    oracle: BranchingOracle,
    addr: Address,
    min_slot: int,
    width: int,
    budget: int,
    exact: bool,
) -> Iterator[tuple[tuple[int, SlottedTree], ...]]:
    """The nonempty sequences of (slot, tree) pairs using slots in
    [min_slot, width), strictly increasing, with subtree sizes summing to
    ``budget`` (unless ``exact``, at most ``budget``); ordered by the
    concatenated "[slot]encoding" text with the parent's ")" after it, so a
    sequence comes before every longer one it starts."""
    # "[12]..." sorts before "[1]..." because a digit precedes "]", so order
    # candidate leading slots by the slot text with the bracket appended.
    for slot in sorted(range(min_slot, width), key=lambda s: f"{s}]"):
        for sub in _slotted(oracle, addr + (slot,), budget, False):
            left = budget - sub.size
            if not (exact and left):
                yield ((slot, sub),)
            if left:
                for rest in _slot_seq(oracle, addr, slot + 1, width, left, exact):
                    yield ((slot, sub),) + rest


def slotted_term_sizes(oracle: BranchingOracle, n: int,
                       vertex: Callable[[int | None, int], object],
                       weight: Callable[[int, int], object] = comb) -> Iterator:
    """The sums of prod ``vertex(cbar_v, h_v)`` over the rooted subtrees of
    the oracle's infinite tree on 1, ..., ``n`` vertices, in turn; a leaf's
    factor is ``vertex(None, 1)``, as its width is never read.

    ``weight(q, k)`` weighs the k filled slots of a group of q slots whose
    children have equal subtree keys.  The default, C(q, k), counts each
    subtree once; the ordered sums pass C(m, k).  ``weight(q, q)`` is taken
    as 1, which C(q, q) is, and the ordered sums never fill every slot of
    their complete n-ary tree."""
    _check_size(n)
    memo: dict = {}
    root = oracle.subtree_key(())
    for size in range(1, n + 1):
        yield _grow(oracle, memo, root, (), size, vertex, weight)[size]


def _grow(oracle: BranchingOracle, memo: dict, key: Hashable, addr: Address, size: int,
          vertex: Callable, weight: Callable) -> list:
    """The sums by size of the subtrees at ``addr``, of subtree key ``key``,
    up to ``size`` vertices; ``memo[key]`` keeps them from size 2 on.

    A key's width and slot groups are read once, at its first size with
    children, so at depth n-2 at most.  Slots whose children have equal keys
    form a group: the same subtrees hang below each, so a sequence of k
    subtrees fills k of its q slots with the weight ``weight(q, k)``, C(q, k)
    being the ways to choose the slots.  By total size t, ``seqs[k][t]`` sums
    the sequences of k subtrees (``seqs[1]`` is the child key's sizes),
    ``fills[t]`` the group's weighted fillings and ``joined[t]`` those of the
    groups up to this one, the empty filling being 1; each new size adds the
    one new total t = size-1.
    """
    sizes = [0, vertex(None, 1)]
    if size == 1:
        return sizes
    if key not in memo:
        width = oracle.child_count(addr)
        groups: dict = {}  # a child's key: [first slot, slots, seqs, fills, joined]
        for slot in range(width):
            child = oracle.subtree_key(addr + (slot,))
            if child not in groups:
                fills = [1]
                groups[child] = [slot, 0, {}, fills, [1] if groups else fills]
            groups[child][1] += 1
        memo[key] = width, groups, sizes
    width, groups, sizes = memo[key]
    for t in range(len(sizes) - 1, size):
        earlier = None
        for child, (slot, q, seqs, fills, joined) in groups.items():
            seqs[1] = _grow(oracle, memo, child, addr + (slot,), t, vertex, weight)
            fill = [weight(q, 1) * seqs[1][t]]
            for k in range(2, min(q, t) + 1):
                seq = _sequence_step(seqs, k, t)
                if k < q:  # else the weight is 1, and no longer sequence is needed
                    seqs.setdefault(k, {})[t] = seq
                    seq = weight(q, k) * seq
                fill.append(seq)
            fills.append(reduce(add, fill))
            if earlier is not None:
                joined.append(reduce(add, [earlier[i] * fills[t - i] for i in range(t + 1)]))
            earlier = joined
        sizes.append(earlier[t] * vertex(width, t + 1))
    return sizes
