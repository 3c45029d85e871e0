"""Tree families: branching oracles, family specs, exhaustive enumerators.

Each family spec also owns its rules for the growth chain (see sampler.py),
so the chain itself never branches on the family, and its hook-length
summand (see identities.py).

The three families are binary trees, ordered trees weighted by a variable m,
and rooted subtrees of a fixed infinite ordered tree.  The infinite tree is
never materialized: a branching oracle maps each vertex address to its child
count (always finite and at least 1), and enumeration and sampling query it
lazily, never deeper than the tree size they are producing.

Enumerators yield each tree exactly once in lexicographic order of its
canonical encoding, and they stream: all they hold is what has been read
of the streams of subtrees of at most ``MEMO_SIZE`` vertices, each made
once per call and replayed through ``itertools.tee`` (see ``_kept``).
The fold of the binary sums also holds, whole, the values of every subtree
size that it reads more than once (see ``_binary_fold``).
Encodings are prefix-free, so two trees compare at their first differing
child, and the character after a shared prefix decides: for binary trees a
present child "(" sorts before an absent one ".", for ordered trees another
child "(" before the closing ")", for slotted trees the closing ")" before
another "[slot]".  So one generator per family yields every tree of sizes
1..k at an address in encoding order, and the exact-size stream draws its
first child from it; no merge of per-size streams is needed.

The ordered and slotted generators build no tree themselves: each takes a
``node`` builder and yields (size, value) pairs, each value made by ``node``
from the children's values and the size (and for slotted trees the
vertex's child count, which the generator has read).  ``enum_ordered`` and
``enum_tbar`` pass the tree constructors; the family's ``terms`` passes a
builder of the hook-length summand, so the identity sums build no tree,
walk none and ask the oracle nothing more.  As a summand is its root's
factor times its subtrees' summands, the same small subtree values recur
under every larger root, and the kept streams let each call build them
once.  The binary generator ``_binary`` builds trees; the binary summands,
which Han's two sums take by the hundred thousand, have a fold of their
own, ``_binary_fold``, which yields bare ints and pays one multiply per
summand.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, tee
from math import factorial, prod
from typing import Callable, Hashable, Iterable, Iterator, Union

from .exact import RationalFunction, binomial_poly
from .trees import Address, BinaryTree, OrderedTree, SlottedTree, Tree, _preorder, _subtrees

COUNT_LIMIT = 10 ** 6  # the most children a parsed oracle gives one vertex


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
        address relative to them.  The enumerators share the subtree streams
        of addresses with equal keys.  The address itself is always a safe
        key; a subclass returns a coarser one where its rule allows."""
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

    def child_count(self, addr: Address) -> int:
        count = self._lookup.get(addr)
        if count is not None:
            return count
        return self.default.child_count(addr)

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
    ``identities.TERM_LIMIT`` (10^6) subtrees of size 2."""
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


# Each family owns its growth rules: its shapes of size n, a vertex's open
# slots from its address and (slot, child) pairs (a used slot puts the leaf
# before its child), the probability ("weight") of a new vertex, building a
# node (``node([])`` is a leaf), and the shape and growability checks.  A
# weight depends only on the parent's address and child count c, not the slot.
# The hook-length summand hook_term(shape) is prod w_v/h_v as (numerator,
# integer denominator), with h_v = node.size: growth lands on each of a
# shape's n!/prod h_v increasing labelings with probability prod w_v.  Its
# per-vertex factor is one family rule, which hook_term multiplies over a
# shape and terms(n) folds over the enumerator's recursion: terms(n) yields
# the summand of each of shapes(n), in the same order, and builds no tree.
# Messages name a family by its label followed by ``where``, the parameter a
# user would change ("" when the label says it all).


@dataclass(frozen=True)
class BinaryFamily:
    label = "binary"
    where = ""

    def shapes(self, n: int) -> Iterator[BinaryTree]:
        return enum_binary(n)

    def open_slots(self, addr: Address, children) -> list[int]:
        used = [slot for slot, _ in children]
        return [slot for slot in (0, 1) if slot not in used]

    def weight(self, parent: Address, c: int) -> Fraction:
        """1 / 2^depth of the new vertex."""
        return Fraction(1, 2 << len(parent))

    def node(self, children) -> BinaryTree:
        kids = [None, None]
        for slot, child in children:
            kids[slot] = child
        return BinaryTree(*kids)

    def check_shape(self, shape: Tree) -> None:
        if not isinstance(shape, BinaryTree):
            raise FamilyConfigError("shape is not a binary tree")

    def check_growable(self, n: int) -> None:
        pass

    @staticmethod
    def hook_den(h: int) -> int:
        """A vertex's factor 1/(h * 2^(h-1)) of the summand, by its denominator."""
        return h << (h - 1)

    def terms(self, n: int) -> Iterator[tuple[int, int]]:
        return binary_terms(n, self.hook_den)

    def hook_term(self, shape: BinaryTree) -> tuple[int, int]:
        """prod 1/(h_v * 2^(h_v-1)) as (1, denominator)."""
        return 1, prod([self.hook_den(node.size) for node in _subtrees(shape)])


@dataclass(frozen=True)
class OrderedFamily:
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

    def weight(self, parent: Address, c: int) -> Probability:
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

    def vertex_term(self, c: int, h: int) -> tuple[int | RationalFunction, int]:
        """A vertex's factor C(m,c) / (h * m^(h-1)) of the summand, for c
        children and hook h, as (numerator, integer denominator).

        Symbolic m: a Laurent polynomial over h.  Concrete m = p/q:
        integers, from C(p/q, c) = p(p-q)...(p-(c-1)q) / (q^c c!).
        """
        if self.m is None:
            return binomial_poly(c) * RationalFunction.monomial(1 - h), h
        p, q = self.m.numerator, self.m.denominator
        num = q ** (h - 1)
        for i in range(c):
            num *= p - i * q
        return num, h * factorial(c) * q ** c * p ** (h - 1)

    def terms(self, n: int) -> Iterator[tuple[int | RationalFunction, int]]:
        _check_size(n)
        factors = {(c, h): self.vertex_term(c, h) for h in range(1, n + 1) for c in range(h)}

        def node(children: tuple, h: int) -> tuple:
            num, den = factors[len(children), h]
            for child_num, child_den in children:
                if child_den != 1:  # a leaf's term (1, 1) is not multiplied in
                    num = num * child_num
                    den *= child_den
            return num, den

        return (term for _, term in _ordered(n, True, node, {}))

    def hook_term(self, shape: OrderedTree) -> tuple[int | RationalFunction, int]:
        """prod C(m,c_v) / (h_v * m^(h_v-1)) as (numerator, denominator)."""
        num, den = 1, 1
        for node in _subtrees(shape):
            vertex_num, vertex_den = self.vertex_term(len(node.children), node.size)
            num = vertex_num * num
            den *= vertex_den
        return num, den


@dataclass(frozen=True)
class TbarFamily:
    oracle: BranchingOracle

    label = "tbar"

    @property
    def where(self) -> str:
        return f" with oracle {self.oracle}"

    def shapes(self, n: int) -> Iterator[SlottedTree]:
        return enum_tbar(self.oracle, n)

    def open_slots(self, addr: Address, children) -> list[int]:
        used = {slot for slot, _ in children}
        return [slot for slot in range(self.oracle.child_count(addr)) if slot not in used]

    def weight(self, parent: Address, c: int) -> Fraction:
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
        denominator; a leaf's is 1 whatever its width."""
        return h * width ** (h - 1) if h > 1 else 1

    def terms(self, n: int) -> Iterator[tuple[int, int]]:
        _check_size(n)
        hook_den = self.hook_den

        def node(children: tuple, h: int, width: int | None) -> int:
            den = hook_den(width, h)
            for _, child in children:
                den *= child
            return den

        return ((1, den) for _, den in _slotted(self.oracle, (), n, True, node, {}))

    def hook_term(self, shape: SlottedTree) -> tuple[int, int]:
        """prod 1/(h_v * cbar_v^(h_v-1)) as (1, denominator)."""
        count = self.oracle.child_count
        return 1, prod([self.hook_den(count(addr), node.size)
                        for addr, node in _preorder(shape) if node.children])


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


MEMO_SIZE = 4  # the largest subtree stream, in vertices, that one enumeration keeps in _kept


def _kept(memo: dict, size: int, key: tuple, gen: Callable, *args) -> Iterable:
    """The stream ``gen(*args)`` of subtrees of at most ``size`` vertices.

    Up to ``MEMO_SIZE`` vertices it is made once per ``memo``: ``memo[key]``
    holds an unread ``tee`` of it, and every reader, then or later, reads a
    copy, which replays what earlier copies pulled and pulls only past their
    end, so a reader that stops early leaves the rest unmade.  The tree
    enumerators and the ordered and tbar folds keep their streams here; the
    binary fold, read always to its end, keeps lists (see ``_binary_fold``).
    """
    if size > MEMO_SIZE:
        return gen(*args)
    head = memo.get(key)
    if head is None:
        head = memo[key] = tee(gen(*args), 1)[0]
    return head.__copy__()


def enum_binary(n: int) -> Iterator[BinaryTree]:
    """All binary trees on ``n`` vertices, once each, encoding-ordered."""
    _check_size(n)
    return (tree for _, tree in _binary(n, True, {}))


def _binary(n: int, exact: bool, memo: dict) -> Iterator[tuple[int, BinaryTree]]:
    """(size, tree) for the binary trees of size ``n``, or unless ``exact``
    of sizes 1..n, in encoding order: a present child's "(" sorts before an
    absent one's "."."""
    if n > 1:
        for k, left in _kept(memo, n - 1, (n - 1, False), _binary, n - 1, False, memo):
            rest = n - 1 - k
            if rest:
                for j, right in _kept(memo, rest, (rest, exact), _binary, rest, exact, memo):
                    yield k + j + 1, BinaryTree(left, right)
            if not (exact and rest):
                yield k + 1, BinaryTree(left, None)
        for j, right in _kept(memo, n - 1, (n - 1, exact), _binary, n - 1, exact, memo):
            yield j + 1, BinaryTree(None, right)
    if n == 1 or not exact:
        yield 1, BinaryTree(None, None)


def binary_terms(n: int, hook_den: Callable[[int], int]) -> Iterator[tuple[int, int]]:
    """(1, prod hook_den(h_v)) for each binary tree on ``n`` vertices, in
    ``enum_binary`` order, folded by ``_binary_fold``, which keeps the sizes
    up to n-3: no tree is built."""
    _check_size(n)
    dens = [0, *map(hook_den, range(1, n + 1))]
    return zip(repeat(1), _binary_fold(n, dens, n - 3, {}))


def _binary_fold(n: int, dens: list[int], keep: int, memo: dict) -> Iterator[int]:
    """prod dens[h_v] for each binary tree of exactly ``n`` vertices, in
    encoding order.

    The root of a size-n tree reads the values of its right subtrees of size
    r once for each left subtree of size n-1-r, so more than once for
    r <= n-3 alone: ``memo[r, True]`` keeps the values of such a size whole,
    as a list of bare ints in which equal values are one object, for every
    size up to ``keep``.  The sizes read once, n-2 and n-1, stream.  The left
    subtrees of all sizes 1..n-1 come from ``_binary_sizes``.  A term costs
    one multiply: the left value times the root's factor is made once per
    left subtree.
    """
    if n == 1:
        yield dens[1]
        return
    root = dens[n]
    for k, left in _binary_sizes(n - 1, dens, memo):
        rest = n - 1 - k
        if rest:
            yield from map((left * root).__mul__, _binary_exact(rest, dens, keep, memo))
        else:
            yield left * root
    yield from map(root.__mul__, _binary_exact(n - 1, dens, keep, memo))


def _binary_exact(r: int, dens: list[int], keep: int, memo: dict) -> Iterable[int]:
    """``_binary_fold(r, ...)``, kept whole in ``memo[r, True]`` when r <= ``keep``."""
    if r > keep:
        return _binary_fold(r, dens, keep, memo)
    values = memo.get((r, True))
    if values is None:
        pool: dict = {}
        values = memo[r, True] = [pool.setdefault(v, v) for v in _binary_fold(r, dens, keep, memo)]
    return values


def _binary_sizes(n: int, dens: list[int], memo: dict) -> Iterable[tuple[int, int]]:
    """(size, prod dens[h_v]) for the binary trees of sizes 1..n, in encoding
    order; up to ``MEMO_SIZE`` vertices kept whole in ``memo[n, False]``."""
    if n > MEMO_SIZE:
        return _binary_mixed(n, dens, memo)
    items = memo.get((n, False))
    if items is None:
        items = memo[n, False] = list(_binary_mixed(n, dens, memo))
    return items


def _binary_mixed(n: int, dens: list[int], memo: dict) -> Iterator[tuple[int, int]]:
    """``_binary_sizes(n, ...)``, made anew."""
    if n > 1:
        for k, left in _binary_sizes(n - 1, dens, memo):
            rest = n - 1 - k
            if rest:
                for j, right in _binary_sizes(rest, dens, memo):
                    yield k + j + 1, left * right * dens[k + j + 1]
            yield k + 1, left * dens[k + 1]
        for j, right in _binary_sizes(n - 1, dens, memo):
            yield j + 1, right * dens[j + 1]
    yield 1, dens[1]


def enum_ordered(n: int) -> Iterator[OrderedTree]:
    """All ordered trees on ``n`` vertices, once each, encoding-ordered."""
    _check_size(n)
    trees = _ordered(n, True, lambda children, size: OrderedTree(children), {})
    return (tree for _, tree in trees)


def _ordered(n: int, exact: bool, node: Callable, memo: dict) -> Iterator[tuple[int, object]]:
    """(size, node(children, size)) for the ordered trees of size ``n``, or
    unless ``exact`` of sizes 1..n, in encoding order; ``children`` is the
    tuple of the children's values."""
    seqs = _kept(memo, n - 1, ("seq", n - 1, exact), _ordered_seq, n - 1, exact, node, memo)
    for k, children in seqs:
        yield k + 1, node(children, k + 1)


def _ordered_seq(total: int, exact: bool, node: Callable,
                 memo: dict) -> Iterator[tuple[int, tuple]]:
    """(combined size, values) of the child sequences of combined size
    ``total`` (unless ``exact``, at most ``total``), ordered by concatenated
    encoding with the parent's ")" after it: another child's "(" sorts
    before that ")", so a sequence comes after every longer one it starts."""
    if total:
        for k, first in _kept(memo, total, ("tree", total, False), _ordered, total, False, node,
                              memo):
            left = total - k
            rests = _kept(memo, left, ("seq", left, exact), _ordered_seq, left, exact, node, memo)
            for j, rest in rests:
                yield k + j, (first,) + rest
    if total == 0 or not exact:
        yield 0, ()


def enum_tbar(oracle: BranchingOracle, n: int) -> Iterator[SlottedTree]:
    """All size-``n`` rooted subtrees of the oracle's infinite tree.

    Subtrees are identified by their ambient vertex sets, which the slot
    paths preserve.  The oracle is queried only at vertices that may receive
    children, so never at depth n-1 or beyond.
    """
    _check_size(n)
    trees = _slotted(oracle, (), n, True, lambda children, size, width: SlottedTree(children), {})
    return (tree for _, tree in trees)


def _slotted(oracle: BranchingOracle, addr: Address, size: int, exact: bool,
             node: Callable, memo: dict) -> Iterator[tuple[int, object]]:
    """(size, node(children, size, width)) for the subtrees at ``addr`` of
    ``size`` vertices, or unless ``exact`` of 1..size, in encoding order:
    the leaf "()" first, as ")" sorts before "[".  ``children`` holds
    (slot, value) pairs and ``width`` is the child count at ``addr``, None
    for a leaf, whose count is never read."""
    if size == 1 or not exact:
        yield 1, node((), 1, None)
    if size > 1:
        width = oracle.child_count(addr)
        key = ("seq", oracle.subtree_key(addr), 0, size - 1, exact)
        seqs = _kept(memo, size - 1, key, _slot_seq, oracle, addr, 0, width, size - 1, exact, node,
                     memo)
        for k, children in seqs:
            yield k + 1, node(children, k + 1, width)


def _slot_seq(
    oracle: BranchingOracle,
    addr: Address,
    min_slot: int,
    width: int,
    budget: int,
    exact: bool,
    node: Callable,
    memo: dict,
) -> Iterator[tuple[int, tuple[tuple[int, object], ...]]]:
    """(combined size, (slot, value) pairs) of the nonempty sequences using
    slots in [min_slot, width), strictly increasing, with subtree sizes
    summing to ``budget`` (unless ``exact``, at most ``budget``); ordered by
    the concatenated "[slot]encoding" text with the parent's ")" after it,
    so a sequence comes before every longer one it starts."""
    # "[12]..." sorts before "[1]..." because a digit precedes "]", so order
    # candidate leading slots by the slot text with the bracket appended.
    for slot in sorted(range(min_slot, width), key=lambda s: f"{s}]"):
        below = addr + (slot,)
        key = ("tree", oracle.subtree_key(below), budget, False)
        for k, sub in _kept(memo, budget, key, _slotted, oracle, below, budget, False, node, memo):
            left = budget - k
            if not (exact and left):
                yield k, ((slot, sub),)
            if left:
                key = ("seq", oracle.subtree_key(addr), slot + 1, left, exact)
                rests = _kept(memo, left, key, _slot_seq, oracle, addr, slot + 1, width, left, exact,
                              node, memo)
                for j, rest in rests:
                    yield k + j, ((slot, sub),) + rest
