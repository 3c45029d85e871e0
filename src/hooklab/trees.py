"""Finite rooted trees: binary, ordered, and slotted, plus labelings.

Vertices are addressed by the path of child indices from the root, so the
root is the empty tuple ``()`` and ``(0, 1)`` is the second child of the
first child.  Binary trees restrict steps to 0 (left) and 1 (right) and
record which side a lone child occupies.  Slotted trees are ordered trees
whose children sit in explicitly numbered slots; they represent finite
subtrees of an infinite tree whose per-vertex child counts come from a
branching oracle, with the slot path preserving each vertex's address in
the infinite tree.

Every tree carries its canonical encoding, computed at construction:

    binary   node = "(" sub "," sub ")"      sub = node | "."
    ordered  node = "(" node* ")"
    slotted  node = "(" ("[" slot "]" node)* ")"

Each "(" of an encoding opens one vertex, and the vertices open in
preorder.  A labeled tree, ``LabeledTree(shape, preorder)``, is a shape
plus its labels in that order, and its encoding writes ":k" directly after
each "(".  Equal trees have equal encodings and vice versa; the strings are
ASCII-only and whitespace-free and are the wire format of all CLI output.
Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

Address = tuple[int, ...]


class LabelingError(ValueError):
    """A label assignment is not an increasing labeling of its shape."""


class TreeParseError(ValueError):
    """Malformed tree encoding; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Shape:
    """Identity of the three shape classes: two trees are equal when they
    have the same class and the same encoding."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.enc == other.enc
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.enc))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.enc}>"


class BinaryTree(_Shape):
    """Rooted tree where each vertex has an optional left and right child."""

    __slots__ = ("left", "right", "size", "enc")

    def __init__(
        self,
        left: Optional["BinaryTree"] = None,
        right: Optional["BinaryTree"] = None,
    ):
        self.left = left
        self.right = right
        self.size = 1 + (left.size if left else 0) + (right.size if right else 0)
        self.enc = "({},{})".format(
            left.enc if left else ".",
            right.enc if right else ".",
        )

    def child_items(self) -> list[tuple[int, "BinaryTree"]]:
        items = []
        if self.left is not None:
            items.append((0, self.left))
        if self.right is not None:
            items.append((1, self.right))
        return items


class OrderedTree(_Shape):
    """Rooted tree with a linearly ordered sequence of children per vertex."""

    __slots__ = ("children", "size", "enc")

    def __init__(self, children: tuple["OrderedTree", ...] = ()):
        # lists, not generator expressions (here and in SlottedTree): a
        # generator per node fragments the allocator, and a process that
        # grows trees over and over gains peak memory with every batch
        self.children = tuple(children)
        self.size = 1 + sum([c.size for c in self.children])
        self.enc = "({})".format("".join([c.enc for c in self.children]))

    def child_items(self) -> list[tuple[int, "OrderedTree"]]:
        return list(enumerate(self.children))


class SlottedTree(_Shape):
    """Ordered tree whose children occupy numbered slots.

    ``children`` holds (slot, subtree) pairs with strictly increasing
    nonnegative slots.  The slot path from the root is the vertex's address
    in the ambient infinite tree, which is what makes two subtrees equal
    exactly when they use the same ambient vertex set.
    """

    __slots__ = ("children", "size", "enc")

    def __init__(self, children: tuple[tuple[int, "SlottedTree"], ...] = ()):
        children = tuple(children)
        last = -1
        for slot, _ in children:
            if slot <= last:
                raise ValueError("slots must be strictly increasing")
            last = slot
        if children and children[0][0] < 0:
            raise ValueError("slots must be nonnegative")
        self.children = children
        self.size = 1 + sum([c.size for _, c in children])
        self.enc = "({})".format("".join([f"[{slot}]{c.enc}" for slot, c in children]))

    def child_items(self) -> list[tuple[int, "SlottedTree"]]:
        return list(self.children)


Tree = Union[BinaryTree, OrderedTree, SlottedTree]


class LabeledTree:
    """A tree shape with its labels in preorder (``preorder``), the order in
    which the "(" of ``shape.enc`` open the vertices.

    The one constructor takes one label per vertex of ``shape`` and raises
    LabelingError for any other count.  For an increasing labeling the
    labels are a bijection onto 1..n, the root gets 1 and every child's
    label exceeds its parent's; ``check_labeling`` enforces that.
    """

    __slots__ = ("shape", "preorder")

    def __init__(self, shape: Tree, preorder: Iterable[int]):
        self.shape = shape
        self.preorder = tuple(preorder)
        if len(self.preorder) != shape.size:
            raise LabelingError(f"{len(self.preorder)} labels for the "
                                f"{shape.size} vertices of {shape.enc}")

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def enc(self) -> str:
        head, *opened = self.shape.enc.split("(")
        return head + "".join(map("(:{}{}".format, self.preorder, opened))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabeledTree):
            return self.shape == other.shape and self.preorder == other.preorder
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, self.preorder))

    def __repr__(self) -> str:
        return f"<LabeledTree {self.enc}>"


def check_labeling(labeled: LabeledTree) -> None:
    """Raise LabelingError unless ``labeled`` is an increasing labeling."""
    labels = labeled.preorder
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise LabelingError("labels must be a bijection onto 1..n")
    if labels[0] != 1:
        raise LabelingError("root must be labeled 1")
    todo = [(labeled.shape, 0)]  # (vertex, its preorder index)
    for node, i in todo:
        j = i + 1
        for _, child in node.child_items():
            if labels[j] <= labels[i]:
                addr = addresses(labeled.shape)[j]
                raise LabelingError(f"label at {addr} does not exceed its parent's")
            todo.append((child, j))
            j += child.size


def _labelings(t: Tree) -> Iterator[tuple[int, ...]]:
    """Every increasing labeling of ``t`` as its labels in preorder: labels
    1..n go out in order, each to a vertex whose parent is already labeled."""
    kids: list[list[int]] = [[] for _ in range(t.size)]  # by preorder index
    todo = [(t, 0)]  # (vertex, its preorder index)
    for node, i in todo:
        j = i + 1
        for _, child in node.child_items():
            kids[i].append(j)
            todo.append((child, j))
            j += child.size
    labels = [0] * t.size

    def go(frontier: list[int], label: int) -> Iterator[tuple[int, ...]]:
        if not frontier:
            yield tuple(labels)
        for k, v in enumerate(frontier):
            labels[v] = label
            yield from go(frontier[:k] + frontier[k + 1 :] + kids[v], label + 1)

    return go([0], 1)


def addresses(t: Tree) -> list[Address]:
    """All vertex addresses of ``t`` in preorder."""
    return [addr for addr, _ in _preorder(t)]


def _preorder(t: Tree) -> list[tuple[Address, Tree]]:
    """(address, subtree) for every vertex, in preorder: parents before
    children, siblings by increasing step, so addresses come out sorted."""
    out, todo = [], [((), t)]
    while todo:
        addr, node = todo.pop()
        out.append((addr, node))
        todo += [(addr + (step,), child) for step, child in reversed(node.child_items())]
    return out


def _subtrees(t: Tree) -> list[Tree]:
    """Every vertex's subtree, parents before children (breadth-first).

    The walk for callers that need no addresses, such as hook lengths (a
    vertex's hook length is its subtree's ``size``); it reads each class's
    children directly and is about twice as fast as ``_preorder``.
    """
    out = [t]
    if isinstance(t, BinaryTree):
        for node in out:
            if node.left is not None:
                out.append(node.left)
            if node.right is not None:
                out.append(node.right)
    elif isinstance(t, OrderedTree):
        for node in out:
            out.extend(node.children)
    else:
        for node in out:
            out.extend(child for _, child in node.children)
    return out


def hook_lengths(t: Tree) -> dict[Address, int]:
    """Map each vertex to the size of its descendant set (itself included)."""
    return {addr: node.size for addr, node in _preorder(t)}


def completion(t: BinaryTree) -> BinaryTree:
    """Fill every empty child slot of ``t`` with a leaf.

    The result is a complete binary tree (every vertex has 0 or 2 children)
    on 2n+1 vertices whose internal vertices are exactly the vertices of
    ``t``; the n+1 added leaves occupy the slots ``t`` left empty.
    """

    def fill(node: Optional[BinaryTree]) -> BinaryTree:
        if node is None:
            return BinaryTree()
        return BinaryTree(fill(node.left), fill(node.right))

    return fill(t)


def decode(text: str, family: str | None = None) -> Tree | LabeledTree:
    """Parse a canonical encoding back into a tree.

    ``family`` may be "binary", "ordered" or "slotted"; when omitted it is
    inferred from the string ("," or "." means binary, "[" means slotted,
    otherwise ordered; a childless slotted tree is indistinguishable from an
    ordered one and parses as ordered).  Labeled encodings yield a
    LabeledTree.  Raises TreeParseError with the offending position.
    """
    if family is None:
        if "," in text or "." in text:
            family = "binary"
        elif "[" in text:
            family = "slotted"
        else:
            family = "ordered"
    if family not in ("binary", "ordered", "slotted"):
        raise ValueError(f"unknown family {family!r}")
    parser = _Parser(text, family)
    shape = parser.parse_node()
    if parser.pos != len(text):
        raise TreeParseError("trailing characters after tree", parser.pos)
    if parser.labels is not None:
        return LabeledTree(shape, parser.labels)
    return shape


class _Parser:
    def __init__(self, text: str, family: str):
        self.text = text
        self.family = family
        self.pos = 0
        # labels in parse order, which is preorder; None for a bare shape
        self.labels: list[int] | None = [] if text.startswith("(:") else None

    def error(self, message: str) -> TreeParseError:
        return TreeParseError(message, self.pos)

    def peek(self) -> str:
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        """ASCII digits without a leading zero, so the encoding stays
        canonical."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        if self.text[start] == "0" and self.pos - start > 1:
            raise TreeParseError("integer has a leading zero", start)
        return int(self.text[start : self.pos])

    def parse_label(self) -> None:
        has_label = self.pos < len(self.text) and self.text[self.pos] == ":"
        if (self.labels is not None) != has_label:
            raise self.error("labels must appear on every vertex or none")
        if has_label:
            self.pos += 1
            self.labels.append(self.parse_int())

    def parse_node(self) -> Tree:
        self.expect("(")
        self.parse_label()
        if self.family == "binary":
            left = self.parse_binary_sub()
            self.expect(",")
            right = self.parse_binary_sub()
            self.expect(")")
            return BinaryTree(left, right)
        if self.family == "slotted":
            children = []
            last_slot = -1
            while self.peek() == "[":
                self.pos += 1
                slot = self.parse_int()
                if slot <= last_slot:
                    raise self.error("slots must be strictly increasing")
                last_slot = slot
                self.expect("]")
                children.append((slot, self.parse_node()))
            self.expect(")")
            return SlottedTree(tuple(children))
        children = []
        while self.peek() == "(":
            children.append(self.parse_node())
        self.expect(")")
        return OrderedTree(tuple(children))

    def parse_binary_sub(self) -> Optional[BinaryTree]:
        if self.peek() == ".":
            self.pos += 1
            return None
        if self.peek() == "(":
            node = self.parse_node()
            assert isinstance(node, BinaryTree)
            return node
        raise self.error("expected '.' or '('")
