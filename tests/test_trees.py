import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab import (
    BinaryFamily,
    BinaryTree,
    DepthBranching,
    LabeledTree,
    LabelingError,
    OrderedFamily,
    OrderedTree,
    SlottedTree,
    TbarFamily,
    TreeParseError,
    addresses,
    check_labeling,
    completion,
    decode,
    enum_binary,
    enum_ordered,
    enumerate_labelings,
    grow,
    hook_count,
    hook_lengths,
)
from hooklab.trees import _preorder


def leaf():
    return BinaryTree()


LEFT_PATH_3 = BinaryTree(BinaryTree(BinaryTree()))
CHERRY = BinaryTree(BinaryTree(), BinaryTree())


class TestEncoding:
    def test_binary_examples(self):
        assert leaf().enc == "(.,.)"
        assert BinaryTree(None, leaf()).enc == "(.,(.,.))"
        assert LEFT_PATH_3.enc == "(((.,.),.),.)"

    def test_ordered_examples(self):
        star = OrderedTree((OrderedTree(), OrderedTree(), OrderedTree()))
        assert star.enc == "(()()())"
        assert OrderedTree().enc == "()"

    def test_slotted_example(self):
        t = SlottedTree(((0, SlottedTree()), (2, SlottedTree())))
        assert t.enc == "([0]()[2]())"

    def test_encoding_lengths(self):
        for n in (1, 3, 5):
            for t in enum_binary(n):
                assert len(t.enc) == 4 * n + 1
            for t in enum_ordered(n):
                assert len(t.enc) == 2 * n

    def test_round_trip_exhaustive(self):
        for n in range(1, 9):
            for t in enum_binary(n):
                assert decode(t.enc) == t
            for t in enum_ordered(n):
                assert decode(t.enc) == t

    def test_labeled_round_trip(self):
        lt = LabeledTree(CHERRY, (1, 3, 2))
        assert lt.enc == "(:1(:3.,.),(:2.,.))"
        cases = [
            (lt, None),
            (LabeledTree(OrderedTree((OrderedTree(), OrderedTree())), (1, 3, 2)), None),
            (LabeledTree(SlottedTree(((0, SlottedTree()), (2, SlottedTree()))), (1, 3, 2)),
             "slotted"),
        ]
        for lt, family in cases:
            back = decode(lt.enc, family)
            assert isinstance(back, LabeledTree)
            assert back.shape == lt.shape
            assert back == lt

    def test_slotted_needs_family_hint_when_childless(self):
        assert decode("()") == OrderedTree()
        assert decode("()", family="slotted") == SlottedTree()

    def test_parse_error_position(self):
        with pytest.raises(TreeParseError) as err:
            decode("(.,.")
        assert "position" in str(err.value)
        for bad in ["", "(", "(.,.))", "((),", "(.,)", "(a)"]:
            with pytest.raises(TreeParseError):
                decode(bad)
        # integers are ASCII digits without a leading zero, so that the
        # encoding stays canonical
        for bad, family, position in [
            ("(:²)", None, 2),
            ("(:01)", None, 2),
            ("(:1(:02.,.),.)", None, 5),
            ("([01]())", "slotted", 2),
            ("([٣]())", "slotted", 2),
        ]:
            with pytest.raises(TreeParseError) as err:
                decode(bad, family)
            assert err.value.position == position, bad
        assert decode("([0]())", "slotted").enc == "([0]())"
        assert decode("([10]())", "slotted").enc == "([10]())"

    def test_slot_order_must_increase(self):
        with pytest.raises(TreeParseError):
            decode("([1]()[1]())", family="slotted")


class TestIdentity:
    def test_classes_with_one_encoding_differ(self):
        assert OrderedTree().enc == SlottedTree().enc == "()"
        assert OrderedTree() != SlottedTree()
        assert SlottedTree() != OrderedTree()
        assert BinaryTree() != OrderedTree()
        assert len({OrderedTree(), SlottedTree(), BinaryTree()}) == 3

    def test_equal_trees_hash_and_repr(self):
        for make, name, enc in (
            (lambda: BinaryTree(BinaryTree(), BinaryTree()), "BinaryTree", "((.,.),(.,.))"),
            (lambda: OrderedTree((OrderedTree(),)), "OrderedTree", "(())"),
            (lambda: SlottedTree(((2, SlottedTree()),)), "SlottedTree", "([2]())"),
        ):
            a, b = make(), make()
            assert a is not b and a == b and not a != b
            assert hash(a) == hash(b) == hash((name, enc))
            assert repr(a) == f"<{name} {enc}>"

    def test_unequal_encodings_differ(self):
        assert OrderedTree((OrderedTree(),)) != OrderedTree()
        assert BinaryTree(BinaryTree()) != BinaryTree(None, BinaryTree())
        assert OrderedTree() != "()"


class TestAddresses:
    def test_preorder(self):
        t = decode("((())())")
        assert addresses(t) == [(), (0,), (0, 0), (1,)]

    def test_binary_single_child_side_is_significant(self):
        assert BinaryTree(leaf(), None) != BinaryTree(None, leaf())


class TestHooks:
    def test_single_vertex(self):
        assert hook_lengths(leaf()) == {(): 1}

    def test_path(self):
        assert hook_lengths(LEFT_PATH_3) == {(): 3, (0,): 2, (0, 0): 1}

    def test_cherry(self):
        assert hook_lengths(CHERRY) == {(): 3, (0,): 1, (1,): 1}

    def test_root_hook_is_size(self):
        for n in range(1, 7):
            for t in enum_binary(n):
                assert hook_lengths(t)[()] == n

    def test_hook_excess_equals_depth_sum(self):
        # both count strict ancestor-descendant pairs
        for n in range(1, 8):
            for t in enum_binary(n):
                hooks = hook_lengths(t)
                assert sum(h - 1 for h in hooks.values()) == sum(
                    len(a) for a in hooks
                )
            for t in enum_ordered(n):
                hooks = hook_lengths(t)
                assert sum(h - 1 for h in hooks.values()) == sum(
                    len(a) for a in hooks
                )


class TestCompletion:
    def test_single_vertex(self):
        c = completion(leaf())
        assert c == CHERRY
        assert c.size == 3

    def test_path_2(self):
        c = completion(BinaryTree(BinaryTree()))
        assert c.size == 5

    def test_counts_and_shape(self):
        for n in range(1, 9):
            for t in enum_binary(n):
                c = completion(t)
                assert c.size == 2 * n + 1
                leaves = [a for a, node in _preorder(c) if node.size == 1]
                assert len(leaves) == n + 1
                internal = [a for a in addresses(c) if a not in set(leaves)]
                assert sorted(internal) == sorted(addresses(t))
                # complete: every vertex has 0 or 2 children
                for _, node in _preorder(c):
                    kids = sum(1 for _ in node.child_items())
                    assert kids in (0, 2)


class TestLabeling:
    def test_valid(self):
        lt = LabeledTree(CHERRY, (1, 2, 3))
        check_labeling(lt)

    def test_root_must_be_one(self):
        lt = LabeledTree(CHERRY, (2, 1, 3))
        with pytest.raises(LabelingError):
            check_labeling(lt)

    def test_parent_before_child(self):
        lt = LabeledTree(BinaryTree(BinaryTree(BinaryTree())), (1, 3, 2))
        with pytest.raises(LabelingError):
            check_labeling(lt)

    def test_labels_must_be_bijection(self):
        lt = LabeledTree(CHERRY, (1, 2, 2))
        with pytest.raises(LabelingError):
            check_labeling(lt)

    def test_one_label_per_vertex(self):
        for labels in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(LabelingError) as err:
                LabeledTree(CHERRY, labels)
            assert str(err.value) == f"{len(labels)} labels for the 3 vertices of ((.,.),(.,.))"


def reference_enc(lt):
    """The labeled encoding as a recursive walk over the address -> label
    dict, one branch per shape class."""
    labels = dict(zip(addresses(lt.shape), lt.preorder))

    def walk(node, addr):
        head = f"(:{labels[addr]}"
        if isinstance(node, BinaryTree):
            left = walk(node.left, addr + (0,)) if node.left else "."
            right = walk(node.right, addr + (1,)) if node.right else "."
            return f"{head}{left},{right})"
        if isinstance(node, SlottedTree):
            inner = "".join(f"[{s}]{walk(c, addr + (s,))}" for s, c in node.children)
            return f"{head}{inner})"
        return head + "".join(walk(c, addr + (i,)) for i, c in enumerate(node.children)) + ")"

    return walk(lt.shape, ())


class TestPreorderLabels:
    """Labels stored in preorder, against the address -> label form."""

    def test_every_grown_state_matches_the_address_form(self, mixed_oracle):
        cases = [
            (BinaryFamily(), "binary"),
            (OrderedFamily(7), "ordered"),  # used slots: insertions move siblings on
            (TbarFamily(DepthBranching((2, 3))), "slotted"),
            (TbarFamily(mixed_oracle), "slotted"),
        ]
        for family, kind in cases:
            for n in range(1, 7):
                for lt in enumerate_labelings(family, n):
                    assert lt.enc == reference_enc(lt)
                    again = decode(lt.enc, kind)
                    assert again == lt
                    assert hash(again) == hash(lt)

    def test_check_labeling_accepts_exactly_the_increasing_labelings(self):
        for n in range(1, 6):
            for shape in [*enum_binary(n), *enum_ordered(n)]:
                order = addresses(shape)
                accepted = 0
                for perm in permutations(range(1, n + 1)):
                    labels = dict(zip(order, perm))
                    lt = LabeledTree(shape, perm)
                    late = [a for a in order if a and labels[a] <= labels[a[:-1]]]
                    if perm[0] == 1 and not late:
                        check_labeling(lt)
                        accepted += 1
                        continue
                    with pytest.raises(LabelingError) as err:
                        check_labeling(lt)
                    if perm[0] == 1:  # the message names an offending vertex
                        assert str(err.value) in {
                            f"label at {a} does not exceed its parent's" for a in late
                        }
                assert accepted == hook_count(shape), shape.enc


@st.composite
def random_binary_shapes(draw):
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return grow(BinaryFamily(), n, random.Random(seed)).shape


@st.composite
def random_ordered_shapes(draw):
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return grow(OrderedFamily(n), n, random.Random(seed)).shape


@settings(deadline=None)
@given(random_binary_shapes())
def test_binary_round_trip_property(shape):
    assert decode(shape.enc) == shape
    assert len(shape.enc) == 4 * shape.size + 1


@settings(deadline=None)
@given(random_ordered_shapes())
def test_ordered_round_trip_property(shape):
    assert decode(shape.enc) == shape
    assert len(shape.enc) == 2 * shape.size
