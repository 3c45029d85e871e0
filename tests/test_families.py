import gc
import heapq
import json
import re
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, islice

import pytest

from conftest import catalan, multiset_sizes
from hooklab import (
    BinaryFamily,
    BinaryTree,
    BranchingOracle,
    ConstantBranching,
    DepthBranching,
    FamilyConfigError,
    OracleSyntaxError,
    OrderedFamily,
    OrderedTree,
    ProbabilityRangeError,
    SlottedTree,
    TableBranching,
    TbarFamily,
    enum_binary,
    enum_ordered,
    enum_tbar,
    hook_lengths,
    parse_oracle,
    verify_han,
    verify_han2,
    verify_tbar,
    verify_yang,
)


class TestOracles:
    def test_constant(self):
        o = ConstantBranching(3)
        assert o.child_count(()) == 3
        assert o.child_count((0, 1, 2)) == 3

    def test_depth_last_repeats(self):
        o = DepthBranching((2, 3))
        assert o.child_count(()) == 2
        assert o.child_count((0,)) == 3
        assert o.child_count((0, 1, 2)) == 3

    def test_table_with_default(self):
        o = TableBranching((((), 2), ((0,), 3)), ConstantBranching(1))
        assert o.child_count(()) == 2
        assert o.child_count((0,)) == 3
        assert o.child_count((1,)) == 1

    def test_counts_must_be_positive(self):
        with pytest.raises(FamilyConfigError):
            ConstantBranching(0)
        with pytest.raises(FamilyConfigError):
            DepthBranching((2, 0))

    def test_oracles_are_frozen(self):
        o = ConstantBranching(2)
        with pytest.raises(FrozenInstanceError):
            o.count = 3


class TestParseOracle:
    def test_const(self):
        assert parse_oracle("const:2") == ConstantBranching(2)

    def test_depth(self):
        assert parse_oracle("depth:2,3,1") == DepthBranching((2, 3, 1))

    def test_file(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"": 2, "0/1": 3, "default": "depth:2,3"}))
        o = parse_oracle(f"file:{path}")
        assert o.child_count(()) == 2
        assert o.child_count((0, 1)) == 3
        assert o.child_count((5,)) == 3  # depth default

    def test_errors_cite_the_token(self):
        with pytest.raises(OracleSyntaxError, match="no ':'"):
            parse_oracle("const")
        with pytest.raises(OracleSyntaxError, match="'x'"):
            parse_oracle("const:x")
        with pytest.raises(OracleSyntaxError, match="'0'"):
            parse_oracle("depth:2,0")
        with pytest.raises(OracleSyntaxError, match="unknown oracle kind"):
            parse_oracle("grid:2")

    def test_file_errors(self, tmp_path):
        with pytest.raises(OracleSyntaxError, match="cannot read"):
            parse_oracle(f"file:{tmp_path}/missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1,2]")
        with pytest.raises(OracleSyntaxError, match="default"):
            parse_oracle(f"file:{bad}")
        noisy = tmp_path / "noisy.json"
        noisy.write_text("{", encoding="ascii")
        with pytest.raises(OracleSyntaxError, match="not valid JSON"):
            parse_oracle(f"file:{noisy}")
        badkey = tmp_path / "badkey.json"
        badkey.write_text(json.dumps({"0/x": 2, "default": "const:2"}))
        with pytest.raises(OracleSyntaxError, match="'0/x'"):
            parse_oracle(f"file:{badkey}")

    def test_counts_are_integers(self, tmp_path):
        # int() used to turn 2.7 into 2 and true into 1
        for count in (2.7, True, "2", None):
            path = tmp_path / "counts.json"
            path.write_text(json.dumps({"0": count, "default": "const:2"}))
            with pytest.raises(OracleSyntaxError, match=re.escape(repr(count))):
                parse_oracle(f"file:{path}")
        for spec in ("const:+2", "const: 2", "const:2.0", "depth:2,٣", "const:"):
            with pytest.raises(OracleSyntaxError, match="bad child count"):
                parse_oracle(spec)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"0": -1, "default": "const:2"}))
        with pytest.raises(OracleSyntaxError, match="at least 1"):
            parse_oracle(f"file:{path}")

    def test_address_steps_are_nonnegative_integers(self, tmp_path):
        for key in ("0/-1", "-1", "0/+1", "0/ 1", "0//1", "0/"):
            path = tmp_path / "steps.json"
            path.write_text(json.dumps({key: 2, "default": "const:2"}))
            with pytest.raises(OracleSyntaxError, match=re.escape(repr(key))):
                parse_oracle(f"file:{path}")

    def write(self, tmp_path, table):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(table))
        return f"file:{path}"

    def test_steps_with_a_leading_zero_are_rejected(self, tmp_path):
        for key in ("01", "0/01", "00", "1/00/1"):
            with pytest.raises(OracleSyntaxError, match=f"{re.escape(repr(key))}.*leading zeros"):
                parse_oracle(self.write(tmp_path, {key: 2, "default": "const:2"}))

    def test_two_keys_for_one_address_are_rejected(self, tmp_path):
        # both name (0, 1); the later key in sorted order used to win silently
        spec = self.write(tmp_path, {"0/1": 3, "0/01": 2, "default": "const:2"})
        with pytest.raises(OracleSyntaxError, match="'0/01'"):
            parse_oracle(spec)

    def test_a_repeated_key_is_rejected(self, tmp_path):
        # json.load keeps the last of two equal keys: this file used to parse to
        # table:{=3};default:const:2
        for text, key in (('{"": 2, "": 3, "default": "const:2"}', ""),
                          ('{"0": 2, "default": "const:2", "default": "const:3"}', "default")):
            path = tmp_path / "repeated.json"
            path.write_text(text)
            with pytest.raises(OracleSyntaxError, match=f"repeats the key {re.escape(repr(key))}"):
                parse_oracle(f"file:{path}")

    def test_steps_past_the_parent_child_count_are_rejected(self, tmp_path):
        for table, key in (
            ({"": 2, "7": 1, "default": "const:9"}, "7"),  # the root's own entry
            ({"": 2, "2": 1, "default": "const:9"}, "2"),  # at the count itself
            ({"0/1/3": 1, "default": "depth:2,2,3"}, "0/1/3"),  # the default rule
            ({"": 2, "0": 1, "0/1": 2, "default": "const:2"}, "0/1"),  # a listed parent
        ):
            with pytest.raises(OracleSyntaxError, match=f"{re.escape(repr(key))} steps past"):
                parse_oracle(self.write(tmp_path, table))

    def test_default_must_be_a_const_or_depth_spec_string(self, tmp_path):
        # 3 used to crash with AttributeError, the file naming itself with
        # RecursionError
        path = tmp_path / "oracle.json"
        for default in (3, None, ["const:2"], f"file:{path}"):
            path.write_text(json.dumps({"": 2, "default": default}))
            with pytest.raises(OracleSyntaxError, match="'default' entry .*const or depth"):
                parse_oracle(f"file:{path}")

    def test_steps_below_the_parent_child_count_are_kept(self, tmp_path):
        oracle = parse_oracle(self.write(tmp_path, {"": 9, "8/2": 4, "default": "depth:2,3"}))
        assert oracle.child_count((8, 2)) == 4


class TestEnumBinary:
    def test_counts(self):
        for n in range(1, 11):
            assert sum(1 for _ in enum_binary(n)) == catalan(n)

    def test_small_examples(self):
        assert [t.enc for t in enum_binary(1)] == ["(.,.)"]
        assert sum(1 for _ in enum_binary(3)) == 5
        assert sum(1 for _ in enum_binary(5)) == 42

    def test_lex_order_no_duplicates(self):
        for n in range(1, 9):
            encs = [t.enc for t in enum_binary(n)]
            assert encs == sorted(encs)
            assert len(set(encs)) == len(encs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enum_binary(0)


class TestEnumOrdered:
    def test_counts(self):
        for n in range(1, 11):
            assert sum(1 for _ in enum_ordered(n)) == catalan(n - 1)

    def test_small_examples(self):
        assert [t.enc for t in enum_ordered(1)] == ["()"]
        assert sum(1 for _ in enum_ordered(4)) == 5
        assert sum(1 for _ in enum_ordered(6)) == 42

    def test_lex_order_no_duplicates(self):
        for n in range(1, 9):
            encs = [t.enc for t in enum_ordered(n)]
            assert encs == sorted(encs)
            assert len(set(encs)) == len(encs)


class GuardedOracle(ConstantBranching):
    """Raises when probed deeper than a hard limit."""

    def __init__(self, count, max_depth):
        super().__init__(count)
        object.__setattr__(self, "max_depth", max_depth)

    def child_count(self, addr):
        if len(addr) > self.max_depth:
            raise AssertionError(f"oracle probed at depth {len(addr)}")
        return super().child_count(addr)


class TestEnumTbar:
    def test_const_1_is_the_path(self):
        for n in range(1, 7):
            trees = list(enum_tbar(ConstantBranching(1), n))
            assert len(trees) == 1
            assert trees[0].size == n

    def test_const_2_matches_binary_hooks(self):
        for n in range(1, 9):
            tb = Counter(
                tuple(sorted(hook_lengths(t).values()))
                for t in enum_tbar(ConstantBranching(2), n)
            )
            bb = Counter(
                tuple(sorted(hook_lengths(t).values())) for t in enum_binary(n)
            )
            assert tb == bb

    def test_mixed_oracle_subtrees(self, mixed_oracle):
        trees = list(enum_tbar(mixed_oracle, 3))
        assert [t.enc for t in trees] == [
            "([0]()[1]())",
            "([0]([0]()))",
            "([0]([1]()))",
            "([0]([2]()))",
            "([1]([0]()))",
        ]

    def test_lex_order_no_duplicates(self, mixed_oracle):
        for oracle in (ConstantBranching(2), DepthBranching((2, 3)), mixed_oracle):
            for n in range(1, 8):
                encs = [t.enc for t in enum_tbar(oracle, n)]
                assert encs == sorted(encs)
                assert len(set(encs)) == len(encs)

    def test_respects_oracle(self, mixed_oracle):
        # child slots always within the oracle's width at that address
        def check(node, addr):
            width = mixed_oracle.child_count(addr)
            for slot, child in node.children:
                assert 0 <= slot < width
                check(child, addr + (slot,))

        for n in range(1, 7):
            for t in enum_tbar(mixed_oracle, n):
                check(t, ())

    def test_oracle_is_probed_lazily(self):
        # a size-n subtree never needs child counts below depth n-2
        for n in range(2, 8):
            guarded = GuardedOracle(2, n - 2)
            assert sum(1 for _ in enum_tbar(guarded, n)) == catalan(n)

    def test_wide_slots_sort_as_text(self):
        # slot 12 sorts before slot 2 in the bracket encoding
        o = ConstantBranching(13)
        encs = [t.enc for t in enum_tbar(o, 2)]
        assert encs == sorted(encs)
        assert len(encs) == 13


# The enumerators as they were before they yielded in encoding order
# directly: per-size streams interleaved by heapq.merge on the encoding.
# They are the reference for the trees, their order and the oracle queries.


def _enc(t):
    return t.enc


def reference_binary(n):
    if n == 1:
        yield BinaryTree()
        return
    for left in heapq.merge(*(reference_binary(i) for i in range(1, n)), key=_enc):
        rest = n - 1 - left.size
        if rest == 0:
            yield BinaryTree(left, None)
        else:
            for right in reference_binary(rest):
                yield BinaryTree(left, right)
    for right in reference_binary(n - 1):
        yield BinaryTree(None, right)


def reference_ordered(n):
    for children in reference_ordered_seq(n - 1):
        yield OrderedTree(children)


def reference_ordered_seq(total):
    if total == 0:
        yield ()
        return
    for first in heapq.merge(*(reference_ordered(i) for i in range(1, total + 1)), key=_enc):
        for rest in reference_ordered_seq(total - first.size):
            yield (first,) + rest


def reference_slotted(oracle, addr, size):
    if size == 1:
        yield SlottedTree()
        return
    width = oracle.child_count(addr)
    for children in reference_slot_seq(oracle, addr, 0, width, size - 1):
        yield SlottedTree(children)


def reference_slot_seq(oracle, addr, min_slot, width, budget):
    if budget == 0:
        yield ()
        return
    for slot in sorted(range(min_slot, width), key=lambda s: f"{s}]"):
        subs = heapq.merge(
            *(reference_slotted(oracle, addr + (slot,), i) for i in range(1, budget + 1)),
            key=_enc,
        )
        for sub in subs:
            for rest in reference_slot_seq(oracle, addr, slot + 1, width, budget - sub.size):
                yield ((slot, sub),) + rest


class RecordingOracle(BranchingOracle):
    """Passes every query on and records the address asked."""

    def __init__(self, inner):
        self.inner, self.asked = inner, set()

    def child_count(self, addr):
        self.asked.add(addr)
        return self.inner.child_count(addr)


class TestAgainstMergedReference:
    """The merge-free enumerators yield the reference's trees in its order."""

    def test_binary(self):
        for n in range(1, 10):
            assert [t.enc for t in enum_binary(n)] == [t.enc for t in reference_binary(n)], n

    def test_ordered(self):
        for n in range(1, 10):
            assert [t.enc for t in enum_ordered(n)] == [t.enc for t in reference_ordered(n)], n

    def test_tbar_trees_and_queried_addresses(self, mixed_oracle):
        cases = [(parse_oracle(spec), 7) for spec in ("const:2", "const:3", "depth:2,3")]
        cases += [(mixed_oracle, 7), (ConstantBranching(13), 3)]
        for oracle, n_max in cases:
            for n in range(1, n_max + 1):
                ours, theirs = RecordingOracle(oracle), RecordingOracle(oracle)
                got = [t.enc for t in enum_tbar(ours, n)]
                assert got == [t.enc for t in reference_slotted(theirs, (), n)], (oracle, n)
                assert ours.asked == theirs.asked, (oracle, n)


def _below(oracle, addr, depth):
    """The child counts at ``addr`` and at every address ``depth`` levels
    below it, nested by relative address."""
    count = oracle.child_count(addr)
    if depth == 0:
        return count
    return count, tuple(_below(oracle, addr + (s,), depth - 1) for s in range(count))


def _addresses(oracle, depth):
    todo = [()]
    for addr in todo:
        if len(addr) < depth:
            todo += [addr + (s,) for s in range(oracle.child_count(addr))]
    return todo


class DepthBlindKey(DepthBranching):
    """A mutant whose stream key ignores the depth its counts depend on."""

    def subtree_key(self, addr):
        return ()


class BudgetOracle(BranchingOracle):
    """Passes queries on to ``inner`` until ``budget`` of them were asked.
    Its key is the address, so its queries grow with the streams made."""

    def __init__(self, inner, budget):
        self.inner, self.left = inner, budget

    def child_count(self, addr):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("oracle query budget spent")
        return self.inner.child_count(addr)


class TestSharedStreams:
    """Equal subtree keys share the tbar fold's sums; an enumeration
    streams its trees, made as far as they are read, one call at a time."""

    def test_equal_keys_mean_equal_counts_below(self, mixed_oracle):
        deep_table = TableBranching((((0, 1), 4), ((1,), 1)), DepthBranching((2, 3, 1)))
        for oracle in (ConstantBranching(3), DepthBranching((2, 3)), DepthBranching((1, 2, 3)),
                       mixed_oracle, deep_table):
            below = {}
            for addr in _addresses(oracle, 4):
                counts = _below(oracle, addr, 3)
                assert below.setdefault(oracle.subtree_key(addr), counts) == counts, (oracle, addr)

    def test_a_key_blind_to_depth_changes_the_terms(self):
        # the sum keeps the root's sums of the sizes it took, so the blind
        # key hands them, those of const:2, to every vertex below; the sum
        # still comes to 1/n!, so only the multisets and the count tell
        mutant, oracle = DepthBlindKey((2, 3, 4)), DepthBranching((2, 3, 4))
        family = TbarFamily(mutant)
        sizes = multiset_sizes(family.term_sizes, 7)
        caught = [n for n in range(1, 8)
                  if sizes[n - 1] != Counter(family.hook_term(t) for t in enum_tbar(oracle, n))]
        assert caught == [3, 4, 5, 6, 7]
        report = verify_tbar(mutant, 5)
        assert report.holds and report.term_count == 42  # of 221 shapes

    def test_a_prefix_makes_only_what_it_reads(self):
        # under const:50 the first 100 subtrees of size 5 take 2 queries,
        # with or without shared streams; filling a shared stream whole
        # before reading it would take far more than 1000
        prefix = list(islice(enum_tbar(BudgetOracle(ConstantBranching(50), 1000), 5), 100))
        assert len(prefix) == 100

    def test_each_call_has_its_own_streams(self):
        # streams kept across calls would leave the second call nothing to ask
        asked = []
        for _ in range(2):
            recording = RecordingOracle(DepthBranching((2, 3)))
            assert sum(1 for _ in enum_tbar(recording, 6)) == 728
            asked.append(recording.asked)
        assert len(asked[0]) == 81
        assert asked[1] == asked[0]

    def test_a_finished_enumeration_leaves_no_cyclic_garbage(self):
        # reference counting frees what a finished enumeration or sum made:
        # its generators have run to their end, and nothing in a sum's memo
        # refers back to the memo (closures over it would)
        runs = [
            lambda: verify_han(8),
            lambda: verify_han2(7),
            lambda: verify_han(10),
            lambda: verify_han2(9),
            lambda: verify_yang(6),
            lambda: verify_tbar(ConstantBranching(3), 6),
            lambda: verify_tbar(DepthBranching((2, 3)), 6),
            lambda: sum(1 for _ in enum_tbar(DepthBranching((2, 3)), 6)),
            lambda: sum(1 for _ in enum_ordered(7)),
        ]
        gc.collect()
        gc.disable()
        try:
            for i, run in enumerate(runs):
                run()
                assert gc.collect() == 0, i
        finally:
            gc.enable()


class CountingOracle(BranchingOracle):
    """Records every query and every key asked for; passes both on to ``inner``."""

    def __init__(self, inner):
        self.inner, self.asked, self.keyed = inner, [], []

    def child_count(self, addr):
        self.asked.append(addr)
        return self.inner.child_count(addr)

    def subtree_key(self, addr):
        self.keyed.append(addr)
        return self.inner.subtree_key(addr)


class TestTbarTerms:
    def test_the_oracle_is_asked_once_per_key(self, mixed_oracle):
        # a vertex of h >= 2 vertices asks its count; at depth d it has at
        # most n-d of them, so it asks at depth n-2 at most.  A key's count
        # and slot groups are read once per fold call, at the first size at
        # which it has children: under const:3 once from n=2 on; under
        # depth:2,3 the root at n=2 and its children's key from n=3 on; the
        # mixed table keys the root and its listed children by their
        # addresses.  The hook products are the same fold as the summands,
        # so they ask alike
        queries = {ConstantBranching(3): lambda n: min(n - 1, 1),
                   DepthBranching((2, 3)): lambda n: min(n - 1, 2)}
        for oracle in (ConstantBranching(3), DepthBranching((2, 3)), mixed_oracle):
            for n in range(1, 9):
                shapes = sum(1 for _ in enum_tbar(oracle, n))
                for sizes in ("term_sizes", "hook_sizes"):
                    counting = CountingOracle(oracle)
                    *_, terms = multiset_sizes(getattr(TbarFamily(counting), sizes), n)
                    case = oracle, sizes, n
                    assert sum(terms.values()) == shapes, case
                    assert all(len(addr) <= n - 2 for addr in counting.asked), case
                    asks = Counter(oracle.subtree_key(addr) for addr in counting.asked)
                    assert all(count == 1 for count in asks.values()), case
                    if oracle in queries:
                        assert len(counting.asked) == queries[oracle](n), case

    def test_a_table_shares_its_default_below_the_listed_addresses(self):
        # the root alone is listed, so its child and the child's 2000
        # children all take the default's key: one query per key, and the
        # 2000 keys are asked for once, where address keys would ask each
        # of the 2000 at size 2 (the sum takes the sizes 2..4 in turn)
        counting = CountingOracle(TableBranching((((), 1),), ConstantBranching(2000)))
        report = verify_tbar(counting, 4)
        assert report.holds and report.term_count == 1_999_000 + 2000 ** 2
        assert counting.asked == [(), (0,)]
        assert counting.keyed == [(), (0,)] + [(0, slot) for slot in range(2000)]


class TestWeightMemo:
    """Each family object keeps the weights it has computed, by (parent, c)."""

    def families(self):
        return [BinaryFamily(), OrderedFamily(7), OrderedFamily(),
                TbarFamily(DepthBranching((2, 3)))]

    def test_equal_families_stay_equal_whatever_their_memos_hold(self):
        for warm, cold in zip(self.families(), self.families()):
            weights = {(parent, c): warm.weight(parent, c)
                       for parent in ((), (0,), (1, 0)) for c in (0, 1)}
            assert warm._weights == weights and cold._weights == {}
            assert weights == {key: cold._rule(*key) for key in weights}
            assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
            assert "_weights" not in repr(warm)

    def test_an_out_of_range_weight_raises_at_every_call(self):
        # at m=9/2 a root's sixth child weighs (9/2 - 5)/6 < 0, which the
        # flat kernel's walk meets at its size-6 leaves
        family = OrderedFamily(Fraction(9, 2))
        for _ in range(3):
            with pytest.raises(ProbabilityRangeError, match="has 5 earlier children"):
                family.weight((), 5)
        assert family.weight((), 4) == Fraction(1, 45)
        assert list(family._weights) == [((), 4)]


def slotted(t):
    """A binary tree as the rooted subtree of the complete binary tree it is:
    slot 0 is the left child, slot 1 the right."""
    return SlottedTree(tuple((slot, slotted(child)) for slot, child in t.child_items()))


class TestBinaryIsTbarOnConst2:
    """Binary growth runs tbar's rules on const:2; hook_term keeps a walk of its own."""

    def test_hook_term_matches_tbar_on_const_2(self):
        binary, tbar = BinaryFamily(), TbarFamily(ConstantBranching(2))
        for n in range(1, 9):
            shapes = list(enum_binary(n))
            assert {slotted(t).enc for t in shapes} == {t.enc for t in tbar.shapes(n)}
            for t in shapes:
                assert binary.hook_term(t) == tbar.hook_term(slotted(t)), t.enc

    def test_the_family_object(self):
        assert repr(BinaryFamily()) == "BinaryFamily()"
        assert BinaryFamily() == BinaryFamily()
        assert hash(BinaryFamily()) == hash(BinaryFamily())
        assert BinaryFamily() != TbarFamily(ConstantBranching(2))
        assert BinaryFamily().where == "" and BinaryFamily().label == "binary"
        with pytest.raises(TypeError):
            BinaryFamily(ConstantBranching(3))


class TestTbarOpenSlots:
    def test_every_set_of_used_slots(self):
        for width in range(1, 7):
            family = TbarFamily(ConstantBranching(width))
            for k in range(width + 1):
                for used in combinations(range(width), k):
                    children = [(slot, SlottedTree()) for slot in used]
                    assert family.open_slots((), children) == [
                        s for s in range(width) if s not in used], (width, used)

    def test_a_wide_vertex(self):
        family = TbarFamily(ConstantBranching(10 ** 6))
        children = [(5, SlottedTree()), (999, SlottedTree())]
        assert family.open_slots((0,), children) == [
            s for s in range(10 ** 6) if s not in (5, 999)]
