import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from conftest import Multiset, multiset_sizes
from hooklab import (
    BinaryFamily,
    BinaryTree,
    ConsistencyError,
    ConstantBranching,
    DepthBranching,
    OrderedFamily,
    SizeLimitError,
    TableBranching,
    TbarFamily,
    brute_force_labelings,
    completion,
    completion_census,
    completion_count,
    decode,
    enum_binary,
    enum_ordered,
    enum_tbar,
    han2_lhs,
    han_lhs,
    hook_count,
    hook_lengths,
    identities,
    tbar_lhs,
    verify_han,
    verify_tbar,
    verify_yang,
    yang_lhs,
    yang_sum_at,
    yang_term,
)
from hooklab.exact import RationalFunction, binomial_poly
from hooklab.families import slotted_term_sizes
from hooklab.trees import _subtrees


class TestHan:
    def test_small_values(self):
        assert han_lhs(1) == 1
        assert han_lhs(2) == Fraction(1, 2)
        assert han_lhs(3) == Fraction(1, 6)

    def test_n3_term_breakdown(self):
        # four path-like shapes contribute 1/48, the balanced one 1/12
        terms = []
        for t in enum_binary(3):
            hooks = hook_lengths(t).values()
            den = 1
            for h in hooks:
                den *= h * 2 ** (h - 1)
            terms.append(Fraction(1, den))
        assert sorted(terms) == [Fraction(1, 48)] * 4 + [Fraction(1, 12)]

    def test_identity_holds(self):
        for n in range(1, 10):
            assert factorial(n) * han_lhs(n) == 1

    def test_sum_is_not_bounded_by_the_term_limit(self, monkeypatch):
        # han and tbar under const:2 have 42 shapes at n=5 and 132 at n=6,
        # yang 42 at n=6 and 132 at n=7; the limit bounds labeled trees, and
        # a sum's work grows with n, not with its shapes
        monkeypatch.setattr(identities, "TERM_LIMIT", 42)
        assert han_lhs(6) == Fraction(1, 720)
        assert han2_lhs(6) == Fraction(1, factorial(13))
        assert tbar_lhs(ConstantBranching(2), 6) == Fraction(1, 720)
        assert yang_lhs(7) == Fraction(1, 5040)
        assert verify_han(6).term_count == verify_yang(7).term_count == 132

    def test_report(self):
        r = verify_han(3)
        assert r.holds and r.term_count == 5
        assert r.to_json_dict() == {
            "identity": "han",
            "n": 3,
            "lhs": "1/6",
            "expected": "1/6",
            "holds": True,
            "term_count": 5,
        }
        json.dumps(r.to_json_dict())


class TestHan2:
    def test_small_values(self):
        assert han2_lhs(1) == Fraction(1, 6)
        assert han2_lhs(2) == Fraction(1, 120)
        assert han2_lhs(3) == Fraction(1, 5040)

    def test_identity_holds(self):
        for n in range(1, 8):
            assert factorial(2 * n + 1) * han2_lhs(n) == 1


class TestYang:
    def test_small_values(self):
        one = yang_lhs(1)
        assert one.is_constant() and one.constant_value() == 1
        half = yang_lhs(2)
        assert half.is_constant() and half.constant_value() == Fraction(1, 2)

    def test_constant_through_6(self):
        for n in range(1, 7):
            f = yang_lhs(n)
            assert f.is_constant(), f"n={n} gave {f}"
            assert f.constant_value() == Fraction(1, factorial(n))

    def test_term_weights_at_n4(self):
        # weights over the five 4-vertex ordered trees: m^3, m*C(m,2) x3, C(m,3)
        def weight(t):
            w = RationalFunction.constant(1)
            stack = [t]
            while stack:
                node = stack.pop()
                w = w * binomial_poly(len(node.children))
                stack.extend(node.children)
            return w

        m = RationalFunction.monomial(1)
        weights = [weight(t) for t in enum_ordered(4)]
        expected = {
            str(m * m * m): 1,
            str(m * binomial_poly(2)): 3,
            str(binomial_poly(3)): 1,
        }
        got = {}
        for w in weights:
            got[str(w)] = got.get(str(w), 0) + 1
        assert got == expected

    def test_term_for_the_path(self):
        path = decode("(((())))")
        term = yang_term(path)
        # m^3 / (24 m^6) reduces to 1/(24 m^3)
        expect = RationalFunction.monomial(-3, Fraction(1, 24))
        assert term == expect

    def test_spot_evaluations(self):
        for n in range(1, 6):
            f = yang_lhs(n)
            for m0 in (2, 3, 17):
                assert f.evaluate(Fraction(m0)) == Fraction(1, factorial(n))

    def test_m2_bridge(self):
        for n in range(1, 8):
            assert yang_sum_at(n, Fraction(2)) == han_lhs(n)

    def test_report(self):
        r = verify_yang(4)
        assert r.holds and r.term_count == 5
        assert r.to_json_dict()["lhs"] == "1/24"


class TestTbar:
    def test_const_1_is_path_only(self):
        for n in range(1, 8):
            assert tbar_lhs(ConstantBranching(1), n) == Fraction(1, factorial(n))

    def test_const_2_matches_han(self):
        for n in range(1, 8):
            assert tbar_lhs(ConstantBranching(2), n) == han_lhs(n)

    def test_mixed_oracle_value(self, mixed_oracle):
        assert tbar_lhs(mixed_oracle, 3) == Fraction(1, 6)

    def test_identity_across_oracles(self, mixed_oracle):
        oracles = [
            ConstantBranching(1),
            ConstantBranching(2),
            ConstantBranching(3),
            DepthBranching((2, 3)),
            DepthBranching((3, 1, 2)),
            mixed_oracle,
        ]
        for oracle in oracles:
            for n in range(1, 7):
                assert factorial(n) * tbar_lhs(oracle, n) == 1

    def test_report(self, mixed_oracle):
        r = verify_tbar(mixed_oracle, 3)
        assert r.holds and r.term_count == 5


class TestLabelingCounts:
    def test_path_has_one_labeling(self):
        path4 = decode("((((.,.),.),.),.)")
        assert hook_count(path4) == 1
        assert brute_force_labelings(path4) == 1

    def test_cherry(self):
        cherry = decode("((.,.),(.,.))")
        assert hook_count(cherry) == 2
        assert brute_force_labelings(cherry) == 2

    def test_exhaustive_agreement(self):
        for n in range(1, 9):
            for t in enum_binary(n):
                assert hook_count(t) == brute_force_labelings(t)
            for t in enum_ordered(n):
                assert hook_count(t) == brute_force_labelings(t)

    def test_brute_force_refuses_large_trees(self):
        big = decode("(" * 12 + ")" * 12)
        assert big.size == 12
        with pytest.raises(SizeLimitError):
            brute_force_labelings(big)

    def test_increasing_binary_trees_number_n_factorial(self):
        for n in range(1, 8):
            assert sum(hook_count(t) for t in enum_binary(n)) == factorial(n)


class TestCompletionCounts:
    def test_examples(self):
        assert completion_count(BinaryTree()) == 2
        path2 = decode("((.,.),.)")
        assert completion_count(path2) == 8
        balanced = decode("((.,.),(.,.))")
        assert completion_count(balanced) == 80

    def test_matches_brute_force(self):
        for n in range(1, 5):
            for t in enum_binary(n):
                c = completion(t)
                assert completion_count(t) == hook_count(c)
                assert completion_count(t) == brute_force_labelings(c)


class TestReductionIdentities:
    def test_labeling_weighted_sum_is_one(self):
        # sum over shapes of f^T * prod 1/2^(h_v-1) telescopes to 1
        for n in range(1, 9):
            total = Fraction(0)
            for t in enum_binary(n):
                shift = sum(h - 1 for h in hook_lengths(t).values())
                total += Fraction(hook_count(t), 1 << shift)
            assert total == 1

    def test_completion_census_totals(self):
        for n in range(1, 7):
            rows = completion_census(n)
            assert rows[-1].running_total == 1

    def test_census_n2_rows(self):
        rows = completion_census(2)
        assert len(rows) == 2
        for row in rows:
            assert row.labelings == 8
            assert row.weight == Fraction(1, 16)
        assert rows[-1].running_total == 1


def test_every_sum_past_the_old_term_limit_is_exact_in_one_pass(monkeypatch):
    # the sums once refused n at the first size past 10^6 shapes: binary at
    # 14 (2,674,440 shapes), ordered at 15 (as many), tbar under const:3 at
    # 10 (1,430,715).  Each is exact there and at 30, from one pass of its
    # fold, which builds the sizes 1..n once each
    built = []

    def recording(term_sizes):
        def sizes(*args):
            built.append(0)
            for terms in term_sizes(*args):
                built[-1] += 1
                yield terms
        return sizes

    monkeypatch.setattr(identities, "slotted_term_sizes", recording(slotted_term_sizes))
    for family in (BinaryFamily, OrderedFamily, TbarFamily):
        monkeypatch.setattr(family, "term_sizes", recording(family.term_sizes))
    for n in (10, 14, 15, 30):
        expected = Fraction(1, factorial(n))
        assert han_lhs(n) == expected, n
        assert han2_lhs(n) == Fraction(1, factorial(2 * n + 1)), n
        assert tbar_lhs(ConstantBranching(3), n) == expected, n
        assert yang_lhs(n) == expected, n
        assert yang_sum_at(n, Fraction(2)) == expected, n
        assert built == [n] * 5, n
        built.clear()


def test_consistency_error_is_reserved():
    # ConsistencyError guards impossibilities; no valid input raises it
    assert issubclass(ConsistencyError, RuntimeError)


class TestTermFold:
    """The sums take the summands by subtree size.  Run on multisets, the
    fold gives per size the multiset of the summand of each tree the
    enumerator builds; production's sum and count are that multiset's."""

    def test_binary_han_and_han2(self):
        family = BinaryFamily()
        han_sums = list(family.term_sizes(10))
        han_sizes = multiset_sizes(family.term_sizes, 10)
        def han2_factor(width, h):
            return Multiset.of(Fraction(1, identities._han2_den(h)))

        han2_sizes = multiset_sizes(slotted_term_sizes, ConstantBranching(2), 10, han2_factor)
        for n in range(1, 11):
            trees = list(enum_binary(n))
            assert han_sizes[n - 1] == Counter(family.hook_term(t) for t in trees), n
            assert han_sums[n - 1] == han_sizes[n - 1].term_sum(), n
            han2 = Counter(Fraction(1, prod((2 * h + 1) * 2 ** (2 * h - 1)
                                            for h in hook_lengths(t).values()))
                           for t in trees)
            assert han2_sizes[n - 1] == han2, n
            report = identities.verify_han2(n)
            assert (report.lhs, report.term_count) == (sum(han2.elements()), len(trees)), n

    def test_tbar(self, mixed_oracle):
        # the last table puts a group of two default slots beside a listed
        # one-slot vertex, so the root joins the fillings of two groups
        beside = TableBranching((((), 3), ((0,), 1)), ConstantBranching(2))
        for oracle in (ConstantBranching(3), DepthBranching((2, 3)), mixed_oracle,
                       ConstantBranching(2), DepthBranching((1, 2, 3)), beside):
            family = TbarFamily(oracle)
            sums = list(family.term_sizes(7))
            sizes = multiset_sizes(family.term_sizes, 7)
            for n in range(1, 8):
                terms = Counter(family.hook_term(t) for t in enum_tbar(oracle, n))
                assert sizes[n - 1] == terms, (oracle, n)
                assert sums[n - 1] == sizes[n - 1].term_sum(), (oracle, n)

    def test_han_is_the_tbar_sum_on_the_complete_binary_tree(self):
        # the paper's last identity with cbar = 2 at every vertex is Han's:
        # the binary trees are the rooted subtrees of the complete binary
        # tree, with the same vertex factor 1/(h * 2^(h-1))
        binary, tbar = BinaryFamily(), TbarFamily(ConstantBranching(2))
        for sizes in ("term_sizes", "hook_sizes"):
            assert (multiset_sizes(getattr(binary, sizes), 12)
                    == multiset_sizes(getattr(tbar, sizes), 12)), sizes
            assert list(getattr(binary, sizes)(12)) == list(getattr(tbar, sizes)(12)), sizes

    def test_tbar_on_the_complete_m_ary_tree_is_the_ordered_sum_at_m(self):
        # an ordered shape S stands for w(S) = prod C(m, c_v) rooted subtrees
        # of the complete m-ary tree, each with the summand hook_term(S) / w(S)
        for m in range(1, 5):
            tbar, ordered = TbarFamily(ConstantBranching(m)), OrderedFamily(m)
            sizes = multiset_sizes(tbar.term_sizes, 7)
            for n in range(1, 8):
                expected = Counter()
                for shape in enum_ordered(n):
                    w = prod(comb(m, len(node.children)) for node in _subtrees(shape))
                    if w:
                        expected[ordered.hook_term(shape) / w] += w
                assert sizes[n - 1] == expected, (m, n)

    def test_ordered_symbolic_and_concrete(self):
        # at m=2 a vertex with 3 or more children has the factor 0, so
        # summands of different shapes meet at 0
        for family, n_max in ((OrderedFamily(), 7), (OrderedFamily(Fraction(9, 2)), 6),
                              (OrderedFamily(2), 7)):
            sums = list(family.term_sizes(n_max))
            sizes = multiset_sizes(family.term_sizes, n_max)
            for n in range(1, n_max + 1):
                terms = Counter(family.hook_term(t) for t in enum_ordered(n))
                assert sizes[n - 1] == terms, (family, n)
                assert sums[n - 1] == sizes[n - 1].term_sum(), (family, n)

    def test_a_wide_vertex_fills_its_slots_by_binomials(self):
        # 500 slots of one key: two children in C(500, 2) ways, or one
        # child of size 2 (a path) below one of 500 slots, itself 500-wide
        r = verify_tbar(ConstantBranching(500), 3)
        assert r.holds and r.term_count == 124_750 + 500 ** 2 == 374_750

    def test_the_summands_match_their_closed_forms(self):
        # binary from the hook lengths; concrete m is the symbolic term at m
        for t in enum_binary(6):
            hooks = hook_lengths(t).values()
            assert BinaryFamily().hook_term(t) == Fraction(1, prod(h * 2 ** (h - 1) for h in hooks))
        m = Fraction(9, 2)
        for t in enum_ordered(6):
            assert OrderedFamily(m).hook_term(t) == yang_term(t).evaluate(m)
