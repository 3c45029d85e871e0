import copy
import random
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from struct import pack, unpack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import history_products, multiset_sizes, odd_double_factorial
from hooklab import (
    AddableSite,
    BinaryFamily,
    ConsistencyError,
    ConstantBranching,
    DepthBranching,
    FamilyConfigError,
    GrowthState,
    LabeledTree,
    OrderedFamily,
    ProbabilityRangeError,
    SizeLimitError,
    TableBranching,
    TbarFamily,
    addable_sites,
    attach,
    check_labeling,
    decode,
    enum_binary,
    enum_ordered,
    enum_tbar,
    enumerate_labelings,
    grow,
    hook_count,
    hook_lengths,
    lemma_check,
    shape_probability,
    start,
)
from hooklab import families, identities
from hooklab.exact import RationalFunction
from hooklab.sampler import (_CHUNK, _Flat, _grown, _grown_keys, _labeling_count, _site_total,
                             _Table)

BINARY = BinaryFamily()
SYMBOLIC = OrderedFamily()


def state_of(enc, family):
    lt = decode(enc)
    assert isinstance(lt, LabeledTree)
    return GrowthState(lt, family)


class TestReferenceSites:
    def test_binary_reference_state(self):
        # left path of 3: open slots at depths 1, 2, 3, 3
        st_ = state_of("(:1(:2(:3.,.),.),.)", BINARY)
        probs = sorted((p for _, p in addable_sites(st_)), reverse=True)
        assert probs == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 8),
        ]

    def test_ordered_reference_state(self):
        st_ = state_of("(:1(:2(:3))(:4))", SYMBOLIC)
        sites = addable_sites(st_)
        assert len(sites) == 7
        expected = Counter(
            {
                "((1/3)m + (-2/3)) / ((1)m)": 3,  # (m-2)/(3m)
                "(1) / ((1)m)": 1,  # 1/m
                "((1/2)m + (-1/2)) / ((1)m^2)": 2,  # (m-1)/(2m^2)
                "(1) / ((1)m^2)": 1,  # 1/m^2
            }
        )
        assert Counter(str(p) for _, p in sites) == expected

    def test_tbar_reference_state(self, mixed_oracle):
        st_ = state_of("(:1[0](:2)[1](:3))", TbarFamily(mixed_oracle))
        probs = sorted(p for _, p in addable_sites(st_))
        assert probs == [Fraction(1, 6)] * 3 + [Fraction(1, 2)]

    def test_sites_are_canonically_ordered(self):
        st_ = state_of("(:1(:2(:3.,.),.),.)", BINARY)
        keys = [(s.parent, s.slot) for s, _ in addable_sites(st_)]
        assert keys == sorted(keys)


class TestAttach:
    """attach against literal encodings; grow's flat state builds its tree
    with the same family.node, so TestFlatKernel cannot catch a wrong one."""

    CASES = [
        (BINARY, [((), 1), ((1,), 0), ((), 0), ((1, 0), 1), ((0,), 1)], [
            "(:1.,(:2.,.))",
            "(:1.,(:2(:3.,.),.))",
            "(:1(:4.,.),(:2(:3.,.),.))",
            "(:1(:4.,.),(:2(:3.,(:5.,.)),.))",
            "(:1(:4.,(:6.,.)),(:2(:3.,(:5.,.)),.))",
        ]),
        # used slots: each leaf goes before the child there, later siblings
        # and their subtrees' labels move one slot on
        (OrderedFamily(9), [((), 0), ((), 0), ((1,), 0), ((), 1), ((2,), 0), ((), 3)], [
            "(:1(:2))",
            "(:1(:3)(:2))",
            "(:1(:3)(:2(:4)))",
            "(:1(:3)(:5)(:2(:4)))",
            "(:1(:3)(:5)(:2(:6)(:4)))",
            "(:1(:3)(:5)(:2(:6)(:4))(:7))",
        ]),
        (TbarFamily(DepthBranching((2, 3))), [((), 1), ((1,), 2), ((), 0), ((1,), 0), ((0,), 1)], [
            "(:1[1](:2))",
            "(:1[1](:2[2](:3)))",
            "(:1[0](:4)[1](:2[2](:3)))",
            "(:1[0](:4)[1](:2[0](:5)[2](:3)))",
            "(:1[0](:4[1](:6))[1](:2[0](:5)[2](:3)))",
        ]),
    ]

    def test_attach_builds_the_literal_trees(self):
        for family, sites, encodings in self.CASES:
            state = start(family)
            for (parent, slot), enc in zip(sites, encodings, strict=True):
                state = attach(state, AddableSite(parent, slot))
                check_labeling(state.tree)
                assert state.tree.enc == enc, (family, parent, slot)


class TestLemma:
    def test_single_root_every_family(self, mixed_oracle):
        for family in (
            BINARY,
            SYMBOLIC,
            OrderedFamily(7),
            TbarFamily(mixed_oracle),
        ):
            assert lemma_check(start(family))

    def test_sites_are_the_same_at_every_labeling_of_a_shape(self, mixed_oracle):
        # what lets verify lemma check one labeling per shape; ordered m=9/2
        # weighs a sixth child out of range, at every labeling of its shape
        def sites(lt, family):
            try:
                return addable_sites(GrowthState(lt, family))
            except ProbabilityRangeError as exc:
                return str(exc)

        families = [family for family, _ in TestFlatKernel().cases(mixed_oracle)] + [SYMBOLIC]
        for family in families:
            for n in range(1, 7):
                by_shape = {}
                for lt in enumerate_labelings(family, n):
                    listed = sites(lt, family)
                    assert listed == by_shape.setdefault(lt.shape, listed), (family, lt.enc)
                assert len(by_shape) == sum(1 for _ in family.shapes(n)), (family, n)

    def test_exhaustive_exact_families(self):
        oracles = [ConstantBranching(2), ConstantBranching(3), DepthBranching((2, 3))]
        families = [BINARY] + [TbarFamily(o) for o in oracles]
        for family in families:
            for n in range(1, 7):
                for lt in enumerate_labelings(family, n):
                    assert lemma_check(GrowthState(lt, family))

    def test_exhaustive_symbolic_ordered(self):
        for n in range(1, 6):
            for lt in enumerate_labelings(SYMBOLIC, n):
                assert lemma_check(GrowthState(lt, SYMBOLIC))


class TestSweepWalk:
    """The per-vertex walk of the verify sweeps against the per-site path: the
    total the lemma reads, the weights and the spliced keys labelprob reads,
    with one family object per sweep, whose memo the sweep's shapes share, and
    the per-site path on a fresh equal family per state, whose memo is empty."""

    def families(self, mixed_oracle):
        return [family for family, _ in TestFlatKernel().cases(mixed_oracle)] + [SYMBOLIC]

    def test_the_total_is_the_sum_of_the_sites(self, mixed_oracle):
        for family in self.families(mixed_oracle):
            for n in range(1, 7):
                for shape in family.shapes(n):
                    state = GrowthState(LabeledTree(shape, range(1, n + 1)), replace(family))
                    try:
                        listed = addable_sites(state)
                    except ProbabilityRangeError:  # ordered m=9/2 weighs a sixth child
                        with pytest.raises(ProbabilityRangeError):
                            _site_total(family, shape)
                        continue
                    total = _site_total(family, shape)
                    assert total == sum(p for _, p in listed) == 1, (family, shape.enc)
                    assert type(total) is type(listed[0][1]), (family, shape.enc)

    def test_every_spliced_key_is_the_grown_tree_s(self, mixed_oracle):
        for family in self.families(mixed_oracle):
            sites = 0
            for n in range(1, 7):
                for shape in family.shapes(n):
                    state = GrowthState(LabeledTree(shape, range(1, n + 1)), replace(family))
                    try:
                        listed = addable_sites(state)
                    except ProbabilityRangeError:
                        continue
                    spliced = [(AddableSite(parent, slot), q, key)
                               for parent, q, keys in _grown_keys(family, shape)
                               for slot, key in keys]
                    assert [(site, q) for site, q, _ in spliced] == listed, (family, shape.enc)
                    for site, _, key in spliced:
                        assert key == _grown(family, shape, site.parent, site.slot).enc, (
                            family, shape.enc, site)
                    sites += len(spliced)
            assert sites, family


class TestEqualLikelihood:
    def families(self, mixed_oracle=None):
        fams = [BINARY, SYMBOLIC, OrderedFamily(Fraction(9, 2)),
                TbarFamily(ConstantBranching(2)), TbarFamily(DepthBranching((2, 3)))]
        if mixed_oracle is not None:
            fams.append(TbarFamily(mixed_oracle))
        return fams

    def test_constant_per_shape_and_closed_form(self, mixed_oracle):
        # Each child of a parent p joined when p had as many children as it
        # has earlier-labeled siblings, 0 to k_p - 1, so a history's product
        # is w(p, 0) ... w(p, k_p - 1) over the parents, whatever the labels;
        # where a new child moves its later siblings on, the product does not
        # depend on their slots either.  So each labeling of a shape, reached
        # by exactly one history, gets the shape's closed form.
        for family in self.families(mixed_oracle):
            for n, reached in history_products(family, 6).items():
                assert sorted(lt.enc for lt, _ in reached) == sorted(
                    lt.enc for lt in enumerate_labelings(family, n)), (family, n)
                for lt, p in reached:
                    assert p == shape_probability(lt.shape, family), (family, lt.enc)

    def test_total_mass_is_one(self, mixed_oracle):
        for family in self.families(mixed_oracle):
            for n, reached in history_products(family, 6).items():
                assert sum(p for _, p in reached) == 1, (family, n)

    def test_binary_path_probability(self):
        lt = decode("(:1(:2(:3.,.),.),.)")
        assert (lt, Fraction(1, 8)) in history_products(BINARY, 3)[3]

    def test_binary_balanced_both_labelings(self):
        reached = history_products(BINARY, 3)[3]
        for labels in ((1, 2, 3), (1, 3, 2)):
            assert (LabeledTree(decode("((.,.),(.,.))"), labels), Fraction(1, 4)) in reached

    def test_single_vertex(self, mixed_oracle):
        for family in self.families(mixed_oracle):
            assert history_products(family, 1) == {1: [(start(family).tree, 1)]}

    def test_wrong_family_rejected(self):
        with pytest.raises(FamilyConfigError):
            shape_probability(decode("(:1(:2))").shape, BINARY)

    def test_ordered_probability_above_one_rejected(self):
        # m=1/2: the depth-2 vertex would get (1/2) / (1/2)^2 = 2
        half = OrderedFamily(Fraction(1, 2))
        with pytest.raises(ProbabilityRangeError):
            addable_sites(GrowthState(decode("(:1(:2))"), half))


def hook_product(shape, family):
    """P(shape) written out over its hook lengths h_v and child counts c_v:
    prod 1/2^(h_v-1) (binary), prod C(m,c_v)/m^(h_v-1) (ordered),
    prod 1/cbar_v^(h_v-1) (tbar)."""
    hooks = hook_lengths(shape)
    children = Counter(addr[:-1] for addr in hooks if addr)
    p = Fraction(1)
    for addr, h in hooks.items():
        if isinstance(family, BinaryFamily):
            p = p * Fraction(1, 2 ** (h - 1))
        elif isinstance(family, TbarFamily):
            p = p * Fraction(1, family.oracle.child_count(addr) ** (h - 1))
        else:
            m = RationalFunction.monomial(1) if family.m is None else family.m
            for i in range(children[addr]):
                p = p * (m - i) * Fraction(1, i + 1)
            if h > 1:
                p = p * (RationalFunction.monomial(1 - h) if family.m is None
                         else 1 / family.m ** (h - 1))
    return p


class TestPaperStatement:
    """Growth lands on each of the n!/prod h_v increasing labelings of a
    shape T with probability P(T), so sum_T hook_count(T) * P(T) = 1."""

    def cases(self, mixed_oracle):
        cases = [(BINARY, enum_binary)]
        for m in (None, Fraction(3), Fraction(7, 2)):
            cases.append((OrderedFamily(m), enum_ordered))
        for oracle in (ConstantBranching(2), DepthBranching((2, 3)), mixed_oracle):
            cases.append((TbarFamily(oracle), lambda n, o=oracle: enum_tbar(o, n)))
        return cases

    def test_labelings_times_shape_probability_sum_to_one(self, mixed_oracle):
        for family, shapes in self.cases(mixed_oracle):
            for n in range(1, 7):
                total = 0
                for shape in shapes(n):
                    p = shape_probability(shape, family)
                    assert p == hook_product(shape, family), (family, shape.enc)
                    total = total + hook_count(shape) * p
                assert total == 1, (family, n)


class TestLabelingEnumeration:
    def test_counts(self):
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_labelings(BINARY, n)) == factorial(n)
            assert sum(1 for _ in enumerate_labelings(SYMBOLIC, n)) == (
                odd_double_factorial(2 * n - 3) if n > 1 else 1
            )

    def test_the_term_limit_is_checked_before_the_first_tree(self, monkeypatch):
        # 4! = 24 labeled binary trees of size 4, 5!! = 15 ordered, 105 under
        # const:3.  The count folds the hook products of the sizes 1..4 alone,
        # whatever the size asked for, and makes no shape
        def unreachable(self, n):
            raise AssertionError("a shape was made")

        def recording(hook_sizes):
            def sizes(self, n):
                for hooks in hook_sizes(self, n):
                    folded.append(len(folded) + 1)
                    yield hooks
            return sizes

        for family, limit, message in (
                (BINARY, 23, "more than 23 labeled binary trees at n={}"),
                (SYMBOLIC, 14, "more than 14 labeled ordered trees at n={}"),
                (TbarFamily(ConstantBranching(3)), 104,
                 "more than 104 labeled tbar trees at n={} with oracle const:3")):
            monkeypatch.setattr(type(family), "shapes", unreachable)
            monkeypatch.setattr(type(family), "hook_sizes", recording(type(family).hook_sizes))
            monkeypatch.setattr(identities, "TERM_LIMIT", limit)
            for n in (4, 30):
                folded = []
                labeled = enumerate_labelings(family, n)
                with pytest.raises(SizeLimitError, match=f"^{re.escape(message.format(n))}$"):
                    next(labeled)
                assert folded == [1, 2, 3, 4], (family, n)

    def test_all_valid_and_distinct(self):
        seen = set()
        for lt in enumerate_labelings(BINARY, 5):
            check_labeling(lt)
            assert lt.enc not in seen
            seen.add(lt.enc)


class TestLabelingCount:
    """``_labeling_count`` folds the hook products by subtree size, as the
    sums fold their summands; it makes no shape."""

    def test_the_fold_counts_what_the_hook_walk_counts(self, mixed_oracle):
        table = TableBranching((((0, 1), 4), ((1,), 1)), DepthBranching((2, 3, 1)))
        cases = [(BINARY, 10), (SYMBOLIC, 9), (OrderedFamily(Fraction(9, 2)), 9)]
        cases += [(TbarFamily(oracle), 8) for oracle in (
            ConstantBranching(1), ConstantBranching(2), ConstantBranching(3),
            DepthBranching((2, 3)), DepthBranching((1, 2, 3)), mixed_oracle, table)]
        for family, n_max in cases:
            sums = list(family.hook_sizes(n_max))
            hooks = multiset_sizes(family.hook_sizes, n_max)
            labeled = list(_labeling_count(family, n_max))
            for n in range(1, n_max + 1):
                counts = [hook_count(t) for t in family.shapes(n)]  # n!/prod h_v
                products = Counter(Fraction(c, factorial(n)) for c in counts)  # 1/prod h_v
                assert hooks[n - 1] == products, (family, n)
                assert sums[n - 1] == hooks[n - 1].term_sum().total, (family, n)
                assert labeled[n - 1] == sum(counts), (family, n)

    def test_a_hook_product_that_does_not_divide_is_inconsistent(self, monkeypatch):
        # a mutant rule 1/(h+1) makes products that need not divide size!
        monkeypatch.setattr(BinaryFamily, "hook_sizes", lambda self, n: families.slotted_term_sizes(
            ConstantBranching(2), n, lambda width, h: Fraction(1, h + 1)))
        with pytest.raises(ConsistencyError, match="does not divide"):
            list(_labeling_count(BINARY, 4))


class FixedRandom:
    """Draws the same 64-bit value ``u`` every time; ``reads`` counts its
    ``randbytes`` calls."""

    def __init__(self, u):
        self.u, self.reads = u, 0

    def getrandbits(self, k):
        return self.u

    def randbytes(self, k):
        self.reads += 1
        return self.u.to_bytes(8, "little") * (k // 8)


class ScriptedRandom:
    """Draws the 64-bit words ``words`` in turn, by either call."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, k):
        return next(self.words)

    def randbytes(self, k):
        return pack(f"<{k // 8}Q", *[next(self.words) for _ in range(k // 8)])


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
@pytest.mark.parametrize("k", [1, 2, 1000])
def test_randbytes_reads_as_successive_64_bit_words(seed, k):
    # the census draws read one randbytes call as getrandbits(64) calls, in turn
    ours, theirs = random.Random(seed), random.Random(seed)
    words = unpack(f"<{k}Q", ours.randbytes(8 * k))
    assert words == tuple(theirs.getrandbits(64) for _ in range(k)), (
        "random.Random.randbytes(8k) is not k getrandbits(64) words, little-endian, on this "
        "interpreter; sampler._Table.draws rests on that, so census tallies would change")
    assert ours.getrandbits(64) == theirs.getrandbits(64), (
        "random.Random.randbytes(8k) does not advance the generator by k getrandbits(64) calls "
        "on this interpreter; sampler._Table.draws rests on that")


class TestGrow:
    def test_seed_reproducibility(self):
        for fam in (BINARY, OrderedFamily(6), TbarFamily(DepthBranching((2, 3)))):
            a = grow(fam, 6, random.Random(42))
            b = grow(fam, 6, random.Random(42))
            assert a.enc == b.enc

    def test_single_vertex(self):
        lt = grow(BINARY, 1, random.Random(0))
        assert lt.enc == "(:1.,.)"

    def test_const1_oracle_is_deterministic(self):
        fam = TbarFamily(ConstantBranching(1))
        for seed in range(5):
            lt = grow(fam, 4, random.Random(seed))
            assert lt.enc == "(:1[0](:2[0](:3[0](:4))))"

    def test_output_is_a_valid_increasing_labeling(self):
        for seed in range(25):
            lt = grow(BINARY, 7, random.Random(seed))
            check_labeling(lt)
            assert lt.size == 7

    def test_ordered_needs_concrete_m(self):
        with pytest.raises(FamilyConfigError):
            grow(SYMBOLIC, 3, random.Random(0))

    def test_ordered_m_threshold(self):
        with pytest.raises(FamilyConfigError):
            grow(OrderedFamily(2), 4, random.Random(0))
        grow(OrderedFamily(3), 4, random.Random(0))
        grow(OrderedFamily(Fraction(7, 2)), 4, random.Random(0))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            grow(BINARY, 0, random.Random(0))

    def test_last_site_takes_the_top_of_the_interval(self):
        # the root's two sites weigh 1/2 each: u/2^64 just below 1 is the right child's
        assert grow(BINARY, 2, FixedRandom(2 ** 64 - 1)).enc == "(:1.,(:2.,.))"

    def test_a_cumulative_boundary_belongs_to_the_next_site(self):
        # u/2^64 = 1/2 is the left child's cumulative mass, so the right child takes it
        assert grow(BINARY, 2, FixedRandom(2 ** 63)).enc == "(:1.,(:2.,.))"
        assert grow(BINARY, 2, FixedRandom(2 ** 63 - 1)).enc == "(:1(:2.,.),.)"
        # between two vertices too: at (:1.,(:2.,.)) the root's one site ends at 1/2
        assert grow(BINARY, 3, FixedRandom(2 ** 63)).enc == "(:1.,(:2(:3.,.),.))"


class TestDraw:
    """The draw's one mass check, in _Flat.step: every site list is checked
    before a site is picked, the root's first."""

    def test_masses_short_of_one_raise(self, monkeypatch):
        real = BinaryFamily.weight
        monkeypatch.setattr(BinaryFamily, "weight",
                            lambda self, parent, c: real(self, parent, c) * Fraction(3, 4))
        with pytest.raises(ConsistencyError, match=r"^site masses sum to 3/4, not 1, "
                           r"growing binary trees to n=2 at \(:1\.,\.\)$"):
            _Flat(BINARY, 2).step()
        # the largest u cannot pass the check by landing short of the missing mass
        with pytest.raises(ConsistencyError, match="3/4"):
            grow(BINARY, 2, FixedRandom(2 ** 64 - 1))


def reference_grow(family, n, rng, steps):
    """The growth chain as it stood before the flat kernel: the exhaustive
    path's start, addable_sites and attach, and a draw that locates u/2^64
    among the Fraction-cumulative probabilities; records every step, and
    raises ConsistencyError at a state whose site masses do not sum to 1."""
    state = start(family)
    while state.tree.size < n:
        listed = addable_sites(state)
        if sum(p for _, p in listed) != 1:
            raise ConsistencyError(f"site masses sum to {sum(p for _, p in listed)}, not 1")
        u = rng.getrandbits(64)
        cum = Fraction(0)
        for site, p in listed:
            cum += p
            if u * cum.denominator < cum.numerator << 64:
                break
        else:
            raise AssertionError(f"site masses sum to {cum}")
        steps.append((state.tree.size + 1, site, p))
        state = attach(state, site)
    return state.tree


class TestFlatKernel:
    """grow's flat state against the exhaustive path it replaces."""

    def cases(self, mixed_oracle):
        """(family, largest grow size) pairs; ordered growth needs m >= n-1."""
        return [
            (BINARY, 12),
            (OrderedFamily(7), 8),
            (OrderedFamily(Fraction(9, 2)), 5),
            (TbarFamily(DepthBranching((2, 3))), 12),
            (TbarFamily(mixed_oracle), 12),
        ]

    def walk(self, state, flat, n, reached):
        """Depth-first over every growth history up to size n, checking the
        kernel's step (its sites' order, parent address, slot and cum / D)
        against addable_sites at every state."""
        family = state.family
        assert flat.tree() == state.tree
        reached.setdefault(state.tree.size, []).append(state.tree)
        try:
            listed = addable_sites(state)
        except ProbabilityRangeError:
            with pytest.raises(ProbabilityRangeError):
                flat.step()
            assert state.tree.size == n  # only the leaves weigh out of range
            return
        expected = [(site.parent, site.slot, cum)
                    for (site, _), cum in zip(listed, accumulate(p for _, p in listed))]
        sites, D = flat.sites()
        assert [(flat.addr[v], slot, Fraction(cum, D)) for v, slot, cum in sites] == expected
        if state.tree.size == n:
            return
        for v, slot, _ in sites:
            twin = copy.deepcopy(flat, {id(family): family})
            twin.attach(v, slot)
            self.walk(attach(state, AddableSite(flat.addr[v], slot)), twin, n, reached)

    def test_sites_match_addable_sites_at_every_state(self, mixed_oracle):
        for family, size in self.cases(mixed_oracle):
            reached = {}
            # ordered m=9/2 grows only to 5; the walk steps past that to see its
            # leaves weigh out of range
            self.walk(start(family), _Flat(family, min(size, 6)), 6, reached)
            for n in range(1, 7):
                assert sorted(lt.enc for lt in reached[n]) == sorted(
                    lt.enc for lt in enumerate_labelings(family, n)), (family, n)

    def test_grow_equals_the_reference_chain(self, mixed_oracle):
        for family, n in self.cases(mixed_oracle):
            for seed in range(200):
                steps, expected = [], []
                tree = grow(family, n, random.Random(seed), on_step=lambda *step: steps.append(step))
                reference = reference_grow(family, n, random.Random(seed), expected)
                assert tree.enc == reference.enc, (family, seed)
                assert steps == expected, (family, seed)


class TestKernelCache:
    """A step weighs anew only the vertices a move touched, so each fault
    below shows only if that refresh reaches the vertex: grow must raise
    where the reference chain, which weighs every vertex at every state,
    does."""

    def raises_where_the_reference_does(self, family, n, seeds):
        for seed in seeds:
            steps, expected = [], []
            with pytest.raises(ConsistencyError) as ours:
                grow(family, n, random.Random(seed), on_step=lambda *step: steps.append(step))
            with pytest.raises(ConsistencyError) as theirs:
                reference_grow(family, n, random.Random(seed), expected)
            assert steps == expected, (family, seed)
            assert str(ours.value).startswith(str(theirs.value)), (family, seed)

    @pytest.mark.parametrize("family", [BINARY, TbarFamily(DepthBranching((2, 3)))])
    def test_a_move_reweighs_its_parent(self, monkeypatch, family):
        # wrong only for a parent below the root with one child: the first
        # state with such a parent and an open slot varies with the seed, and
        # a parent whose mass still read c=0 would sum to 1 there
        real = type(family).weight
        monkeypatch.setattr(type(family), "weight", lambda self, parent, c: real(self, parent, c)
                            * (Fraction(3, 2) if parent and c == 1 else 1))
        self.raises_where_the_reference_does(family, 12, range(50))

    def test_a_move_reweighs_every_vertex_it_readdresses(self, monkeypatch):
        # an ordered weight that reads the last address step, not just the
        # depth: a leaf put before its siblings moves them on, and a sibling
        # that kept its old weight would hide the fault where it moved
        real = OrderedFamily.weight
        monkeypatch.setattr(OrderedFamily, "weight", lambda self, parent, c: real(self, parent, c)
                            * (2 if parent and parent[-1] else 1))
        self.raises_where_the_reference_does(OrderedFamily(7), 8, range(100))

    def test_a_growing_denominator_rescales_every_kept_mass(self, monkeypatch):
        # binary weights are 1/2^(depth+1), so D doubles with each new depth
        # of a parent: at least 2, 4, 8 and 16 on the way to 12 vertices
        real, denominators = _Flat.step, []

        def step(flat):
            cums, D = real(flat)
            denominators.append(D)
            return cums, D

        monkeypatch.setattr(_Flat, "step", step)
        for seed in range(200):
            denominators.clear()
            steps, expected = [], []
            tree = grow(BINARY, 12, random.Random(seed), on_step=lambda *step: steps.append(step))
            assert tree.enc == reference_grow(BINARY, 12, random.Random(seed), expected).enc
            assert steps == expected, seed
            assert len(set(denominators)) >= 4, seed
            assert all(b % a == 0 for a, b in zip(denominators, denominators[1:])), seed


class TestTable:
    """The census table against grow and the exact draw rule, node by node."""

    def cases(self, mixed_oracle):
        """(family, largest size) pairs; ordered growth needs m >= n-1."""
        return [
            (BINARY, 6),
            (OrderedFamily(7), 6),
            (OrderedFamily(Fraction(9, 2)), 5),
            (TbarFamily(DepthBranching((2, 3))), 6),
            (TbarFamily(mixed_oracle), 6),
        ]

    def test_draw_lands_where_grow_does(self, mixed_oracle):
        for family, n_max in self.cases(mixed_oracle):
            for n in range(1, n_max + 1):
                table = _Table(family, n)
                for seed in range(200):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    assert list(table.draws(ours, 1)) == [grow(family, n, theirs).enc], (
                        family, n, seed)
                    assert ours.getrandbits(64) == theirs.getrandbits(64)

    @pytest.mark.parametrize("count", [_CHUNK + 1, 3 * _CHUNK])
    def test_draws_across_chunks_are_one_grow_each(self, mixed_oracle, count):
        for family, n_max in self.cases(mixed_oracle):
            for n in (2, n_max):
                ours, theirs = random.Random(n), random.Random(n)
                assert list(_Table(family, n).draws(ours, count)) == [
                    grow(family, n, theirs).enc for _ in range(count)], (family, n)
                assert ours.getrandbits(64) == theirs.getrandbits(64), (family, n)

    def test_a_root_word_at_or_just_below_a_cut_takes_the_exact_rule_site(self, mixed_oracle):
        # a word equal to a cut belongs to the next site; random words almost never are one
        for family, n_max in self.cases(mixed_oracle):
            for n in range(2, n_max + 1):
                table = _Table(family, n)
                cuts = table.root[0]
                for u in sorted({*(c - 1 for c in cuts), *cuts[:-1]}):
                    words = [u] + [0] * (n - 2)
                    expected = reference_grow(family, n, ScriptedRandom(words), []).enc
                    assert list(table.draws(ScriptedRandom(words), 1)) == [expected], (
                        family, n, u)

    def build(self, table, node, visit):
        """Build every node below ``node``, calling visit on each internal one."""
        if isinstance(node, str):
            return
        visit(node)
        cuts, kids, path = node
        for i, move in enumerate(kids):
            kids[i] = table._node(path + (move,))
            self.build(table, kids[i], visit)

    def test_cuts_pick_the_site_draw_picks(self, mixed_oracle):
        def visit(node):
            cuts, moves, path = node
            flat = _Flat(family, n)
            for move in path:
                assert move in [site[:2] for site in flat.sites()[0]]
                flat.attach(*move)
            sites, D = flat.sites()
            assert moves == [(v, slot) for v, slot, _ in sites]
            assert len(cuts) == len(sites) and cuts[-1] == 1 << 64
            for u in {0, 2 ** 64 - 1, *(c - 1 for c in cuts), *(c for c in cuts[:-1])}:
                # the first site whose cumulative mass exceeds u/2^64
                first = next(i for i, (_, _, cum) in enumerate(sites)
                             if Fraction(u, 2 ** 64) < Fraction(cum, D))
                assert bisect_right(cuts, u) == first, (path, u)
            seen.append(path)

        for family, _ in self.cases(mixed_oracle):
            for n in range(1, 6):
                seen, table = [], _Table(family, n)
                self.build(table, table.root, visit)
                # every history to size n-1 is a node: one per labeled tree of that size
                assert len([p for p in seen if len(p) == n - 2]) == (
                    len(list(enumerate_labelings(family, n - 1))) if n > 1 else 0)

    def test_each_node_steps_once(self, monkeypatch):
        # a replay only attaches: the one step per node lists its own sites
        calls, real = [], _Flat.step
        monkeypatch.setattr(_Flat, "step", lambda flat: calls.append(1) or real(flat))
        for n in range(1, 6):
            calls.clear()
            nodes, table = [], _Table(BINARY, n)
            self.build(table, table.root, nodes.append)
            assert len(calls) == len(nodes) == sum(
                len(list(enumerate_labelings(BINARY, k))) for k in range(1, n))

    def test_the_largest_word_takes_the_last_site_at_every_step(self, mixed_oracle):
        assert list(_Table(BINARY, 3).draws(FixedRandom(2 ** 64 - 1), 2)) == [
            "(:1.,(:2.,(:3.,.)))"] * 2
        for family, n_max in self.cases(mixed_oracle):
            for n in range(1, n_max + 1):
                assert list(_Table(family, n).draws(FixedRandom(2 ** 64 - 1), 3)) == [
                    grow(family, n, FixedRandom(2 ** 64 - 1)).enc] * 3, (family, n)

    def test_a_single_vertex_draws_nothing(self):
        table, rng = _Table(BINARY, 1), FixedRandom(None)
        assert list(table.draws(rng, 3)) == ["(:1.,.)"] * 3
        assert rng.reads == 0

    def test_size_and_growability_are_checked(self):
        with pytest.raises(ValueError, match="at least 1"):
            _Table(BINARY, 0)
        with pytest.raises(FamilyConfigError, match="needs m >= 3"):
            _Table(OrderedFamily(2), 4)

    @pytest.mark.parametrize("scale, mass", [(Fraction(3, 4), "7/8"), (Fraction(5, 4), "9/8")])
    def test_site_masses_off_one_raise_when_the_node_is_built(self, monkeypatch, scale, mass):
        real = BinaryFamily.weight
        # off only for children of depth-1 vertices: the root's node builds, and
        # at (:1(:2.,.),.) the sites weigh 1/2 + 2 * scale/4; grow's step raises there too
        monkeypatch.setattr(BinaryFamily, "weight", lambda self, parent, c: real(self, parent, c)
                            * (scale if parent else 1))
        for draw in (lambda rng: list(_Table(BINARY, 4).draws(rng, 1)),
                     lambda rng: grow(BINARY, 4, rng)):
            with pytest.raises(ConsistencyError, match=rf"^site masses sum to {mass}, not 1, "
                               r"growing binary trees to n=4 at \(:1\(:2\.,\.\),\.\)$"):
                draw(FixedRandom(0))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["binary", "ordered", "tbar"]),
    st.integers(1, 7),
    st.integers(0, 2 ** 32 - 1),
)
def test_grow_probability_matches_closed_form(kind, n, seed):
    if kind == "binary":
        family = BinaryFamily()
    elif kind == "ordered":
        family = OrderedFamily(n + 1)
    else:
        family = TbarFamily(DepthBranching((2, 3)))
    masses = []
    lt = grow(family, n, random.Random(seed), on_step=lambda label, site, p: masses.append(p))
    check_labeling(lt)
    assert prod(masses, start=Fraction(1)) == shape_probability(lt.shape, family)
