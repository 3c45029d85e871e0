"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line (run with -s to see them; a failure is an assert).

Exact criteria carry zero tolerance; the Monte Carlo criterion uses the
configured alpha and seed.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from conftest import MIXED_ORACLE_TABLE, history_products
from hooklab import (
    BinaryFamily,
    ConstantBranching,
    DepthBranching,
    GrowthState,
    LabeledTree,
    OrderedFamily,
    TbarFamily,
    addable_sites,
    brute_force_labelings,
    chi_squared_gof,
    completion,
    completion_census,
    completion_count,
    decode,
    enum_binary,
    enum_ordered,
    enum_tbar,
    enumerate_labelings,
    han2_lhs,
    han_lhs,
    hook_count,
    hook_lengths,
    lemma_check,
    parse_oracle,
    run_census,
    shape_probability,
    tbar_lhs,
    yang_lhs,
    yang_sum_at,
)


def report(line: str) -> None:
    print(line)


def test_criterion_01_binary_identity_to_12():
    started = time.perf_counter()
    for n in range(1, 13):
        assert factorial(n) * han_lhs(n) == 1, f"failed at n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    report(
        f"PASS criterion 1: n! * binary hook sum == 1 exactly for n=1..12 "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_02_ordered_identity_symbolic_to_8():
    started = time.perf_counter()
    for n in range(1, 9):
        f = yang_lhs(n)
        assert f.is_constant(), f"n={n}: not constant: {f}"
        assert f.constant_value() == Fraction(1, factorial(n)), f"n={n}"
        for m0 in (2, 3, 17):
            assert f.evaluate(Fraction(m0)) == Fraction(1, factorial(n))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    report(
        f"PASS criterion 2: ordered sum is the constant 1/n! for n=1..8, "
        f"spot-checked at m=2,3,17 ({elapsed:.2f}s < 30s)"
    )


def test_criterion_03_m2_bridge_to_10():
    for n in range(1, 11):
        assert yang_sum_at(n, Fraction(2)) == han_lhs(n), f"failed at n={n}"
    report("PASS criterion 3: ordered term-sum at m=2 equals the binary sum for n=1..10")


def test_criterion_04_oracle_identity_to_8(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(MIXED_ORACLE_TABLE))
    oracles = [
        parse_oracle("const:1"),
        parse_oracle("const:2"),
        parse_oracle("const:3"),
        parse_oracle("depth:2,3"),
        parse_oracle("depth:3,1,2"),
        parse_oracle(f"file:{path}"),
    ]
    for oracle in oracles:
        for n in range(1, 9):
            assert factorial(n) * tbar_lhs(oracle, n) == 1, f"{oracle} n={n}"
    # const:2 agrees term by term: with every child count 2, both sides
    # contribute prod 1/(h * 2^(h-1)) per tree, and the hook multisets match.
    def term(t):
        return prod(Fraction(1, h << (h - 1)) for h in hook_lengths(t).values())

    for n in range(1, 9):
        binary_terms = Counter(term(t) for t in enum_binary(n))
        tbar_terms = Counter(term(t) for t in enum_tbar(ConstantBranching(2), n))
        assert binary_terms == tbar_terms, f"n={n}"
    report(
        "PASS criterion 4: n! * oracle-tree sum == 1 for n=1..8 across six "
        "oracles; const:2 matches the binary sum term by term"
    )


def test_criterion_05_second_formula_to_10():
    for n in range(1, 11):
        assert factorial(2 * n + 1) * han2_lhs(n) == 1, f"failed at n={n}"
    for n in range(1, 9):
        assert completion_census(n)[-1].running_total == 1, f"census n={n}"
    report(
        "PASS criterion 5: (2n+1)! * second-formula sum == 1 for n=1..10; "
        "census total == 1 for n<=8"
    )


def test_criterion_06_labeling_counts_to_8():
    for n in range(1, 9):
        for t in enum_binary(n):
            assert hook_count(t) == brute_force_labelings(t), t.enc
        for t in enum_ordered(n):
            assert hook_count(t) == brute_force_labelings(t), t.enc
    for n in range(1, 5):
        for t in enum_binary(n):
            assert completion_count(t) == brute_force_labelings(completion(t)), t.enc
    report(
        "PASS criterion 6: hook formula matches brute force on both families "
        "to size 8, and on completions of binary trees to size 4"
    )


def test_criterion_07_one_step_sums_to_one():
    exact_families = [
        BinaryFamily(),
        TbarFamily(ConstantBranching(2)),
        TbarFamily(ConstantBranching(3)),
        TbarFamily(DepthBranching((2, 3))),
    ]
    checked = 0
    for family in exact_families:
        for n in range(1, 7):
            for lt in enumerate_labelings(family, n):
                assert lemma_check(GrowthState(lt, family)), (family, lt.enc)
                checked += 1
    symbolic = OrderedFamily()
    for n in range(1, 6):
        for lt in enumerate_labelings(symbolic, n):
            assert lemma_check(GrowthState(lt, symbolic)), lt.enc
            checked += 1
    report(
        f"PASS criterion 7: site probabilities sum to exactly 1 in all "
        f"{checked} reachable states (exact families to size 6, symbolic "
        f"ordered to size 5)"
    )


def test_criterion_08_equal_likelihood_and_total_mass():
    # the chain's own law: each history's product of site masses, walked
    # through start, addable_sites and attach
    families = [
        BinaryFamily(),
        OrderedFamily(),
        TbarFamily(ConstantBranching(2)),
        TbarFamily(DepthBranching((2, 3))),
    ]
    for family in families:
        for n, reached in history_products(family, 6).items():
            assert sorted(lt.enc for lt, _ in reached) == sorted(
                lt.enc for lt in enumerate_labelings(family, n)), (family, n)
            for lt, p in reached:
                assert p == shape_probability(lt.shape, family), lt.enc
            assert sum(p for _, p in reached) == 1
    report(
        "PASS criterion 8: one growth history reaches each labeled tree, its "
        "product of site masses matches the closed form (so every labeling of "
        "a shape is equally likely), and the masses sum to 1 (all families, n<=6)"
    )


def test_criterion_09_reference_states(tmp_path):
    left_path = LabeledTree(decode("(((.,.),.),.)"), (1, 2, 3))
    probs = sorted(
        (p for _, p in addable_sites(GrowthState(left_path, BinaryFamily()))),
        reverse=True,
    )
    assert probs == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]

    ordered_state = LabeledTree(decode("((())())"), (1, 2, 3, 4))
    sites = addable_sites(GrowthState(ordered_state, OrderedFamily()))
    expected = {
        "((1/3)m + (-2/3)) / ((1)m)": 3,
        "(1) / ((1)m)": 1,
        "((1/2)m + (-1/2)) / ((1)m^2)": 2,
        "(1) / ((1)m^2)": 1,
    }
    got = {}
    for _, p in sites:
        got[str(p)] = got.get(str(p), 0) + 1
    assert got == expected

    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(MIXED_ORACLE_TABLE))
    oracle = parse_oracle(f"file:{path}")
    tbar_state = LabeledTree(decode("([0]()[1]())", family="slotted"), (1, 2, 3))
    probs = sorted(
        p for _, p in addable_sites(GrowthState(tbar_state, TbarFamily(oracle)))
    )
    assert probs == [Fraction(1, 6)] * 3 + [Fraction(1, 2)]
    report(
        "PASS criterion 9: the three reference growth states give site "
        "probabilities {1/2,1/4,1/8,1/8}, {(m-2)/(3m) x3, 1/m, (m-1)/(2m^2) x2, "
        "1/m^2}, {1/6 x3, 1/2}"
    )


def test_criterion_10_monte_carlo():
    runs = [
        (BinaryFamily(), 5, 120),
        (OrderedFamily(10), 4, 15),
        (TbarFamily(DepthBranching((2, 3))), 4, 48),
    ]
    for family, n, expected_categories in runs:
        started = time.perf_counter()
        census = run_census(family, n, 200_000, seed=1)
        gof = chi_squared_gof(census, alpha=0.001)
        elapsed = time.perf_counter() - started
        assert gof.categories == expected_categories
        assert gof.p_value >= 0.001, (
            f"{family.label} n={n}: p={gof.p_value}, stat={gof.statistic}"
        )
        assert elapsed < 60.0, f"{family.label} n={n} took {elapsed:.1f}s"
        report(
            f"PASS criterion 10 ({family.label} n={n}): chi-squared p-value "
            f"{gof.p_value:.4f} >= 0.001 over {gof.categories} categories at "
            f"N=200000, seed 1 ({elapsed:.1f}s < 60s)"
        )


def test_criterion_11_byte_determinism():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hooklab", *args], capture_output=True
        ).stdout

    sample_args = ("sample", "--family", "binary", "--n", "6", "--count", "10", "--seed", "3")
    assert run(*sample_args) == run(*sample_args)
    mc_args = (
        "mc", "--family", "binary", "--n", "3", "--samples", "20000",
        "--seed", "3", "--json",
    )
    assert run(*mc_args) == run(*mc_args)
    report(
        "PASS criterion 11: sample and mc produce byte-identical output on "
        "repeated runs with the same seed"
    )
