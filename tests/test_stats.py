import math
from collections import Counter
from fractions import Fraction

import pytest

import hooklab.cli
import hooklab.identities
import hooklab.stats
from hooklab import (
    BinaryFamily,
    Census,
    CensusEntry,
    DepthBranching,
    FamilyConfigError,
    OrderedFamily,
    SizeLimitError,
    TbarFamily,
    category_masses,
    chi2_sf,
    chi_squared_gof,
    grow,
    min_samples,
    regularized_gamma_q,
    run_census,
)
from hooklab.stats import BLOCK_SIZE, LowExpectedCountWarning, _block_rng, chi_squared_statistic

BINARY = BinaryFamily()


class TestCategoryMasses:
    def test_binary_small(self):
        masses = category_masses(BINARY, 2)
        assert masses == {
            "(:1(:2.,.),.)": Fraction(1, 2),
            "(:1.,(:2.,.))": Fraction(1, 2),
        }

    def test_binary_n5_has_120_categories(self):
        masses = category_masses(BINARY, 5)
        assert len(masses) == 120
        assert sum(masses.values()) == 1

    def test_symbolic_m_is_rejected(self):
        with pytest.raises(FamilyConfigError):
            category_masses(OrderedFamily(), 3)

    def test_ungrowable_m_is_rejected(self):
        # m=2 gives zero-mass labelings at n=4; growth itself refuses m < n-1
        with pytest.raises(FamilyConfigError, match="needs m >= 3"):
            category_masses(OrderedFamily(2), 4)

    def test_category_limit(self, monkeypatch):
        # binary n=4 has 24 labeled trees
        monkeypatch.setattr(hooklab.identities, "TERM_LIMIT", 10)
        with pytest.raises(SizeLimitError, match=r"^more than 10 labeled binary trees at n=4$"):
            category_masses(BINARY, 4)
        monkeypatch.setattr(hooklab.identities, "TERM_LIMIT", 24)
        assert len(category_masses(BINARY, 4)) == 24

    def test_each_shape_is_weighed_once(self, monkeypatch):
        # tbar depth:2,3 n=4: 30 shapes, 48 labeled trees
        family = TbarFamily(DepthBranching((2, 3)))
        calls = []
        real = hooklab.stats.shape_probability
        monkeypatch.setattr(hooklab.stats, "shape_probability",
                            lambda shape, family: calls.append(shape) or real(shape, family))
        masses = category_masses(family, 4)
        assert len(masses) == 48
        assert calls == list(family.shapes(4))


class TestMinSamples:
    def test_binary_n5(self):
        # rarest shape is the path: probability 2^-10
        assert min_samples(category_masses(BINARY, 5)) == 5 * 1024

    def test_ordered_n4_m10(self):
        # rarest labeled tree has probability 1/1000
        assert min_samples(category_masses(OrderedFamily(10), 4)) == 5000


class TestRunCensus:
    def test_single_category(self):
        census = run_census(BINARY, 1, 50, seed=0)
        assert len(census.entries) == 1
        assert census.entries[0].observed == 50
        assert census.entries[0].expected == 50

    def test_two_fair_categories(self):
        census = run_census(BINARY, 2, 10_000, seed=3)
        assert len(census.entries) == 2
        assert all(e.expected == 5000 for e in census.entries)
        assert sum(e.observed for e in census.entries) == 10_000

    def test_expected_sums_to_n_exactly(self):
        census = run_census(BINARY, 4, 777, seed=9)
        assert sum(e.expected for e in census.entries) == 777

    def test_bit_reproducible(self):
        a = run_census(BINARY, 4, 5_000, seed=11)
        b = run_census(BINARY, 4, 5_000, seed=11)
        assert a == b

    def test_categories_are_sorted(self):
        census = run_census(BINARY, 4, 1_000, seed=2)
        cats = [e.category for e in census.entries]
        assert cats == sorted(cats)


def reference_tally(family, n, samples, seed):
    """The census draws as they stood before the table: one grow per draw,
    on the same per-block generators."""
    tally = Counter()
    for block in range(-(-samples // BLOCK_SIZE)):
        rng = _block_rng(seed, block)
        for _ in range(min(BLOCK_SIZE, samples - block * BLOCK_SIZE)):
            tally[grow(family, n, rng).enc] += 1
    return tally


class TestCensusTable:
    @pytest.mark.parametrize("family, n, samples", [
        (BINARY, 5, 5_000),
        (OrderedFamily(10), 4, 5_000),
        (TbarFamily(DepthBranching((2, 3))), 4, 5_000),
        (BINARY, 3, BLOCK_SIZE + 1_000),
    ])
    def test_tallies_equal_one_grow_per_draw(self, family, n, samples):
        census = run_census(family, n, samples, seed=5)
        observed = Counter({e.category: e.observed for e in census.entries if e.observed})
        assert observed == reference_tally(family, n, samples, 5)

    def test_ungrowable_m_is_rejected_with_masses_given(self):
        masses = category_masses(OrderedFamily(10), 4)
        with pytest.raises(FamilyConfigError, match="needs m >= 3"):
            run_census(OrderedFamily(2), 4, 100, seed=1, masses=masses)


class TestChiSquared:
    def test_perfect_fit(self):
        census = Census(
            "binary",
            2,
            100,
            0,
            (
                CensusEntry("a", 50, Fraction(50)),
                CensusEntry("b", 50, Fraction(50)),
            ),
        )
        report = chi_squared_gof(census)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert report.passed

    def test_hand_computed_statistic(self):
        census = Census(
            "binary",
            2,
            100,
            0,
            (
                CensusEntry("a", 60, Fraction(50)),
                CensusEntry("b", 40, Fraction(50)),
            ),
        )
        assert chi_squared_statistic(census) == pytest.approx(4.0)
        report = chi_squared_gof(census)
        assert report.dof == 1

    def test_zero_expected_rejected(self):
        census = Census(
            "binary",
            2,
            10,
            0,
            (
                CensusEntry("a", 10, Fraction(10)),
                CensusEntry("b", 0, Fraction(0)),
            ),
        )
        with pytest.raises(ValueError):
            chi_squared_statistic(census)

    def test_low_expected_warns(self):
        census = Census(
            "binary",
            2,
            6,
            0,
            (
                CensusEntry("a", 3, Fraction(3)),
                CensusEntry("b", 3, Fraction(3)),
            ),
        )
        with pytest.warns(LowExpectedCountWarning):
            chi_squared_gof(census)

    def test_report_json_keys(self):
        census = run_census(BINARY, 2, 1_000, seed=1)
        report = chi_squared_gof(census)
        doc = report.to_json_dict()
        assert list(doc) == ["family", "n", "N", "seed", "categories", "statistic", "dof",
                             "p_value", "alpha", "min_expected", "pass"]
        assert (doc["N"], doc["pass"]) == (1_000, report.passed)


class TestIncompleteGamma:
    def test_erfc_relation(self):
        for x in (0.1, 1.0, 4.0, 10.0):
            q = regularized_gamma_q(0.5, x / 2)
            assert abs(q - math.erfc(math.sqrt(x / 2))) < 1e-8

    def test_classic_quantile(self):
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_boundaries(self):
        assert regularized_gamma_q(2.0, 0.0) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        assert 0.0 <= chi2_sf(1000.0, 3) < 1e-100

    def test_monotone_in_x(self):
        values = [regularized_gamma_q(2.5, x) for x in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert values == sorted(values, reverse=True)

    def test_exponential_special_case(self):
        # Q(1, x) = exp(-x)
        for x in (0.2, 1.0, 3.0, 8.0):
            assert regularized_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -1.0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestSamplerDistribution:
    def test_tbar_census_masses(self):
        fam = TbarFamily(DepthBranching((2, 3)))
        masses = category_masses(fam, 3)
        assert sum(masses.values()) == 1
        census = run_census(fam, 3, 2_000, seed=8)
        assert {e.category for e in census.entries} == set(masses)


class TestMassesComputedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count category_masses calls made through any module that holds it."""
        seen = []
        real = hooklab.stats.category_masses

        def counted(family, n, *args, **kwargs):
            seen.append((family.label, n))
            return real(family, n, *args, **kwargs)

        for module in (hooklab.stats, hooklab.cli):
            monkeypatch.setattr(module, "category_masses", counted)
        return seen

    def test_cli_mc(self, calls, capsys):
        argv = ["mc", "--family", "binary", "--n", "3", "--samples", "500", "--seed", "2"]
        assert hooklab.cli.main(argv) == 0
        assert calls == [("binary", 3)]
        assert "min_samples=40" in capsys.readouterr().out
