from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooklab.exact import PoleError, RationalFunction, binomial_poly

M = RationalFunction.monomial(1)
ONE = RationalFunction.constant(1)


def poly(*coeffs):
    """Polynomial from ascending coefficients."""
    return RationalFunction(tuple(Fraction(c) for c in coeffs))


def rf(num, den_power):
    """``num / m**den_power``."""
    return num * RationalFunction.monomial(-den_power)


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
nonzero_rationals = rationals.filter(lambda x: x != 0)
polys = st.lists(rationals, max_size=5).map(lambda cs: RationalFunction(tuple(cs)))
laurents = st.builds(
    RationalFunction, st.lists(rationals, max_size=5), st.integers(min_value=-4, max_value=3)
)


def direct_value(f, x):
    """Term-by-term value of sum coeffs[i] * x**(low + i)."""
    return sum((c * x ** (f.low + i) for i, c in enumerate(f.coeffs)), Fraction(0))


class TestPolynomial:
    """Polynomials are the functions with no negative power of m."""

    def test_zero_and_degree(self):
        zero = RationalFunction(())
        assert zero.degree == -1
        assert zero == 0 and zero.coeffs == () and zero.low == 0
        assert poly(0, 0) == zero
        assert poly(3).degree == 0
        assert poly(0, 0, 1).degree == 2

    def test_str_rendering(self):
        p = poly(0, Fraction(-1, 2), Fraction(1, 2))
        assert str(p) == "(1/2)m^2 + (-1/2)m"
        assert str(poly(1)) == "1"
        assert str(poly(Fraction(1, 3))) == "1/3"
        assert str(poly(Fraction(-1, 3))) == "-1/3"
        assert str(poly(-2, 0, 1)) == "(1)m^2 + (-2)"
        assert str(RationalFunction(())) == "0"
        assert str(M) == "(1)m"

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(polys, rationals)
    def test_evaluate_is_a_homomorphism(self, a, x):
        b = M * M - poly(2)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


class TestBinomialPoly:
    def test_small_cases(self):
        assert binomial_poly(0) == ONE
        assert binomial_poly(1) == M
        # (m^2 - m)/2
        assert binomial_poly(2) == poly(0, Fraction(-1, 2), Fraction(1, 2))

    def test_degree(self):
        for k in range(7):
            assert binomial_poly(k).degree == k

    def test_matches_integer_binomials(self):
        for m0 in range(13):
            for k in range(m0 + 1):
                assert binomial_poly(k).evaluate(Fraction(m0)) == comb(m0, k)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            binomial_poly(-1)


class TestRationalFunction:
    def test_canonical_normalization(self):
        # the same function from different coefficient windows and products
        a = RationalFunction((0, 0, 3, 3, 0), -3)
        b = RationalFunction((3, 3), -1)
        assert a == b and hash(a) == hash(b)
        assert (a.coeffs, a.low) == ((3, 3), -1)
        c = (M + ONE) * RationalFunction.monomial(-1, 3)
        assert a == c
        assert rf(M * M, 2) == ONE
        assert RationalFunction((0, 0), -5) == RationalFunction()

    def test_monic_denominator(self):
        f = rf(M - poly(2), 1) * Fraction(1, 3)  # (m-2)/(3m)
        assert f.den == M
        assert f.num == poly(Fraction(-2, 3), Fraction(1, 3))
        assert rf(M * M + M, 1).den == ONE

    @given(laurents)
    def test_num_den_are_the_reduced_form(self, f):
        assert f.num.low >= 0 and f.den.low >= 0
        assert f.num * RationalFunction.monomial(-f.den.degree) == f
        if f.den.degree > 0:
            assert f.num.low == 0  # gcd(num, m^k) = 1

    def test_site_sum_reduces(self):
        # three sites of (m-2)/(3m) add to (m-2)/m
        site = rf(M - poly(2), 1) * Fraction(1, 3)
        assert site + site + site == rf(M - poly(2), 1)

    def test_sum_to_one(self):
        f = rf(M - ONE, 1) + rf(ONE, 1)
        assert f == RationalFunction.constant(1)
        assert f.is_constant()
        assert f.constant_value() == 1
        assert not rf(ONE, 1).is_constant()
        with pytest.raises(ValueError):
            rf(ONE, 1).constant_value()
        assert RationalFunction().constant_value() == 0

    def test_multiplicative_identity(self):
        f = rf(M - poly(2), 1) * Fraction(1, 3)
        assert f * RationalFunction.constant(1) == f

    def test_evaluate(self):
        assert rf(M - poly(2), 1).evaluate(Fraction(2)) == 0
        assert rf(M, 3).evaluate(Fraction(2)) == Fraction(1, 4)
        c = RationalFunction.constant(Fraction(1, 24))
        assert c.evaluate(Fraction(9)) == Fraction(1, 24)
        assert M.evaluate(0) == 0
        assert (M + ONE).evaluate(0) == 1

    def test_evaluate_at_pole(self):
        with pytest.raises(PoleError):
            rf(ONE, 1).evaluate(Fraction(0))
        with pytest.raises(PoleError):
            (M + rf(ONE, 3)).evaluate(0)
        # a pole is a division by zero
        with pytest.raises(ZeroDivisionError):
            rf(M - ONE, 2).evaluate(0)

    def test_str(self):
        assert str(RationalFunction.constant(Fraction(1, 2))) == "1/2"
        assert str(RationalFunction.constant(Fraction(-1, 2))) == "-1/2"
        f = rf(M - poly(2), 1)
        assert str(f) == "((1)m + (-2)) / ((1)m)"
        assert str(rf(ONE, 2)) == "(1) / ((1)m^2)"
        assert str(rf(M + ONE, 2) * Fraction(1, 2)) == "((1/2)m + 1/2) / ((1)m^2)"
        assert str(rf(M - ONE, 2) * Fraction(1, 2)) == "((1/2)m + (-1/2)) / ((1)m^2)"

    @given(laurents, laurents, laurents)
    def test_field_laws(self, f, g, h):
        zero = RationalFunction.constant(0)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f
        assert f - f == zero
        assert f * ONE == f
        assert -(-f) == f

    @given(laurents, laurents, nonzero_rationals)
    def test_evaluate_additivity(self, f, g, x):
        assert f.evaluate(x) == direct_value(f, x)
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
        assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
