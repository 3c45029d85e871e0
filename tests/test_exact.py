from fractions import Fraction
from math import comb, gcd, lcm

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


def normal(f):
    """``f``, once it is checked to be in the stored form: integer
    coefficients with no zero at either end over a positive integer scale,
    with no common factor left, and one form for zero."""
    assert type(f.scale) is int and f.scale >= 1
    assert all(type(c) is int for c in f.ints)
    assert gcd(f.scale, *f.ints) == 1
    if f.ints:
        assert f.ints[0] != 0 and f.ints[-1] != 0
    else:
        assert (f.scale, f.low) == (1, 0)
    return f


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
        assert normal(a + b) == normal(b + a)
        assert normal(a * b) == normal(b * a)
        assert normal(normal(a + b) + c) == normal(a + normal(b + c))
        assert normal(a * normal(b + c)) == normal(normal(a * b) + normal(a * c))

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

    def test_a_constant_hashes_as_the_number_it_equals(self):
        # equal values must hash alike, so a set or dict key holds one of them
        for value in (0, 3, Fraction(1, 2), Fraction(-7, 3)):
            f = RationalFunction.constant(value)
            assert f == value and hash(f) == hash(value)
            assert len({f, value}) == 1 and {value: "number"}[f] == "number"
            assert {f: "function"}[value] == "function"
        assert RationalFunction() == 0 and len({RationalFunction(), 0, Fraction(0)}) == 1
        # a function that is not constant keeps its own hash and equals no number
        assert len({M, ONE, 1}) == 2 and M != 1

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
        zero = normal(RationalFunction.constant(0))
        assert normal(f) is f
        assert normal(f + g) == normal(g + f)
        assert normal(f * g) == normal(g * f)
        assert normal(normal(f + g) + h) == normal(f + normal(g + h))
        assert normal(normal(f * g) * h) == normal(f * normal(g * h))
        assert normal(f * normal(g + h)) == normal(normal(f * g) + normal(f * h))
        assert normal(f + zero) == f
        assert normal(f - f) == zero
        assert normal(f * zero) == zero
        assert normal(f * ONE) == f
        assert normal(-normal(-f)) == f
        normal(f.num)
        normal(f.den)

    def test_zero_has_one_form(self):
        f = RationalFunction((Fraction(1, 3), 2), -2)
        for zero in (RationalFunction(), RationalFunction((0, Fraction(0)), -5), f - f, f * 0,
                     RationalFunction.from_ints([0, 0], 7, 3), RationalFunction.monomial(4, 0)):
            assert (zero.ints, zero.scale, zero.low) == ((), 1, 0)

    @given(st.lists(rationals, max_size=5), st.integers(min_value=-4, max_value=3),
           st.integers(min_value=1, max_value=6))
    def test_fractions_and_ints_give_one_form(self, cs, low, k):
        # the same value from Fraction coefficients and from integers over
        # a common (not reduced) scale
        scale = k * lcm(*[c.denominator for c in cs])
        f = normal(RationalFunction(cs, low))
        g = normal(RationalFunction.from_ints([(c * scale).numerator for c in cs], scale, low))
        assert f == g and hash(f) == hash(g)
        # coeffs gives the input back, stripped, as reduced Fractions
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        assert f.coeffs == tuple(cs) and (f.low == low or not cs)
        assert all(type(c) is Fraction and gcd(c.numerator, c.denominator) == 1
                   for c in f.coeffs)

    def test_inexact_coefficients_are_refused(self):
        # 0.1 is not 1/10: a float would be stored as the binary fraction
        # it rounds to
        builds = [lambda: RationalFunction((0.1,)), lambda: RationalFunction((1, 0.5), -1),
                  lambda: RationalFunction.constant(0.5), lambda: RationalFunction.monomial(2, 0.5),
                  lambda: M * 0.5, lambda: 0.5 * M, lambda: M + 0.5, lambda: M - 0.5,
                  lambda: RationalFunction.from_ints((0.5,)),
                  lambda: RationalFunction.from_ints((1, Fraction(1, 2)))]
        for build in builds:
            with pytest.raises(TypeError):
                build()
        for scale in (0, -2):
            with pytest.raises(ValueError):
                RationalFunction.from_ints((1,), scale)

    @given(laurents, laurents, nonzero_rationals)
    def test_evaluate_additivity(self, f, g, x):
        assert f.evaluate(x) == direct_value(f, x)
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
        assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
