"""Exact scalar and symbolic arithmetic.

Scalars are ``fractions.Fraction``: arbitrary precision, always in reduced
form with a positive denominator, and ``str()`` renders ``"p/q"`` with the
``"/q"`` part omitted when the denominator is 1.  That rendering is used
verbatim in all CLI output.

Symbolic values in the weight variable ``m`` are Laurent polynomials over
the rationals: finite sums of ``c * m**k`` with ``k`` of either sign.  That
is all the mathematics needs, because every value built here (site,
labeling and shape probabilities, yang terms, and sums of these) has a
denominator of the form ``c * m**k``.  The stored form is unique, so
"this sum is the constant 1/n!" is decided by ``==`` with no gcd.

All values are immutable after construction; arithmetic goes through the
usual operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


class RationalFunction:
    """Laurent polynomial ``sum(coeffs[i] * m**(low + i))`` in ``m``.

    ``coeffs`` has no zeros at either end, and the zero function stores
    ``()`` with ``low = 0``.  Any input lands on that one representation,
    so ``==`` and ``hash`` decide equality of functions.
    """

    __slots__ = ("coeffs", "low")

    coeffs: tuple[Fraction, ...]
    low: int

    def __init__(self, coeffs: Iterable[Scalar] = (), low: int = 0):
        cs = [Fraction(c) for c in coeffs]
        start, end = 0, len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        while start < end and cs[start] == 0:
            start += 1
        self.coeffs = tuple(cs[start:end])
        self.low = low + start if self.coeffs else 0

    @classmethod
    def constant(cls, value: Scalar) -> "RationalFunction":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: Scalar = 1) -> "RationalFunction":
        """The function ``coefficient * m**power``; ``power`` may be negative."""
        return cls((coefficient,), power)

    @property
    def degree(self) -> int:
        """Highest power of ``m``, with the zero function assigned -1."""
        return self.low + len(self.coeffs) - 1

    @property
    def num(self) -> "RationalFunction":
        """Numerator of the reduced form ``num / m**k``: a polynomial."""
        return RationalFunction(self.coeffs, max(self.low, 0))

    @property
    def den(self) -> "RationalFunction":
        """Denominator of the reduced form: the monic monomial ``m**k``."""
        return RationalFunction.monomial(max(-self.low, 0))

    def is_constant(self) -> bool:
        return self.low == 0 and len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant function (raises otherwise)."""
        if not self.is_constant():
            raise ValueError(f"not a constant rational function: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.low == other.low and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalFunction.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalFunction", self.coeffs, self.low))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction((-c for c in self.coeffs), self.low)

    def __add__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        other = _as_ratfunc(other)
        low = min(self.low, other.low)
        out = [Fraction(0)] * (max(self.degree, other.degree) - low + 1)
        for f in (self, other):
            for i, c in enumerate(f.coeffs, f.low - low):
                out[i] += c
        return RationalFunction(out, low)

    __radd__ = __add__

    def __sub__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: Scalar) -> "RationalFunction":
        return _as_ratfunc(other) - self

    def __mul__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        other = _as_ratfunc(other)
        if not self.coeffs or not other.coeffs:
            return RationalFunction()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalFunction(out, self.low + other.low)

    __rmul__ = __mul__

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact value at ``point`` by Horner's rule; m = 0 is a pole when
        a negative power is present."""
        point = Fraction(point)
        if point == 0 and self.low < 0:
            raise PoleError(f"evaluation at pole m = {point}")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc * point ** self.low

    def __str__(self) -> str:
        if self.low < 0:
            return f"({self.num}) / ({self.den})"
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(self.degree, self.low - 1, -1):
            c = self.coeffs[power - self.low]
            if c == 0:
                continue
            if power == 0:
                parts.append(str(c) if c > 0 or self.degree == 0 else f"({c})")
            elif power == 1:
                parts.append(f"({c})m")
            else:
                parts.append(f"({c})m^{power}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"RationalFunction({[str(c) for c in self.coeffs]}, low={self.low})"


def _as_ratfunc(value: "RationalFunction | Scalar") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction.constant(value)


@lru_cache(maxsize=None)
def binomial_poly(k: int) -> RationalFunction:
    """The binomial coefficient ``C(m, k)`` as a polynomial in ``m``.

    Equals ``m (m-1) ... (m-k+1) / k!``; degree exactly ``k``.  At an integer
    ``m0 >= k`` it evaluates to the ordinary binomial coefficient.  Values
    are immutable, so each ``k`` is built once.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    result = RationalFunction.constant(1)
    for i in range(k):
        result = result * RationalFunction((-i, 1)) * Fraction(1, i + 1)
    return result
