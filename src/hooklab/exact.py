"""Exact scalar and symbolic arithmetic.

Scalars are ``fractions.Fraction``: arbitrary precision, always in reduced
form with a positive denominator, and ``str()`` renders ``"p/q"`` with the
``"/q"`` part omitted when the denominator is 1.  That rendering is used
verbatim in all CLI output.

Symbolic values in the weight variable ``m`` are Laurent polynomials over
the rationals: finite sums of ``c * m**k`` with ``k`` of either sign.  That
is all the mathematics needs, because every value built here (site,
labeling and shape probabilities, yang terms, and sums of these) has a
denominator of the form ``c * m**k``.  A value is stored as integer
coefficients over one positive integer scale, reduced by one gcd, so
arithmetic works on ints and forms no Fraction per coefficient.  The stored
form is unique, so "this sum is the constant 1/n!" is decided by ``==``.
A ``TermSum`` carries such a sum of summands with their number through the
term folds of families.py.

All values are immutable after construction; arithmetic goes through the
usual operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


class RationalFunction:
    """Laurent polynomial ``sum(ints[i] * m**(low + i)) / scale`` in ``m``.

    ``ints`` are integers with no zero at either end, ``scale`` is a
    positive integer with ``gcd(scale, *ints) == 1``, and the zero function
    stores ``()`` over 1 with ``low = 0``.  Any input lands on that one
    representation, so ``==`` and ``hash`` decide equality of functions.
    """

    __slots__ = ("ints", "scale", "low")

    def __init__(self, coeffs: Iterable[Scalar] = (), low: int = 0):
        cs = list(coeffs)  # sum(cs[i] * m**(low + i)), each an int or a Fraction
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError(f"RationalFunction coefficients are int or Fraction, got {cs}")
        scale = lcm(*[c.denominator for c in cs])
        f = self.from_ints([c.numerator * (scale // c.denominator) for c in cs], scale, low)
        self.ints, self.scale, self.low = f.ints, f.scale, f.low

    @classmethod
    def from_ints(cls, ints: Sequence[int], scale: int = 1, low: int = 0) -> "RationalFunction":
        """``sum(ints[i] * m**(low + i)) / scale`` in the stored form: zeros
        stripped from both ends, then gcd(scale, *ints) divided out."""
        if scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale}")
        start, end = 0, len(ints)
        while end and not ints[end - 1]:
            end -= 1
        while start < end and not ints[start]:
            start += 1
        ints = ints[start:end]
        g = gcd(scale, *ints)
        f = object.__new__(cls)
        f.ints = tuple([c // g for c in ints]) if g != 1 else tuple(ints)
        f.scale, f.low = (scale // g, low + start) if ints else (1, 0)
        return f

    @classmethod
    def constant(cls, value: Scalar) -> "RationalFunction":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: Scalar = 1) -> "RationalFunction":
        """The function ``coefficient * m**power``; ``power`` may be negative."""
        return cls((coefficient,), power)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of ``m**low, m**(low + 1), ...``, as reduced Fractions."""
        return tuple([Fraction(c, self.scale) for c in self.ints])

    @property
    def degree(self) -> int:
        """Highest power of ``m``, with the zero function assigned -1."""
        return self.low + len(self.ints) - 1

    @property
    def num(self) -> "RationalFunction":
        """Numerator of the reduced form ``num / m**k``: a polynomial."""
        return RationalFunction.from_ints(self.ints, self.scale, max(self.low, 0))

    @property
    def den(self) -> "RationalFunction":
        """Denominator of the reduced form: the monic monomial ``m**k``."""
        return RationalFunction.monomial(max(-self.low, 0))

    def is_constant(self) -> bool:
        return self.low == 0 and len(self.ints) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant function (raises otherwise)."""
        if not self.is_constant():
            raise ValueError(f"not a constant rational function: {self}")
        return Fraction(self.ints[0] if self.ints else 0, self.scale)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return (self.ints, self.scale, self.low) == (other.ints, other.scale, other.low)
        if isinstance(other, (int, Fraction)):
            return self == RationalFunction.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.low or len(self.ints) > 1:
            return hash(("RationalFunction", self.ints, self.scale, self.low))
        return hash(self.constant_value())  # a constant equals its value

    def __neg__(self) -> "RationalFunction":
        return RationalFunction.from_ints([-c for c in self.ints], self.scale, self.low)

    def __add__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        other = _as_ratfunc(other)
        # a/s + b/t = (a*(t/g) + b*(s/g)) / (s*t/g), g = gcd(s, t)
        g = gcd(self.scale, other.scale)
        low = min(self.low, other.low)
        out = [0] * (max(self.degree, other.degree) - low + 1)
        for f, factor in ((self, other.scale // g), (other, self.scale // g)):
            for i, c in enumerate(f.ints, f.low - low):
                out[i] += c * factor
        return RationalFunction.from_ints(out, self.scale // g * other.scale, low)

    __radd__ = __add__

    def __sub__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other: Scalar) -> "RationalFunction":
        return _as_ratfunc(other) - self

    def __mul__(self, other: "RationalFunction | Scalar") -> "RationalFunction":
        other = _as_ratfunc(other)
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, x in enumerate(self.ints):
            for j, y in enumerate(other.ints, i):
                out[j] += x * y
        return RationalFunction.from_ints(out, self.scale * other.scale, self.low + other.low)

    __rmul__ = __mul__

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact value at ``point``: Horner's rule on the integer
        coefficients, then Fractions; m = 0 is a pole when a negative power
        is present."""
        point = Fraction(point)
        p, q = point.numerator, point.denominator
        if p == 0 and self.low < 0:
            raise PoleError(f"evaluation at pole m = {point}")
        acc = 0  # ends at sum ints[i] p^i q^(k-i), k = len(ints) - 1
        for i, c in enumerate(reversed(self.ints)):
            acc = acc * p + c * q ** i
        return Fraction(acc, self.scale * q ** max(len(self.ints) - 1, 0)) * point ** self.low

    def __str__(self) -> str:
        if self.low < 0:
            return f"({self.num}) / ({self.den})"
        if not self.ints:
            return "0"
        parts = []
        for power, c in zip(range(self.degree, self.low - 1, -1), reversed(self.coeffs)):
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


@dataclass(slots=True)
class TermSum:
    """Exact summands by their sum and their number: the value the term
    folds add, multiply and scale by integers in place of the summands."""

    total: Fraction | RationalFunction
    count: int = 1

    def __add__(self, other: TermSum) -> TermSum:
        return TermSum(self.total + other.total, self.count + other.count)

    def __mul__(self, other: TermSum | int) -> TermSum:
        if isinstance(other, int):
            return TermSum(other * self.total, other * self.count)
        return TermSum(self.total * other.total, self.count * other.count)

    __rmul__ = __mul__


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
    ints = [1]
    for i in range(k):  # times (m - i)
        ints = [a - i * b for a, b in zip([0] + ints, ints + [0])]
    return RationalFunction.from_ints(ints, factorial(k))
