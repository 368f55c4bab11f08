"""Exact scalar arithmetic and certified sign tests.

Every coordinate and almost every score in this package is a
`fractions.Fraction`, so comparisons against zero are decidable.  The one
place floats enter is scores built from transcendental functions (sigmoids,
Euclidean distances): those are wrapped in a :class:`ScoreValue` carrying
either an absolute error bound or an out-of-band exact sign, and sign
queries refuse to answer when the float alone cannot certify the answer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .record import Record


class RationalParseError(ValueError):
    """Malformed rational literal."""


class IndeterminateSign(ArithmeticError):
    """An approximate score is too close to zero to certify its sign."""


_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``-?digits(/digits)?`` into a canonical-form Fraction."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without '/1'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def exact_sum(xs: Iterable[Fraction | int]) -> Fraction:
    """``sum(xs, Fraction(0))`` with integer additions.

    The numerators of each denominator are added as ints, the per-denominator
    sums are brought over the least common denominator, and one Fraction is
    built at the end.  This is exact because a Fraction keeps its
    denominator positive, and an int is its own numerator over 1.
    """
    sums: dict[int, int] = {}
    get = sums.get
    for x in xs:
        d = x.denominator
        sums[d] = get(d, 0) + x.numerator
    num, den = 0, 1
    for d, n in sums.items():
        common = math.lcm(den, d)
        num, den = num * (common // den) + n * (common // d), common
    return Fraction(num, den)


def exact_extreme(xs: Iterable[Fraction], largest: bool = False) -> Fraction:
    """``min(xs)``, or ``max(xs)`` when largest, with int comparisons.

    Over one denominator the numerators order the values, so each
    denominator keeps one element by comparing numerators, and only those
    few elements are compared as Fractions.  The result is an element of
    xs, as with min and max.
    """
    kept: dict[int, Fraction] = {}
    get = kept.get
    for x in xs:
        d = x.denominator
        k = get(d)
        if k is None or (k.numerator < x.numerator if largest else x.numerator < k.numerator):
            kept[d] = x
    return (max if largest else min)(kept.values())


def is_square(q: Fraction) -> bool:
    """True when q is the square of a rational (q >= 0 required)."""
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def sqrt_exact(q: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational."""
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


class ScoreValue(Record):
    """A score that is exact, or a certified float.

    Exactly one representation is active:

    * ``exact`` set: the score is that rational, full stop.
    * ``approx``/``bound`` set: the true score lies within ``bound`` of
      ``approx``.  Sign queries succeed only when the interval excludes 0.
    * ``approx``/``sign`` set: the float is for display; the sign was
      decided by a separate exact computation (e.g. comparing squared
      distances) and is authoritative.
    """

    __slots__ = ("exact", "approx", "bound", "sign")

    def __init__(
        self,
        exact: Fraction | None = None,
        approx: float | None = None,
        bound: Fraction | None = None,
        sign: int | None = None,
    ) -> None:
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "approx", approx)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "sign", sign)

    @staticmethod
    def of(q: Fraction | int) -> "ScoreValue":
        return ScoreValue(exact=Fraction(q))

    @staticmethod
    def approximate(value: float, bound: Fraction) -> "ScoreValue":
        return ScoreValue(approx=value, bound=bound)

    @staticmethod
    def certified(value: float, sign: int) -> "ScoreValue":
        return ScoreValue(approx=value, sign=sign)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def as_float(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        assert self.approx is not None
        return self.approx

    def signum(self) -> int:
        """Certified sign in {-1, 0, +1}; raises IndeterminateSign otherwise."""
        if self.exact is not None:
            if self.exact > 0:
                return 1
            return -1 if self.exact < 0 else 0
        if self.sign is not None:
            return self.sign
        assert self.approx is not None and self.bound is not None
        if abs(self.approx) <= self.bound:
            raise IndeterminateSign(
                f"score {self.approx} within error bound {self.bound} of zero"
            )
        return 1 if self.approx > 0 else -1


def sign_gt0(s: ScoreValue) -> bool:
    """Certified test of s > 0."""
    return s.signum() > 0


def sign_ge0(s: ScoreValue) -> bool:
    """Certified test of s >= 0."""
    return s.signum() >= 0
