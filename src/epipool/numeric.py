"""Exact scalar arithmetic and certified sign tests.

Every coordinate and every exact score in this package is a
`fractions.Fraction` (or an int), so comparisons against zero are decidable.
Floats enter only in scores built from transcendental functions (sigmoids,
Euclidean distances), as a :class:`ScoreValue` with an absolute error bound
or an exactly decided sign.  :func:`signum` reads every score's sign and will
not guess one; :func:`saturating_float` makes floats that saturate to inf.
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


def saturating_float(q: Fraction | int) -> float:
    """``float(q)``, or the infinity of q's sign where q is past binary64's range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


class ScoreValue(Record):
    """A float score with a certificate for its sign: ``ScoreValue(x, bound=b)``
    when the true score is within ``b`` of ``x``, or ``ScoreValue(x, sign=s)``
    when ``x`` is for display and ``s`` was decided exactly (squared distances)."""

    __slots__ = ("approx", "bound", "sign")

    def __init__(self, approx: float, bound: Fraction | None = None, sign: int | None = None):
        if (bound is None) == (sign is None):
            raise ValueError("a ScoreValue carries either an error bound or a sign")
        super().__init__(approx, bound, sign)

    def __float__(self) -> float:
        return self.approx


def signum(score: Fraction | int | ScoreValue) -> int:
    """Certified sign in {-1, 0, +1}; IndeterminateSign when a float's bound reaches 0."""
    if isinstance(score, ScoreValue):
        if score.sign is not None:
            return score.sign
        if abs(score.approx) <= score.bound:
            raise IndeterminateSign(f"score {score.approx} within error bound {score.bound} of zero")
        return 1 if score.approx > 0 else -1
    n = score.numerator
    return (n > 0) - (n < 0)
