from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epipool.numeric import (
    IndeterminateSign,
    RationalParseError,
    ScoreValue,
    format_rational,
    is_square,
    parse_rational,
    saturating_float,
    signum,
    sqrt_exact,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


def test_parse_literal():
    assert parse_rational("3/4") == Fraction(3, 4)


def test_parse_reduces_to_canonical_form():
    q = parse_rational("-2/4")
    assert (q.numerator, q.denominator) == (-1, 2)


def test_parse_normalises_zero():
    q = parse_rational("0/7")
    assert (q.numerator, q.denominator) == (0, 1)


@pytest.mark.parametrize("bad", ["", "1/0", "3.5", "a", "1/", "--2", "1 / 2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_sign_tests_exact():
    assert signum(Fraction(-1, 2)) == -1 and signum(-3) == -1
    assert signum(Fraction(0)) == 0 and signum(0) == 0
    assert signum(Fraction(1, 10**400)) == 1 and signum(2) == 1


def test_sign_tests_approx_certified_away_from_zero():
    s = ScoreValue(0.4999, bound=Fraction(1, 10**6))
    assert signum(s) == 1 and float(s) == 0.4999
    assert signum(ScoreValue(-0.4999, bound=Fraction(1, 10**6))) == -1


def test_sign_tests_approx_indeterminate_near_zero():
    s = ScoreValue(1e-9, bound=Fraction(1, 10**6))
    with pytest.raises(IndeterminateSign):
        signum(s)


def test_certified_sign_overrides_float():
    s = ScoreValue(0.0, sign=1)
    assert signum(s) == 1 and float(s) == 0.0


@pytest.mark.parametrize("fields", [{}, {"bound": Fraction(1, 8), "sign": 1}], ids=["none", "both"])
def test_score_value_carries_exactly_one_certificate(fields):
    with pytest.raises(ValueError, match="either an error bound or a sign"):
        ScoreValue(0.5, **fields)


@pytest.mark.parametrize(
    "q, expected",
    [
        (Fraction(3, 4), 0.75),
        (-7, -7.0),
        (10**400, float("inf")),
        (Fraction(-3 * 10**338), float("-inf")),
        (Fraction(1, 10**400), 0.0),
        (Fraction(10**400 + 1, 10**400), 1.0),
    ],
)
def test_saturating_float_is_float_within_range_and_an_infinity_past_it(q, expected):
    assert saturating_float(q) == expected


@given(rationals, rationals)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a


@given(rationals, rationals)
def test_total_order_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


@given(rationals)
def test_ge0_is_gt0_or_zero(x):
    s = signum(x)
    assert (s >= 0) == (s > 0 or x == 0) and s == (x > 0) - (x < 0)


@given(rationals)
def test_square_root_detection(q):
    sq = q * q
    assert is_square(sq)
    assert sqrt_exact(sq) == abs(q)
