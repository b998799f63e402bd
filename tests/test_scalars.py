"""Exact scalars: rationals are ``fractions.Fraction`` and print through
``rings.format_rational`` in one canonical form that ``Fraction`` parses
back."""

from fractions import Fraction
from math import lcm

from hypothesis import given, strategies as st

from malgrange.rings import format_rational

ints = st.integers(min_value=-10**12, max_value=10**12)
rats = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)


def test_big_product_roundtrips_through_decimal():
    big = 2**70
    assert Fraction(format_rational(Fraction(big * big))) == 2**140


def test_harmonic_sum_matches_accumulation_oracle():
    total = Fraction(0)
    for k in range(1, 21):
        total = total + Fraction(1, k)
    # second path: accumulate over a common denominator
    den = lcm(*range(1, 21))
    num = sum(den // k for k in range(1, 21))
    assert total == Fraction(num, den)


def test_rational_normalizes():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3, -6)) == "-1/2"


@given(ints)
def test_integer_format_parse_roundtrip(a):
    text = format_rational(Fraction(a))
    assert text == str(a)
    assert Fraction(text) == a


@given(rats)
def test_rational_format_parse_roundtrip(a):
    assert Fraction(format_rational(a)) == a


@given(rats, rats)
def test_rational_field_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if b != 0:
        assert (a / b) * b == a


def test_rational_format_shape():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
