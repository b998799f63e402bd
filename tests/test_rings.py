import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from malgrange.rings import (GREVLEX, LEX, Poly, format_poly, mono_degree,
                             mono_divides, mono_div, mono_lcm, mono_mul,
                             ring)
from malgrange.parsing import ParseError, parse_poly

RX = ring("x")
RXY = ring("x", "y")
RXYZ = ring("x", "y", "z")


def rand_poly(r, rng, deg=3, terms=4):
    p = Poly.zero(r)
    for _ in range(rng.randint(0, terms)):
        exps = [0] * r.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(r.nvars)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + Poly.term(r, c, tuple(exps))
    return p


def test_monomial_ops():
    a, b = (2, 1), (0, 3)
    assert mono_mul(a, b) == (2, 4)
    assert mono_lcm(a, b) == (2, 3)
    assert not mono_divides(a, b)
    assert mono_divides((0, 1), b)
    assert mono_div(b, (0, 1)) == (0, 2)
    assert mono_degree(a) == 3


def test_product_expansion():
    x = Poly.variable(RX, 0)
    one = Poly.one(RX)
    assert (x + one) * (x - one) == x * x - one


def test_binomial_cube():
    x = Poly.variable(RXY, 0)
    y = Poly.variable(RXY, 1)
    cube = (x + y) ** 3
    coeffs = {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert cube == Poly(RXY, [(e, Fraction(c)) for e, c in coeffs.items()])


def test_power_matches_repeated_product():
    x = Poly.variable(RXY, 0)
    f = x - Poly.variable(RXY, 1).scale(Fraction(2, 3)) + Poly.one(RXY)
    acc = Poly.one(RXY)
    for n in range(12):
        assert f ** n == acc
        assert str(f ** n) == str(acc)
        acc = acc * f


def test_leading_term_orders():
    # x + y^2: lex picks x, grevlex picks y^2
    f = Poly.variable(RXY, 0) + Poly.variable(RXY, 1, 2)
    assert f.leading_term(LEX)[1] == (1, 0)
    assert f.leading_term(GREVLEX)[1] == (0, 2)


def test_leading_term_constant():
    f = Poly.constant(RXY, 5)
    assert f.leading_term(GREVLEX) == (Fraction(5), (0, 0))


def test_leading_term_zero_rejected():
    with pytest.raises(ValueError, match="no leading term"):
        Poly.zero(RX).leading_term(GREVLEX)


def test_ring_axioms_seeded():
    rng = random.Random(42)
    for _ in range(100):
        r = (RX, RXY, RXYZ)[rng.randrange(3)]
        f, g, h = (rand_poly(r, rng) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Poly.zero(r) == f
        assert f * Poly.one(r) == f


def test_leading_term_multiplicative():
    rng = random.Random(7)
    for _ in range(60):
        f, g = rand_poly(RXY, rng), rand_poly(RXY, rng)
        if f.is_zero() or g.is_zero():
            continue
        for order in (LEX, GREVLEX):
            cf, mf = f.leading_term(order)
            cg, mg = g.leading_term(order)
            cp, mp = (f * g).leading_term(order)
            assert cp == cf * cg and mp == mono_mul(mf, mg)


def test_parse_examples():
    x = Poly.variable(RX, 0)
    one = Poly.one(RX)
    assert parse_poly("x^2 - 2*x + 1", RX) == (x - one) * (x - one)
    assert parse_poly("0", RX) == Poly.zero(RX)
    assert parse_poly("1/2*x*y^3", RXY) == Poly.term(
        RXY, Fraction(1, 2), (1, 3))


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x + t", RX)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x", RX)


def test_parse_error_carries_position():
    try:
        parse_poly("x + + 1", RX)
    except ParseError as exc:
        assert exc.line == 1 and exc.col == 4
    else:
        pytest.fail("expected a parse error")


def test_format_descending_grevlex():
    f = parse_poly("1 + x^3 + x*y", RXY)
    assert format_poly(f) == "x^3 + x*y + 1"


def test_canonical_equal_means_identical():
    f = parse_poly("x^2 - 1", RX)
    g = parse_poly("-1 + x^2", RX)
    assert f == g and str(f) == str(g) and hash(f) == hash(g)


@given(st.integers(0, 2**30))
def test_format_parse_roundtrip_seeded(seed):
    rng = random.Random(seed)
    r = (RX, RXY, RXYZ)[rng.randrange(3)]
    f = rand_poly(r, rng)
    assert parse_poly(format_poly(f), r) == f
