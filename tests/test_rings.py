import copy
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from malgrange import rings
from malgrange.rings import (GREVLEX, Poly, RingSpec, format_poly, mono_degree,
                             mono_divides, mono_div, mono_lcm, mono_mul,
                             ring, scaled_ints, sum_of_products)
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
    # x + y^2: grevlex picks y^2
    f = Poly.variable(RXY, 0) + Poly.variable(RXY, 1, 2)
    assert f.leading_term()[1] == (0, 2)


def test_leading_term_constant():
    f = Poly.constant(RXY, 5)
    assert f.leading_term() == (Fraction(5), (0, 0))


def test_leading_term_zero_rejected():
    with pytest.raises(ValueError, match="no leading term"):
        Poly.zero(RX).leading_term()


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
        cf, mf = f.leading_term()
        cg, mg = g.leading_term()
        cp, mp = (f * g).leading_term()
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


# -- the one-pass sum of products against a naive Fraction reference -------------

def reference_terms(terms):
    """Canonical terms of a raw term list: Fraction sums per monomial, zeros
    dropped, sorted with ``GREVLEX.key`` descending."""
    acc = {}
    for m, c in terms:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    return tuple(sorted(((m, c) for m, c in acc.items() if c),
                        key=lambda t: GREVLEX.key(t[0]), reverse=True))


def reference_sum_of_products(pairs):
    """Sum of a * b over pairs, term by term in Fraction arithmetic."""
    return reference_terms([(tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
                            for a, b in pairs
                            for m1, c1 in a.terms for m2, c2 in b.terms])


def raw_terms(nvars):
    # mixed denominators, repeated monomials and zero coefficients
    return st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                              st.fractions(-6, 6, max_denominator=7)),
                    max_size=6)


@st.composite
def operand_pairs(draw):
    r = draw(st.sampled_from((RX, RXY, RXYZ)))
    def poly():  # zero operands included: an empty or cancelling term list
        return Poly(r, reference_terms(draw(raw_terms(r.nvars))),
                    _canonical=True)
    pairs = [(poly(), poly()) for _ in range(draw(st.integers(0, 4)))]
    return r, pairs, draw(raw_terms(r.nvars))


@given(operand_pairs(), st.booleans())
def test_sum_of_products_matches_the_fraction_reference(drawn, cancel):
    r, pairs, raw = drawn
    if cancel:  # every product also subtracted: the sum is zero
        pairs = pairs + [(-a, b) for a, b in pairs]
    total = sum_of_products(r, pairs)
    assert total.terms == reference_sum_of_products(pairs)
    assert all(type(c) is Fraction for _, c in total.terms)
    if cancel:
        assert total == Poly.zero(r)
    for a, b in pairs:
        assert (a + b).terms == reference_terms(a.terms + b.terms)
        assert (a - b).terms == reference_terms(
            a.terms + tuple((m, -c) for m, c in b.terms))
        assert (a * b).terms == reference_sum_of_products([(a, b)])
    built = Poly(r, raw)
    assert built.terms == reference_terms(raw)
    assert all(type(c) is Fraction for _, c in built.terms)
    unit, ints = scaled_ints(built.terms)
    assert {m: unit * n for m, n in ints.items()} == dict(built.terms)
    assert gcd(*ints.values()) == (1 if ints else 0)


def test_sum_of_products_edge_cases():
    x, y = Poly.variable(RXY, 0), Poly.variable(RXY, 1)
    zero = Poly.zero(RXY)
    assert sum_of_products(RXY, []) == zero
    assert sum_of_products(RXY, [(zero, x), (y, zero)]) == zero
    half, third = Fraction(1, 2), Fraction(1, 3)
    # (x/2 + 1/3)(x + y) - (x*y)/2 = x^2/2 + x/3 + y/3
    total = sum_of_products(RXY, [(x.scale(half) + Poly.constant(RXY, third),
                                   x + y), (x.scale(-half), y)])
    assert total == Poly(RXY, [((2, 0), half), ((1, 0), third),
                               ((0, 1), third)])
    with pytest.raises(ValueError, match="ring mismatch"):
        sum_of_products(RXY, [(Poly.one(RX), x)])


@given(st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=30))
def test_descending_key_orders_as_grevlex(monomials):
    expected = sorted(set(monomials), key=GREVLEX.key, reverse=True)
    items = sorted(((m, 1) for m in set(monomials)), key=rings._descending)
    assert [m for m, _ in items] == expected
    built = Poly(RXYZ, [(m, 1) for m in monomials])
    assert [m for m, _ in built.terms] == expected


def test_power_of_one_term_is_closed_form():
    f = Poly.term(RXY, Fraction(-2, 3), (1, 2))
    assert f ** 0 == Poly.one(RXY)
    assert f ** 5 == f * f * f * f * f
    assert (f ** 5).terms == (((5, 10), Fraction(-32, 243)),)


def test_a_one_term_factor_multiplies_term_by_term():
    # either operand with one term takes mul_term; the product is the one
    # sum_of_products gives, canonical and with exact coefficients
    rng = random.Random(17)
    for _ in range(60):
        r = (RX, RXY, RXYZ)[rng.randrange(3)]
        f = rand_poly(r, rng)
        exps = tuple(rng.randint(0, 3) for _ in range(r.nvars))
        t = Poly.term(r, Fraction(rng.choice([-3, -1, 1, 2]),
                                  rng.randint(1, 4)), exps)
        for a, b in ((f, t), (t, f), (t, t)):
            got = a * b
            assert got.terms == sum_of_products(r, [(a, b)]).terms
            assert got.terms == reference_sum_of_products([(a, b)])


def test_rings_compare_by_names_and_by_identity_first():
    a, b = ring("x", "y"), ring("x", "y")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ring("y", "x") and a != ring("x")
    assert a != ("x", "y") and a.__eq__(("x", "y")) is NotImplemented
    assert {a: 1}[b] == 1


def test_a_ring_is_immutable_and_checks_its_names():
    r = ring("x", "y")
    assert r == RingSpec(("x", "y")) and hash(r) == hash(RingSpec(("x", "y")))
    assert repr(r) == "RingSpec(var_names=('x', 'y'))" and str(r) == "Q[x,y]"
    with pytest.raises(AttributeError):
        r.var_names = ("z",)
    with pytest.raises(AttributeError):
        r.other = 0
    assert r.var_names == ("x", "y")
    assert copy.deepcopy(r) == pickle.loads(pickle.dumps(r)) == r
    for names, msg in [((), "ring needs at least one variable"),
                       (("x", "x"), "variable names must be pairwise distinct"),
                       (("x", "2y"), "bad variable name: '2y'"),
                       (("",), "bad variable name: ''")]:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            RingSpec(names)


def test_a_hash_is_kept_once_computed():
    # the same value built along two routes: equal and of one hash whether
    # either, both or neither has kept its hash yet
    for first in (0, 1):
        pair = [parse_poly("x^2*y - 1/2", RXY),
                Poly(RXY, [((0, 0), Fraction(-1, 2)), ((2, 1), 1)])]
        assert pair[0] == pair[1] and pair[0] is not pair[1]
        h = hash(pair[first])
        assert pair[first]._hash == h
        with pytest.raises(AttributeError):
            pair[1 - first]._hash  # not kept until asked for
        assert pair[0] == pair[1]
        assert hash(pair[1 - first]) == h and pair[1 - first]._hash == h
        assert pair[0] == pair[1]
    f = Poly.variable(RXY, 0)
    with pytest.raises(AttributeError):
        f._hash = 0
    hash(f)
    with pytest.raises(AttributeError):
        f._hash = 0
