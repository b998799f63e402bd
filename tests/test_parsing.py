"""The polynomial parser against ``Poly`` arithmetic, and what it builds."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from malgrange.parsing import parse_poly
from malgrange.rings import Poly, ring

RINGS = (ring("x"), ring("x", "y"), ring("x", "y", "z"))
RXY = RINGS[1]


@st.composite
def trees(draw, nvars, depth=3):
    """An expression tree over the first nvars variables: integers, p/q,
    variables, powers, products, sums, differences and negations."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(("int", "frac", "var")))
        if kind == "int":
            return ("int", draw(st.integers(0, 12)))
        if kind == "frac":
            return ("frac", draw(st.integers(0, 12)), draw(st.integers(1, 6)))
        return ("var", draw(st.integers(0, nvars - 1)))
    kind = draw(st.sampled_from(("pow", "neg", "mul", "add", "sub")))
    if kind == "pow":
        return ("pow", draw(trees(nvars, depth - 1)), draw(st.integers(0, 3)))
    if kind == "neg":
        return ("neg", draw(trees(nvars, depth - 1)))
    return (kind, draw(trees(nvars, depth - 1)),
            draw(trees(nvars, depth - 1)))


def render(tree, sep, level=0):
    """Text of tree, parenthesized where the grammar needs it: level 0 is a
    sum, 1 a product, 2 a factor and 3 the base of a power ('p/q' is one,
    so 'p/q^n' is (p/q)^n).  A unary minus only leads a sum."""
    kind = tree[0]
    if kind == "int":
        text, own = str(tree[1]), 3
    elif kind == "frac":
        text, own = f"{tree[1]}/{tree[2]}", 3
    elif kind == "var":
        text, own = "xyz"[tree[1]], 3
    elif kind == "pow":
        text, own = f"{render(tree[1], sep, 3)}^{tree[2]}", 2
    elif kind == "mul":
        text, own = f"{render(tree[1], sep, 1)}*{render(tree[2], sep, 2)}", 1
    elif kind == "neg":
        text, own = "-" + render(tree[1], sep, 1), 0
    else:
        op = "+" if kind == "add" else "-"
        text = (f"{render(tree[1], sep, 0)}{sep}{op}{sep}"
                f"{render(tree[2], sep, 1)}")
        own = 0
    return text if own >= level else f"({text})"


def evaluate(tree, r):
    kind = tree[0]
    if kind == "int":
        return Poly.constant(r, tree[1])
    if kind == "frac":
        return Poly.constant(r, Fraction(tree[1], tree[2]))
    if kind == "var":
        return Poly.variable(r, tree[1])
    if kind == "pow":
        return evaluate(tree[1], r) ** tree[2]
    if kind == "neg":
        return -evaluate(tree[1], r)
    a, b = evaluate(tree[1], r), evaluate(tree[2], r)
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


@st.composite
def expressions(draw):
    r = draw(st.sampled_from(RINGS))
    return r, draw(trees(r.nvars)), draw(st.sampled_from(("", " ", "\n")))


@settings(max_examples=100, deadline=None)
@given(expressions())
def test_parsing_matches_poly_arithmetic(drawn):
    r, tree, sep = drawn
    assert parse_poly(render(tree, sep), r) == evaluate(tree, r)


def test_a_sum_of_single_term_products_builds_one_poly(monkeypatch):
    # products of single terms are carried as terms; only the sum is a Poly
    expected = Poly(RXY, [((1, 2), 2), ((1, 0), Fraction(-3, 4)),
                          ((0, 0), 1)])
    square = Poly(RXY, [((2, 0), 1), ((0, 0), -1)])
    built, products = [], []
    init, mul = Poly.__init__, Poly.__mul__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert parse_poly("2*x*y^2 - 3/4*x + 1", RXY) == expected
    assert (len(built), len(products)) == (1, 0)
    # a parenthesized sum of two terms is a Poly, and multiplies as one
    assert parse_poly("(x + 1)*(x - 1)", RXY) == square
    assert len(products) == 1
