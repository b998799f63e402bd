"""Tokenizer and polynomial parser for the session grammar.

The polynomial sub-grammar: explicit '*', '^' with nonnegative integer
exponents, rational coefficients written 'p/q', parentheses, unary minus.
Implicit multiplication is a syntax error.  Positions are reported as
1-based line and 0-based column.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import List, Optional, Tuple, Union

from .rings import Monomial, Poly, RingSpec, mono_mul, mono_one


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class Token:
    """One token: kind is INT, IDENT, PUNCT or EOF; line is 1-based and col
    0-based."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


# Whitespace, then a token, a character that starts none (group 4), or the
# end of the line (no group).  \s and \d match Unicode whitespace and
# decimal digits, as ``int`` reads them.
_TOKEN_RE = re.compile(r"""
    \s*(?:
        (\d+)
      | ([A-Za-z_][A-Za-z0-9_]*)
      | ([\[\](),;=+\-*/^])
      | (\S)
      | \Z)
""", re.VERBOSE)

_KINDS = (None, "INT", "IDENT", "PUNCT")


def tokenize(text: str) -> List[Token]:
    """The tokens of text, line by line: only '\\n' ends a line, and no
    token spans one."""
    tokens: List[Token] = []
    append = tokens.append
    for line, chunk in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chunk):
            group = m.lastindex
            if group is None:
                break
            if group == 4:
                raise ParseError(f"unexpected character {m.group(4)!r}",
                                 line, m.start(4))
            append(Token(_KINDS[group], m.group(group), line,
                         m.start(group)))
    append(Token("EOF", "", line, len(chunk)))
    return tokens


class TokenStream:
    """Tokens with a cursor.  A punctuation text is never the text of
    another kind of token, so the punctuation tests compare text alone."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # open parentheses in the polynomial being parsed

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(msg, tok.line, tok.col)

    def expect_punct(self, text: str) -> Token:
        tok = self.tokens[self.index]
        if tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}")
        self.index += 1
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            shown = tok.text or "end of input"
            raise self.error(f"expected {what}, found {shown!r}")
        return self.next()

    def at_punct(self, text: str) -> bool:
        return self.tokens[self.index].text == text

    def accept_punct(self, text: str) -> bool:
        if self.tokens[self.index].text == text:
            self.index += 1
            return True
        return False


# -- polynomial expressions ----------------------------------------------------
#
# A product of single terms is carried as one (exponents, coefficient) item,
# the shape of an entry of ``Poly.terms`` with an int or Fraction
# coefficient, and each expression builds one Poly from its summands' items.
# Poly arithmetic runs only for a parenthesized sum of two or more terms, its
# powers and the products it enters.

# Each parenthesis level costs three parser frames; the bound keeps deep
# input a parse error instead of a RecursionError.
MAX_NESTING = 100


# Coefficient products one parser multiplication may cost.  Each '*' and
# '^' is checked before it runs, so a dense power such as (d+1)^3000 is a
# parse error at once instead of minutes of rational arithmetic.  A product
# or power of single terms costs at most one product and is never refused.
# A module constant, not an option.
MAX_PRODUCT_WORK = 250_000


# Bits one coefficient of a parser product or power may reach, predicted
# before it runs, so a power of one term such as 2^99999999999 (never
# bounded by MAX_PRODUCT_WORK) is a parse error at once instead of an
# integer of gigabytes.  Integer literals are held to it too.  It bounds
# the input only: the engine's own coefficients may grow past it, and
# ``rings.format_int`` prints integers of any length.  A module constant,
# not an option.
MAX_COEFFICIENT_BITS = 10_000

_Term = Tuple[Monomial, Union[int, Fraction]]


def _check_work(work: int, what: str, op: Token) -> None:
    if work > MAX_PRODUCT_WORK:
        raise ParseError(f"{what} too large: predicted work exceeds "
                         f"{MAX_PRODUCT_WORK} coefficient products",
                         op.line, op.col)


def _check_bits(bits: int, what: str, op: Token) -> None:
    if bits > MAX_COEFFICIENT_BITS:
        raise ParseError(f"{what} too large: predicted coefficients exceed "
                         f"{MAX_COEFFICIENT_BITS} bits", op.line, op.col)


def _bits(c: Union[int, Fraction]) -> int:
    """Bit length of the larger of |numerator| and denominator of c, with
    the coefficients 0, +1 and -1 counting 0 (their powers never grow)."""
    n, d = abs(c.numerator), c.denominator
    return 0 if d == 1 and n <= 1 else max(n, d).bit_length()


def _coefficient_bits(p: Poly) -> int:
    """The largest ``_bits`` of a coefficient of p."""
    return max((_bits(c) for _, c in p.terms), default=0)


def _power_work(base: Poly, n: int) -> int:
    """Predicted coefficient products of base ** n: R^2, where R bounds the
    terms of every factor square-and-multiply forms (at most the monomials
    of degree n in len(base.terms) symbols, and at most the monomials of
    degree <= n * deg(base) in the ring's variables).  Past the bound, a
    cheaper lower bound of R^2 may be returned instead."""
    t = len(base.terms)
    if t <= 1 or n <= 1:
        return 0  # a single term or no product at all
    # R >= n + 1 and R >= t: no binomials of a huge exponent are needed
    if max(n + 1, t) ** 2 > MAX_PRODUCT_WORK:
        return max(n + 1, t) ** 2
    nvars = base.ring.nvars
    r = min(comb(n + t - 1, t - 1), comb(n * base.total_degree() + nvars,
                                         nvars))
    return r * r


def _int_literal(ts: TokenStream) -> int:
    """The value of the INT token at ts (consumed), held to
    MAX_COEFFICIENT_BITS; the digit count is checked before ``int`` runs,
    since D digits are at least 3 * (D - 1) bits."""
    tok = ts.next()
    digits = tok.text.lstrip("0") or "0"
    if 3 * (len(digits) - 1) <= MAX_COEFFICIENT_BITS:
        value = int(digits)
        if value.bit_length() <= MAX_COEFFICIENT_BITS:
            return value
    raise ts.error(f"integer literal too large: exceeds "
                   f"{MAX_COEFFICIENT_BITS} bits", tok)


def _parse_exponent(ts: TokenStream) -> int:
    if ts.peek().kind != "INT":
        raise ts.error("expected nonnegative integer exponent")
    return _int_literal(ts)


def _as_poly(ring: RingSpec, factor: Union[_Term, Poly]) -> Poly:
    return factor if type(factor) is Poly else Poly.term(ring, factor[1],
                                                         factor[0])


def _parse_factor(ts: TokenStream, ring: RingSpec) -> Union[_Term, Poly]:
    """A factor and its power: a single term as an item of ``Poly.terms``
    (with an int or Fraction coefficient, 0 for the literal 0), else a
    Poly."""
    tok = ts.peek()
    if tok.kind == "INT":
        coeff = _int_literal(ts)
        if ts.accept_punct("/"):
            den_tok = ts.peek()
            if den_tok.kind != "INT":
                raise ts.error("expected denominator after '/'")
            den = _int_literal(ts)
            if den == 0:
                raise ts.error("zero denominator", den_tok)
            coeff = Fraction(coeff, den)
        base = (mono_one(ring.nvars), coeff)
    elif tok.kind == "IDENT":
        ts.next()
        try:
            idx = ring.var_index(tok.text)
        except KeyError:
            raise ts.error(f"unknown variable {tok.text!r}", tok) from None
        exps = [0] * ring.nvars
        exps[idx] = 1
        base = (tuple(exps), 1)
    elif tok.text == "(":
        if ts.depth == MAX_NESTING:
            raise ts.error(f"parentheses nested deeper than {MAX_NESTING}")
        ts.next()
        ts.depth += 1
        base = _parse_expr(ts, ring)
        ts.depth -= 1
        ts.expect_punct(")")
        if len(base.terms) == 1:
            base = base.terms[0]
    else:
        shown = tok.text or "end of input"
        raise ts.error(f"expected polynomial factor, found {shown!r}")
    if ts.at_punct("^"):
        op = ts.next()
        n = _parse_exponent(ts)
        if type(base) is tuple:  # (c * x^m)^n = c^n * x^(n*m)
            exps, coeff = base
            _check_bits(n * _bits(coeff), "power", op)
            base = (tuple(e * n for e in exps), coeff ** n)
        else:
            _check_work(_power_work(base, n), "power", op)
            _check_bits(n * _coefficient_bits(base), "power", op)
            base = base ** n
    return base


def _parse_product(ts: TokenStream, ring: RingSpec) -> Union[_Term, Poly]:
    """A product of factors: a single term while every factor is one, else
    a Poly."""
    out = _parse_factor(ts, ring)
    while ts.at_punct("*"):
        op = ts.next()
        factor = _parse_factor(ts, ring)
        if type(out) is tuple and type(factor) is tuple:
            _check_bits(_bits(out[1]) + _bits(factor[1]), "product", op)
            out = (mono_mul(out[0], factor[0]), out[1] * factor[1])
        else:
            out, factor = _as_poly(ring, out), _as_poly(ring, factor)
            _check_work(len(out.terms) * len(factor.terms), "product", op)
            _check_bits(_coefficient_bits(out) + _coefficient_bits(factor),
                        "product", op)
            out = out * factor
    return out


def _parse_expr(ts: TokenStream, ring: RingSpec) -> Poly:
    """A signed sum of products, built once from all of its summands' terms,
    so a long literal sum parses in time linear in its terms."""
    terms: List[_Term] = []
    negate = ts.accept_punct("-")
    while True:
        summand = _parse_product(ts, ring)
        items = (summand,) if type(summand) is tuple else summand.terms
        terms.extend(((m, -c) for m, c in items) if negate else items)
        if ts.accept_punct("+"):
            negate = False
        elif ts.accept_punct("-"):
            negate = True
        else:
            return Poly(ring, terms)


def parse_poly_tokens(ts: TokenStream, ring: RingSpec) -> Poly:
    return _parse_expr(ts, ring)


def parse_poly(text: str, ring: RingSpec) -> Poly:
    ts = TokenStream(tokenize(text))
    poly = _parse_expr(ts, ring)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ts.error(f"trailing input {tok.text!r}")
    return poly
