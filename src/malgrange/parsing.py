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
from typing import List, NamedTuple, Optional

from .rings import Poly, RingSpec


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str   # INT, IDENT, PUNCT, EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[\[\](),;=+\-*/^])
""", re.VERBOSE)


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start)
        if m.lastgroup == "ws":
            chunk = m.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = pos + chunk.rfind("\n") + 1
        else:
            kind = {"int": "INT", "ident": "IDENT",
                    "punct": "PUNCT"}[m.lastgroup]
            tokens.append(Token(kind, m.group(), line, pos - line_start))
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start))
    return tokens


class TokenStream:
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
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            shown = tok.text or "end of input"
            raise self.error(f"expected {what}, found {shown!r}")
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False


# -- polynomial expressions ----------------------------------------------------

# Each parenthesis level costs three parser frames; the bound keeps deep
# input a parse error instead of a RecursionError.
MAX_NESTING = 100


# Coefficient products one parser multiplication may cost.  Each '*' and
# '^' is checked before it runs, so a dense power such as (d+1)^3000 is a
# parse error at once instead of minutes of rational arithmetic.  A module
# constant, not an option.
MAX_PRODUCT_WORK = 250_000


# Bits one coefficient of a parser product or power may reach, predicted
# before it runs, so a power of one term such as 2^99999999999 (never
# bounded by MAX_PRODUCT_WORK) is a parse error at once instead of an
# integer of gigabytes.  Integer literals are held to it too.  It bounds
# the input only: the engine's own coefficients may grow past it, and
# ``rings.format_int`` prints integers of any length.  A module constant,
# not an option.
MAX_COEFFICIENT_BITS = 10_000


def _check_work(work: int, what: str, op: Token) -> None:
    if work > MAX_PRODUCT_WORK:
        raise ParseError(f"{what} too large: predicted work exceeds "
                         f"{MAX_PRODUCT_WORK} coefficient products",
                         op.line, op.col)


def _check_bits(bits: int, what: str, op: Token) -> None:
    if bits > MAX_COEFFICIENT_BITS:
        raise ParseError(f"{what} too large: predicted coefficients exceed "
                         f"{MAX_COEFFICIENT_BITS} bits", op.line, op.col)


def _coefficient_bits(p: Poly) -> int:
    """Bit length of the largest numerator or denominator of p, with the
    coefficients +1 and -1 counting 0 (their powers never grow)."""
    return max((max(abs(c.numerator), c.denominator).bit_length()
                for _, c in p.terms if abs(c) != 1), default=0)


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
    if (3 * (len(digits) - 1) > MAX_COEFFICIENT_BITS
            or int(digits).bit_length() > MAX_COEFFICIENT_BITS):
        raise ts.error(f"integer literal too large: exceeds "
                       f"{MAX_COEFFICIENT_BITS} bits", tok)
    return int(digits)


def _parse_exponent(ts: TokenStream) -> int:
    if ts.peek().kind != "INT":
        raise ts.error("expected nonnegative integer exponent")
    return _int_literal(ts)


def _parse_factor(ts: TokenStream, ring: RingSpec) -> Poly:
    tok = ts.peek()
    if tok.kind == "INT":
        num = _int_literal(ts)
        if ts.at_punct("/"):
            ts.next()
            den_tok = ts.peek()
            if den_tok.kind != "INT":
                raise ts.error("expected denominator after '/'")
            den = _int_literal(ts)
            if den == 0:
                raise ts.error("zero denominator", den_tok)
            base = Poly.constant(ring, Fraction(num, den))
        else:
            base = Poly.constant(ring, num)
    elif tok.kind == "IDENT":
        ts.next()
        try:
            idx = ring.var_index(tok.text)
        except KeyError:
            raise ts.error(f"unknown variable {tok.text!r}", tok) from None
        base = Poly.variable(ring, idx)
    elif ts.at_punct("("):
        if ts.depth == MAX_NESTING:
            raise ts.error(f"parentheses nested deeper than {MAX_NESTING}")
        ts.next()
        ts.depth += 1
        base = _parse_expr(ts, ring)
        ts.depth -= 1
        ts.expect_punct(")")
    else:
        shown = tok.text or "end of input"
        raise ts.error(f"expected polynomial factor, found {shown!r}")
    if ts.at_punct("^"):
        op = ts.next()
        n = _parse_exponent(ts)
        _check_work(_power_work(base, n), "power", op)
        _check_bits(n * _coefficient_bits(base), "power", op)
        base = base ** n
    return base


def _parse_product(ts: TokenStream, ring: RingSpec) -> Poly:
    out = _parse_factor(ts, ring)
    while ts.at_punct("*"):
        op = ts.next()
        factor = _parse_factor(ts, ring)
        _check_work(len(out.terms) * len(factor.terms), "product", op)
        _check_bits(_coefficient_bits(out) + _coefficient_bits(factor),
                    "product", op)
        out = out * factor
    return out


def _parse_expr(ts: TokenStream, ring: RingSpec) -> Poly:
    """A signed sum of products, built once from all of its summands' terms,
    so a long literal sum parses in time linear in its terms."""
    terms = []
    negate = ts.accept_punct("-")
    while True:
        summand = _parse_product(ts, ring).terms
        terms.extend(((m, -c) for m, c in summand) if negate else summand)
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
