"""Multivariate polynomial ring Q[x1..xn] with exact rational coefficients.

Polynomials are stored in a canonical form: terms sorted descending in
graded-reverse-lexicographic order, no zero coefficients, monomials pairwise
distinct.  Structural equality is therefore semantic equality.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, Hashable, Iterable, Iterator, Sequence, Tuple, TypeVar

Monomial = Tuple[int, ...]
_K = TypeVar("_K", bound=Hashable)
_ONE = Fraction(1)


class RingSpec:
    """The commutative polynomial ring over Q in the named variables.

    Equal when the names are; most comparisons are of one ring object with
    itself, so identity is tested first."""

    __slots__ = ("var_names",)

    def __init__(self, var_names: Tuple[str, ...]):
        if len(var_names) < 1:
            raise ValueError("ring needs at least one variable")
        if len(set(var_names)) != len(var_names):
            raise ValueError("variable names must be pairwise distinct")
        for name in var_names:
            if not name or not name.isidentifier():
                raise ValueError(f"bad variable name: {name!r}")
        object.__setattr__(self, "var_names", var_names)

    def __setattr__(self, *_):
        raise AttributeError("RingSpec is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.var_names == other.var_names

    def __hash__(self) -> int:
        return hash(self.var_names)

    def __repr__(self) -> str:
        return f"RingSpec(var_names={self.var_names!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ allows
        return RingSpec, (self.var_names,)

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __str__(self) -> str:
        return "Q[" + ",".join(self.var_names) + "]"


def ring(*names: str) -> RingSpec:
    return RingSpec(tuple(names))


# -- monomials ----------------------------------------------------------------

def mono_one(nvars: int) -> Monomial:
    return (0,) * nvars


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


class MonomialOrder:
    """The graded reverse lexicographic order as a sort key (larger key =
    larger monomial).  The engine does not call it; tests use it as the
    reference for ``_descending`` and ``groebner._Layout``."""

    __slots__ = ()

    def key(self, exps: Monomial):
        # total degree first, ties broken by the *smallest* exponent in the
        # last position where they differ winning
        return (sum(exps), tuple(-e for e in reversed(exps)))


GREVLEX = MonomialOrder()


def _descending(item: Tuple[Monomial, object]):
    """Sort key of a (monomial, coefficient) item that puts terms in
    descending grevlex order: ascending by this key is descending by
    ``GREVLEX.key``."""
    exps = item[0]
    return (-sum(exps), exps[::-1])


def _sorted_terms(acc: Dict[Monomial, object]) -> tuple:
    """The nonzero items of a term dict, in descending grevlex order."""
    return tuple(sorted([t for t in acc.items() if t[1]], key=_descending))


def scaled_ints(terms: Sequence[Tuple[_K, Fraction]],
                ) -> Tuple[Fraction, Dict[_K, int]]:
    """(s, D) with D a primitive integer dict and s * D == dict(terms).

    Every coefficient is brought over the common denominator and the
    content is divided out, so D holds the smallest integers that keep the
    coefficients' ratios.  The empty input gives (1, {}).
    """
    denom = lcm(*(c.denominator for _, c in terms))
    ints = {k: c.numerator * (denom // c.denominator) for k, c in terms}
    content = gcd(*ints.values())
    if content == 0:
        return _ONE, {}
    return Fraction(content, denom), {k: n // content for k, n in ints.items()}


# -- polynomials ---------------------------------------------------------------

class Poly:
    """Immutable polynomial in canonical (grevlex-descending) form.

    The hash is computed on first use and kept in ``_hash``: cache keys
    hold polynomials, and hashing their ``Fraction`` terms again at every
    lookup would cost more than the lookup."""

    __slots__ = ("ring", "terms", "_hash")

    ring: RingSpec
    terms: Tuple[Tuple[Monomial, Fraction], ...]

    def __init__(self, ring: RingSpec, terms: Iterable[Tuple[Monomial, Fraction]],
                 *, _canonical: bool = False):
        object.__setattr__(self, "ring", ring)
        if _canonical:
            object.__setattr__(self, "terms", tuple(terms))
            return
        acc: dict = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != ring.nvars:
                raise ValueError("monomial length does not match ring")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if exps in acc:
                acc[exps] += coeff
            else:
                acc[exps] = coeff
        object.__setattr__(self, "terms", _sorted_terms(acc))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # constructors

    @staticmethod
    def zero(ring: RingSpec) -> "Poly":
        return Poly(ring, (), _canonical=True)

    @staticmethod
    def constant(ring: RingSpec, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(ring)
        return Poly(ring, ((mono_one(ring.nvars), c),), _canonical=True)

    @staticmethod
    def one(ring: RingSpec) -> "Poly":
        return Poly.constant(ring, 1)

    @staticmethod
    def variable(ring: RingSpec, index: int, power: int = 1) -> "Poly":
        exps = tuple(power if i == index else 0 for i in range(ring.nvars))
        return Poly(ring, ((exps, Fraction(1)),), _canonical=True)

    @staticmethod
    def term(ring: RingSpec, coeff, exps: Monomial) -> "Poly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return Poly.zero(ring)
        return Poly(ring, ((tuple(exps), coeff),), _canonical=True)

    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(mono_degree(m) for m, _ in self.terms)

    def leading_term(self) -> Tuple[Fraction, Monomial]:
        """(coefficient, monomial) of the grevlex-largest term, which the
        canonical form lists first."""
        if not self.terms:
            raise ValueError("no leading term: zero polynomial")
        m, c = self.terms[0]
        return c, m

    def __iter__(self) -> Iterator[Tuple[Monomial, Fraction]]:
        return iter(self.terms)

    # arithmetic

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc[m] + c if m in acc else c
        return Poly(self.ring, _sorted_terms(acc), _canonical=True)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, tuple((m, -c) for m, c in self.terms), _canonical=True)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if len(other.terms) == 1:
            m, c = other.terms[0]
            return self.mul_term(c, m)
        if len(self.terms) == 1:
            m, c = self.terms[0]
            return other.mul_term(c, m)
        return sum_of_products(self.ring, ((self, other),))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.ring)
        return Poly(self.ring, tuple((m, c * k) for m, k in self.terms), _canonical=True)

    def mul_term(self, coeff: Fraction, exps: Monomial) -> "Poly":
        """Multiply by the single term coeff * x^exps (stays canonical)."""
        if coeff == 0:
            return Poly.zero(self.ring)
        return Poly(self.ring,
                    tuple((mono_mul(m, exps), coeff * c) for m, c in self.terms),
                    _canonical=True)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        if len(self.terms) == 1:  # (c * x^m)^n = c^n * x^(n*m)
            m, c = self.terms[0]
            return Poly(self.ring, ((tuple(e * n for e in m), c ** n),),
                        _canonical=True)
        out = Poly.one(self.ring)
        base = self
        while n:  # square-and-multiply
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # identity & text

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def sum_of_products(ring: RingSpec, pairs: Iterable[Tuple[Poly, Poly]],
                    ) -> Poly:
    """The exact sum of a * b over pairs, in one integer pass.

    Each operand is converted once to a primitive integer dict times a
    rational unit (``scaled_ints``); the integer products, brought over
    one common denominator, accumulate in one dict, and the result is
    sorted once with one ``Fraction`` per surviving term.  An empty pair
    list, or pairs that cancel, give the zero polynomial.
    """
    scaled = []
    denom = 1
    for a, b in pairs:
        if a.ring != ring or b.ring != ring:
            raise ValueError("ring mismatch")
        if a.terms and b.terms:
            ua, ia = scaled_ints(a.terms)
            ub, ib = scaled_ints(b.terms)
            unit = ua * ub
            scaled.append((unit, ia, ib))
            denom = lcm(denom, unit.denominator)
    acc: dict = {}
    get = acc.get
    for unit, ia, ib in scaled:
        f = unit.numerator * (denom // unit.denominator)
        for m1, c1 in ia.items():
            c1 *= f
            for m2, c2 in ib.items():
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + c1 * c2
    return Poly(ring, [(m, Fraction(c, denom)) for m, c in _sorted_terms(acc)],
                _canonical=True)


def format_int(n: int) -> str:
    """Decimal text of n, exact at any size: ``str`` refuses integers past
    the interpreter's digit limit (4300 by default), ``Decimal`` does not."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_rational(a: Fraction) -> str:
    """Canonical form: reduced, '-' prefix only, denominator omitted when 1."""
    if a.denominator == 1:
        return format_int(a.numerator)
    return f"{format_int(a.numerator)}/{format_int(a.denominator)}"


def format_monomial(ring: RingSpec, exps: Monomial) -> str:
    parts = []
    for name, e in zip(ring.var_names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{format_int(e)}")
    return "*".join(parts)


def format_poly(f: Poly) -> str:
    """Canonical text form; grevlex-descending, '-' joins, no '+' prefix."""
    if not f.terms:
        return "0"
    chunks = []
    for i, (m, c) in enumerate(f.terms):
        mono = format_monomial(f.ring, m)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{format_rational(mag)}*{mono}"
        else:
            body = format_rational(mag)
        if i == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)

