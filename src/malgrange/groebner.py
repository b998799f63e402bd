"""Groebner bases for submodules of free modules R^k over Q[x1..xn].

Provides exact division with remainder, Buchberger completion to the unique
reduced basis, syzygy computation, and membership solving.  All kernel,
cokernel, and equality decisions elsewhere in the engine reduce to these
operations.

Column bases, eliminations, Hom modules and torsion embeddings are kept
in one bounded LRU cache keyed by the exact presentation (``cached``): an
equal input returns the object built, and certified, the first time.

The order is position-over-term with e1 > e2 > ... over grevlex, which
makes the elimination-style syzygy and lifting computations below correct.
Inside the integer layer each module term x^e * e_pos is one int (see
``_Layout``), ordered as the terms are; ``Vector`` and ``Poly`` keep
exponent tuples.  Polynomials enter that layer at one place, ``_pack``,
a whole sequence of columns at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from math import gcd
from operator import and_, lshift, neg, rshift
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

from .rings import Monomial, Poly, RingSpec, scaled_ints, sum_of_products


class _Layout:
    """A packing of module terms over nvars variables into ints.

    The term x^e * e_pos is the int holding, from the most significant end,
    pos, then top - deg(e), then e[nvars-1], ..., e[0].  Every field below
    the position is width bits wide and its top bit is a guard, clear in
    every packed term; top = 2^(width-1) - 1 bounds the degree, and with it
    every exponent.  The layout holds every term of degree at most 2 *
    degree, and a width of at least 8.

    A smaller int is a larger term: positions rank e1 > e2 > ..., then
    larger degree first, then the smaller last exponent (grevlex).  For t
    and g in one position, t - g has every guard clear exactly when g
    divides t, and it is then the quotient: adding it to the key of a term
    multiplies that term by t / g, as long as the product's degree stays at
    most top (``_IntBasis.fit`` keeps it so).
    """

    __slots__ = ("nvars", "width", "top", "mask", "shifts", "deg_shift",
                 "pos_shift", "guards")

    def __init__(self, nvars: int, degree: int):
        width = max(8, (2 * degree).bit_length() + 1)
        self.nvars = nvars
        self.width = width
        self.top = (1 << (width - 1)) - 1
        self.mask = (1 << width) - 1
        self.shifts = tuple(range(0, nvars * width, width))
        self.deg_shift = nvars * width
        self.pos_shift = (nvars + 1) * width
        self.guards = sum(1 << (s + width - 1) for s in self.shifts)

    def pack(self, pos: int, exps: Monomial) -> int:
        return ((pos << self.pos_shift)
                + ((self.top - sum(exps)) << self.deg_shift)
                + sum(map(lshift, exps, self.shifts)))

    def exps(self, key: int) -> Monomial:
        return tuple(map(and_, map(rshift, repeat(key), self.shifts),
                         repeat(self.mask)))

    def unpack(self, key: int) -> Tuple[int, Monomial]:
        return key >> self.pos_shift, self.exps(key)

    def degree(self, key: int) -> int:
        return self.top - ((key >> self.deg_shift) & self.mask)

    def max_degree(self, keys: Iterable[int]) -> int:
        # below the position field, a larger degree is a smaller int
        return self.degree(min(map(and_, keys,
                                   repeat((1 << self.pos_shift) - 1))))

    def divides(self, g: int, t: int) -> bool:
        """Whether the term g divides the term t, both in one position."""
        return not (t - g) & self.guards

    def lcm_exps(self, a: int, b: int) -> Monomial:
        """The exponents of the lcm of the terms a and b, which may have a
        degree past top."""
        return tuple(map(max, self.exps(a), self.exps(b)))

    def repack(self, key: int, old: "_Layout") -> int:
        """key, packed by old, packed by this layout."""
        return self.pack(*old.unpack(key))


def _degree(polys: Iterable[Poly]) -> int:
    """The largest total degree of a term of the polys, 0 when all are
    zero: each lists a term of its largest degree first."""
    return max((sum(p.terms[0][0]) for p in polys if p.terms), default=0)


class Vector:
    """Element of the free module R^k, stored as a k-tuple of polynomials;
    its hash is kept in ``_hash`` on first use, as ``Poly``'s is."""

    __slots__ = ("ring", "entries", "_hash")

    def __init__(self, ring: RingSpec, entries: Iterable[Poly]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", tuple(entries))
        for p in self.entries:
            if p.ring != ring:
                raise ValueError("ring mismatch in vector entry")

    def __setattr__(self, *_):
        raise AttributeError("Vector is immutable")

    @staticmethod
    def zero(ring: RingSpec, rank: int) -> "Vector":
        z = Poly.zero(ring)
        return Vector(ring, (z,) * rank)

    @staticmethod
    def unit(ring: RingSpec, rank: int, pos: int) -> "Vector":
        one = Poly.one(ring)
        z = Poly.zero(ring)
        return Vector(ring, tuple(one if i == pos else z for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if self.rank != other.rank:
            raise ValueError("vector rank mismatch")
        return Vector(self.ring, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        if self.rank != other.rank:
            raise ValueError("vector rank mismatch")
        return Vector(self.ring, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(self.ring, (-a for a in self.entries))

    def scale(self, c) -> "Vector":
        return Vector(self.ring, (p.scale(c) for p in self.entries))

    def poly_mul(self, f: Poly) -> "Vector":
        return Vector(self.ring, (p * f for p in self.entries))

    def mul_term(self, coeff: Fraction, exps: Monomial) -> "Vector":
        return Vector(self.ring, (p.mul_term(coeff, exps) for p in self.entries))

    def leading(self) -> Tuple[int, Monomial, Fraction]:
        """(position, monomial, coefficient) of the maximal module term:
        the first term of the first nonzero entry, since position over term
        ranks position 0 highest and each entry lists its largest term
        first."""
        for pos, p in enumerate(self.entries):
            if p.terms:
                m, c = p.terms[0]
                return pos, m, c
        raise ValueError("zero vector has no leading term")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vector) and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, self.entries))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.entries) + "]"

    def __repr__(self) -> str:
        return f"Vector({self})"


# -- division ------------------------------------------------------------------

def _pack(layout: _Layout, columns: Sequence[Sequence[Poly]],
          ) -> Tuple[Fraction, List[dict]]:
    """(s, [D_0, D_1, ...]): D_j an integer term dict of column j, entry i
    at position i, keyed by its terms packed by layout and listing them
    largest first; s * D_j is column j, with one unit s for all columns,
    and the D_j together primitive (``scaled_ints``).  The one place
    where polynomial terms become packed ints."""
    pack = layout.pack
    unit, ints = scaled_ints([((j, pack(i, exps)), c)
                              for j, col in enumerate(columns)
                              for i, p in enumerate(col)
                              for exps, c in p.terms])
    out: List[dict] = [{} for _ in columns]
    for (j, key), c in ints.items():
        out[j][key] = c
    return unit, out


def _columns(m: "PolyMatrix") -> List[Tuple[Poly, ...]]:
    """The columns of m as tuples of its entries, no ``Vector`` built."""
    return [tuple(row[j] for row in m.rows) for j in range(m.ncols)]


def _primitive(terms: dict) -> dict:
    """terms divided by their content, so that the first coefficient is
    positive (the reducer lists remainder terms leading term first)."""
    g = gcd(*terms.values())
    if terms[next(iter(terms))] < 0:
        g = -g
    if g == 1:
        return terms
    return {k: c // g for k, c in terms.items()}


def _polys(layout: _Layout, ring: RingSpec, terms: dict, unit, start: int,
           count: int) -> List[Poly]:
    """unit * terms at positions start .. start+count-1, one polynomial per
    position; terms at other positions are left out.  terms lists its
    terms largest first, as the reducer leaves them."""
    rows: List[List[Tuple[Monomial, Fraction]]] = [[] for _ in range(count)]
    lo, hi = start << layout.pos_shift, (start + count) << layout.pos_shift
    num, den = unit.numerator, unit.denominator
    for k, c in terms.items():
        if lo <= k < hi:
            pos, exps = layout.unpack(k)
            rows[pos - start].append((exps, Fraction(num * c, den)))
    return [Poly(ring, r, _canonical=True) for r in rows]


def _vector(layout: _Layout, ring: RingSpec, rank: int, terms: dict,
            unit) -> Vector:
    """The vector unit * terms, terms at positions past rank left out."""
    return Vector(ring, _polys(layout, ring, terms, unit, 0, rank))


class _IntBasis:
    """Divisors converted once to primitive integer term dicts.

    Element i is terms[i], keyed by its terms packed by layout, and
    leads[i] is its leading (smallest) key, in a position below rank.
    by_pos lists, per position, the elements leading there in the order
    they were added, as (i, lead key, integer lead coefficient, other
    (key, coefficient) terms).  excess is the largest amount by which the
    degree of a term of an element exceeds that of its lead, or 0.
    """

    __slots__ = ("layout", "rank", "excess", "terms", "leads", "by_pos")

    def __init__(self, layout: _Layout, rank: int):
        self.layout = layout
        self.rank = rank
        self.excess = 0
        self.terms: List[dict] = []
        self.leads: List[int] = []
        self.by_pos: dict = {}

    @staticmethod
    def of(ring: RingSpec, vectors: Sequence[Vector],
           rank: int) -> "_IntBasis":
        """The basis of vectors, each nonzero and of rank entries, each
        element primitive with a positive lead."""
        if any(v.rank != rank for v in vectors):
            raise ValueError("vector rank mismatch")
        columns = [v.entries for v in vectors]
        basis = _IntBasis(_Layout(ring.nvars, _degree(
            chain.from_iterable(columns))), rank)
        for terms in _pack(basis.layout, columns)[1]:
            if not terms:
                raise ValueError("zero vector has no leading term")
            basis.add(_primitive(terms), next(iter(terms)))
        return basis

    def __len__(self) -> int:
        return len(self.terms)

    def trailing(self, start: int, rank: int) -> "_IntBasis":
        """The elements leading at position start or later, each with start
        positions taken off every key, in the same layout and order, as a
        basis of the given rank: positions past self.rank − start are
        empty.

        Under position over term such an element has no term before start,
        so the projection is exact, and for a reduced basis of N the result
        is the reduced basis of N ∩ (0^start ⊕ R^(self.rank−start)) (the
        Elimination Theorem, in module form; Eisenbud, Commutative Algebra,
        ch. 15), padded with zeros up to rank.  The other elements are
        never read, and the term dicts and lists are new: adding to the
        result, or widening it, leaves self unchanged, so the result can
        seed a completion (``colon_ideal``).
        """
        shift = start << self.layout.pos_shift
        out = _IntBasis(self.layout, rank)
        for terms, lead in zip(self.terms, self.leads):
            if lead >= shift:
                out.add({k - shift: c for k, c in terms.items()}, lead - shift)
        return out

    def add(self, terms: dict, lead: int) -> None:
        layout = self.layout
        tail = tuple((k, c) for k, c in terms.items() if k != lead)
        self.by_pos.setdefault(lead >> layout.pos_shift, []).append(
            (len(self.terms), lead, terms[lead], tail))
        self.terms.append(terms)
        self.leads.append(lead)
        self.excess = max(self.excess, layout.max_degree(terms)
                          - layout.degree(lead))

    def fit(self, degree: int) -> Optional[_Layout]:
        """Make reducing a dividend of degree at most degree safe.

        Reducing a term of degree d by an element makes terms of degree at
        most d + excess, in later positions only when above d, so every
        term the reduction meets has degree at most degree + rank *
        excess.  If that passes layout.top, every element is re-packed by a
        wider layout, as new dicts, and the old layout is returned; else
        None.
        """
        need = degree + self.rank * self.excess
        old = self.layout
        if need <= old.top:
            return None
        new = self.layout = _Layout(old.nvars, need)
        elements = list(zip(self.terms, self.leads))
        self.terms, self.leads, self.by_pos = [], [], {}
        for terms, lead in elements:
            self.add({new.repack(k, old): c for k, c in terms.items()},
                     new.repack(lead, old))
        return old

    def lcm_key(self, pos: int, lcm: Monomial) -> int:
        """x^lcm * e_pos packed by layout, once widened (``fit``) for the
        S-vector of a pair with that lcm: degree at most sum(lcm) + excess."""
        self.fit(sum(lcm) + self.excess)
        return self.layout.pack(pos, lcm)

    def rekey(self, terms: dict, old: _Layout) -> dict:
        """terms, keyed by the older layout old, keyed by layout once the
        basis is fitted for their degree (``fit``): the dict itself when
        the width is old's."""
        self.fit(old.max_degree(terms))
        new = self.layout
        if new.width == old.width:
            return terms
        return {new.repack(k, old): c for k, c in terms.items()}


def _fitted(basis: _IntBasis, columns: Sequence[Sequence[Poly]],
            ) -> Tuple[Fraction, List[dict]]:
    """``_pack`` of columns by basis.layout, once basis is fitted for
    their largest degree (``_IntBasis.fit``), so that each can be reduced
    against it.  A column packs as if zero-padded to basis.rank entries,
    and may not be longer."""
    if max(map(len, columns), default=0) > basis.rank:
        raise ValueError("vector rank mismatch")
    basis.fit(_degree(chain.from_iterable(columns)))
    return _pack(basis.layout, columns)


def _reduce(p: dict, basis: _IntBasis, scale: Fraction = Fraction(1),
            skip: int = -1) -> Tuple[dict, Fraction]:
    """Reduce the integer term dict p (consumed) against basis.

    p is keyed by basis.layout, and basis must fit p's degree (see
    ``_IntBasis.fit``).  The leading term is reduced first, by the first
    element of basis (other than element skip) whose lead divides it; a
    term no lead divides moves to the remainder.  The leading term is the
    smallest key, found with a min-heap of the keys; a key whose term
    cancelled stays in the heap and is dropped when popped.  A lead g
    divides the term t when t - g, which is then the quotient, has no guard
    bit set, and multiplying a tail term by it is one addition.  A term in
    a position where no element leads goes straight to the remainder:
    ``divide`` and ``solve_mod`` read their quotients and lifts off such
    positions.

    p stands for scale * p.  Returns (rem, s): scale * p minus a
    combination of basis elements is exactly s * rem.  rem lists its terms
    leading term first.
    """
    by_pos = basis.by_pos
    pos_shift, guards = basis.layout.pos_shift, basis.layout.guards
    heap = list(p)
    heapify(heap)
    rem: dict = {}
    steps = 0
    while heap:
        t = heappop(heap)
        a = p.pop(t, 0)
        if not a:
            continue
        for i, g, b, tail in by_pos.get(t >> pos_shift, ()):
            shift = t - g
            if not shift & guards and i != skip:
                break
        else:
            rem[t] = a
            continue
        d = gcd(a, b)
        ap, bp = a // d, b // d
        if bp != 1:
            p = {k: bp * c for k, c in p.items()}
            rem = {k: bp * c for k, c in rem.items()}
            scale /= bp
        for k, tc in tail:
            k += shift
            c = p.get(k)
            if c is None:
                p[k] = -ap * tc
                heappush(heap, k)
            else:
                c -= ap * tc
                if c:
                    p[k] = c
                else:
                    del p[k]
        steps += 1
        if steps % 32 == 0:
            content = gcd(*p.values(), *rem.values())
            if content > 1:
                p = {k: c // content for k, c in p.items()}
                rem = {k: c // content for k, c in rem.items()}
                scale *= content
    return rem, scale


def _remainder(columns: Sequence[Sequence[Poly]], basis: _IntBasis,
               ) -> Iterator[Tuple[dict, Fraction]]:
    """(rem, s) of ``_reduce`` for each column in turn, each reduced when
    read: the column minus a combination of basis elements is s * rem,
    keyed by basis.layout.  The basis is fitted and the columns packed
    once, before the first (``_fitted``)."""
    unit, packed = _fitted(basis, columns)
    for p in packed:
        yield _reduce(p, basis, unit)


def _times(layout: _Layout, a: Sequence[dict], c: dict) -> dict:
    """A * c, keyed by layout: A the integer matrix whose column j is a[j]
    and c an integer column, both packed by layout (``_pack``).

    For each term x^e * e_j of c, the low bits of its key (x^e, less the
    degree field's base) are added to the key of each term of a[j]: no
    term is unpacked and no ``Fraction`` is built.  Every product must
    have degree at most layout.top.  Coefficients that cancel stay as
    zeros.  The engine's one product certificate,
    ``GrobnerBasis.first_product_outside``, forms its products this way.
    """
    pos_shift = layout.pos_shift
    low, base = (1 << pos_shift) - 1, layout.top << layout.deg_shift
    acc: dict = {}
    get = acc.get
    for k, x in c.items():
        shift = (k & low) - base
        for key, y in a[k >> pos_shift].items():
            key += shift
            acc[key] = get(key, 0) + x * y
    return acc


def divide(v: Vector, basis: Sequence[Vector]) -> Tuple[Vector, List[Poly]]:
    """Multivariate division: v = sum(q[i] * basis[i]) + r.

    No term of r is divisible (same position) by any basis leading term.
    The leading term of what is left is reduced first, and among
    applicable reducers the first in the given sequence wins.

    This is the rational face of the one integer reducer (``_reduce``)
    that Buchberger completion also runs on.  With v of rank k and n
    divisors, divisor b_i enters as [b_i; e_i] of rank k + n and v as
    [v; 0], each a primitive integer term dict.  Every b_i is nonzero, so
    no element leads past position k, and what is left is [r; -q]: the
    quotients are the negated last n entries of the remainder, and r and
    q are the exact rationals of the textbook division.
    """
    k, n = v.rank, len(basis)
    if any(b.is_zero() for b in basis):
        raise ValueError("zero vector has no leading term")
    stacked = _IntBasis.of(v.ring, [
        Vector(v.ring, b.entries + e)
        for b, e in zip(basis, PolyMatrix.identity(v.ring, n).rows)], k + n)
    rem, scale = next(_remainder([v.entries], stacked))
    return (_vector(stacked.layout, v.ring, k, rem, scale),
            _polys(stacked.layout, v.ring, rem, -scale, k, n))


# -- one cache of certified results per exact presentation -----------------------

# Entries kept by ``cached``; past it the least recently used is dropped.
# A module constant, not an option: it bounds memory, never a verdict.
CACHE_ENTRIES = 512

_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_MISSING = object()
_T = TypeVar("_T")


def cached(key: tuple, build: Callable[[], _T]) -> _T:
    """The value stored under key, or build() stored under key.

    Keys hold the input itself (vectors, matrices, rings), so a
    hit needs an input equal term by term, with exact ``Fraction``
    coefficients, to the one the value was built and certified from; a
    hash collision alone never matches.  A build that raises stores
    nothing.  Shared by the reduced basis of a matrix's columns
    (``PolyMatrix.span``), eliminations (``_elimination``) and the kernels
    read off them (``syzygies_mod``, so also the annihilators
    ``colon_ideal`` reads off an elimination), Hom modules and torsion
    embeddings (``modules``): the one memo of each, so ``_CACHE.clear()``
    is a cold start.
    """
    value = _CACHE.get(key, _MISSING)
    if value is _MISSING:
        value = build()
        _CACHE[key] = value
        while len(_CACHE) > CACHE_ENTRIES:
            _CACHE.popitem(last=False)
    else:
        _CACHE.move_to_end(key)
    return value


# -- Buchberger completion -------------------------------------------------------

def _s_vector(basis: _IntBasis, i: int, j: int, m: int) -> dict:
    """An integer multiple of the S-vector of elements i and j of basis,
    which lead in one position: both leads are scaled to the lcm of their
    coefficients, so the multiple is that lcm; m is the lcm of the leads,
    packed by ``_IntBasis.lcm_key``."""
    ti, tj = basis.terms[i], basis.terms[j]
    li, lj = basis.leads[i], basis.leads[j]
    bi, bj = ti[li], tj[lj]
    l = bi * bj // gcd(bi, bj)
    si, sj = m - li, m - lj
    ci, cj = l // bi, l // bj
    s = {k + si: ci * c for k, c in ti.items()}
    for k, c in tj.items():
        k += sj
        c = s.get(k, 0) - cj * c
        if c:
            s[k] = c
        else:
            s.pop(k, None)
    return s


def _pair(sugar: int, pos: int, lcm: Monomial, i: int, j: int) -> tuple:
    """A pending pair of ``_Completion``: (key, i, j, pos, lcm), with lcm
    the exponents of the lcm of the two leads, in position pos.

    The key (sugar, -pos, deg lcm, -lcm[n-1], ..., -lcm[0]) orders pairs
    exactly as (sugar, -layout.pack(pos, lcm)) does under every layout
    that holds the lcm: a larger packed term has a later position, then a
    smaller degree, then larger exponents from the last (see ``_Layout``).
    So no key depends on the layout, and none changes when the basis
    widens."""
    return (sugar, -pos, sum(lcm), *map(neg, reversed(lcm))), i, j, pos, lcm


class _Completion:
    """Buchberger completion of an integer basis.

    Built by ``_complete`` only.  The starting basis is either empty
    (elements then enter from the input), an interreduced candidate, or
    the projection of a reduced basis, one position wider, that the input
    extends (``_IntBasis.trailing``, the seed of ``colon_ideal``'s
    trailing route); the last two are taken as closed under their own
    pairs.  Every element added later, from the input, an S-pair or the
    sweep, goes through ``add``, which queues its pairs with the elements
    already leading in the same position.

    Elements are kept primitive rather than monic: that bounds the
    arithmetic (monic scaling lets numerators and denominators compound
    across reduction steps).

    Pending pairs sit in a heap of ``_pair`` entries, keyed once when
    pushed, each with the exponents of the lcm of its two leads; live
    holds the (i, j) still in the heap.  The key orders by sugar, lowest
    first, then as the packed lcm would, larger first (see ``_pair``):
    the sugar strategy (Giovini, Mora, Niesi, Robbiano and Traverso, "One
    sugar cube, please", ISSAC 1991).  sugar[i] is element i's sugar
    degree: for an input, an element of the starting basis or one the
    sweep adds, the largest total degree of its terms; for the remainder
    of an S-pair, the pair's sugar, max(sugar[i] + deg(lcm) - deg(lead
    i), sugar[j] + deg(lcm) - deg(lead j)).  Sugar is the degree the pair
    would have in a homogenized input, so pairs run in the order that
    suits homogeneous input even when the input is not.  The reduced
    basis is the same in any pair order; the work to reach it is fixed by
    this one.

    The basis is widened where something is packed or read for it (the
    entering columns by ``_complete``, each entering dict by
    ``_IntBasis.rekey``, a pair's lcm and S-vector by ``lcm_key``; see
    ``_IntBasis.fit``).  No pending key is packed, so a widening leaves
    the heap as it is.
    """

    def __init__(self, basis: _IntBasis):
        self.basis = basis
        self.sugar = [self._own_sugar(t) for t in basis.terms]
        self.pending: List[tuple] = []
        self.live: set = set()

    def _own_sugar(self, terms: dict) -> int:
        return self.basis.layout.max_degree(terms)

    def add(self, terms: dict, lead: int, sugar: Optional[int] = None) -> None:
        """Add an element and queue its pairs; sugar is its own (see
        ``_own_sugar``) unless given."""
        basis, sugars = self.basis, self.sugar
        layout = basis.layout
        j = len(basis)
        pos = lead >> layout.pos_shift
        sugars.append(self._own_sugar(terms) if sugar is None else sugar)
        gap_j = sugars[j] - layout.degree(lead)
        for i, e, _, _ in basis.by_pos.get(pos, ()):
            l = layout.lcm_exps(e, lead)
            sugar = sum(l) + max(sugars[i] - layout.degree(e), gap_j)
            heappush(self.pending, _pair(sugar, pos, l, i, j))
            self.live.add((i, j))
        basis.add(terms, lead)

    def reduce(self, p: dict, sugar: Optional[int] = None) -> None:
        """Add the primitive remainder of p against the basis, with the
        given sugar (else its own), unless it is zero: a nonzero multiple
        of p has the same primitive remainder."""
        rem, _ = _reduce(p, self.basis)
        if rem:
            prim = _primitive(rem)
            self.add(prim, next(iter(prim)), sugar)

    def run(self) -> None:
        """Process pending pairs, smallest key first, ties by (i, j):
        lowest sugar, then the smaller lcm.  The remainder of a pair's
        S-vector joins the basis with the pair's sugar.

        The chain criterion is the only one: a pair (i, j) is skipped when
        another element k leading in the same position divides its lcm and
        neither (i, k) nor (j, k) is still pending.  Every other pair's
        S-vector is reduced.
        """
        basis = self.basis
        pending, live = self.pending, self.live
        while pending:
            key, i, j, pos, l = heappop(pending)
            live.discard((i, j))
            m = basis.lcm_key(pos, l)
            layout = basis.layout
            for k, e, _, _ in basis.by_pos[pos]:
                if (k != i and k != j and layout.divides(e, m)
                        and (min(i, k), max(i, k)) not in live
                        and (min(j, k), max(j, k)) not in live):
                    break  # the chain criterion skips the pair
            else:
                self.reduce(_s_vector(basis, i, j, m), key[0])

    def sweep(self) -> None:
        """Final check of the starting basis: reduce every same-position
        S-vector of it, in (i, j) order and with no criteria, against the
        basis and the remainders this sweep has added, and add each
        nonzero remainder (queuing its pairs)."""
        basis = self.basis
        layout, leads = basis.layout, list(enumerate(basis.leads))
        pairs = [(i, j, e >> layout.pos_shift, layout.lcm_exps(e, f))
                 for i, e in leads for j, f in leads[i + 1:]
                 if e >> layout.pos_shift == f >> layout.pos_shift]
        for i, j, pos, l in pairs:
            self.reduce(_s_vector(basis, i, j, basis.lcm_key(pos, l)))


def _interreduce(basis: _IntBasis) -> _IntBasis:
    """Minimalize and tail-reduce to the unique reduced basis.

    Returns the integer basis of the result: ascending leads, each element
    primitive with a positive lead, so that ``GrobnerBasis.gens`` reads
    the reduced basis off it.
    """
    layout = basis.layout
    # ascending leads are descending keys; the sort is stable
    ranked = sorted(range(len(basis)), key=basis.leads.__getitem__,
                    reverse=True)
    minimal = _IntBasis(layout, basis.rank)
    for i in ranked:
        lead = basis.leads[i]
        if any(layout.divides(e, lead) for _, e, _, _
               in minimal.by_pos.get(lead >> layout.pos_shift, ())):
            continue
        minimal.add(basis.terms[i], lead)
    # an element's degree is at most its lead's plus the excess
    minimal.fit(max(map(layout.degree, minimal.leads), default=0)
                + minimal.excess)
    layout = minimal.layout
    reduced = _IntBasis(layout, basis.rank)
    for i, lead in enumerate(minimal.leads):
        rem, _ = _reduce(dict(minimal.terms[i]), minimal, skip=i)
        reduced.add(_primitive(rem), lead)
    return reduced


class GrobnerBasis:
    """Reduced Groebner basis: monic, pairwise irreducible, sorted ascending.

    Keeps the integer form of its elements, each primitive, for
    ``reduce`` and ``contains``.  A completion hands over that
    form (``_of``) and gens, the monic vectors, are built from it on first
    read; ``GrobnerBasis(ring, rank, gens)`` packs the given gens once.
    It answers membership; kernels and lifts are read off an elimination
    basis (``syzygies_mod``, ``solve_mod``).
    """

    __slots__ = ("ring", "rank", "_gens", "_basis")

    def __init__(self, ring: RingSpec, rank: int, gens: Sequence[Vector]):
        gens = tuple(gens)
        self._set(ring, rank, gens, _IntBasis.of(ring, gens, rank))

    @classmethod
    def _of(cls, ring: RingSpec, rank: int,
            basis: _IntBasis) -> "GrobnerBasis":
        """The reduced basis whose integer form is basis, each element
        primitive with a positive lead (``_interreduce``)."""
        gb = cls.__new__(cls)
        gb._set(ring, rank, None, basis)
        return gb

    def _set(self, ring: RingSpec, rank: int,
             gens: Optional[Tuple[Vector, ...]], basis: _IntBasis) -> None:
        for name, value in (("ring", ring), ("rank", rank), ("_gens", gens),
                            ("_basis", basis)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("GrobnerBasis is immutable")

    @property
    def gens(self) -> Tuple[Vector, ...]:
        if self._gens is None:  # monic, read by the current layout
            b = self._basis
            object.__setattr__(self, "_gens", tuple(
                _vector(b.layout, self.ring, self.rank, terms,
                        Fraction(1, terms[lead]))
                for terms, lead in zip(b.terms, b.leads)))
        return self._gens

    def __eq__(self, other) -> bool:
        return (isinstance(other, GrobnerBasis) and self.ring == other.ring
                and self.rank == other.rank and self.gens == other.gens)

    def __hash__(self) -> int:
        return hash((self.ring, self.rank, self.gens))

    def __repr__(self) -> str:
        return f"GrobnerBasis({self.ring}, {self.rank}, {self})"

    def _check(self, v: Vector) -> None:
        if v.rank != self.rank:
            raise ValueError("rank mismatch")
        if v.ring != self.ring:
            raise ValueError("ring mismatch")

    def normal_form(self, v: Vector) -> Tuple[Vector, List[Poly]]:
        """``divide`` by gens: the remainder and the quotients."""
        self._check(v)
        return divide(v, self.gens)

    def reduce(self, v: Vector) -> Vector:
        """The remainder of ``normal_form``, with no quotients computed."""
        self._check(v)
        rem, scale = next(_remainder([v.entries], self._basis))
        return _vector(self._basis.layout, v.ring, v.rank, rem, scale)

    def contains(self, v: Vector) -> bool:
        """Whether ``reduce`` leaves zero, read off the integer remainder."""
        self._check(v)
        return not next(_remainder([v.entries], self._basis))[0]

    def first_product_outside(self, a: "PolyMatrix",
                              c: "PolyMatrix") -> Optional[int]:
        """The index j of the first column c_j of c with a * c_j outside
        the span, or None.

        The engine's one product certificate: ``Morphism`` relations,
        syzygy columns (``syzygies_mod``) and lifts (``solve_mod``) are
        all checked here.  The basis is
        first widened for deg a + deg c (``_IntBasis.fit``); the columns
        of a and of c are then each packed once by its layout (``_pack``),
        and each product is formed in the integer layer (``_times``) and
        reduced exactly."""
        if a.nrows != self.rank or a.ncols != c.nrows:
            raise ValueError("shape mismatch")
        if a.ring != self.ring or c.ring != self.ring:
            raise ValueError("ring mismatch")
        if not c.ncols:
            return None
        target = self._basis
        target.fit(_degree(chain.from_iterable(a.rows))
                   + _degree(chain.from_iterable(c.rows)))
        layout = target.layout
        a_cols = _pack(layout, _columns(a))[1]
        for j, col in enumerate(_pack(layout, _columns(c))[1]):
            if _reduce(_times(layout, a_cols, col), target)[0]:
                return j
        return None

    def __str__(self) -> str:
        return "{" + "; ".join(str(g) for g in self.gens) + "}"


def buchberger(gens: Sequence[Vector], *, ring: Optional[RingSpec] = None,
               rank: Optional[int] = None) -> GrobnerBasis:
    """Reduced Groebner basis of the submodule generated by gens.

    Completed by ``_complete`` from an empty basis: pairs are taken by
    sugar degree, then lcm, ties by (i, j) (see ``_Completion``), with
    the chain criterion as the only criterion, on primitive integer term
    dicts and the reducer of ``divide``.  A
    final sweep re-checks every same-position S-vector of the candidate,
    resuming the completion until a sweep adds nothing; then every
    nonzero input must reduce to zero against the result, else
    ``RuntimeError``.

    Nothing is cached: each call completes.  The basis of a matrix's
    columns is cached by ``PolyMatrix.span``.
    """
    ring_, rank_, inputs, start = _inputs(gens, ring, rank)
    return GrobnerBasis._of(ring_, rank_, _complete(
        start, [v.entries for v in inputs]))


def _inputs(gens: Sequence[Vector], ring: Optional[RingSpec],
            rank: Optional[int]) -> tuple:
    """(ring, rank, inputs, start) of a completion of gens: the ring and
    rank of its first nonzero vector, else the given ones; the nonzero
    gens, all of that rank; and the empty basis, sized for them."""
    inputs = [v for v in gens if not v.is_zero()]
    if inputs:
        ring, rank = inputs[0].ring, inputs[0].rank
    elif ring is None or rank is None:
        raise ValueError("empty input needs explicit ring and rank")
    for v in inputs:
        if v.rank != rank:
            raise ValueError("rank mismatch")
    layout = _Layout(ring.nvars, max((_degree(v.entries) for v in inputs),
                                     default=0))
    return ring, rank, inputs, _IntBasis(layout, rank)


def extended_buchberger(gens: Sequence[Vector], *,
                        ring: Optional[RingSpec] = None,
                        rank: Optional[int] = None,
                        ) -> Tuple[GrobnerBasis, List[List[Poly]],
                                   List[Vector]]:
    """(G, A, S) for the submodule generated by gens: G its reduced basis,
    equal to ``buchberger``'s; A[a] the coefficients expressing G[a] over
    the input, G[a] = sum(A[a][i] * gens[i]), zero on every zero input;
    S the reduced basis of the relations among gens, the certified
    columns of ``syzygies_mod`` modulo no columns.

    All three are read off the one elimination of the [gens[i]; e_i]
    (``_elimination``).  Under position over term its elements leading in
    the first rank positions are the [G[a]; A[a]], scaled monic here, and
    the others the [0; S[k]].  A is not multiplied out.  Public; no
    engine path calls it."""
    ring, rank, _, _ = _inputs(gens, ring, rank)
    a = PolyMatrix.from_columns(ring, rank, gens)
    none = PolyMatrix.zeros(ring, rank, 0)
    elim = _elimination(a, none)._basis
    end = rank << elim.layout.pos_shift
    rows = [_polys(elim.layout, ring, terms, Fraction(1, terms[lead]), 0,
                   rank + a.ncols)
            for terms, lead in zip(elim.terms, elim.leads) if lead < end]
    gb = GrobnerBasis(ring, rank, [Vector(ring, row[:rank]) for row in rows])
    return gb, [row[rank:] for row in rows], syzygies_mod(a, none).columns()


def _complete(start: _IntBasis,
              entering: Sequence[Sequence[Poly]]) -> _IntBasis:
    """The one completion behind every Groebner basis: the reduced basis
    of what start and the entering columns generate.

    start is empty or a reduced basis whose last positions may be empty
    (a projection, ``_IntBasis.trailing``), taken as closed under its own
    pairs; the completion adds to start itself.  start is fitted for the
    largest degree of the columns, each of at most start's rank (a
    shorter column packs as if zero-padded), and they are packed in one
    call (``_fitted``); each nonzero one is then reduced in, in the given
    order, and a zero one enters nothing.  Then pairs are processed, the
    basis interreduced and swept, resuming while a sweep adds an element.
    The sweep certifies only a Groebner basis of what the result
    generates, which a lost element shrinks, so then every element of
    start and every entered column, each as packed before the completion,
    must reduce to zero against the result, else ``RuntimeError``.
    Returns ``_interreduce``'s basis.
    """
    packed = _fitted(start, entering)[1]
    layout = start.layout
    entered = [dict(p) for p in chain(start.terms, packed) if p]
    state = _Completion(start)
    for p in packed:
        if p:
            state.reduce(start.rekey(p, layout))
    while True:
        state.run()
        final = _interreduce(state.basis)
        count = len(final)
        state = _Completion(final)
        state.sweep()
        if len(final) == count:  # the sweep added nothing
            break
    for p in entered:
        if _reduce(final.rekey(p, layout), final)[0]:
            raise RuntimeError("an input escaped its Groebner basis")
    return final


# -- syzygies and membership ------------------------------------------------------

class SpanSolver:
    """Membership and syzygies of a fixed generator list: public, and no
    engine path builds one.

    Both answers are read off the one elimination of the [gens[i]; e_i],
    cached per generator list: ``solve`` is ``solve_mod`` modulo no
    columns, and ``syzygies`` the columns of ``syzygies_mod`` modulo no
    columns, each multiplied out and certified there.
    """

    def __init__(self, gens: Sequence[Vector], ring: RingSpec, rank: int):
        self.ring = ring
        self.rank = rank
        self.count = len(gens)
        self.gens = tuple(gens)
        for g in gens:
            if g.rank != rank:
                raise ValueError("rank mismatch")
        self._a = PolyMatrix.from_columns(ring, rank, gens)
        self._none = PolyMatrix.zeros(ring, rank, 0)

    def solve(self, v: Vector) -> Optional[List[Poly]]:
        """Coefficients c with sum(c[i] * gens[i]) = v, or None: the
        certified lift, reduced modulo the relations among gens."""
        if v.rank != self.rank:
            raise ValueError("rank mismatch")
        c = solve_mod(PolyMatrix.from_columns(self.ring, self.rank, [v]),
                      self._a, self._none)
        return None if c is None else list(c.column(0).entries)

    def syzygies(self) -> List[Vector]:
        """The reduced basis of {(a_1..a_m) : sum(a_i * gens[i]) = 0},
        certified; each call returns a new list."""
        return syzygies_mod(self._a, self._none).columns()


def syzygies(gens: Sequence[Vector], ring: RingSpec,
             rank: int) -> "PolyMatrix":
    """Matrix whose columns generate the relations among gens: the reduced
    basis ``syzygies_mod`` gives for gens modulo no columns."""
    return syzygies_mod(PolyMatrix.from_columns(ring, rank, gens),
                        PolyMatrix.zeros(ring, rank, 0))


# -- polynomial matrices -----------------------------------------------------------

class PolyMatrix:
    """Immutable matrix over the polynomial ring; rows-major storage.  Its
    hash is kept in ``_hash`` on first use, as ``Poly``'s is; the reduced
    basis of its columns is cached under the matrix (``span``)."""

    __slots__ = ("ring", "nrows", "ncols", "rows", "_hash")

    def __init__(self, ring: RingSpec, nrows: int, ncols: int,
                 rows: Iterable[Iterable[Poly]]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("matrix shape mismatch")
        for row in rows:  # entries mostly share the ring object itself
            for p in row:
                if p.ring is not ring and p.ring != ring:
                    raise ValueError("ring mismatch")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    @staticmethod
    def zeros(ring: RingSpec, nrows: int, ncols: int) -> "PolyMatrix":
        z = Poly.zero(ring)
        return PolyMatrix(ring, nrows, ncols,
                          tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "PolyMatrix":
        one = Poly.one(ring)
        z = Poly.zero(ring)
        return PolyMatrix(ring, n, n,
                          tuple(tuple(one if i == j else z for j in range(n))
                                for i in range(n)))

    @staticmethod
    def from_columns(ring: RingSpec, nrows: int,
                     columns: Sequence[Vector]) -> "PolyMatrix":
        for c in columns:
            if c.rank != nrows:
                raise ValueError("column rank mismatch")
        return PolyMatrix(ring, nrows, len(columns),
                          tuple(tuple(c.entries[i] for c in columns)
                                for i in range(nrows)))

    def at(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return Vector(self.ring, (self.rows[i][j] for i in range(self.nrows)))

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    @property
    def span(self) -> GrobnerBasis:
        """The reduced basis of the column span, a submodule of
        R^nrows: ``buchberger`` of the columns, cached under ("span",
        matrix), so an equal matrix built elsewhere reads the same basis
        (``cached``).  The one lookup of a relation matrix's basis in the
        engine."""
        return cached(("span", self), lambda: buchberger(
            self.columns(), ring=self.ring, rank=self.nrows))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.ncols, self.nrows,
                          tuple(tuple(self.rows[i][j] for i in range(self.nrows))
                                for j in range(self.ncols)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.rows for p in row)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          tuple(tuple(a + b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._shape_check(other)
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          tuple(tuple(a - b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, f: Poly) -> "PolyMatrix":
        return PolyMatrix(self.ring, self.nrows, self.ncols,
                          tuple(tuple(a * f for a in r) for r in self.rows))

    def _shape_check(self, other: "PolyMatrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        cols = [[r[j] for r in other.rows] for j in range(other.ncols)]
        return PolyMatrix(self.ring, self.nrows, other.ncols,
                          ([sum_of_products(self.ring, zip(row, col))
                            for col in cols] for row in self.rows))

    def mul_vec(self, v: Vector) -> Vector:
        if v.rank != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        return Vector(self.ring, (sum_of_products(self.ring, zip(row, v.entries))
                                  for row in self.rows))

    @staticmethod
    def hstack(a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        if a.nrows != b.nrows:
            raise ValueError("row count mismatch in hstack")
        return PolyMatrix(a.ring, a.nrows, a.ncols + b.ncols,
                          tuple(r1 + r2 for r1, r2 in zip(a.rows, b.rows)))

    @staticmethod
    def vstack(a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        if a.ncols != b.ncols:
            raise ValueError("column count mismatch in vstack")
        return PolyMatrix(a.ring, a.nrows + b.nrows, a.ncols, a.rows + b.rows)

    @staticmethod
    def block_diag(ring: RingSpec, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        z = Poly.zero(ring)
        rows = []
        col_off = 0
        for b in blocks:
            for r in b.rows:
                rows.append((z,) * col_off + tuple(r)
                            + (z,) * (ncols - col_off - b.ncols))
            col_off += b.ncols
        return PolyMatrix(ring, nrows, ncols, tuple(rows))

    @staticmethod
    def kron(a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        if a.ring != b.ring:
            raise ValueError("ring mismatch")
        z = Poly.zero(a.ring)
        rows = []
        for i in range(a.nrows):
            for k in range(b.nrows):
                row = []
                for j in range(a.ncols):
                    for l in range(b.ncols):
                        x, y = a.rows[i][j], b.rows[k][l]
                        row.append(x * y if x.terms and y.terms else z)
                rows.append(tuple(row))
        return PolyMatrix(a.ring, a.nrows * b.nrows, a.ncols * b.ncols,
                          tuple(rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, self.nrows, self.ncols, self.rows))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self) -> str:
        return ("[" + ", ".join("[" + ", ".join(str(p) for p in row) + "]"
                                for row in self.rows) + "]")

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols}, {self})"


# The rank certificate of ``_independent_at_point``: x_i is sent to
# 2i + 3, so to (3, 5, 7, ...), and every value is taken modulo the prime
# 2^61 - 1.  Module constants, not options: they decide which kernels
# skip an elimination, never a kernel.
_POINT_START, _POINT_STEP = 3, 2
_POINT_PRIME = (1 << 61) - 1


def _independent_at_point(a: PolyMatrix) -> bool:
    """True when a's columns stay linearly independent over F_p after
    x_i -> ``_POINT_START`` + i * ``_POINT_STEP``, p = ``_POINT_PRIME``.

    Then a maximal minor of a is nonzero at that point modulo p, so is a
    nonzero polynomial, and over the domain R the map a is injective
    (McCoy, "Remarks on divisors of zero", Amer. Math. Monthly 49, 1942).
    Each coefficient is read as numerator * denominator^-1 mod p and each
    power as ``pow(pt, e, p)``, so a huge exponent costs its bit length.
    False, and the caller eliminates as usual, for more columns than rows,
    for a dependent reading, or for a denominator p divides: a False never
    says the columns are dependent."""
    k, n = a.nrows, a.ncols
    if n > k:
        return False
    p = _POINT_PRIME
    point = range(_POINT_START, _POINT_START + _POINT_STEP * a.ring.nvars,
                  _POINT_STEP)
    values = {}

    def value(f: Poly) -> int:
        total = 0
        for exps, c in f.terms:
            v = values.get(exps)
            if v is None:
                v = 1
                for x, e in zip(point, exps):
                    if e:
                        v = v * pow(x, e, p) % p
                values[exps] = v
            d = c.denominator
            total += c.numerator * v * (pow(d, -1, p) if d != 1 else 1)
        return total % p

    pivots: List[Tuple[int, List[int]]] = []
    try:
        for j in range(n):
            col = [value(a.rows[i][j]) for i in range(k)]
            for at, row in pivots:
                f = col[at]
                if f:
                    col = [(x - f * y) % p for x, y in zip(col, row)]
            at = next((i for i, x in enumerate(col) if x), None)
            if at is None:
                return False
            inv = pow(col[at], -1, p)
            pivots.append((at, [x * inv % p for x in col]))
    except ValueError:  # a denominator divisible by p
        return False
    return True


def syzygies_mod(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Columns generating {c : a*c lies in the column span of b}.

    They are the reduced basis of that submodule, read off one elimination
    (``_eliminate``): no cofactors are tracked and nothing is
    re-completed.  Every column c is multiplied out again and a*c must lie
    in ``b.span`` (``GrobnerBasis.first_product_outside``), else
    ``RuntimeError``.  For a free target, b with no nonzero column, whose
    a has independent columns at a point modulo a prime
    (``_independent_at_point``), the submodule is zero and no elimination
    runs: the reading is exact, and any other reading eliminates.  The
    result is computed once per exact (a, b) (``cached``), and the basis
    it was read off is cached as its ``span``.
    """
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    ring = a.ring

    def build() -> PolyMatrix:
        if b.is_zero() and _independent_at_point(a):
            gb = GrobnerBasis(ring, a.ncols, ())
        else:
            gb = _eliminate(a, b)
        c = PolyMatrix.from_columns(ring, a.ncols, gb.gens)
        if c.ncols and b.span.first_product_outside(a, c) is not None:
            raise RuntimeError("uncertified syzygy")
        cached(("span", c), lambda: gb)
        return c

    return cached(("syzygies_mod", a, b), build)


def colon_ideal(v: Vector, b: PolyMatrix) -> GrobnerBasis:
    """Rank-1 reduced basis of the ideal {r in R : r*v lies in span(b)}.

    Let N = span(b) in R^k and j the position of v's first nonzero entry.
    For j = 0, or v zero, the ideal is the kernel ``syzygies_mod`` gives
    for the one-column matrix of v, so its generators are multiplied out
    again; the cached ``span`` of that kernel is returned.  Else r*v lies
    in N exactly when it lies in N_j = N ∩ (0^j ⊕ R^(k−j)), whose reduced
    basis is the part of ``b.span``, b's cached relation basis, leading
    at position j or later (``_IntBasis.trailing``).  For v = c*e_(k−1),
    c a nonzero constant, the ideal is that part itself, read off a basis
    ``_complete`` has certified, and nothing is completed.  Otherwise the
    rank-(k−j+1) module generated by N_j and [v_j .. v_(k−1); 1] is
    completed from the projection of N_j's basis, one position wider: new
    dicts and lists, so the cached basis is never touched.  That seed and
    [v_j .. v_(k−1); 1] must reduce to zero against the result, and the
    ideal is read off its elements leading in the last position, not
    multiplied out.  A j > 0 result is a new object on each call."""
    if v.rank != b.nrows:
        raise ValueError("rank mismatch")
    ring, k = v.ring, v.rank
    j = next((i for i, p in enumerate(v.entries) if p.terms), 0)
    if not j:
        return syzygies_mod(PolyMatrix.from_columns(ring, k, [v]), b).span
    tail = v.entries[j:]
    if j == k - 1 and not tail[0].total_degree():
        return GrobnerBasis._of(ring, 1, b.span._basis.trailing(j, 1))
    full = _complete(b.span._basis.trailing(j, k - j + 1),
                     [tail + (Poly.one(ring),)])
    return GrobnerBasis._of(ring, 1, full.trailing(k - j, 1))


def _eliminate(a: PolyMatrix, b: PolyMatrix) -> GrobnerBasis:
    """Rank-n reduced basis of {c : a*c lies in the span of b}, a of shape
    k x n: the c of the elements [0; c] of ``_elimination(a, b)``, those
    leading in its last n positions, which have the lowest priority in
    position over term (the Elimination Theorem, in module form): nothing
    is re-completed.  The projection stays packed
    (``_IntBasis.trailing``).  For k = 0 it is the identity, and the
    elimination basis itself is returned.  Only ``syzygies_mod`` reads
    it, and multiplies it out."""
    k = a.nrows
    if not k:
        return _elimination(a, b)
    return GrobnerBasis._of(a.ring, a.ncols,
                            _elimination(a, b)._basis.trailing(k, a.ncols))


def _elimination(a: PolyMatrix, b: PolyMatrix) -> GrobnerBasis:
    """The rank-(k+n) reduced basis of the module generated by the vectors
    [a_i; e_i] and [b_j; 0], a_i and b_j the columns of a and b, that
    ``syzygies_mod`` and ``solve_mod`` read: for n = 0, ``b.span`` itself,
    the cached reduced basis of b's columns.  Else it is cached per exact
    (a, b), and completed (``_complete``) from an empty basis: b's
    columns enter first, at their own rank k, then the columns of [a; I],
    and each nonzero one must reduce to zero against the result.  No
    ``span`` is read, and no ``Vector`` is built."""
    ring, k, n = a.ring, a.nrows, a.ncols
    if not n:
        return b.span

    def build() -> GrobnerBasis:
        entering = _columns(b) + _columns(
            PolyMatrix.vstack(a, PolyMatrix.identity(ring, n)))
        start = _IntBasis(_Layout(ring.nvars, _degree(
            chain.from_iterable(entering))), k + n)
        return GrobnerBasis._of(ring, k + n, _complete(start, entering))

    return cached(("elimination", a, b), build)


def solve_mod(v: PolyMatrix, a: PolyMatrix,
              b: PolyMatrix) -> Optional[PolyMatrix]:
    """Matrix c with a*c = v modulo the column span of b, or None when a
    column of v has no such c_j.

    v_j leaves its normal form [r; -c_j] against ``_elimination(a, b)``
    (``_remainder``, which fits the basis once for all of v, so every c_j
    is read by one layout): r is zero exactly when c_j exists, and c_j is
    reduced modulo {c : a*c in span b}, whose reduced basis is that
    basis's part leading in its last n positions (``_eliminate``).  Each
    c_j is read straight into the rows of c, and the columns after the
    first without one are not reduced.  Then every a*c_j - v_j, column j
    of [a | v] times
    [c; -I], must lie in ``b.span``, b's cached basis
    (``GrobnerBasis.first_product_outside``), else ``RuntimeError``: no
    column of b is built again."""
    if a.nrows != b.nrows or v.nrows != a.nrows:
        raise ValueError("shape mismatch")
    ring, k, n = a.ring, a.nrows, a.ncols
    if not v.ncols:
        return PolyMatrix.zeros(ring, n, 0)
    elim = _elimination(a, b)._basis
    rows: List[List[Poly]] = [[] for _ in range(n)]
    for rem, scale in _remainder(_columns(v), elim):
        if rem and next(iter(rem)) >> elim.layout.pos_shift < k:
            return None
        for row, p in zip(rows, _polys(elim.layout, ring, rem, -scale, k, n)):
            row.append(p)
    c = PolyMatrix(ring, n, v.ncols, rows)
    if b.span.first_product_outside(PolyMatrix.hstack(a, v), PolyMatrix.vstack(
            c, -PolyMatrix.identity(ring, v.ncols))) is not None:
        raise RuntimeError("uncertified solution")
    return c
