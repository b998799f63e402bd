"""A textbook Groebner engine for submodules of Q[x1..xn]^k: the reference
that the tests compare ``malgrange.groebner`` with.

It shares no code with the engine's integer layer.  A vector is a dict
from (position, exponents) to ``Fraction``; terms are ordered position
over term (e1 > e2 > ...), over grevlex, by a key built here from
``GREVLEX.key``, and the leading term of a dict is found by a scan over
all its terms.  Division is the textbook reducer: the leading term of
what is left is reduced first, by the first divisor whose lead divides
it, in exact rational arithmetic.  Completion is Buchberger with the
chain criterion only (Buchberger, "A criterion for detecting unnecessary
reductions in the construction of Groebner bases", EUROSAM 1979), in its
textbook form: a same-position pair is skipped when a third element of that
position has a lead dividing the pair's lcm and neither of its pairs
with the two is still pending; every other pair is reduced, lowest lcm
degree first.  The result is then minimalized, tail-reduced and made monic, which gives
the unique reduced basis, listed with ascending leads as
``GrobnerBasis.gens`` lists it.  Kernels and lifts are read off the
elimination of the [a_i; e_i] and [b_j; 0] (Eisenbud, Commutative
Algebra, ch. 15).

Reduced bases, and normal forms against them, are unique, so the engine's
``buchberger``, ``syzygies_mod`` and ``solve_mod`` must equal the
functions below exactly.  Only the vectors, matrices and polynomials
passed in and returned are the engine's own types.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from malgrange.groebner import PolyMatrix, Vector
from malgrange.rings import GREVLEX, Poly

Term = Tuple[int, Tuple[int, ...]]
Terms = Dict[Term, Fraction]


# -- monomials and the term order ---------------------------------------------

def reference_key(pos: int, exps: Tuple[int, ...]) -> tuple:
    """POT over grevlex: a larger key is a larger term."""
    return (-pos, GREVLEX.key(exps))


@lru_cache(maxsize=1 << 16)
def _term_key(term: Term) -> tuple:
    return reference_key(*term)


def _divides(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _quotient(b: Tuple[int, ...], a: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(y - x for x, y in zip(a, b))


def _times(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _lcm(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


# -- vectors as term dicts ------------------------------------------------------

def _terms(v: Vector) -> Terms:
    return {(pos, exps): c for pos, poly in enumerate(v.entries)
            for exps, c in poly.terms}


def _vector(terms: Terms, ring, rank: int, start: int = 0) -> Vector:
    """The vector of entries start .. start+rank-1 of terms."""
    entries: List[list] = [[] for _ in range(rank)]
    for (pos, exps), c in terms.items():
        if start <= pos < start + rank:
            entries[pos - start].append((exps, c))
    return Vector(ring, [Poly(ring, e) for e in entries])


def reference_leading(v: Vector) -> Tuple[int, Tuple[int, ...], Fraction]:
    """(position, monomial, coefficient) of v's largest term."""
    terms = _terms(v)
    pos, exps = max(terms, key=_term_key)
    return pos, exps, terms[pos, exps]


def _lead(f: Terms) -> Term:
    return max(f, key=_term_key)


def _subtract(f: Terms, q: Fraction, shift: Tuple[int, ...],
              g: Terms) -> None:
    """f -= q * x^shift * g, in place."""
    for (pos, exps), c in g.items():
        key = (pos, _times(exps, shift))
        value = f.get(key, 0) - q * c
        if value:
            f[key] = value
        else:
            f.pop(key, None)


# -- division -------------------------------------------------------------------

def _reduce(f: Terms, basis: Sequence[Terms]) -> Tuple[Terms, list]:
    """(r, q): f = sum(q[i] * basis[i]) + r, by the textbook reducer;
    q[i] maps exponents to coefficients."""
    f = dict(f)
    leads = [_lead(g) for g in basis]
    quotients: List[dict] = [{} for _ in basis]
    rem: Terms = {}
    while f:
        t = _lead(f)
        for i, (pos, exps) in enumerate(leads):
            if pos == t[0] and _divides(exps, t[1]):
                q = f[t] / basis[i][pos, exps]
                shift = _quotient(t[1], exps)
                quotients[i][shift] = quotients[i].get(shift, 0) + q
                _subtract(f, q, shift, basis[i])
                break
        else:
            rem[t] = f.pop(t)
    return rem, quotients


def reference_divide(v: Vector,
                     basis: Sequence[Vector]) -> Tuple[Vector, List[Poly]]:
    """``groebner.divide``, textbook: v = sum(q[i] * basis[i]) + r."""
    rem, quotients = _reduce(_terms(v), [_terms(g) for g in basis])
    return (_vector(rem, v.ring, v.rank),
            [Poly(v.ring, q.items()) for q in quotients])


# -- Buchberger completion ------------------------------------------------------

def _monic(f: Terms) -> Terms:
    c = f[_lead(f)]
    return {t: a / c for t, a in f.items()}


def _s_vector(f: Terms, g: Terms) -> Terms:
    (pos, e), (_, h) = _lead(f), _lead(g)
    lcm = _lcm(e, h)
    s: Terms = {}
    _subtract(s, -1 / f[pos, e], _quotient(lcm, e), f)
    _subtract(s, 1 / g[pos, h], _quotient(lcm, h), g)
    return s


def _chained(i: int, j: int, leads: List[Term], pending: set) -> bool:
    """Whether the chain criterion skips the pair (i, j): some element k
    of the same position, neither i nor j, has a lead dividing the lcm of
    theirs, and neither (i, k) nor (j, k) is pending."""
    pos, lcm = leads[i][0], _lcm(leads[i][1], leads[j][1])
    return any(p == pos and k not in (i, j) and _divides(e, lcm)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (p, e) in enumerate(leads))


def _reduced_basis(gens: Sequence[Terms]) -> List[Terms]:
    """The reduced basis of what gens generate: Buchberger with the chain
    criterion (``_chained``), then minimalized, tail-reduced and monic,
    with ascending leads."""
    basis = [dict(g) for g in gens if g]
    leads = [_lead(g) for g in basis]
    pending = {(i, j) for j in range(len(basis)) for i in range(j)
               if leads[i][0] == leads[j][0]}
    while pending:
        i, j = min(pending, key=lambda pair: (
            sum(_lcm(leads[pair[0]][1], leads[pair[1]][1])), pair))
        pending.remove((i, j))
        if _chained(i, j, leads, pending):
            continue
        rem, _ = _reduce(_s_vector(basis[i], basis[j]), basis)
        if rem:
            lead = _lead(rem)
            pending.update((k, len(basis)) for k, t in enumerate(leads)
                           if t[0] == lead[0])
            basis.append(rem)
            leads.append(lead)
    basis.sort(key=lambda g: _term_key(_lead(g)))
    minimal: List[Terms] = []
    for g in basis:  # a lead's divisors are not larger than it
        pos, exps = _lead(g)
        if not any(p == pos and _divides(e, exps)
                   for p, e in map(_lead, minimal)):
            minimal.append(g)
    return [_monic(_reduce(g, minimal[:i] + minimal[i + 1:])[0])
            for i, g in enumerate(minimal)]


def reference_buchberger(gens: Sequence[Vector], ring,
                         rank: int) -> List[Vector]:
    """The reduced basis of the submodule of R^rank that gens generate."""
    return [_vector(g, ring, rank)
            for g in _reduced_basis([_terms(v) for v in gens])]


# -- eliminations: kernels and lifts -------------------------------------------

def _elimination(a: PolyMatrix, b: PolyMatrix) -> List[Terms]:
    """The reduced basis of the rank-(k+n) module generated by the
    [a_i; e_i] and [b_j; 0], a of shape k x n."""
    k, one = a.nrows, (0,) * a.ring.nvars
    return _reduced_basis(
        [{**_terms(a.column(i)), (k + i, one): Fraction(1)}
         for i in range(a.ncols)]
        + [_terms(b.column(j)) for j in range(b.ncols)])


def _kernel(elim: List[Terms], ring, k: int, n: int) -> List[Vector]:
    """The elements of an elimination basis leading in its last n
    positions, each with its first k entries, all zero, taken off."""
    return [_vector(g, ring, n, k) for g in elim if _lead(g)[0] >= k]


def reference_syzygies_mod(a: PolyMatrix, b: PolyMatrix) -> List[Vector]:
    """The reduced basis of {c : a*c lies in the column span of b}, read
    off the elimination (``_kernel``)."""
    return _kernel(_elimination(a, b), a.ring, a.nrows, a.ncols)


def reference_lifts(v: PolyMatrix, a: PolyMatrix,
                    b: PolyMatrix) -> List[Optional[Vector]]:
    """For each column v_j of v, the c_j with a*c_j = v_j modulo the span
    of b, or None: [v_j; 0] leaves its normal form [r; -c_j] against the
    elimination, and c_j exists exactly when r is zero."""
    ring, k, n = a.ring, a.nrows, a.ncols
    elim = _elimination(a, b)
    lifts: List[Optional[Vector]] = []
    for j in range(v.ncols):
        rem, _ = _reduce(_terms(v.column(j)), elim)
        lifts.append(None if any(pos < k for pos, _ in rem) else
                     _vector({t: -c for t, c in rem.items()}, ring, n, k))
    return lifts


def reference_solve_mod(v: PolyMatrix, a: PolyMatrix,
                        b: PolyMatrix) -> Optional[PolyMatrix]:
    """Matrix c with a*c = v modulo the span of b, or None when a column
    of v has no lift (``reference_lifts``)."""
    lifts = reference_lifts(v, a, b)
    if None in lifts:
        return None
    return PolyMatrix.from_columns(a.ring, a.ncols, lifts)


def reference_extended_buchberger(gens: Sequence[Vector], ring, rank: int,
                                  ) -> Tuple[List[Vector], List[List[Poly]],
                                             List[Vector]]:
    """(G, A, S) of ``groebner.extended_buchberger``, read off the reduced
    basis of the elimination of the [gens[i]; e_i]: its elements leading
    in the first rank positions are the [G[a]; A[a]], and S is its
    kernel."""
    m = len(gens)
    elim = _elimination(PolyMatrix.from_columns(ring, rank, gens),
                        PolyMatrix.zeros(ring, rank, 0))
    rows = [g for g in elim if _lead(g)[0] < rank]
    return ([_vector(g, ring, rank) for g in rows],
            [list(_vector(g, ring, m, rank).entries) for g in rows],
            _kernel(elim, ring, rank, m))
