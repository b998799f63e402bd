import random
import signal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import malgrange.groebner as groebner
from malgrange import corpus
from malgrange.groebner import (GrobnerBasis, PolyMatrix, SpanSolver,
                                Vector, buchberger, colon_ideal, divide,
                                extended_buchberger, syzygies,
                                syzygies_mod, solve_mod)
from malgrange.rings import Poly, mono_div, mono_divides, mono_mul, ring
from malgrange.modules import FPModule, Morphism, module_annihilator
from malgrange.parsing import parse_poly
from reference_engine import (reference_buchberger, reference_divide,
                              reference_extended_buchberger, reference_key,
                              reference_leading, reference_lifts,
                              reference_solve_mod, reference_syzygies_mod)

RX = ring("x")
RXY = ring("x", "y")


def vec(r, *texts):
    return Vector(r, [parse_poly(t, r) for t in texts])


def rand_vector(r, rng, rank, deg=2, terms=3):
    entries = []
    for _ in range(rank):
        p = Poly.zero(r)
        for _ in range(rng.randint(0, terms)):
            exps = [0] * r.nvars
            for _ in range(rng.randint(0, deg)):
                exps[rng.randrange(r.nvars)] += 1
            p = p + Poly.term(r, Fraction(rng.randint(-3, 3)), tuple(exps))
        entries.append(p)
    return Vector(r, entries)


# -- division ----------------------------------------------------------------

def test_division_univariate_exact():
    g = buchberger([vec(RX, "x")], ring=RX, rank=1)
    r, q = divide(vec(RX, "x^2"), list(g.gens))
    assert r.is_zero()
    assert q[0] == parse_poly("x", RX)


def test_division_pot_irreducible():
    basis = [vec(RXY, "x", "0"), vec(RXY, "0", "1")]
    r, _ = divide(vec(RXY, "y", "0"), basis)
    assert r == vec(RXY, "y", "0")


@pytest.mark.parametrize("divisors,match", [
    ([("x",)], "rank mismatch"),
    ([("x", "0"), ("0", "0")], "zero vector has no leading term"),
], ids=["rank-mismatch", "zero-divisor"])
def test_division_rank_mismatch(divisors, match):
    # divide stacks its divisors as [b_i; e_i] itself: a divisor of
    # another rank, or a zero one, which would lead past v's positions, is
    # an error
    with pytest.raises(ValueError, match=match):
        divide(vec(RX, "x", "1"), [vec(RX, *b) for b in divisors])


def test_division_identity_seeded():
    # 100 random cases: v = sum q_i g_i + r, re-multiplied exactly
    rng = random.Random(2024)
    for case in range(100):
        r_ring = RX if case % 2 else RXY
        rank = rng.randint(1, 3)
        basis = [rand_vector(r_ring, rng, rank) for _ in range(3)]
        basis = [b for b in basis if not b.is_zero()]
        if not basis:
            continue
        v = rand_vector(r_ring, rng, rank)
        rem, quots = divide(v, basis)
        acc = rem
        for qi, gi in zip(quots, basis):
            acc = acc + gi.poly_mul(qi)
        assert acc == v


R3 = ring("x", "y", "z")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_divide_matches_reference_reducer(seed, r):
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    basis = [rand_vector(r, rng, rank, deg=rng.randint(1, 3))
             for _ in range(rng.randint(1, 5))]
    basis = [b.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
             for b in basis if not b.is_zero()]
    v = rand_vector(r, rng, rank, deg=4, terms=6)
    if not basis:
        return
    assert divide(v, basis) == reference_divide(v, basis)
    # the cached form a basis keeps answers the same
    g = GrobnerBasis(r, rank, tuple(basis))
    assert g.normal_form(v) == reference_divide(v, basis)


def _differential_draw(r, rng):
    """rank + 1 generators of rank 1-3 over r, entries of degree up to 2.

    Over R3 such draws had a heavy tail of many-second completions while
    pairs were taken by lcm degree; under sugar the slowest known draws
    take a fraction of a second (see test_heavy_draws_complete_quickly)."""
    rank = rng.randint(1, 3)
    return [rand_vector(r, rng, rank, deg=rng.randint(1, 2))
            for _ in range(rank + 1)], rank


def combination(gens, coeffs, rank):
    """sum(coeffs[i] * gens[i]), a vector of the given rank."""
    acc = Vector.zero(gens[0].ring, rank)
    for c, gen in zip(coeffs, gens):
        acc = acc + gen.poly_mul(c)
    return acc


def assert_extended_contract(gens, rank, result):
    """(G, A, S) of extended_buchberger: G = A * gens row by row, and
    gens * S = 0 column by column."""
    g, cofs, syz = result
    assert [combination(gens, row, rank) for row in cofs] == list(g.gens)
    assert all(combination(gens, s.entries, rank).is_zero() for s in syz)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_extended_buchberger_matches_the_reference(seed, r):
    # G, A and S are read off the reduced basis of the elimination of the
    # [gens[i]; e_i], which is unique: each must equal the reference's
    gens, rank = _differential_draw(r, random.Random(seed))
    result = extended_buchberger(gens, ring=r, rank=rank)
    assert_extended_contract(gens, rank, result)
    g, cofs, syz = result
    assert (list(g.gens), cofs, syz) == reference_extended_buchberger(
        gens, r, rank)


def _alarm(signum, frame):
    raise TimeoutError("completion ran past its alarm")


# draws of _differential_draw over R3 that took over 120 s in buchberger
# or extended_buchberger with pairs taken by lcm degree
HEAVY_SEEDS = [1940, 3355, 5329, 8028, 11597]


@pytest.mark.parametrize("seed", HEAVY_SEEDS)
def test_heavy_draws_complete_quickly(seed):
    gens, rank = _differential_draw(R3, random.Random(seed))
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)  # a regression fails here instead of hanging
    try:
        groebner._CACHE.clear()
        untracked = buchberger(gens, ring=R3, rank=rank)
        result = extended_buchberger(gens, ring=R3, rank=rank)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result[0].gens == untracked.gens
    assert_extended_contract(gens, rank, result)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.integers(0, 3))
def test_leading_is_the_largest_term(seed, r, zeros):
    # the first `zeros` entries are zero, so the lead sits further down
    rng = random.Random(seed)
    v = rand_vector(r, rng, rng.randint(1, 3), deg=rng.randint(0, 4),
                    terms=5)
    v = Vector(r, (Poly.zero(r),) * zeros + v.entries)
    if v.is_zero():
        with pytest.raises(ValueError, match="zero vector"):
            v.leading()
        return
    assert v.leading() == reference_leading(v)


# -- packed terms ----------------------------------------------------------------

# exponents at and past the narrowest field (7 value bits), and far past it
_EXPONENTS = st.one_of(st.integers(0, 3), st.integers(120, 260),
                       st.integers(0, 2**21))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RX, RXY, R3]), st.data())
def test_packed_terms_order_multiply_and_divide_as_tuples(r, data):
    monomials = st.tuples(*[_EXPONENTS] * r.nvars)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 6), monomials),
                               min_size=2, max_size=6))
    factor = data.draw(monomials)
    zero = (0,) * r.nvars
    # sized, as the reducer's layouts are, from the degrees present: here
    # every product below
    layout = groebner._Layout(r.nvars, max(sum(mono_mul(e, factor))
                                           for _, e in terms))
    pack = layout.pack
    keys = [pack(pos, e) for pos, e in terms]
    for (pos, e), k in zip(terms, keys):
        assert layout.unpack(k) == (pos, e)
        assert layout.degree(k) == sum(e)
        # multiplying by a monomial adds its packed quotient over 1
        assert (pack(pos, mono_mul(e, factor))
                == k + pack(0, factor) - pack(0, zero))
    for (pa, ea), ka in zip(terms, keys):
        for (pb, eb), kb in zip(terms, keys):
            # a smaller key is a larger term
            assert (ka < kb) == (reference_key(pa, ea) > reference_key(pb, eb))
            assert (ka == kb) == ((pa, ea) == (pb, eb))
            if pa == pb:
                assert layout.divides(ka, kb) == mono_divides(ea, eb)
                if mono_divides(ea, eb):  # the borrow-free difference
                    assert kb - ka == pack(0, mono_div(eb, ea)) - pack(0, zero)
    # a wider layout keeps every term, and their order
    wider = groebner._Layout(r.nvars, 2 * layout.top)
    assert wider.width > layout.width
    widened = [wider.repack(k, layout) for k in keys]
    assert widened == [wider.pack(pos, e) for pos, e in terms]
    assert sorted(range(len(keys)), key=widened.__getitem__) == \
        sorted(range(len(keys)), key=keys.__getitem__)


def _widenings(monkeypatch):
    """The (old width, new width, rank) of every basis widened from now."""
    seen = []
    original = groebner._IntBasis.fit

    def fit(self, degree):
        old = original(self, degree)
        if old is not None:
            seen.append((old.width, self.layout.width, self.rank))
        return old

    monkeypatch.setattr(groebner._IntBasis, "fit", fit)
    return seen


def test_a_dividend_past_the_field_width_widens_the_basis(monkeypatch):
    # low-degree divisors pack in the narrowest layout; the dividend's
    # degree, 2^20 + 5, needs fields 23 bits wide, and its quotients and
    # remainder keep that degree
    n = 2**20
    gens = [vec(RXY, "x*y - 1", "x^2"), vec(RXY, "0", "y^3 + x")]
    v = vec(RXY, f"x^{n}*y^2 + y", f"x^{n}*y^5 + 3*x*y")
    want = reference_divide(v, gens)
    assert max(p.total_degree() for p in want[0].entries) >= n
    widened = _widenings(monkeypatch)
    assert divide(v, gens) == want
    g = GrobnerBasis(RXY, 2, tuple(gens))
    assert g.reduce(v) == want[0]
    assert not g.contains(v)
    member = gens[0].poly_mul(parse_poly(f"x^{n}", RXY))
    assert reference_divide(member, gens)[0].is_zero()
    assert g.contains(member)
    assert g.normal_form(member) == reference_divide(member, gens)
    # the rank-4 bases [b_i; e_i] of divide and normal_form, and g's own
    # basis once
    assert [(old, rank) for old, _, rank in widened] == [(8, 4), (8, 2),
                                                        (8, 4)]
    assert all(new > 22 for _, new, _ in widened)


def test_cofactor_rows_past_the_field_width_widen_the_completion(
        monkeypatch):
    # the inputs' degree (61) sizes the first layout; the cofactors reach
    # degree 89 while no element of the basis passes 31, and the S-vectors
    # of the rank-3 elimination of the [gens[i]; e_i] carry them past that
    # layout
    gens = [vec(RXY, "x^61 + 1"), vec(RXY, "x^60 + y")]
    widened = _widenings(monkeypatch)
    result = extended_buchberger(gens, ring=RXY, rank=1)
    g, cofs, syz = result
    assert any(rank == 3 for _, _, rank in widened)
    assert max(c.total_degree() for row in cofs for c in row if c.terms) > \
        max(v.entries[0].total_degree() for v in g.gens)
    assert_extended_contract(gens, 1, result)
    assert syz and syz == reference_syzygies_mod(
        PolyMatrix.from_columns(RXY, 1, gens), PolyMatrix.zeros(RXY, 1, 0))
    groebner._CACHE.clear()
    assert buchberger(gens).gens == g.gens


def test_widening_before_every_s_vector_changes_no_result(monkeypatch):
    # a pending pair's lcm is packed by whatever layout the basis has
    # when the pair is popped; widen the basis before every S-vector, so
    # that pairs are popped after a widening: the pairs must come in the
    # same order and every result must stay the same
    gens = [vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y", "y^2 - 1"),
            vec(RXY, "y^2", "x + 1")]
    original = groebner._s_vector
    pairs, widen = [], []

    def recording(basis, i, j, m):
        pairs.append((i, j))
        if widen:  # m is packed by the layout the basis had until now
            old = basis.layout
            basis.fit(old.top + 1)
            m = basis.layout.repack(m, old)
        return original(basis, i, j, m)

    def complete():
        pairs.clear()
        groebner._CACHE.clear()
        return extended_buchberger(gens, ring=RXY, rank=2), buchberger(gens)

    monkeypatch.setattr(groebner, "_s_vector", recording)
    want, want_pairs = complete(), list(pairs)
    widen.append(True)
    widened = _widenings(monkeypatch)
    (g, cofs, syz), gb = complete()
    assert pairs == want_pairs
    assert len(widened) == len(pairs)
    assert ((g, cofs, syz), gb) == want


def test_an_s_vector_past_the_field_width_widens_the_basis():
    # both leads and their lcm (degree 120) fit 8-bit fields, but the tail
    # of the first element exceeds its lead's degree by 60, so the
    # S-vector [0, y^180] does not: packing the lcm for it widens first
    layout = groebner._Layout(RXY.nvars, 0)
    assert layout.top == 127
    basis = groebner._IntBasis(layout, 2)
    gens = [vec(RXY, "x^60", "y^120"), vec(RXY, "y^60", "0")]
    for terms in groebner._pack(layout, [v.entries for v in gens])[1]:
        basis.add(terms, min(terms))
    lcm = layout.lcm_exps(basis.leads[0], basis.leads[1])
    s = groebner._s_vector(basis, 0, 1, basis.lcm_key(0, lcm))
    assert basis.layout.top > 180
    want = (gens[0].poly_mul(parse_poly("y^60", RXY))
            - gens[1].poly_mul(parse_poly("x^60", RXY)))
    assert want == vec(RXY, "0", "y^180")
    # both leads have coefficient 1, so the S-vector is not scaled
    assert groebner._vector(basis.layout, RXY, 2, s, 1) == want


def test_a_pair_key_orders_as_its_packed_lcm():
    # under any layout that holds it, the packed lcm orders pairs of one
    # sugar; the exponent key must order them the same way, layout-free
    rng = random.Random(3030)
    for nvars in (1, 2, 3):
        narrow, wide = groebner._Layout(nvars, 0), groebner._Layout(nvars, 500)
        assert narrow.top >= 3 * 40 and wide.top > narrow.top
        for _ in range(200):
            a, b = [(rng.randint(0, 6), rng.randint(0, 3),
                     tuple(rng.randint(0, 40) for _ in range(nvars)))
                    for _ in range(2)]
            keys = [groebner._pair(sugar, pos, lcm, 0, 1)[0]
                    for sugar, pos, lcm in (a, b)]
            for layout in (narrow, wide):
                packed = [(sugar, -layout.pack(pos, lcm))
                          for sugar, pos, lcm in (a, b)]
                assert ((keys[0] > keys[1]) - (keys[0] < keys[1])
                        == (packed[0] > packed[1]) - (packed[0] < packed[1]))


def test_a_pair_is_pushed_unpacked_and_packed_when_popped():
    # the lcm x^100*y^100 of the two leads has degree 200, past the top
    # (127) of the layout both vectors pack in: queuing the pair must
    # leave the basis as it is, and only popping it widens
    gens = [vec(RXY, "x^100"), vec(RXY, "y^100 + x")]
    layout = groebner._Layout(RXY.nvars, 0)
    assert layout.top == 127
    state = groebner._Completion(groebner._IntBasis(layout, 1))
    for terms in groebner._pack(layout, [v.entries for v in gens])[1]:
        state.add(terms, next(iter(terms)))
    assert state.pending and state.basis.layout.top == 127
    state.run()
    assert state.basis.layout.top >= 200
    got = groebner.GrobnerBasis._of(RXY, 1, groebner._interreduce(state.basis))
    assert got == buchberger(gens)


def test_normal_form_idempotent_and_membership():
    g = buchberger([vec(RXY, "x^2 - y"), vec(RXY, "x*y - 1")],
                   ring=RXY, rank=1)
    v = vec(RXY, "x^3*y + x")
    r, _ = g.normal_form(v)
    r2, _ = g.normal_form(r)
    assert r == r2
    assert g.contains(v) == r.is_zero()
    # an obvious member
    member = vec(RXY, "x^2 - y").poly_mul(parse_poly("x + y", RXY))
    assert g.contains(member)


# -- buchberger ---------------------------------------------------------------

def test_gb_univariate_gcd():
    g = buchberger([vec(RX, "x^2 - 1"), vec(RX, "x^3 - 1")], ring=RX, rank=1)
    assert [str(v) for v in g.gens] == ["[x - 1]"]


def test_gb_monomial_ideal():
    g = buchberger([vec(RXY, "x"), vec(RXY, "y")], ring=RXY, rank=1)
    assert sorted(str(v) for v in g.gens) == ["[x]", "[y]"]


def test_gb_koszul_rank2():
    g = buchberger([vec(RXY, "x", "0"), vec(RXY, "y", "0")],
                   ring=RXY, rank=2)
    assert sorted(str(v) for v in g.gens) == ["[x, 0]", "[y, 0]"]


def test_gb_product_criterion_unsound_for_modules():
    # leads x*e1 and y*e1 are "coprime" but the S-vector (0, y) survives:
    # the classical criterion must not discard it
    g = buchberger([vec(RXY, "x", "1"), vec(RXY, "y", "0")],
                   ring=RXY, rank=2)
    assert g.contains(vec(RXY, "0", "y"))


def test_gb_empty_input():
    g = buchberger([], ring=RX, rank=1)
    assert g.gens == ()


def test_gb_reduced_invariants():
    rng = random.Random(5)
    for _ in range(20):
        rank = rng.randint(1, 2)
        gens = [rand_vector(RXY, rng, rank) for _ in range(3)]
        g = buchberger(gens, ring=RXY, rank=rank)
        leads = [v.leading() for v in g.gens]
        # monic
        assert all(c == 1 for _, _, c in leads)
        # minimal: no lead divides another
        from malgrange.rings import mono_divides
        for (p1, e1, _), (p2, e2, _) in combinations(leads, 2):
            assert not (p1 == p2 and (mono_divides(e1, e2)
                                      or mono_divides(e2, e1)))
        # tail-reduced: each generator is its own normal form vs the others
        for i, v in enumerate(g.gens):
            others = [w for j, w in enumerate(g.gens) if j != i]
            r, _ = divide(v, others)
            assert r == v
        # leads strictly ascending: the gb command and AnnihilatorIdeal
        # list a basis largest lead first by reversing it
        keys = [reference_key(*reference_leading(v)[:2]) for v in g.gens]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_gb_all_s_vectors_reduce_to_zero():
    rng = random.Random(17)
    for _ in range(12):
        rank = rng.randint(1, 2)
        gens = [rand_vector(RXY, rng, rank) for _ in range(3)]
        g = buchberger(gens, ring=RXY, rank=rank)
        basis = list(g.gens)
        for v, w in combinations(basis, 2):
            pv, ev, cv = v.leading()
            pw, ew, cw = w.leading()
            if pv != pw:
                continue
            from malgrange.rings import mono_lcm, mono_div
            lcm = mono_lcm(ev, ew)
            s = (v.mul_term(Fraction(1, 1) / cv, mono_div(lcm, ev))
                 - w.mul_term(Fraction(1, 1) / cw, mono_div(lcm, ew)))
            r, _ = divide(s, basis)
            assert r.is_zero()


def test_gb_permutation_invariance():
    rng = random.Random(99)
    for _ in range(20):
        rank = rng.randint(1, 2)
        gens = [rand_vector(RXY, rng, rank) for _ in range(4)]
        g1 = buchberger(gens, ring=RXY, rank=rank)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        g2 = buchberger(shuffled, ring=RXY, rank=rank)
        assert g1.gens == g2.gens


def test_final_sweep_restarts_on_a_nonzero_s_vector(monkeypatch):
    # with every S-pair left unprocessed, the final sweep must find the
    # missing element and the resumed completion must end at the reduced
    # basis, with cofactors that still certify each element.
    # x^2 - y and x*y - 1 are interreduced but not a Groebner basis: the
    # sweep finds y^2 - x.  [x, 1] and [y, 0] leave [0, y], which leads in
    # a position where no other element leads, so it queues no pair: only
    # a second sweep, not an empty pair queue, may end the completion
    cases = [(1, [vec(RXY, "x^2 - y"), vec(RXY, "x*y - 1")],
              vec(RXY, "y^2 - x")),
             (2, [vec(RXY, "x", "1"), vec(RXY, "y", "0")],
              vec(RXY, "0", "y"))]
    expected = [buchberger(gens, ring=RXY, rank=rank)
                for rank, gens, _ in cases]
    assert str(expected[1]) == "{[0, y]; [y, 0]; [x, 1]}"
    monkeypatch.setattr(groebner._Completion, "run", lambda self: None)
    groebner._CACHE.clear()  # recompute instead of returning expected
    for (rank, gens, found), want in zip(cases, expected):
        assert found in want.gens
        assert buchberger(gens, ring=RXY, rank=rank).gens == want.gens
        g, cofs, _ = extended_buchberger(gens, ring=RXY, rank=rank)
        assert g.gens == want.gens
        for v, row in zip(g.gens, cofs):
            acc = Vector.zero(RXY, rank)
            for c, gen in zip(row, gens):
                acc = acc + gen.poly_mul(c)
            assert acc == v


def test_a_completion_that_loses_an_input_is_an_error(monkeypatch):
    # with every S-pair left unprocessed, minimalization drops x^2 + y
    # (x divides its lead) and the sweep, with one element, certifies
    # {x}: only the input check sees that x^2 + y leaves y against it,
    # and that [x^2 + y; 1, 0] leaves [y; 1, -x] in the elimination that
    # extended_buchberger reads
    gens = [vec(RXY, "x^2 + y"), vec(RXY, "x")]
    assert str(buchberger(gens)) == "{[y]; [x]}"
    monkeypatch.setattr(groebner._Completion, "run", lambda self: None)
    groebner._CACHE.clear()
    for complete in (buchberger, extended_buchberger):
        with pytest.raises(RuntimeError,
                           match="an input escaped its Groebner basis"):
            complete(gens)


# -- syzygies ------------------------------------------------------------------

def test_syzygy_of_two_variables():
    mat = syzygies([vec(RXY, "x"), vec(RXY, "y")], RXY, 1)
    assert mat.ncols >= 1
    gb = buchberger([mat.column(j) for j in range(mat.ncols)],
                    ring=RXY, rank=2)
    assert gb.contains(vec(RXY, "y", "-x"))
    # certified: gens . columns = 0
    gens_mat = PolyMatrix(RXY, 1, 2, [[parse_poly("x", RXY),
                                       parse_poly("y", RXY)]])
    assert (gens_mat * mat).is_zero()


def test_syzygy_of_single_nonzero_is_trivial():
    mat = syzygies([vec(RXY, "x^2 + y")], RXY, 1)
    assert all(mat.column(j).is_zero() for j in range(mat.ncols))


def test_syzygy_of_repeated_generator():
    mat = syzygies([vec(RX, "x"), vec(RX, "x")], RX, 1)
    gb = buchberger([mat.column(j) for j in range(mat.ncols)],
                    ring=RX, rank=2)
    assert gb.contains(vec(RX, "1", "-1"))


def test_syzygy_product_zero_seeded():
    rng = random.Random(31)
    for _ in range(15):
        rank = rng.randint(1, 2)
        gens = [rand_vector(RXY, rng, rank) for _ in range(3)]
        syz = syzygies(gens, RXY, rank)
        gens_mat = PolyMatrix(RXY, rank, len(gens),
                              [[g.entries[i] for g in gens]
                               for i in range(rank)])
        assert (gens_mat * syz).is_zero()


def test_span_solver_certificates():
    gens = [vec(RXY, "x^2", "0"), vec(RXY, "0", "y"), vec(RXY, "x", "y")]
    solver = SpanSolver(gens, RXY, 2)
    target = (gens[0].poly_mul(parse_poly("y", RXY))
              + gens[2].poly_mul(parse_poly("x - 1", RXY)))
    coeffs = solver.solve(target)
    assert coeffs is not None
    acc = Vector.zero(RXY, 2)
    for c, g in zip(coeffs, gens):
        acc = acc + g.poly_mul(c)
    assert acc == target
    assert solver.solve(vec(RXY, "1", "0")) is None


def test_span_solver_keeps_the_basis_its_completion_tagged(monkeypatch):
    # the solver reads both answers off the one cached elimination basis
    # of the [gens[i]; e_i]; packing a second basis would call
    # _IntBasis.of, and a second solver of the same generators completes
    # nothing
    gens = [vec(RXY, "x^2", "0"), vec(RXY, "0", "y"), vec(RXY, "x", "y")]
    a = PolyMatrix.from_columns(RXY, 2, gens)
    none = PolyMatrix.zeros(RXY, 2, 0)
    lift = list(reference_lifts(PolyMatrix.from_columns(RXY, 2, gens[2:]), a,
                                none)[0].entries)
    syz = reference_syzygies_mod(a, none)
    calls = []
    original = groebner._IntBasis.of

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner._IntBasis, "of", staticmethod(counting))
    solver = SpanSolver(gens, RXY, 2)
    assert solver.solve(gens[2]) == lift and solver.syzygies() == syz
    assert calls == []
    starts = _recording_completions(monkeypatch)
    again = SpanSolver(gens, RXY, 2)
    assert again.solve(gens[2]) == lift and again.syzygies() == syz
    assert starts == [] and calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_span_solver_matches_the_reference_lift(seed, r):
    # solve is solve_mod modulo no columns: its lift is the normal form
    # that the reference reads off the elimination of the [gens[i]; e_i],
    # None exactly for non-members, and multiplies back to its vector
    rng = random.Random(seed)
    gens, rank = _differential_draw(r, rng)
    groebner._CACHE.clear()
    solver = SpanSolver(gens, r, rank)
    a = PolyMatrix.from_columns(r, rank, gens)
    none = PolyMatrix.zeros(r, rank, 0)
    span = buchberger(gens, ring=r, rank=rank)
    combos = []
    for _ in range(3):  # random combinations of the generators
        combos.append(combination(
            gens, [rand_vector(r, rng, 1).entries[0] for _ in gens], rank))
    vs = combos + [rand_vector(r, rng, rank) for _ in range(3)]
    lifts = [solver.solve(v) for v in vs]
    for v, got in zip(vs, lifts):
        assert (got is None) == (not span.contains(v))
        if v in combos:
            assert got is not None
        if got is not None:
            assert combination(gens, got, rank) == v
    want = reference_lifts(PolyMatrix.from_columns(r, rank, vs), a, none)
    assert lifts == [None if c is None else list(c.entries) for c in want]


def _tracked_cost_draw(extra_randint):
    # four rank-3 generators over R3 whose cofactor rows had 31 957 and
    # 65 898 terms when a tracked completion took pairs position first,
    # 1 136 and 3 654 by lcm degree, and 932 and 3 162 by sugar; read off
    # the reduced elimination they have 932 and 2 954
    rng = random.Random(296 * 7919)
    rank = rng.randint(1, 3)
    count = rank + (rng.randint(1, 1) if extra_randint else 1)
    return [rand_vector(R3, rng, rank, deg=rng.randint(1, 2))
            for _ in range(count)], rank


@pytest.mark.parametrize("extra_randint", [True, False],
                         ids=["first-draw", "second-draw"])
def test_tracked_completion_keeps_its_cofactors_small(extra_randint):
    # A is read off the reduced elimination of the [gens[i]; e_i], whose
    # tails are reduced in the cofactor positions too
    gens, rank = _tracked_cost_draw(extra_randint)
    groebner._CACHE.clear()
    result = extended_buchberger(gens, ring=R3, rank=rank)
    assert sum(len(c.terms) for row in result[1] for c in row) < 10_000
    assert_extended_contract(gens, rank, result)


# The syzygy certificates must be live: a corrupted row or a generator
# outside the basis span is an error, never a returned relation.

def test_a_corrupted_syzygy_row_is_not_certified(monkeypatch):
    # SpanSolver.syzygies reads the kernel of the elimination of the
    # [gens[i]; e_i]: a row [y + 1, -x] in place of [y, -x] must not come
    # back
    gens = [vec(RXY, "x"), vec(RXY, "y")]
    groebner._CACHE.clear()
    assert SpanSolver(gens, RXY, 1).syzygies() == [vec(RXY, "y", "-x")]
    original = groebner._eliminate
    seen = []

    def corrupted(a, b):
        gb = original(a, b)
        seen.append(gb)
        first = gb.gens[0] + Vector.unit(RXY, gb.rank, 0)
        return GrobnerBasis(RXY, gb.rank, (first,) + gb.gens[1:])

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner, "_eliminate", corrupted)
    with pytest.raises(RuntimeError, match="uncertified syzygy"):
        SpanSolver(gens, RXY, 1).syzygies()
    assert seen


def test_a_generator_outside_the_basis_span_is_an_error(monkeypatch):
    # with every S-pair left unprocessed, minimalization drops [x^2 + y;
    # 1, 0] (x divides its lead) from the elimination of the [gens[i];
    # e_i], and the sweep, with one element, certifies {[x; 0, 1]}: the
    # input check sees that the first generator leaves [y; 1, -x], and
    # neither answer comes back
    gens = [vec(RXY, "x^2 + y"), vec(RXY, "x")]
    monkeypatch.setattr(groebner._Completion, "run", lambda self: None)
    for ask in (lambda s: s.syzygies(), lambda s: s.solve(gens[0])):
        groebner._CACHE.clear()
        with pytest.raises(RuntimeError,
                           match="an input escaped its Groebner basis"):
            ask(SpanSolver(gens, RXY, 1))


def test_syzygies_mod_projection():
    # c with x*c in (x^2): c must lie in (x)
    a = PolyMatrix(RX, 1, 1, [[parse_poly("x", RX)]])
    b = PolyMatrix(RX, 1, 1, [[parse_poly("x^2", RX)]])
    result = syzygies_mod(a, b)
    gb = buchberger([result.column(j) for j in range(result.ncols)],
                    ring=RX, rank=1)
    assert gb.contains(vec(RX, "x"))
    assert not gb.contains(vec(RX, "1"))


def _syzygy_case(r, rng, shape):
    """(a, b) over r: random columns, or b with no or only zero columns, a
    with a zero column, or a and b with no rows."""
    rank = 0 if shape == "no rows" else rng.randint(1, 2)
    deg = 1 if r is R3 else 2
    a_cols = [rand_vector(r, rng, rank, deg=deg)
              for _ in range(rng.randint(1, 3))]
    b_cols = [rand_vector(r, rng, rank, deg=deg)
              for _ in range(rng.randint(1, 3))]
    if shape == "zero column of a":
        a_cols[rng.randrange(len(a_cols))] = Vector.zero(r, rank)
    elif shape == "b with no columns":
        b_cols = []
    elif shape == "b with zero columns":
        b_cols = [Vector.zero(r, rank)] * len(b_cols)
    return (PolyMatrix.from_columns(r, rank, a_cols),
            PolyMatrix.from_columns(r, rank, b_cols))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.sampled_from(["random", "b with no columns", "b with zero columns",
                        "zero column of a", "no rows"]))
def test_syzygies_mod_matches_the_tracked_route(seed, r, shape):
    # the tracked route is the reference engine's own elimination of the
    # [a_i; e_i] and [b_j; 0]: both sides are the reduced basis of one
    # module, so they are equal
    a, b = _syzygy_case(r, random.Random(seed), shape)
    groebner._CACHE.clear()
    got = syzygies_mod(a, b)
    assert got.columns() == reference_syzygies_mod(a, b)
    # the definition: each column c sends a into the span of b
    span = buchberger(b.columns(), ring=r, rank=a.nrows)
    assert all(span.contains(a.mul_vec(c)) for c in got.columns())
    if shape == "no rows":  # every c: the unit vectors, ascending
        n = a.ncols
        assert got.columns() == [Vector.unit(r, n, n - 1 - i)
                                 for i in range(n)]


def _free_target_case(r, rng, kind):
    """(a, b, full) with b free (no columns) and full whether a has full
    column rank over r.  "wide" has more columns than rows; "full" stacks
    an upper triangular block with a nonzero diagonal on random rows, its
    rows then mixed by an invertible constant matrix; "deficient" makes
    the last column of such an a a combination of the others; "singular
    at the point" multiplies a column of a full a by x - 3, which vanishes
    where the rank certificate evaluates (``groebner._POINT_START``)."""
    deg = 1 if r is R3 else 2
    n = rng.randint(1, 3)
    if kind == "wide":
        k = rng.randint(1, n)
        n += 1
        cols = [list(rand_vector(r, rng, k, deg=deg).entries)
                for _ in range(n)]
    else:
        k = n + rng.randint(0, 1)
        cols = []
        for j in range(n):
            top = list(rand_vector(r, rng, j, deg=deg).entries)
            pivot = Poly.zero(r)
            while pivot.is_zero():
                pivot = rand_vector(r, rng, 1, deg=deg).entries[0]
            cols.append(top + [pivot] + [Poly.zero(r)] * (n - 1 - j)
                        + list(rand_vector(r, rng, k - n, deg=deg).entries))
        mix = [[Poly.constant(r, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                if i != j else Poly.one(r) for j in range(k)]
               for i in range(k)]
        for i in range(k):  # unit lower triangular, so invertible
            for j in range(i + 1, k):
                mix[i][j] = Poly.zero(r)
        cols = [[sum((mix[i][t] * col[t] for t in range(k)), Poly.zero(r))
                 for i in range(k)] for col in cols]
        if kind == "deficient":
            last = [Poly.zero(r)] * k
            for col in cols[:-1]:
                f = rand_vector(r, rng, 1, deg=1).entries[0]
                last = [p + q * f for p, q in zip(last, col)]
            cols[-1] = last
        elif kind == "singular at the point":
            j = rng.randrange(n)
            cols[j] = [p * parse_poly("x - 3", r) for p in cols[j]]
    a = PolyMatrix(r, k, n, [[col[i] for col in cols] for i in range(k)])
    return a, PolyMatrix.zeros(r, k, 0), kind in ("full",
                                                  "singular at the point")


def _assert_free_target_kernel(a, b, full):
    groebner._CACHE.clear()
    got = syzygies_mod(a, b).columns()
    assert got == reference_syzygies_mod(a, b)
    # an empty kernel comes only from a matrix of full generic rank
    assert (got == []) == full


_FREE_TARGET_KINDS = ["wide", "full", "deficient", "singular at the point"]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.sampled_from(_FREE_TARGET_KINDS))
def test_the_rank_certificate_matches_the_reference_engine(seed, r, kind):
    # a free target's kernel is decided at a point modulo a prime when a
    # has independent columns there, and eliminated otherwise: both must
    # give the reference engine's reduced basis
    a, b, full = _free_target_case(r, random.Random(seed), kind)
    _assert_free_target_kernel(a, b, full)
    if kind == "singular at the point":
        assert not groebner._independent_at_point(a)


@pytest.mark.parametrize("seed", range(4))
def test_a_forced_full_rank_reading_fails_the_rank_certificate_test(
        monkeypatch, seed):
    # the test above sees the shortcut: a point test that reads full rank
    # for a deficient matrix gives an empty kernel, and the test fails
    a, b, full = _free_target_case(R3, random.Random(seed), "deficient")
    assert not full
    _assert_free_target_kernel(a, b, full)
    monkeypatch.setattr(groebner, "_independent_at_point", lambda a: True)
    with pytest.raises(AssertionError):
        _assert_free_target_kernel(a, b, full)


def test_a_denominator_the_prime_divides_is_eliminated():
    # the point test cannot read 1/p modulo p, so it reports no rank and
    # the kernel is eliminated: still zero
    p = groebner._POINT_PRIME
    a = PolyMatrix(RX, 1, 1, [[Poly.term(RX, Fraction(1, p), (1,))]])
    assert not groebner._independent_at_point(a)
    assert groebner._independent_at_point(a.scale(Poly.constant(RX, p)))
    groebner._CACHE.clear()
    assert syzygies_mod(a, PolyMatrix.zeros(RX, 1, 0)).ncols == 0
    assert ("elimination", a, PolyMatrix.zeros(RX, 1, 0)) in groebner._CACHE


def test_a_huge_exponent_is_read_at_the_point_quickly():
    # powers are taken modulo the prime, so x^(10^9) costs its bit length
    a = PolyMatrix(RXY, 2, 2, [[parse_poly("x^1000000000", RXY),
                                parse_poly("y", RXY)],
                               [parse_poly("1", RXY),
                                parse_poly("y^999999999", RXY)]])
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)  # a regression fails here instead of hanging
    try:
        assert groebner._independent_at_point(a)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_syzygies_mod_runs_no_tracked_completion(monkeypatch):
    calls = []
    original = groebner.extended_buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "extended_buchberger", counting)
    groebner._CACHE.clear()
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x", "y"),
                                         vec(RXY, "y^2", "x - 1")])
    b = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x^2 - y", "x")])
    assert syzygies_mod(a, b).ncols > 0
    assert calls == []


def test_a_corrupted_elimination_row_is_not_certified(monkeypatch):
    # c with x*c in (x^2) is (x); a row x + 1 must not come back
    a = PolyMatrix(RX, 1, 1, [[parse_poly("x", RX)]])
    b = PolyMatrix(RX, 1, 1, [[parse_poly("x^2", RX)]])
    original = groebner._eliminate

    def corrupted(a, b):
        gb = original(a, b)
        first = gb.gens[0] + Vector.unit(RX, gb.rank, 0)
        return GrobnerBasis(RX, gb.rank, (first,) + gb.gens[1:])

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner, "_eliminate", corrupted)
    with pytest.raises(RuntimeError, match="uncertified syzygy"):
        syzygies_mod(a, b)


def test_solve_mod_finds_witness():
    a = PolyMatrix(RX, 1, 1, [[parse_poly("x", RX)]])
    b = PolyMatrix(RX, 1, 1, [[parse_poly("x^3", RX)]])
    v = vec(RX, "x^2")
    sol = solve_mod(PolyMatrix.from_columns(RX, 1, [v]), a, b)
    assert (sol.nrows, sol.ncols) == (1, 1)
    # residual v - a*c must lie in the column span of b
    residual = v - a.column(0).poly_mul(sol.at(0, 0))
    assert buchberger(b.columns(), ring=RX, rank=1).contains(residual)
    # one column without a solution is enough for None
    assert solve_mod(PolyMatrix.from_columns(RX, 1, [v, vec(RX, "1")]),
                     a, b) is None
    # no columns: the n x 0 matrix, and nothing is built
    a2 = PolyMatrix.hstack(a, a)
    groebner._CACHE.clear()
    assert solve_mod(PolyMatrix.zeros(RX, 1, 0), a2, b) == PolyMatrix.zeros(
        RX, 2, 0)
    assert not groebner._CACHE


def _solve_case(r, rng, shape, solvable):
    """(v, a, b) over r, v with 0 to 3 columns: each is a*c0 + b*d0 when
    solvable, else that or a random vector by a coin flip; a or b may
    have no columns."""
    rank = rng.randint(1, 2)
    deg = 1 if r is R3 else 2
    a_cols = [rand_vector(r, rng, rank, deg=deg)
              for _ in range(rng.randint(1, 3))]
    b_cols = [rand_vector(r, rng, rank, deg=deg)
              for _ in range(rng.randint(1, 3))]
    if shape == "a with no columns":
        a_cols = []
    elif shape == "b with no columns":
        b_cols = []
    vs = []
    for _ in range(rng.randint(0, 3)):
        v = Vector.zero(r, rank)
        for col in a_cols + b_cols:
            v = v + col.poly_mul(rand_vector(r, rng, 1, deg=1).entries[0])
        if not solvable and rng.random() < 0.5:
            v = rand_vector(r, rng, rank, deg=deg)
        vs.append(v)
    return (PolyMatrix.from_columns(r, rank, vs),
            PolyMatrix.from_columns(r, rank, a_cols),
            PolyMatrix.from_columns(r, rank, b_cols))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.sampled_from(["random", "a with no columns", "b with no columns"]),
       st.booleans())
def test_solve_mod_matches_the_tracked_solver(seed, r, shape, solvable):
    # solve_mod reads the elimination basis of (a, b); the reference
    # engine's own elimination of the [a_i; e_i] and [b_j; 0] gives the
    # same normal form [0; -c_j] for each column, since both bases are
    # reduced
    v, a, b = _solve_case(r, random.Random(seed), shape, solvable)
    groebner._CACHE.clear()
    got = solve_mod(v, a, b)
    assert got == reference_solve_mod(v, a, b)
    if solvable:
        assert got is not None
    if got is not None:
        assert (got.nrows, got.ncols) == (a.ncols, v.ncols)
        span = buchberger(b.columns(), ring=r, rank=a.nrows)
        for j in range(v.ncols):
            assert span.contains(v.column(j) - a.mul_vec(got.column(j)))


def test_a_corrupted_elimination_basis_gives_no_solution(monkeypatch):
    # x*c = x^2 mod (x^3) is read off the basis {[0; x^2], [x; 1]} as
    # c = x; with [x; 2] in its place the reading is 2x, and x^2 - 2x^2
    # is not in (x^3): that answer must not come back
    a = PolyMatrix(RX, 1, 1, [[parse_poly("x", RX)]])
    b = PolyMatrix(RX, 1, 1, [[parse_poly("x^3", RX)]])
    v = PolyMatrix(RX, 1, 1, [[parse_poly("x^2", RX)]])
    groebner._CACHE.clear()
    assert solve_mod(v, a, b) == PolyMatrix(RX, 1, 1, [[parse_poly("x", RX)]])
    original = groebner._elimination

    def corrupted(a, b):
        gb = original(a, b)
        assert gb.gens == (vec(RX, "0", "x^2"), vec(RX, "x", "1"))
        return GrobnerBasis(RX, gb.rank, (gb.gens[0], vec(RX, "x", "2")))

    monkeypatch.setattr(groebner, "_elimination", corrupted)
    with pytest.raises(RuntimeError, match="uncertified solution"):
        solve_mod(v, a, b)



def test_a_wide_column_is_solved_as_it_is_alone():
    # v's second column has degree past the top of the elimination basis,
    # which solve_mod widens once, before any column is read: every
    # column is then read by one layout, and each is the column that
    # solving it alone gives
    a = PolyMatrix(RXY, 1, 2, [[parse_poly("x", RXY), parse_poly("y", RXY)]])
    b = PolyMatrix(RXY, 1, 1, [[parse_poly("x^2 - y", RXY)]])
    c = PolyMatrix(RXY, 2, 2, [[parse_poly(t, RXY) for t in row] for row in
                               (["1", "x^200"], ["y", "x*y^150"])])
    v = a * c
    groebner._CACHE.clear()
    top = groebner._elimination(a, b)._basis.layout.top
    assert groebner._degree(v.column(1).entries) > top
    got = solve_mod(v, a, b)
    assert groebner._elimination(a, b)._basis.layout.top > top
    alone = []
    for col in v.columns():
        groebner._CACHE.clear()
        alone.append(solve_mod(PolyMatrix.from_columns(RXY, 1, [col]), a, b))
    assert None not in alone
    assert got == PolyMatrix.hstack(*alone)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_syzygies_match_the_tracked_solver(seed, r):
    # syzygies is syzygies_mod modulo nothing; the tracked route is the
    # reference engine's elimination of the [gens[i]; e_i]
    gens, rank = _differential_draw(r, random.Random(seed))
    groebner._CACHE.clear()
    got = syzygies(gens, r, rank)
    none = PolyMatrix.zeros(r, rank, 0)
    want = reference_syzygies_mod(PolyMatrix.from_columns(r, rank, gens),
                                  none)
    # the reduced basis itself
    assert got.columns() == want


def test_solve_mod_and_syzygies_run_no_tracked_completion(monkeypatch):
    calls = []
    original = groebner.extended_buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "extended_buchberger", counting)
    groebner._CACHE.clear()
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x", "y"),
                                         vec(RXY, "y^2", "x - 1")])
    b = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x^2 - y", "x")])
    assert solve_mod(a, a, b) is not None
    assert syzygies(a.columns() + b.columns(), RXY, 2).ncols > 0
    assert calls == []


# -- colon ideals ------------------------------------------------------------------

def _elimination_gens(v, b):
    """[v; 1] and the columns [b_j; 0]: the rank-(k+1) input whose reduced
    basis ``colon_ideal`` reads the ideal from."""
    one, zero = Poly.one(v.ring), Poly.zero(v.ring)
    return ([Vector(v.ring, v.entries + (one,))]
            + [Vector(v.ring, c.entries + (zero,)) for c in b.columns()])


def _tag_only(gb, k):
    return [w.entries[k] for w in gb.gens
            if all(w.entries[i].is_zero() for i in range(k))]


def _colon_case(r, rng, shape):
    """(v, b) over r: b has random, no or only zero columns, or v is drawn
    inside the span of b's columns; or, at rank 2 or 3, v's first entry is
    zero ("leading zero") or v is a nonzero constant times the last unit
    vector ("last unit")."""
    trailing = shape in ("leading zero", "last unit")
    rank = rng.randint(2, 3) if trailing else rng.randint(1, 2)
    deg = 1 if r is R3 else 2
    ncols = rng.randint(1, 3)
    cols = [rand_vector(r, rng, rank, deg=deg) for _ in range(ncols)]
    if shape == "no columns":
        cols = []
    elif shape == "zero columns":
        cols = [Vector.zero(r, rank)] * ncols
    b = PolyMatrix.from_columns(r, rank, cols)
    if shape == "v in span":
        v = Vector.zero(r, rank)
        for c in cols:
            v = v + c.poly_mul(rand_vector(r, rng, 1, deg=1).entries[0])
    elif shape == "leading zero":
        v = Vector(r, (Poly.zero(r),)
                   + rand_vector(r, rng, rank - 1, deg=deg).entries)
    elif shape == "last unit":
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        v = Vector.unit(r, rank, rank - 1).scale(c)
    else:
        v = rand_vector(r, rng, rank, deg=deg)
    return v, b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.sampled_from(["random", "no columns", "zero columns", "v in span",
                        "leading zero", "last unit"]))
def test_colon_ideal_matches_the_elimination_from_scratch(seed, r, shape):
    # the elimination from scratch is the reference engine's, which shares
    # no code with _complete or _IntBasis.trailing: a fault there cannot
    # pass both sides
    v, b = _colon_case(r, random.Random(seed), shape)
    k = v.rank
    groebner._CACHE.clear()
    basis = colon_ideal(v, b)
    got = [w.entries[0] for w in basis.gens]
    stored = len(groebner._CACHE)
    leading_zero = v.entries[0].is_zero() and not v.is_zero()
    if leading_zero:
        # such a v reads the trailing part of b's relation basis, which
        # is cached, and its ideal is not: asking for it again gives an
        # equal basis and stores nothing new
        assert colon_ideal(v, b) == basis
        assert len(groebner._CACHE) == stored
    column = PolyMatrix.from_columns(r, k, [v])
    eliminated = ("elimination", column, b) in groebner._CACHE
    elim = groebner._elimination(column, b)
    if eliminated:
        # the elimination is stored under its own key: asking for it
        # again is a hit and stores nothing new
        assert len(groebner._CACHE) == stored
    elif not leading_zero:
        # only a free target's kernel is decided with no elimination, at
        # a point where v is nonzero (syzygies_mod)
        assert b.is_zero() and not v.is_zero()
    assert list(elim.gens) == reference_buchberger(_elimination_gens(v, b),
                                                   r, k + 1)
    assert list(basis.gens) == reference_syzygies_mod(column, b)
    # the definition: each generator g sends v into the span of b
    span = reference_buchberger(b.columns(), r, k)
    assert all(reference_divide(v.poly_mul(g), span)[0].is_zero()
               for g in got)
    if shape in ("no columns", "zero columns") and not v.is_zero():
        assert got == []
    if shape == "v in span":
        assert got == [Poly.one(r)]
    # the elements read off the rank-(k+1) basis are already the reduced
    # basis of the ideal: completing them again changes nothing
    groebner._CACHE.clear()
    assert basis.rank == 1
    assert buchberger(basis.gens, ring=r, rank=1) == basis


@pytest.mark.parametrize("name", ["random-x-1", "random-xy-0"])
def test_module_annihilator_matches_the_elimination_from_scratch(name):
    m = dict(corpus.main_theorem_modules())[name]
    got = module_annihilator(m)
    n = m.ngens
    stacked = Vector(m.ring, [Poly.one(m.ring) if i == j else
                              Poly.zero(m.ring)
                              for j in range(n) for i in range(n)])
    big = PolyMatrix.block_diag(m.ring, [m.relations] * n)
    # the reference engine's kernel, a reduced basis listed with ascending
    # leads, as AnnihilatorIdeal lists its generators in reverse
    ideal = reference_syzygies_mod(
        PolyMatrix.from_columns(m.ring, n * n, [stacked]), big)
    assert got.gens == tuple(w.entries[0] for w in reversed(ideal))
    assert not got.is_zero()
    # the definition: each generator f kills every generator of m
    span = reference_buchberger(m.relations.columns(), m.ring, n)
    for f in got.gens:
        for i in range(n):
            assert reference_divide(Vector.unit(m.ring, n, i).poly_mul(f),
                                    span)[0].is_zero()


_DROPPING_SEED = [vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y", "y^2 - 1")]


def test_a_corrupted_annihilator_is_not_certified(monkeypatch):
    # v's first entry is nonzero: its ideal is the kernel that
    # syzygies_mod reads off the elimination of v and b, and multiplies
    # out.  r with r*x in (x^2) is (x); a generator x + 1 must not come
    # back
    v = vec(RX, "x")
    b = PolyMatrix(RX, 1, 1, [[parse_poly("x^2", RX)]])
    groebner._CACHE.clear()
    assert colon_ideal(v, b).gens == (vec(RX, "x"),)
    original = groebner._eliminate

    def corrupted(a, b):
        gb = original(a, b)
        first = gb.gens[0] + Vector.unit(RX, gb.rank, 0)
        return GrobnerBasis(RX, gb.rank, (first,) + gb.gens[1:])

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner, "_eliminate", corrupted)
    with pytest.raises(RuntimeError, match="uncertified syzygy"):
        colon_ideal(v, b)


def test_an_elimination_reads_no_span(monkeypatch):
    # an elimination completes b's columns itself, from an empty basis:
    # on a cold cache it looks up no column basis, b's or any other
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x", "y")])
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED + [Vector.zero(RXY, 2)])
    reads = []
    original = PolyMatrix.span

    def counting(self):
        reads.append(self)
        return original.fget(self)

    groebner._CACHE.clear()
    monkeypatch.setattr(PolyMatrix, "span", property(counting))
    elim = groebner._elimination(a, b)
    assert reads == []
    monkeypatch.undo()
    groebner._CACHE.clear()
    scratch = buchberger(_elimination_gens(a.column(0), b), ring=RXY, rank=3)
    assert elim.gens == scratch.gens


def _final_bases(monkeypatch):
    """The list that each later ``_complete`` call appends its final
    basis to."""
    finals = []
    original = groebner._complete

    def recording(*args):
        final = original(*args)
        finals.append(final)
        return final

    monkeypatch.setattr(groebner, "_complete", recording)
    return finals


def test_a_seeded_colon_ideal_ends_with_a_full_final_sweep(monkeypatch):
    # the starting basis is taken as closed under its own pairs, yet the
    # last sweep still reduces every same-position pair of the candidate,
    # the seed's own elements included, and adds nothing.  For v = [0, f]
    # the seed is the part of b's relation basis leading in position 1
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    v = vec(RXY, "0", "x + y")
    groebner._CACHE.clear()
    b.span  # the seed, cached
    sweeps = []
    original_sweep, original_s = groebner._Completion.sweep, groebner._s_vector

    def recording(self):
        n = len(self.basis)
        sweeps.append((n, []))
        rows = original_sweep(self)
        sweeps[-1] += (len(self.basis) - n,)
        return rows

    def counting(basis, i, j, m):
        if sweeps and len(sweeps[-1]) == 2:  # inside a sweep
            sweeps[-1][1].append((i, j))
        return original_s(basis, i, j, m)

    monkeypatch.setattr(groebner._Completion, "sweep", recording)
    monkeypatch.setattr(groebner, "_s_vector", counting)
    finals = _final_bases(monkeypatch)
    colon_ideal(v, b)
    assert len(finals) == 1  # the one seeded completion
    final = finals[0]
    pos = [lead >> final.layout.pos_shift for lead in final.leads]
    same = [(i, j) for i in range(len(pos)) for j in range(i + 1, len(pos))
            if pos[i] == pos[j]]
    assert same and sweeps[-1] == (len(pos), same, 0)


def test_a_seeded_colon_ideal_leaves_the_cached_basis_unchanged(monkeypatch):
    # the completion starts from the part of the cached relation basis of
    # b leading in position 1; it must extend a copy, never the integer
    # basis that cached object shares.  The completion ends with [x + y, 1]
    # and a second element leading in position 0, where elements of that
    # basis lead too, so appending to it would show in the fields below
    groebner._CACHE.clear()
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    v = vec(RXY, "0", "x + y")
    base = b.span
    probes = [v, vec(RXY, "x^3", "0"), vec(RXY, "x*y^2", "x*y"),
              vec(RXY, "y^3 + x", "x^2*y")]

    def state():
        basis = base._basis
        return (len(basis), basis.rank,
                {pos: len(els) for pos, els in basis.by_pos.items()},
                [base.normal_form(p) for p in probes])

    before = state()
    finals = _final_bases(monkeypatch)
    ideal = colon_ideal(v, b)
    assert b.span is base  # it was seeded
    final = GrobnerBasis._of(RXY, 2, finals[-1])
    assert [w.leading()[0] for w in final.gens] == [1, 0, 0]
    assert final.gens[1] == vec(RXY, "x + y", "1")
    assert ideal.gens == (vec(RXY, "x^2*y^2 - x^2*y - y^3 - x^2 + y"),)
    assert state() == before


def _recording_completions(monkeypatch):
    """The list that each later ``_complete`` call appends its start
    basis to."""
    starts = []
    original = groebner._complete

    def recording(start, *args):
        starts.append(start)
        return original(start, *args)

    monkeypatch.setattr(groebner, "_complete", recording)
    return starts


def test_the_ideal_of_a_last_unit_vector_is_read_off(monkeypatch):
    # r * c*e_(k-1) lies in N exactly when r*e_(k-1) does: with b's
    # relation basis cached, the ideal is that basis's part leading in
    # the last position, and nothing is completed
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    groebner._CACHE.clear()
    span = b.span
    starts = _recording_completions(monkeypatch)
    ideal = colon_ideal(vec(RXY, "0", "-3/2"), b)
    assert starts == []
    last = tuple(Vector(RXY, w.entries[1:]) for w in span.gens
                 if w.leading()[0] == 1)
    assert last and ideal.gens == last


def test_a_leading_zero_completes_at_the_trailing_rank(monkeypatch):
    # for v = [0, f] only the part of b's relation basis leading in
    # position 1 is completed, with [f; 1] entering: rank 2, where the
    # elimination of [v; 1] and the [b_j; 0] has rank 3
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    v = vec(RXY, "0", "x + y")
    groebner._CACHE.clear()
    b.span
    starts = _recording_completions(monkeypatch)
    ideal = colon_ideal(v, b)
    assert [start.rank for start in starts] == [2]
    monkeypatch.undo()
    groebner._CACHE.clear()
    scratch = buchberger(_elimination_gens(v, b), ring=RXY, rank=3)
    assert [w.entries[0] for w in ideal.gens] == _tag_only(scratch, 2)


@pytest.mark.parametrize("v", [("x", "y"), ("1", "0"), ("y", "x"),
                               ("0", "x")])
# the ids name b's relation basis, which seeds only the [0, x] case
@pytest.mark.parametrize("span_cached", [True, False],
                         ids=["seed cached", "seed uncached"])
def test_an_elimination_that_loses_an_input_is_an_error(monkeypatch, v,
                                                        span_cached):
    # with every S-pair left unprocessed, minimalization drops elements of
    # the candidate basis, and the final sweep then certifies the basis of
    # a smaller module: for [x, y] the ideal would be (x^2*y^4 - ...)
    # instead of (x^2*y^2 - ...).  For [x, y], [1, 0] and [y, x] the
    # elimination of [v; 1] and the columns [b_j; 0] starts empty: [v; 1]
    # itself still reduces to zero, the [b_j; 0] do not.  For [0, x] the
    # elements of b's relation basis leading in position 1 seed the
    # completion, and they do not reduce to zero either
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    groebner._CACHE.clear()
    if span_cached:  # b's relation basis, completed with pairs enabled
        b.span
    monkeypatch.setattr(groebner._Completion, "run", lambda self: None)
    with pytest.raises(RuntimeError,
                       match="an input escaped its Groebner basis"):
        colon_ideal(vec(RXY, *v), b)


def test_an_elimination_checks_every_generator(monkeypatch):
    # the same check, seen from inside: after the completion, each
    # nonzero generator of the rank-(k+1) module is reduced, in the form
    # all of them were packed in together, and in entering order (b's
    # columns first, then [v; 1]), against the final basis, zero columns
    # of b left out.  The checks are the last reductions against that
    # basis; before them only the final sweep's S-vectors are reduced
    # against it
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED + [Vector.zero(RXY, 2)])
    v = vec(RXY, "x", "y")
    groebner._CACHE.clear()
    reduced = []
    original = groebner._reduce

    def recording(p, basis, *args, **kwargs):
        reduced.append((dict(p), basis))
        return original(p, basis, *args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", recording)
    colon_ideal(v, b)
    monkeypatch.undo()
    a = PolyMatrix.from_columns(RXY, 2, [v])
    final = groebner._elimination(a, b)._basis  # a cache hit
    against_final = [p for p, basis in reduced if basis is final]
    gens = _elimination_gens(v, b)
    assert gens[3].is_zero()
    packed = groebner._pack(final.layout, [w.entries for w in gens])[1]
    assert against_final[-3:] == packed[1:3] + packed[:1]


def test_an_elimination_is_stored_under_one_key():
    # with b's reduced basis already cached, a cold elimination stores
    # itself under ("elimination", a, b) and nothing else: no plain
    # completion of the stacked generators is keyed, and no stacked
    # generator is built for a column of b
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x", "y")])
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    groebner._CACHE.clear()
    b.span
    before = set(groebner._CACHE)
    elim = groebner._elimination(a, b)
    assert set(groebner._CACHE) - before == {("elimination", a, b)}
    assert groebner._CACHE[("elimination", a, b)] is elim


def test_no_zero_block_is_built(monkeypatch):
    # a column of b is checked, and a dividend is reduced, at its own
    # rank, each packed straight from the matrix: an elimination builds
    # no vector at all, not even its generators [a_i; e_i], and solve_mod
    # on a cached elimination builds none either
    a = PolyMatrix.from_columns(RXY, 1, [vec(RXY, "x"), vec(RXY, "y")])
    b = PolyMatrix.from_columns(RXY, 1, [vec(RXY, "x^2 - y"),
                                         vec(RXY, "x*y")])
    v = PolyMatrix.from_columns(RXY, 1, [vec(RXY, "x^2"),
                                         vec(RXY, "x*y + y")])
    k, n = a.nrows, a.ncols
    ranks = []
    original = Vector.__init__

    def recording(self, ring, entries):
        original(self, ring, entries)
        ranks.append(self.rank)

    groebner._CACHE.clear()
    b.span
    monkeypatch.setattr(Vector, "__init__", recording)
    groebner._elimination(a, b)
    assert groebner._CACHE[("elimination", a, b)]._basis.rank == k + n
    assert ranks == []
    got = solve_mod(v, a, b)
    assert got is not None and ranks == []
    # SpanSolver.solve is solve_mod modulo no columns: on a cold cache its
    # elimination builds no generator [gens[i]; e_i], and nothing else of
    # their rank is built
    gens = _DROPPING_SEED
    solver = SpanSolver(gens, RXY, 2)
    groebner._CACHE.clear()
    ranks.clear()
    assert solver.solve(gens[0].poly_mul(parse_poly("y", RXY))) is not None
    assert solver.solve(vec(RXY, "1", "0")) is None
    assert ranks and 2 + len(gens) not in ranks


def test_an_elimination_with_no_columns_is_the_span_itself(monkeypatch):
    # for n = 0 the elimination is b's own reduced basis: syzygies_mod
    # completes once on a cold cache, and that certified basis is not
    # completed and swept a second time
    a = PolyMatrix.zeros(RXY, 2, 0)
    b = PolyMatrix.from_columns(RXY, 2, _DROPPING_SEED)
    completions = []
    original = groebner._complete

    def counting(*args):
        completions.append(args)
        return original(*args)

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner, "_complete", counting)
    got = syzygies_mod(a, b)
    assert (got.nrows, got.ncols) == (0, 0)
    assert len(completions) == 1
    span = b.span
    assert groebner._elimination(a, b) is span
    assert len(completions) == 1


def test_a_vector_packs_at_its_own_rank():
    # a position past a column's rank is zero and packs to nothing, for a
    # remainder as for a completion; a column longer than the basis's rank
    # has no packing, and is refused before anything is packed or reduced
    short, padded = vec(RXY, "x^2 - y"), vec(RXY, "x^2 - y", "0", "0")
    basis = groebner._IntBasis(groebner._Layout(RXY.nvars, 2), 3)
    assert groebner._fitted(basis, [short.entries]) == groebner._fitted(
        basis, [padded.entries])
    assert (list(groebner._remainder([short.entries], basis))
            == list(groebner._remainder([padded.entries], basis)))
    ideals = [groebner._complete(groebner._IntBasis(basis.layout, 3),
                                 [w.entries]) for w in (short, padded)]
    assert _unpacked(ideals[0]) == _unpacked(ideals[1])
    long = vec(RXY, "x", "y", "1", "0").entries
    for read in (lambda: list(groebner._remainder([long], basis)),
                 lambda: groebner._complete(basis, [long])):
        with pytest.raises(ValueError, match="vector rank mismatch"):
            read()
    assert len(basis) == 0


def test_a_basis_refuses_a_vector_of_another_ring():
    # same rank, other ring: the answers would be read off foreign terms
    g = buchberger([vec(RXY, "x"), vec(RXY, "y")])
    for v in (vec(ring("a", "b"), "a"), vec(ring("x", "y", "z"), "z + x")):
        for method in (g.reduce, g.contains, g.normal_form):
            with pytest.raises(ValueError, match="ring mismatch"):
                method(v)


# -- the integer form a basis keeps ----------------------------------------------

def _unpacked(basis):
    """basis's leads and term lists, keys unpacked to (position, exponents),
    so that bases packed by different layouts compare."""
    unpack = basis.layout.unpack
    return ([unpack(lead) for lead in basis.leads],
            [[(unpack(k), c) for k, c in terms.items()]
             for terms in basis.terms])


def _eager_gens(gb):
    """gb's elements converted now, each by the ring's own constructor,
    divided by its lead coefficient."""
    basis, r = gb._basis, gb.ring
    out = []
    for terms, lead in zip(basis.terms, basis.leads):
        entries = [[] for _ in range(basis.rank)]
        for k, c in terms.items():
            pos, exps = basis.layout.unpack(k)
            entries[pos].append((exps, Fraction(c, terms[lead])))
        out.append(Vector(r, [Poly(r, e) for e in entries]))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.booleans())
def test_the_integer_form_matches_the_rational_one(seed, r, widen):
    # the projection of an elimination is taken on packed keys and its
    # gens are built when first read, by the layout the basis has then:
    # each must agree with packing the rational vectors anew
    rng = random.Random(seed)
    a, b = _syzygy_case(r, rng, "random")
    k = a.nrows
    groebner._CACHE.clear()
    full = groebner._elimination(a, b)
    proj = groebner._eliminate(a, b)
    eager = _eager_gens(proj)
    if widen:  # a dividend past the layout re-packs the basis first
        top = proj._basis.layout.top
        # a multiple of an element, which reduces to zero in a step or
        # two; the normal form of x^(top+1) * e_1 itself can take minutes
        first = eager[0] if eager else Vector.unit(r, a.ncols, 0)
        big = first.poly_mul(parse_poly(f"x^{top + 1}", r))
        assert proj.contains(big) == bool(eager)
        assert proj._basis.layout.top > top
    assert proj._gens is None
    assert proj.gens == eager
    projected = [Vector(r, w.entries[k:]) for w in full.gens
                 if w.leading()[0] >= k]
    assert proj.gens == tuple(projected)
    if projected:
        want = groebner._IntBasis.of(r, projected, a.ncols)
        assert _unpacked(proj._basis) == _unpacked(want)


def test_syzygies_mod_converts_only_the_projection(monkeypatch):
    # the elements of the elimination basis that lead before position k
    # are never read as vectors: the projection is taken on packed keys
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x", "y"),
                                         vec(RXY, "y^2", "x - 1")])
    b = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x^2 - y", "x")])
    converted = []
    original = groebner._vector

    def recording(*args):
        v = original(*args)
        converted.append(v)
        return v

    groebner._CACHE.clear()
    monkeypatch.setattr(groebner, "_vector", recording)
    assert syzygies_mod(a, b).ncols > 0
    monkeypatch.undo()
    outside = [w for w in groebner._elimination(a, b).gens
               if w.leading()[0] < a.nrows]
    assert outside
    assert not [w for w in outside if w in converted]


def test_an_elimination_with_no_rows_is_its_own_projection():
    # with k = 0 the projection is the identity: the elimination basis
    # itself comes back, so its gens are built once for both readers
    a = PolyMatrix.from_columns(RXY, 0, [Vector.zero(RXY, 0)] * 2)
    b = PolyMatrix.zeros(RXY, 0, 1)
    groebner._CACHE.clear()
    proj = groebner._eliminate(a, b)
    assert proj is groebner._elimination(a, b)
    assert proj.rank == 2 and len(proj.gens) == 2


# -- products in the integer layer -------------------------------------------------

def _rational_poly(r, rng, deg):
    """Up to three terms of degree at most deg, with coefficients of both
    signs, some with denominators other than 1."""
    p = Poly.zero(r)
    for _ in range(rng.randint(0, 3)):
        exps = [0] * r.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(r.nvars)] += 1
        c = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]),
                     rng.choice([1, 1, 2, 3, 6]))
        p = p + Poly.term(r, c, tuple(exps))
    return p


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]),
       st.booleans())
def test_a_packed_product_matches_mul_vec(seed, r, widen):
    # a and c packed by one layout: A times c's integer form is
    # a.mul_vec(c) packed, up to the units.  first_product_outside packs
    # both by its span's layout; widen draws an entry of a of degree past
    # that layout's top, so the span is widened first, and either way its
    # answer is whether the span contains the product
    rng = random.Random(seed)
    k, n = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[_rational_poly(r, rng, 2) for _ in range(n)] for _ in range(k)]
    span = buchberger([rand_vector(r, rng, k, deg=2) for _ in range(2)],
                      ring=r, rank=k)
    top = span._basis.layout.top
    if widen:
        i, j = rng.randrange(k), rng.randrange(n)
        rows[i][j] = rows[i][j] + Poly.term(r, Fraction(-3, 2),
                                            (top + 1,) + (0,) * (r.nvars - 1))
    a = PolyMatrix(r, k, n, rows)
    c = Vector(r, [_rational_poly(r, rng, 2) for _ in range(n)])
    product = a.mul_vec(c)
    layout = groebner._Layout(r.nvars, groebner._degree(
        e for row in rows for e in row) + groebner._degree(c.entries))
    a_unit, a_cols = groebner._pack(layout, groebner._columns(a))
    c_unit, (c_ints,) = groebner._pack(layout, [c.entries])
    got = groebner._times(layout, a_cols, c_ints)
    unit, (want,) = groebner._pack(layout, [product.entries])
    assert ({key: a_unit * c_unit * x for key, x in got.items() if x}
            == {key: unit * x for key, x in want.items()})
    outside = span.first_product_outside(a, PolyMatrix.from_columns(r, n, [c]))
    assert (span._basis.layout.top > top) == widen
    assert (outside is None) == span.contains(product)


def test_a_certified_product_names_the_first_column_outside():
    span = buchberger([vec(RXY, "x", "0"), vec(RXY, "0", "y")])
    a = PolyMatrix.from_columns(RXY, 2, [vec(RXY, "1", "0"),
                                         vec(RXY, "0", "1")])
    inside, outside = vec(RXY, "x^2", "x*y"), vec(RXY, "y", "0")
    for cols, want in (([inside, inside], None), ([inside, outside], 1),
                       ([outside, inside], 0), ([], None)):
        c = PolyMatrix.from_columns(RXY, 2, cols)
        assert span.first_product_outside(a, c) == want
    with pytest.raises(ValueError, match="shape mismatch"):
        span.first_product_outside(a, PolyMatrix.zeros(RXY, 1, 1))
    with pytest.raises(ValueError, match="ring mismatch"):
        span.first_product_outside(
            a, PolyMatrix.zeros(ring("x", "z"), 2, 1))



def test_every_product_site_raises_its_own_message(monkeypatch):
    # syzygy columns (SpanSolver's too), lifts and Morphism relations are
    # all certified by first_product_outside: when it reports column 0,
    # each site refuses its answer with its own message
    a = PolyMatrix(RXY, 1, 2, [[parse_poly("x", RXY), parse_poly("y", RXY)]])
    b = PolyMatrix.zeros(RXY, 1, 0)
    v = PolyMatrix(RXY, 1, 1, [[parse_poly("x*y", RXY)]])
    mod_x = FPModule(RXY, 1, PolyMatrix(RXY, 1, 1, [[parse_poly("x", RXY)]]))
    identity = PolyMatrix.identity(RXY, 1)
    groebner._CACHE.clear()
    assert syzygies_mod(a, b).ncols == 1
    assert solve_mod(v, a, b) is not None
    assert SpanSolver(a.columns(), RXY, 1).syzygies()
    Morphism(mod_x, mod_x, identity)
    groebner._CACHE.clear()
    monkeypatch.setattr(GrobnerBasis, "first_product_outside",
                        lambda self, a, c: 0)
    with pytest.raises(RuntimeError, match="uncertified syzygy"):
        syzygies_mod(a, b)
    with pytest.raises(RuntimeError, match="uncertified solution"):
        solve_mod(v, a, b)
    with pytest.raises(RuntimeError, match="uncertified syzygy"):
        SpanSolver(a.columns(), RXY, 1).syzygies()
    with pytest.raises(ValueError, match="does not define a morphism"):
        Morphism(mod_x, mod_x, identity)


# -- kept hashes -------------------------------------------------------------------

def _two_routes():
    """Pairs of equal, distinct values built along different routes."""
    x, y = Poly.variable(RXY, 0), Poly.variable(RXY, 1)
    v1 = vec(RXY, "x*y - 1/2", "y")
    v2 = Vector(RXY, [x * y - Poly.constant(RXY, Fraction(1, 2)),
                      Poly.one(RXY) * y])
    m1 = PolyMatrix.from_columns(RXY, 2, [v1, vec(RXY, "0", "x")])
    m2 = PolyMatrix(RXY, 2, 2, [[v2.entries[0], Poly.zero(RXY)],
                                [y, x]]).transpose().transpose()
    return [(v1, v2), (m1, m2)]


@pytest.mark.parametrize("first", [0, 1])
def test_equal_vectors_and_matrices_hash_alike(first):
    for pair in _two_routes():
        assert pair[0] == pair[1] and pair[0] is not pair[1]
        h = hash(pair[first])
        assert pair[first]._hash == h
        with pytest.raises(AttributeError):
            pair[1 - first]._hash  # not kept until asked for
        assert pair[0] == pair[1]
        assert hash(pair[1 - first]) == h
        assert pair[0] == pair[1]
        for value in pair:
            with pytest.raises(AttributeError):
                value._hash = 0


def test_an_equal_distinct_key_hits_the_cache():
    (v1, v2), (m1, m2) = _two_routes()
    groebner._CACHE.clear()
    built = []

    def build():
        built.append(1)
        return object()

    value = groebner.cached(("test", v1, m1), build)
    assert groebner.cached(("test", v2, m2), build) is value
    assert built == [1]
    gb = PolyMatrix.from_columns(RXY, 2, [v1, v2.scale(2)]).span
    assert PolyMatrix.from_columns(  # equal, never hashed
        RXY, 2, [v2, v1.scale(2)]).span is gb


# -- matrices ------------------------------------------------------------------

def test_matrix_algebra():
    m = PolyMatrix(RX, 2, 2, [[parse_poly("x", RX), parse_poly("1", RX)],
                              [parse_poly("0", RX), parse_poly("x", RX)]])
    ident = PolyMatrix.identity(RX, 2)
    assert m * ident == m
    assert (m - m).is_zero()
    assert m.transpose().transpose() == m
    kron = PolyMatrix.kron(ident, m)
    assert kron.nrows == 4 and kron.ncols == 4


def test_kron_has_every_product_of_entries():
    m = PolyMatrix(RXY, 2, 2, [[parse_poly(t, RXY) for t in row] for row
                               in (("x - 1", "0"), ("1/2*y", "x*y"))])
    for a, b in ((PolyMatrix.identity(RXY, 3), m),
                 (m, PolyMatrix.identity(RXY, 2)), (m, m)):
        kron = PolyMatrix.kron(a, b)
        assert [list(row) for row in kron.rows] == [
            [a.at(i, j) * b.at(k, l) for j in range(a.ncols)
             for l in range(b.ncols)]
            for i in range(a.nrows) for k in range(b.nrows)]


def test_a_matrix_refuses_an_entry_of_another_ring():
    v = vec(ring("a", "b"), "a")
    with pytest.raises(ValueError, match="ring mismatch"):
        PolyMatrix.from_columns(RXY, 1, [v])
    with pytest.raises(ValueError, match="ring mismatch"):
        PolyMatrix(RXY, 1, 1, [[parse_poly("x", RX)]])
    # an equal ring built anew is the same ring
    assert PolyMatrix.from_columns(ring("x", "y"), 1, [vec(RXY, "x")]).rows \
        == ((parse_poly("x", RXY),),)


def test_matrix_str_roundtrip():
    m = PolyMatrix(RXY, 1, 2, [[parse_poly("x + y", RXY),
                                parse_poly("1/2*y^2", RXY)]])
    assert str(m) == "[[x + y, 1/2*y^2]]"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_gb_membership_of_random_combinations(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 2)
    gens = [rand_vector(RXY, rng, rank) for _ in range(2)]
    g = buchberger(gens, ring=RXY, rank=rank)
    combo = Vector.zero(RXY, rank)
    for gen in gens:
        combo = combo + gen.poly_mul(rand_vector(RXY, rng, 1).entries[0])
    assert g.contains(combo)


# -- the presentation cache ------------------------------------------------------

def test_a_repeated_span_returns_the_cached_basis():
    gens = [vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y - 1", "0")]
    g = PolyMatrix.from_columns(RXY, 2, gens).span
    # an equal matrix, built anew from new columns, hits
    again = [vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y - 1", "0")]
    assert PolyMatrix.from_columns(RXY, 2, again).span is g
    # a different coefficient is a different key
    assert PolyMatrix.from_columns(RXY, 2, [vec(RXY, "x^2 - 1/2*y", "x"),
                                            gens[1]]).span is not g


def test_repeated_buchberger_completes_again(monkeypatch):
    # buchberger is the algorithm, not a memo: only span caches
    gens = [vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y - 1", "0")]
    starts = _recording_completions(monkeypatch)
    g = buchberger(gens, ring=RXY, rank=2)
    again = buchberger([vec(RXY, "x^2 - y", "x"), vec(RXY, "x*y - 1", "0")])
    assert len(starts) == 2 and again == g and again is not g


def test_zero_inputs_are_keyed_on_the_explicit_rank():
    g2 = PolyMatrix.zeros(RX, 2, 1).span
    g3 = PolyMatrix.zeros(RX, 3, 1).span
    assert (g2.rank, g3.rank) == (2, 3)
    assert PolyMatrix.zeros(RX, 2, 1).span is g2


def test_an_equal_matrix_reads_the_span_without_building_columns(
        monkeypatch):
    # the span is keyed by the matrix, so an equal but distinct matrix
    # finds the basis without turning its columns into vectors
    _, (m1, m2) = _two_routes()
    groebner._CACHE.clear()
    span = m1.span
    made = []
    original = Vector.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Vector, "__init__", recording)
    assert m2 is not m1 and m2.span is span
    assert made == []


def test_cache_evicts_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(groebner, "CACHE_ENTRIES", 3)
    groebner._CACHE.clear()
    mats = [PolyMatrix.from_columns(RX, 1, [vec(RX, f"x^{k} + 1")])
            for k in range(1, 6)]
    first = [m.span for m in mats[:3]]
    assert mats[0].span is first[0]  # now the most recently used
    mats[3].span  # evicts mats[1]'s, the least recently used
    assert len(groebner._CACHE) == 3
    assert mats[0].span is first[0]
    assert mats[2].span is first[2]
    assert mats[1].span is not first[1]
    for m in mats:
        m.span
        assert len(groebner._CACHE) <= 3


def test_a_hit_compares_each_key_matrix_once(monkeypatch):
    # a hit looks its key up once: an equal, distinct key matrix is walked
    # term by term once, not a second time to mark the entry recently used
    _, (m1, m2) = _two_routes()
    n1, n2 = m1.transpose(), m2.transpose()
    groebner._CACHE.clear()
    span = m1.span
    value = groebner.cached(("pair", m1, n1), object)
    calls = []
    original = PolyMatrix.__eq__

    def counting(self, other):
        calls.append(self)
        return original(self, other)

    monkeypatch.setattr(PolyMatrix, "__eq__", counting)
    assert m2.span is span
    assert len(calls) == 1
    assert groebner.cached(("pair", m2, n2), list) is value
    assert len(calls) == 3
    # both hits are now the most recently used, in the order of the hits
    assert [key[0] for key in groebner._CACHE] == ["span", "pair"]


def test_a_build_may_fill_the_cache_it_is_stored_in(monkeypatch):
    monkeypatch.setattr(groebner, "CACHE_ENTRIES", 2)
    groebner._CACHE.clear()

    def outer():
        assert groebner.cached(("inner", 1), lambda: 1) == 1
        assert groebner.cached(("inner", 2), lambda: 2) == 2
        return 3

    assert groebner.cached(("outer",), outer) == 3
    assert list(groebner._CACHE) == [("inner", 2), ("outer",)]
    assert groebner.cached(("inner", 2), list) == 2
    assert list(groebner._CACHE) == [("outer",), ("inner", 2)]


def test_mutating_returned_syzygies_does_not_change_the_solver():
    gens = [vec(RXY, "x"), vec(RXY, "y"), vec(RXY, "x + y")]
    expected = reference_syzygies_mod(PolyMatrix.from_columns(RXY, 1, gens),
                                      PolyMatrix.zeros(RXY, 1, 0))
    solver = SpanSolver(gens, RXY, 1)
    rows = solver.syzygies()
    assert rows == expected
    rows.clear()
    again = solver.syzygies()
    assert again == expected and again is not rows
    assert SpanSolver(gens, RXY, 1).syzygies() == expected


def test_a_call_that_raises_caches_nothing():
    groebner._CACHE.clear()
    bad = [vec(RXY, "x"), vec(RXY, "y", "1")]
    with pytest.raises(ValueError):
        buchberger(bad)
    assert len(groebner._CACHE) == 0
