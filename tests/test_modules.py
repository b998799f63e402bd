import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from malgrange.rings import Poly, ring
from malgrange.parsing import parse_poly
from malgrange.groebner import (GrobnerBasis, PolyMatrix, Vector,
                                buchberger, solve_mod, syzygies_mod)
from malgrange import groebner
from malgrange import functors
from malgrange.functors import (FunMorphism, defect, nat_hom, stable_hom,
                                verify_adjunction, verify_main_theorem)
from malgrange.modules import (AnnihilatorIdeal, FPModule, HomModule,
                               Morphism, annihilator, bass_torsion, cokernel,
                               direct_sum, dual, eval_map, hom_module,
                               hom_pre, hom_post, image, is_injective,
                               is_isomorphism, is_surjective, kernel,
                               lift_through, module_annihilator,
                               nonzero_columns, q_dimension, tensor_modules)
from malgrange import corpus
from reference_engine import reference_lifts, reference_syzygies_mod

RX = ring("x")
RXY = ring("x", "y")
R3 = ring("x", "y", "z")


def mat(r, rows):
    return PolyMatrix(r, len(rows), len(rows[0]),
                      [[parse_poly(s, r) for s in row] for row in rows])


def coker_of(r, rows):
    """Module from text rows of relations."""
    m = mat(r, rows)
    return FPModule(r, m.ncols, m.transpose())


def scalar_mor(src, dst, rows):
    return Morphism(src, dst, mat(src.ring, rows))


R1X = FPModule.free(RX, 1)
R2X = FPModule.free(RX, 2)
MOD_X = coker_of(RX, [["x"]])
MOD_X2 = coker_of(RX, [["x^2"]])
MOD_XY = coker_of(RXY, [["x"], ["y"]])
R1XY = FPModule.free(RXY, 1)
R2XY = FPModule.free(RXY, 2)
IDEAL_XY = coker_of(RXY, [["y", "-x"]])


# -- objects and elements ------------------------------------------------------

def test_class_of_relation_is_zero():
    assert MOD_X.element(Vector(RX, [parse_poly("x", RX)])).is_zero()


def test_free_module_classes():
    z = R2X.element(Vector(RX, [Poly.zero(RX), Poly.zero(RX)]))
    e1 = R2X.generator(0)
    assert z.is_zero() and not e1.is_zero()


def test_unit_relation_kills_generator():
    m = coker_of(RX, [["x", "0"], ["0", "1"]])
    assert m.generator(1).is_zero()
    assert not m.generator(0).is_zero()


def test_element_canonical_representative():
    e = MOD_X2.element(Vector(RX, [parse_poly("x^3 + x", RX)]))
    assert str(e.vec) == "[x]"


def test_relation_shape_checked():
    with pytest.raises(ValueError):
        FPModule(RX, 2, mat(RX, [["x"]]))


def test_zero_module_normalization():
    # module equality is presentation equality: R/(1) and the module on no
    # generators both vanish, as is_zero says, but they are two
    # presentations, so they are unequal modules
    killed = coker_of(RX, [["1"]])
    assert killed.is_zero()
    assert FPModule.zero(RX).is_zero()
    assert killed != FPModule.zero(RX)
    assert killed == coker_of(RX, [["1"]])
    assert hash(killed) == hash(coker_of(RX, [["1"]]))
    assert not MOD_X.is_zero()


def test_module_equality_and_hash_build_no_groebner_basis(monkeypatch):
    # comparing or hashing modules reads their presentations only: on a
    # cold cache no completion runs, also for two presentations of zero
    # and for presentations of different sizes
    modules = [coker_of(RXY, [["x", "y"]]), coker_of(RXY, [["x"], ["y"]]),
               coker_of(RXY, [["1"]]), FPModule.zero(RXY)]
    groebner._CACHE.clear()
    completions = []
    original = groebner._complete

    def recording(start, entering):
        completions.append(start)
        return original(start, entering)

    monkeypatch.setattr(groebner, "_complete", recording)
    for m in modules:
        hash(m)
    equal = [[m == n for n in modules] for m in modules]
    assert completions == []
    assert equal == [[m is n for n in modules] for m in modules]


# -- morphisms ------------------------------------------------------------------

def test_identity_composition():
    phi = scalar_mor(R1X, MOD_X2, [["x"]])
    assert Morphism.identity(MOD_X2).compose(phi) == phi
    assert phi.compose(Morphism.identity(R1X)) == phi


def test_mult_by_x_is_zero_on_mod_x():
    phi = scalar_mor(MOD_X, MOD_X, [["x"]])
    assert phi.is_zero()
    assert phi == Morphism.zero(MOD_X, MOD_X)


def test_scalar_multiples_of_projection():
    # phi: R -> R/(x^2); x*phi is nonzero but x^2*phi vanishes
    phi = scalar_mor(R1X, MOD_X2, [["1"]])
    x = parse_poly("x", RX)
    assert not phi.smul(x).is_zero()
    assert phi.smul(x * x).is_zero()


def test_ill_defined_morphism_rejected():
    # 1 -> 1 does not send the relation x to zero in R
    with pytest.raises(ValueError):
        Morphism(MOD_X, R1X, mat(RX, [["1"]]))


def test_an_ill_defined_morphism_names_its_first_failing_relation():
    # R/(x, y) -> R/(x) by 1: the relation x is sent into (x), y is not
    with pytest.raises(ValueError, match="relation 1 is not sent"):
        Morphism(MOD_XY, coker_of(RXY, [["x"]]), mat(RXY, [["1"]]))
    with pytest.raises(ValueError, match="relation 0 is not sent"):
        Morphism(MOD_XY, coker_of(RXY, [["y^2"]]), mat(RXY, [["y"]]))
    Morphism(MOD_XY, coker_of(RXY, [["y"], ["x"]]), mat(RXY, [["1"]]))


# -- kernel / cokernel / image ---------------------------------------------------

def test_kernel_of_injective_scalar():
    k, iota = kernel(scalar_mor(R1X, R1X, [["x"]]))
    assert k.is_zero()


def test_kernel_of_map_to_quotient():
    k, iota = kernel(scalar_mor(R1X, MOD_X2, [["x"]]))
    # image of iota is x*R inside R
    cols = [iota.mat.column(j) for j in range(iota.mat.ncols)]
    gb = buchberger(cols, ring=RX, rank=1)
    assert gb.contains(Vector(RX, [parse_poly("x", RX)]))
    assert not gb.contains(Vector(RX, [parse_poly("1", RX)]))


def test_kernel_of_projection():
    proj = Morphism(R2X, R1X, mat(RX, [["1", "0"]]))
    k, iota = kernel(proj)
    assert k.ngens >= 1 and not k.is_zero()
    assert q_dimension(k) is None  # free of rank 1 is infinite-dimensional
    assert proj.compose(iota).is_zero()


def test_kernel_universal_property_seeded():
    rng = random.Random(12)
    phi = scalar_mor(MOD_X2, MOD_X2, [["x"]])
    k, iota = kernel(phi)
    found = 0
    for _ in range(20):
        # random psi: R -> M with phi . psi = 0, i.e. image in ker
        c = parse_poly(str(rng.randint(-3, 3)), RX)
        psi_mat = PolyMatrix(RX, 1, 1, [[parse_poly("x", RX) * c]])
        psi = Morphism(R1X, MOD_X2, psi_mat)
        assert phi.compose(psi).is_zero()
        lift = lift_through(iota, psi)
        assert lift is not None
        assert iota.compose(lift) == psi
        found += 1
    assert found == 20


def _rand_poly(r, rng, deg):
    """A sum of up to three random terms of degree at most deg."""
    p = Poly.zero(r)
    for _ in range(rng.randint(0, 3)):
        exps = [0] * r.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(r.nvars)] += 1
        p = p + Poly.term(r, Fraction(rng.randint(-3, 3)), tuple(exps))
    return p


def _rand_matrix(r, rng, nrows, ncols, deg):
    return PolyMatrix(r, nrows, ncols, [[_rand_poly(r, rng, deg)
                                         for _ in range(ncols)]
                                        for _ in range(nrows)])


def _rand_module(r, rng, deg):
    """A cokernel of one or two generators and at most two relations."""
    ngens = rng.randint(1, 2)
    return FPModule(r, ngens, _rand_matrix(r, rng, ngens, rng.randint(0, 2),
                                           deg))


def _rand_morphism(r, rng, deg):
    """phi: M -> N with random N and matrix; M's relations are random
    combinations of the preimage of N's relations (and a zero column), so
    phi is well defined and M's relations are not only Schreyer's."""
    target = _rand_module(r, rng, deg)
    mat = _rand_matrix(r, rng, target.ngens, rng.randint(1, 2), deg)
    pre = syzygies_mod(mat, target.relations).columns()
    rels = [Vector.zero(r, mat.ncols)]
    for _ in range(rng.randint(0, 2)):
        rel = Vector.zero(r, mat.ncols)
        for col in pre:
            rel = rel + col.poly_mul(_rand_poly(r, rng, 1))
        rels.append(rel)
    source = FPModule(r, mat.ncols,
                      PolyMatrix.from_columns(r, mat.ncols, rels))
    return Morphism(source, target, mat)  # checked: raises if ill-defined


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_kernel_relations_match_both_syzygy_routes(seed, r):
    # the kernel's relations are read off the elimination of [gens |
    # relations] on first read; a cold syzygies_mod and the reference
    # engine's elimination must give the same reduced basis
    phi = _rand_morphism(r, random.Random(seed), 1 if r is R3 else 2)
    groebner._CACHE.clear()
    k, iota = kernel(phi)
    rels = phi.source.relations
    groebner._CACHE.clear()
    assert k.relations == syzygies_mod(iota.mat, rels)
    assert k.relations.columns() == reference_syzygies_mod(iota.mat, rels)


def test_kernel_relations_are_built_on_first_read():
    # the builder runs once, on the first read, and stores its matrix
    # under syzygies_mod's own key
    for seed in range(100):
        phi = _rand_morphism(RXY, random.Random(seed), 2)
        groebner._CACHE.clear()
        k, iota = kernel(phi)
        key = ("syzygies_mod", iota.mat, phi.source.relations)
        assert key not in groebner._CACHE
        rels = k.relations
        assert key in groebner._CACHE and k.relations is rels
        groebner._CACHE.clear()
        assert rels == syzygies_mod(iota.mat, phi.source.relations)


def test_a_lazy_relation_matrix_is_checked_when_read():
    wrong = FPModule(RXY, 2, lambda: PolyMatrix.zeros(RXY, 3, 1))
    assert wrong.ngens == 2
    with pytest.raises(ValueError, match="one row per generator"):
        wrong.relations
    with pytest.raises(ValueError, match="one row per generator"):
        wrong.relations  # the builder stays until a matrix passes
    other_ring = FPModule(RXY, 1, lambda: PolyMatrix.zeros(RX, 1, 1))
    with pytest.raises(ValueError, match="one row per generator"):
        other_ring.relations
    with pytest.raises(AttributeError):
        MOD_X.relations = MOD_X2.relations


def test_is_injective_agrees_with_the_kernel_module():
    verdicts = set()
    for seed in range(200):
        phi = _rand_morphism(RXY, random.Random(seed), 2)
        groebner._CACHE.clear()
        injective = is_injective(phi)
        groebner._CACHE.clear()
        assert injective == kernel(phi)[0].is_zero(), seed
        verdicts.add(injective)
    assert verdicts == {True, False}


def test_lifts_through_kernel_embeddings_compose_back():
    rng = random.Random(23)
    lifted = refused = 0
    for seed in range(60):
        phi = _rand_morphism(RXY, random.Random(seed), 2)
        k, iota = kernel(phi)
        free = FPModule.free(RXY, rng.randint(1, 2))
        # a map that factors through iota by construction
        into_k = _rand_matrix(RXY, rng, k.ngens, free.ngens, 1)
        chi = Morphism(free, phi.source, iota.mat * into_k)
        psi = lift_through(iota, chi)
        assert iota.compose(psi) == chi
        # an arbitrary map factors exactly when phi kills it
        chi = Morphism(free, phi.source,
                       _rand_matrix(RXY, rng, phi.source.ngens, free.ngens,
                                    1))
        try:
            psi = lift_through(iota, chi)
        except ValueError as exc:
            assert "does not factor" in str(exc)
            assert not phi.compose(chi).is_zero()
            refused += 1
        else:
            assert iota.compose(psi) == chi
            lifted += 1
    assert lifted and refused


def test_lift_through_a_span_that_is_not_a_groebner_basis():
    # x*y and x^2 + y are not a Groebner basis: their S-vector leaves y^2
    iota = Morphism(R2XY, R1XY, mat(RXY, [["x*y", "x^2 + y"]]))
    phi = Morphism(R1XY, R1XY, mat(RXY, [["y^2"]]))
    psi = lift_through(iota, phi)
    assert psi.mat == mat(RXY, [["-x"], ["y"]])
    assert iota.compose(psi) == phi


def test_lift_through_a_span_without_the_target_relations():
    # x^3 does not span the relation x^2 of R/(x^2), but the zero class
    # x^2 factors all the same: lifts are taken modulo the relations
    iota = Morphism(R1X, MOD_X2, mat(RX, [["x^3"]]))
    phi = Morphism(R1X, MOD_X2, mat(RX, [["x^2"]]))
    assert iota.compose(lift_through(iota, phi)) == phi


def test_lift_through_a_span_in_any_order():
    # x and y span a Groebner basis whose reduced basis lists y first, and
    # 2*y is not monic: neither is a kernel embedding, and both lift, as
    # the reduced basis [y, x] does
    phi = Morphism(R1XY, R1XY, mat(RXY, [["x*y"]]))
    for row in (["x", "y"], ["2*y", "x"], ["y", "x"]):
        iota = Morphism(R2XY, R1XY, mat(RXY, [row]))
        assert iota.compose(lift_through(iota, phi)) == phi


def test_a_lift_through_a_map_that_is_not_injective_may_be_refused():
    # x lifts through [x, x]: R^2 -> R/(y), but each lift sends the
    # relation y of R/(y) to a nonzero element of R^2
    mod_y = coker_of(RXY, [["y"]])
    iota = Morphism(R2XY, mod_y, mat(RXY, [["x", "x"]]))
    phi = Morphism(mod_y, mod_y, mat(RXY, [["x"]]))
    with pytest.raises(ValueError, match="does not define a morphism"):
        lift_through(iota, phi)


def _corrupt_every_solution(monkeypatch):
    """Each solution read off an elimination basis gains a constant on its
    first entry: a remainder of a column of k entries against a basis of
    larger rank gains a constant in position k."""
    original = groebner._remainder

    def corrupted(columns, basis):
        for col, (rem, scale) in zip(columns, original(columns, basis)):
            if len(col) == basis.rank:
                yield rem, scale
                continue
            one = basis.layout.pack(len(col), (0,) * basis.layout.nvars)
            yield {**rem, one: rem.get(one, 0) + 1}, scale

    monkeypatch.setattr(groebner, "_remainder", corrupted)


def test_lift_through_still_raises_certification_failures(monkeypatch):
    _, iota = kernel(Morphism(R1XY, MOD_XY, mat(RXY, [["1"]])))
    phi = Morphism(R1XY, R1XY, mat(RXY, [["x*y"]]))
    groebner._CACHE.clear()
    _corrupt_every_solution(monkeypatch)
    with pytest.raises(RuntimeError, match="uncertified solution"):
        lift_through(iota, phi)


def test_every_encode_is_certified(monkeypatch):
    groebner._CACHE.clear()
    h = hom_module(MOD_XY, MOD_XY)
    identity = Morphism.identity(MOD_XY)
    fun = dict(corpus.corpus_functors())["stable(R+R/(x))"]
    n = nat_hom(fun, fun)
    alpha = FunMorphism.identity(fun)
    h1_elem = n._h1.encode(alpha.b)
    _corrupt_every_solution(monkeypatch)
    with pytest.raises(RuntimeError, match="uncertified solution"):
        h.encode(identity)
    # Nat's own lift, past the encode into Hom(Y_G, Y_F)
    monkeypatch.setattr(HomModule, "encode", lambda self, phi: h1_elem)
    with pytest.raises(RuntimeError, match="uncertified solution"):
        n.encode(alpha)


def test_one_basis_answers_every_quotient_of_a_kernel_embedding(
        monkeypatch):
    # K's relations, HomModule.encode and lift_through on one embedding
    # all read the elimination basis of [G | target relations]
    builds = []
    original = groebner.cached

    def recording(key, build):
        def traced():
            builds.append(key)
            return build()
        return original(key, traced)

    monkeypatch.setattr(groebner, "cached", recording)
    groebner._CACHE.clear()
    h = hom_module(MOD_XY, MOD_XY)  # builds kernel(rho) and its relations
    emb = h.emb
    identity = Morphism(MOD_XY, MOD_XY, mat(RXY, [["1"]]))
    assert h.decode(h.encode(identity)) == identity
    assert emb.compose(lift_through(emb, emb)) == emb
    assert [key for key in builds if key[0] == "elimination"
            and key[1] == emb.mat] == [("elimination", emb.mat,
                                        emb.target.relations)]


def test_an_element_of_another_ring_is_refused():
    # same rank, other ring: the normal form would read foreign terms
    with pytest.raises(ValueError, match="ring mismatch"):
        MOD_X.element(Vector(RXY, [parse_poly("x", RXY)]))
    with pytest.raises(ValueError, match="ring mismatch"):
        R1X.element(Vector(RXY, [parse_poly("y", RXY)]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([RX, RXY, R3]))
def test_encode_inverts_decode_on_every_hom_generator(seed, r):
    # encode lifts through the embedding modulo the relations of cod^m:
    # its class is the normal form that the reference engine reads off
    # the elimination of the [embedding column; e_i] and [relation; 0]
    rng = random.Random(seed)
    deg = 1 if r is R3 else 2
    dom, cod = _rand_module(r, rng, deg), _rand_module(r, rng, deg)
    groebner._CACHE.clear()
    h = hom_module(dom, cod)
    power = PolyMatrix.block_diag(r, [cod.relations] * dom.ngens)
    gens = h.generators()
    flats = [Vector(r, [h.decode(g).mat.rows[i][k] for k in range(dom.ngens)
                        for i in range(cod.ngens)]) for g in gens]
    lifts = reference_lifts(PolyMatrix.from_columns(r, h.emb.mat.nrows, flats),
                            h.emb.mat, power)
    for g, lift in zip(gens, lifts):
        assert h.encode(h.decode(g)) == g
        assert h.encode(h.decode(g)).vec == lift


def test_cokernel_examples():
    c, pi = cokernel(scalar_mor(R1X, R1X, [["x"]]))
    assert not c.is_zero() and q_dimension(c) == 1
    c2, _ = cokernel(Morphism.identity(R2X))
    assert c2.is_zero()


def test_image_of_x_in_mod_x2():
    phi = scalar_mor(R1X, MOD_X2, [["x"]])
    img, epi, mono = image(phi)
    assert mono.compose(epi) == phi
    assert q_dimension(img) == 1
    ann = module_annihilator(img)
    assert ann.contains(parse_poly("x", RX))
    assert not ann.contains(parse_poly("1", RX))


def test_direct_sum_shapes():
    s, (i1, i2, p1, p2) = direct_sum(MOD_X, MOD_X2)
    assert s.ngens == 2
    assert q_dimension(s) == 3
    assert p1.compose(i1) == Morphism.identity(MOD_X)
    assert p2.compose(i2) == Morphism.identity(MOD_X2)
    assert p2.compose(i1).is_zero()


# -- hom modules -----------------------------------------------------------------

def test_hom_from_torsion_to_free_is_zero():
    assert hom_module(MOD_X, R1X).is_zero()


def test_hom_from_free_square():
    h = hom_module(R2X, MOD_X)
    # Hom(R^2, N) = N + N
    assert q_dimension(h) == 2


def test_hom_mod_x_to_mod_x2():
    h = hom_module(MOD_X, MOD_X2)
    assert q_dimension(h) == 1
    gen = next(g for g in h.generators() if not g.is_zero())
    phi = h.decode(gen)
    assert str(phi.mat) == "[[x]]"


def test_hom_round_trips():
    h = hom_module(MOD_X2, MOD_X2)
    for g in h.generators():
        phi = h.decode(g)
        assert h.encode(phi) == g
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [parse_poly(str(rng.randint(-2, 2)), RX)
                  for _ in range(h.ngens)]
        e = h.zero_element()
        for c, g in zip(coeffs, h.generators()):
            e = e + g.smul(c)
        assert h.encode(h.decode(e)) == e


def test_encode_rejects_non_morphism():
    h = hom_module(MOD_X, R1X)
    bad = mat(RX, [["1"]])
    with pytest.raises(ValueError):
        h.encode(Morphism(MOD_X, R1X, bad, _checked=True))


def test_hom_pre_post_functoriality():
    # pre/post composition act on Hom modules compatibly with decode
    f = scalar_mor(MOD_X2, MOD_X, [["1"]])
    pre = hom_pre(f, MOD_X)  # Hom(M_X, M_X) -> Hom(M_X2, M_X)
    h_src = hom_module(MOD_X, MOD_X)
    h_dst = hom_module(MOD_X2, MOD_X)
    for g in h_src.generators():
        lhs = h_dst.decode(h_dst.element(pre.mat.mul_vec(g.vec)))
        rhs = h_src.decode(g).compose(f)
        assert lhs == rhs
    post = hom_post(MOD_X2, f)  # Hom(M_X2, M_X2) -> Hom(M_X2, M_X)
    h2 = hom_module(MOD_X2, MOD_X2)
    h3 = hom_module(MOD_X2, MOD_X)
    for g in h2.generators():
        lhs = h3.decode(h3.element(post.mat.mul_vec(g.vec)))
        rhs = f.compose(h2.decode(g))
        assert lhs == rhs


# Hom maps as they were first defined, one generator at a time: decode,
# compose, encode.  The engine reads them off the embeddings instead.

def _reference_hom_pre(f, cod):
    h_t, h_s = hom_module(f.target, cod), hom_module(f.source, cod)
    return PolyMatrix.from_columns(
        f.source.ring, h_s.ngens,
        [h_s.encode(h_t.decode(g).compose(f)).vec for g in h_t.generators()])


def _reference_hom_post(dom, f):
    h_s, h_t = hom_module(dom, f.source), hom_module(dom, f.target)
    return PolyMatrix.from_columns(
        dom.ring, h_t.ngens,
        [h_t.encode(f.compose(h_s.decode(g))).vec for g in h_s.generators()])


def _dual_rows(m):
    """The decoded generators of M*, one 1 x m row each."""
    d = dual(m)
    return [d.decode(g).mat.rows[0] for g in d.generators()]


def _reference_eval_map(m):
    d, dd = dual(m), dual(dual(m))
    rows = _dual_rows(m)
    free1 = FPModule.free(m.ring, 1)
    cols = []
    for j in range(m.ngens):
        mu = Morphism(d, free1, PolyMatrix(m.ring, 1, d.ngens,
                                           [[row[j] for row in rows]]))
        cols.append(dd.encode(mu).vec)
    return PolyMatrix.from_columns(m.ring, dd.ngens, cols)


def _differential_modules():
    """The corpus modules, then seeded random cokernels over Q[x] and
    Q[x,y]."""
    mods = [m for _, m in corpus.main_theorem_modules()]
    rng = random.Random(2417)
    for _ in range(4):
        for r in (RX, RXY):
            mods.append(corpus.random_cokernel(r, rng, rng.randint(1, 2),
                                               rng.randint(1, 3)))
    return mods


def test_eval_map_and_stable_hom_equal_their_per_generator_definitions():
    for m in _differential_modules():
        assert eval_map(m).mat == _reference_eval_map(m)
        rows = _dual_rows(m)
        assert stable_hom(m).f.mat == PolyMatrix(m.ring, len(rows), m.ngens,
                                                 rows)


def test_hom_pre_and_hom_post_equal_their_per_generator_definitions():
    pairs = []
    for r in (RX, RXY):
        mods = [m for m in _differential_modules() if m.ring == r]
        pairs += zip(mods, mods[1:])
    assert len(pairs) >= 12
    for a, b in pairs:
        h = hom_module(a, b)
        for g in h.generators()[:2]:
            f = h.decode(g)
            for c in (a, b):
                assert hom_pre(f, c).mat == _reference_hom_pre(f, c)
                assert hom_post(c, f).mat == _reference_hom_post(c, f)


def test_eval_map_checks_every_evaluation(monkeypatch):
    # the m evaluations M* -> R are checked together, as one morphism
    # M* -> R^m whose matrix is the dual's embedding
    e = dual(IDEAL_XY).emb.mat
    eval_map(IDEAL_XY)
    original = GrobnerBasis.first_product_outside

    def failing(self, a, c):
        return 0 if a == e else original(self, a, c)

    monkeypatch.setattr(GrobnerBasis, "first_product_outside", failing)
    with pytest.raises(ValueError, match="matrix does not define a morphism"):
        eval_map(IDEAL_XY)


def _duals_and_double_duals():
    # the corpus duals have no relations; the dual of R^3/(x, y, z), the
    # syzygies of (x, y, z), has the Koszul one
    koszul = coker_of(R3, [["x", "y", "z"]])
    assert dual(koszul).relations.ncols
    for m in [m for _, m in corpus.main_theorem_modules()] + [koszul]:
        for h in (dual(m), dual(dual(m))):
            h.classes(h.emb.mat)
        eval_map(m)


def _adjunction_homs():
    for _, fun, _, a in corpus.adjunction_pairs():
        assert verify_adjunction(fun, a)["bijective"]


def _random_pairs():
    rng = random.Random(5081)
    for r in (RX, RXY):
        for _ in range(3):
            a, b = (corpus.random_cokernel(r, rng, rng.randint(1, 2),
                                           rng.randint(1, 3))
                    for _ in range(2))
            h = hom_module(a, b)
            h.classes(h.emb.mat)
            for g in h.generators()[:2]:
                f = h.decode(g)
                hom_pre(f, a), hom_post(a, f)


@pytest.mark.parametrize("workload", [_duals_and_double_duals,
                                      _adjunction_homs, _random_pairs],
                         ids=["duals", "adjunction", "random-pairs"])
def test_hom_classes_are_read_off_the_elimination_as_they_are(workload,
                                                              monkeypatch):
    # solve_mod's lifts are already normal forms modulo the Hom module's
    # relations: classes reduces nothing, and every column it returns is
    # its own normal form
    original_classes, original_reduce = HomModule.classes, GrobnerBasis.reduce
    inside, seen = [], []

    def refused(self, v):
        if inside:
            raise AssertionError("HomModule.classes reduced a column")
        return original_reduce(self, v)

    def read_as_is(self, flat):
        inside.append(self)
        try:
            out = original_classes(self, flat)
        finally:
            inside.pop()
        assert all(original_reduce(self.gb, c) == c for c in out.columns())
        seen.append(out.ncols)
        return out

    monkeypatch.setattr(GrobnerBasis, "reduce", refused)
    monkeypatch.setattr(HomModule, "classes", read_as_is)
    groebner._CACHE.clear()
    workload()
    assert len(seen) >= 12 and sum(seen) >= 10  # classes ran, on columns


def test_a_relation_matrix_is_read_through_the_one_span_it_keeps(monkeypatch):
    # once syzygies_mod(a, b) has built b's span, b keeps it: a lift modulo
    # b and a second kernel read off a built elimination rebuild none of
    # b's columns, and no read of b.span looks the basis up again, until
    # the cache is emptied: then the next read builds it anew.  An
    # elimination's own build checks b's columns, so (a2, b)'s is built
    # first, by a lift, as lift_through builds a kernel's before its
    # relations are read.
    b = mat(RXY, [["2*x^2 - y", "x*y", "0"], ["3*x", "y^2 - 1", "x*y"]])
    a = mat(RXY, [["x", "y"], ["1", "x"]])
    a2 = mat(RXY, [["y", "x^2"], ["x", "0"]])
    groebner._CACHE.clear()
    syzygies_mod(a, b)
    assert solve_mod(a2 * mat(RXY, [["x"], ["1"]]), a2, b) is not None
    columns, made = b.columns(), []
    original_init = Vector.__init__

    def recording(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        made.append(self)

    calls = []
    original_buchberger = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original_buchberger(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Vector, "__init__", recording)
        assert solve_mod(a * mat(RXY, [["y"], ["x - 1"]]), a, b) is not None
        syzygies_mod(a2, b)
    assert made, "nothing was lifted or read off"
    rebuilt = [v for v in made if v in columns]
    assert not rebuilt, f"b's columns were rebuilt: {rebuilt}"
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "buchberger", counting)
        span = b.span
        assert b.span is span and not calls
        groebner._CACHE.clear()
        again = b.span
        assert again is not span and len(calls) == 1
    assert again == span == buchberger(columns, ring=RXY, rank=2)
    m = FPModule(RXY, 2, b)
    assert m.gb is m.relations.span is again
    assert "_gb" not in FPModule.__slots__


def test_an_emptied_cache_is_a_cold_start_for_a_module_basis(monkeypatch):
    # the relation basis lives in the cache alone: once it is emptied the
    # next read of m.gb completes the relations again, exactly once
    m = FPModule(RXY, 2, mat(RXY, [["2*x^2 - y", "x*y", "0"],
                                   ["3*x", "y^2 - 1", "x*y"]]))
    before = m.gb
    groebner._CACHE.clear()
    completions = []
    original = groebner._complete

    def counting(*args):
        completions.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "_complete", counting)
    again = m.gb
    assert len(completions) == 1
    assert again == before and again is not before
    assert m.gb is again and len(completions) == 1


def test_main_theorem_images_look_up_no_basis(monkeypatch):
    # each kernel embedding's matrix keeps the basis syzygies_mod certified
    # for it, so once verify_main_theorem has built both kernels the image
    # comparison calls no buchberger
    def refused(*args, **kwargs):
        raise AssertionError("the image comparison looked a basis up")

    for _, a in corpus.main_theorem_modules():
        groebner._CACHE.clear()
        assert verify_main_theorem(a)["equal"]
        _, emb = defect(stable_hom(a))
        _, iota = bass_torsion(a)
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("malgrange") and hasattr(module,
                                                            "buchberger"):
                    patch.setattr(module, "buchberger", refused)
            assert functors._image_membership_witness(emb, iota) is None
        assert a.gb is a.relations.span


# -- tensor ----------------------------------------------------------------------

def test_tensor_unit():
    t = tensor_modules(R1X, MOD_X2)
    assert q_dimension(t) == q_dimension(MOD_X2) == 2


def test_tensor_of_coprime_quotients():
    a = coker_of(RXY, [["x"]])
    b = coker_of(RXY, [["y"]])
    assert q_dimension(tensor_modules(a, b)) == 1


def test_tensor_idempotent_quotient():
    t = tensor_modules(MOD_X, MOD_X)
    assert q_dimension(t) == 1


# -- dual / evaluation / torsion ---------------------------------------------------

def test_dual_of_torsion_module_vanishes():
    assert dual(MOD_X).is_zero()


def test_eval_bijective_on_free():
    ev = eval_map(R2X)
    assert is_isomorphism(ev)


def test_eval_zero_on_mod_x():
    assert eval_map(MOD_X).is_zero()


def test_eval_injective_on_ideal():
    ev = eval_map(IDEAL_XY)
    assert is_injective(ev)


def test_eval_naturality_seeded():
    rng = random.Random(8)
    mods = [R1X, MOD_X, MOD_X2, direct_sum(R1X, MOD_X)[0]]
    cases = 0
    for m in mods:
        for n in mods:
            h = hom_module(m, n)
            for g in h.generators():
                phi = h.decode(g)
                lhs = eval_map(n).compose(phi)
                # Hom(Hom(phi, R), R): contravariant twice = covariant
                dd = dual_morphism_twice(phi)
                rhs = dd.compose(eval_map(m))
                assert lhs == rhs
                cases += 1
    assert cases >= 10


def dual_morphism_twice(phi):
    from malgrange.modules import dual_morphism
    return dual_morphism(dual_morphism(phi))


def test_torsion_of_free_is_zero():
    t, _ = bass_torsion(R2X)
    assert t.is_zero()


def test_torsion_of_mixed_module():
    m = direct_sum(R1X, MOD_X)[0]
    t, iota = bass_torsion(m)
    assert q_dimension(t) == 1
    # image is the second-generator component
    cols = [iota.mat.column(j) for j in range(iota.mat.ncols)
            if not m.element(iota.mat.column(j)).is_zero()]
    assert len(cols) == 1
    assert str(cols[0]) == "[0, 1]"


def test_torsion_of_bivariate_quotient_is_everything():
    t, iota = bass_torsion(MOD_XY)
    cols = [iota.mat.column(j) for j in range(iota.mat.ncols)]
    gb = buchberger(cols + MOD_XY.relations.columns(), ring=RXY,
                    rank=MOD_XY.ngens)
    assert gb.contains(Vector(RXY, [Poly.one(RXY)]))


def test_torsion_witnesses_have_annihilators():
    for name, m in corpus.main_theorem_modules():
        t, iota = bass_torsion(m)
        for j in range(iota.mat.ncols):
            e = m.element(iota.mat.column(j))
            if e.is_zero():
                continue
            assert annihilator(e).witness is not None, name


def test_radical_law_on_corpus():
    for name, m in corpus.main_theorem_modules():
        t, iota = bass_torsion(m)
        quotient, _ = cokernel(iota)
        t2, _ = bass_torsion(quotient)
        assert t2.is_zero(), name


def test_bass_torsion_is_built_once_per_presentation():
    groebner._CACHE.clear()
    iota = bass_torsion(coker_of(RX, [["x", "0"]]))[1]
    assert bass_torsion(coker_of(RX, [["x", "0"]]))[1] is iota
    assert bass_torsion(coker_of(RX, [["x^2", "0"]]))[1] is not iota


def test_nonzero_columns_skip_zero_classes():
    phi = scalar_mor(FPModule.free(RX, 4), MOD_X2, [["x^2", "x", "0", "1"]])
    assert nonzero_columns(phi) == [Vector(RX, [parse_poly("x", RX)]),
                                    Vector(RX, [Poly.one(RX)])]


# -- annihilators ------------------------------------------------------------------

def test_annihilator_examples():
    assert str(annihilator(MOD_X2.generator(0))) == "(x^2)"
    assert annihilator(R1X.generator(0)).is_zero()
    mixed = coker_of(RX, [["x", "0"]])
    ann = annihilator(mixed.generator(0))
    assert ann.witness == parse_poly("x", RX)


def test_annihilator_membership():
    ann = annihilator(MOD_XY.generator(0))
    assert ann.contains(parse_poly("x", RXY))
    assert ann.contains(parse_poly("y", RXY))
    assert not ann.contains(parse_poly("1", RXY))


def test_module_annihilator_of_sum():
    m = coker_of(RX, [["x", "0"], ["0", "x^2"]])
    ann = module_annihilator(m)
    assert ann.contains(parse_poly("x^2", RX))
    assert not ann.contains(parse_poly("x", RX))


@pytest.mark.parametrize("r", [RX, RXY], ids=["x", "xy"])
def test_module_annihilator_of_the_zero_module_is_the_unit_ideal(r):
    ann = module_annihilator(FPModule.zero(r))
    assert ann.gens == (Poly.one(r),)
    assert str(ann) == "(1)"


def test_annihilator_ideal_takes_a_rank_one_basis():
    gb = buchberger([Vector(RX, [parse_poly("x", RX), Poly.zero(RX)])])
    with pytest.raises(ValueError, match="rank-1"):
        AnnihilatorIdeal(gb)


# -- q_dimension --------------------------------------------------------------------

def test_q_dimension_cases():
    assert q_dimension(FPModule.zero(RX)) == 0
    assert q_dimension(MOD_X2) == 2
    assert q_dimension(R1X) is None
    assert q_dimension(MOD_XY) == 1
    big = coker_of(RXY, [["x^2", "0"], ["0", "y"]])
    # standard monomials 1, x for gen 1 and 1 for gen 2... relations are
    # x^2*g1 = 0 and y*g2 = 0; y*g1 and x*g2 stay free, so infinite
    assert q_dimension(big) is None


def test_hom_modules_of_zero_presentations_stay_distinct():
    # both present the zero module, but they are two presentations, so
    # they are unequal modules, and Hom keeps each presentation's
    # generator count
    z1 = FPModule(RX, 1, mat(RX, [["1"]]))
    z2 = FPModule(RX, 2, mat(RX, [["1", "0"], ["0", "1"]]))
    assert z1.is_zero() and z2.is_zero()
    assert z1 != z2
    h1 = hom_module(z1, R1X)
    h2 = hom_module(z2, R1X)
    assert h1 is not h2
    assert (h1.dom.ngens, h2.dom.ngens) == (1, 2)
    assert hom_module(z1, R1X) is h1 and hom_module(z2, R1X) is h2
