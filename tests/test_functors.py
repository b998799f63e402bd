import json
import random
import traceback

import pytest

from malgrange.rings import ring
from malgrange.parsing import parse_poly
from malgrange.groebner import GrobnerBasis, PolyMatrix, buchberger
from malgrange.modules import (Element, FPModule, Morphism, _flatten,
                               bass_torsion, lift_through,
                               direct_sum, hom_module, image, is_injective,
                               is_isomorphism, is_surjective, kernel,
                               cokernel, q_dimension, tensor_modules)
from malgrange.functors import (ContraFPFunctor, FPFunctor, FunMorphism,
                                Report, cdefect, cokernel_fun,
                                contra_representable, contra_stable_hom,
                                defect, defect_comparison, defect_via_nat,
                                eval_functor, eval_functor_map, forgetful,
                                is_zero_functor, kernel_fun, nat_hom,
                                representable, stable_hom, stable_map,
                                tensor_eval_map, tensor_functor,
                                verify_adjunction, verify_main_theorem,
                                zero_functor)
from malgrange.functors import NatModule
from malgrange import corpus, functors, groebner
from malgrange.cli import main
from reference_engine import reference_lifts

RX = ring("x")
RXY = ring("x", "y")


def mat(r, rows):
    return PolyMatrix(r, len(rows), len(rows[0]),
                      [[parse_poly(s, r) for s in row] for row in rows])


def coker_of(r, rows):
    m = mat(r, rows)
    return FPModule(r, m.ncols, m.transpose())


R1 = FPModule.free(RX, 1)
MOD_X = coker_of(RX, [["x"]])
MOD_X2 = coker_of(RX, [["x^2"]])
MIXED = direct_sum(R1, MOD_X)[0]
MOD_XY = coker_of(RXY, [["x"], ["y"]])


# -- representable functors ----------------------------------------------------


def test_representable_presents_map_to_zero():
    f = representable(MOD_X)
    assert f.y == MOD_X
    assert f.x.ngens == 0


def test_forgetful_is_representable_of_the_ring():
    f = forgetful(RX)
    assert f.y == R1


def test_representable_evaluates_to_hom():
    for a in (MOD_X, MOD_X2, MIXED):
        for v in (MOD_X, MOD_X2):
            assert eval_functor(representable(a), v) == hom_module(a, v)


def test_defect_of_representable_recovers_module():
    for a in (R1, MOD_X, MIXED, MOD_XY):
        w, emb = defect(representable(a))
        assert emb.target == a
        assert is_isomorphism(emb)


# -- evaluation ------------------------------------------------------------------


def test_stable_hom_of_free_is_zero_functor():
    for k in (1, 2):
        f = stable_hom(FPModule.free(RX, k))
        assert is_zero_functor(f)
        assert q_dimension(eval_functor(f, MOD_X2)) == 0


def test_eval_tensor_at_ring_recovers_module():
    # generator k of the evaluation is the k-th generator of Hom(R^g, R);
    # its value at 1 gives the canonical map (B (x) R) -> B
    for b in (MOD_X, MOD_X2, MIXED):
        f = tensor_functor(b)
        ev = eval_functor(f, R1)
        h = hom_module(f.y, R1)
        cols = [h.decode(g).mat.transpose().column(0) for g in h.generators()]
        cmp = Morphism(ev, b, PolyMatrix.from_columns(RX, b.ngens, cols))
        assert is_isomorphism(cmp)


def test_eval_stable_hom_torsion_case():
    # no maps R/(x) -> R/(x) factor through projectives: F(V) = Hom(A,V)
    assert q_dimension(eval_functor(stable_hom(MOD_X), MOD_X)) == 1


def test_tensor_functor_evaluates_to_tensor_product():
    cases = [(MOD_X, MOD_X2, RX), (MOD_X2, MOD_X, RX), (MIXED, MOD_X, RX),
             (MOD_XY, MOD_XY, RXY)]
    for b, v, r in cases:
        ev = eval_functor(tensor_functor(b), v)
        tm = tensor_modules(b, v)
        cmp = Morphism(ev, tm, PolyMatrix.identity(r, ev.ngens))
        assert is_isomorphism(cmp)


def test_tensor_functor_of_ring_is_forgetful_shape():
    f = tensor_functor(R1)
    assert f.y == R1
    assert f.x.ngens == 0


def test_eval_functor_map_functorial():
    # F(psi o phi) = F(psi) o F(phi) for F = Hom(A,-)
    f = representable(MOD_X2)
    phi = Morphism(MOD_X2, MOD_X2, mat(RX, [["x"]]))
    psi = Morphism(MOD_X2, MOD_X, mat(RX, [["1"]]))
    lhs = eval_functor_map(f, psi.compose(phi))
    rhs = eval_functor_map(f, psi).compose(eval_functor_map(f, phi))
    assert (lhs - rhs).is_zero()


# -- natural transformations ------------------------------------------------------


def yoneda_comparison(a, b):
    """Canonical Nat((A,-),(B,-)) -> Hom(B,A): read off the carrier."""
    n = nat_hom(representable(a), representable(b))
    h = hom_module(b, a)
    cols = [h.encode(n.decode(g).b).vec for g in n.generators()]
    return Morphism(n, h, PolyMatrix.from_columns(a.ring, h.ngens, cols))


def test_yoneda_on_module_pairs():
    mods = [R1, MOD_X, MOD_X2, MIXED]
    for a in mods:
        for b in mods:
            assert is_isomorphism(yoneda_comparison(a, b))


def test_nat_contains_identity_for_corpus_functors():
    for name, f in corpus.corpus_functors():
        n = nat_hom(f, f)
        e = n.encode(FunMorphism.identity(f))
        assert n.decode(e) == FunMorphism.identity(f), name


def test_nat_encode_inverts_decode_on_every_generator():
    # encode lifts through the kernel embedding modulo the relations of
    # Hom(Y_G, Y_F): its class is the normal form that the reference
    # engine reads off the elimination of the [embedding column; e_i]
    # and [relation; 0]
    for name, f in corpus.corpus_functors():
        n = nat_hom(f, f)
        into, rels = n._into_h1, n._h1.relations
        gens = n.generators()
        h1_vecs = [n._h1.encode(n.decode(g).b).vec for g in gens]
        lifts = reference_lifts(
            PolyMatrix.from_columns(f.y.ring, into.nrows, h1_vecs), into, rels)
        for g, lift in zip(gens, lifts):
            assert n.encode(n.decode(g)) == g, name
            assert n.encode(n.decode(g)).vec == lift, name


def test_nat_from_stable_hom_to_forgetful_is_torsion():
    for a in (MOD_X, MOD_X2, MIXED):
        n = nat_hom(stable_hom(a), forgetful(a.ring))
        t, _ = bass_torsion(a)
        assert q_dimension(n) == q_dimension(t)


def test_zero_element_decodes_to_zero_transformation():
    f = stable_hom(MIXED)
    n = nat_hom(f, f)
    assert n.decode(n.zero_element()).is_zero()


# -- kernels and cokernels of transformations --------------------------------------


def probe_set(r):
    if r == RX:
        return (MOD_X, MOD_X2, coker_of(RX, [["x^3"]]))
    return (MOD_XY, coker_of(RXY, [["x^2"], ["y"]]))


def test_cokernel_of_zero_recovers_target():
    f = representable(MOD_X2)
    g = tensor_functor(MOD_X)
    c = cokernel_fun(FunMorphism.zero(f, g))
    fwd = FunMorphism(g, c, Morphism.identity(g.y))
    bwd = FunMorphism(c, g, Morphism.identity(g.y))
    assert fwd.compose(bwd) == FunMorphism.identity(c)
    assert bwd.compose(fwd) == FunMorphism.identity(g)


def test_cokernel_of_identity_is_zero_functor():
    for f in (representable(MOD_X), tensor_functor(MOD_X2)):
        assert is_zero_functor(cokernel_fun(FunMorphism.identity(f)))


def test_cokernel_of_trace_map_is_stable_hom():
    for a in (MOD_X, MIXED, MOD_X2):
        c = cokernel_fun(tensor_eval_map(a))
        s = stable_hom(a)
        fwd = FunMorphism(c, s, Morphism.identity(c.y))
        bwd = FunMorphism(s, c, Morphism.identity(s.y))
        assert fwd.compose(bwd) == FunMorphism.identity(s)
        assert bwd.compose(fwd) == FunMorphism.identity(c)


def test_kernel_of_identity_is_zero_functor():
    k, iota = kernel_fun(FunMorphism.identity(representable(MOD_X)))
    assert is_zero_functor(k)


def test_kernel_of_zero_is_source():
    f = stable_hom(MIXED)
    g = representable(MOD_X)
    k, iota = kernel_fun(FunMorphism.zero(f, g))
    for v in probe_set(RX):
        comp = iota.eval_at(v)
        assert is_injective(comp) and is_surjective(comp)


def test_kernel_eval_commutes_with_evaluation():
    phi = stable_map(MIXED)
    k, iota = kernel_fun(phi)
    for v in (R1,) + probe_set(RX):
        lhs = q_dimension(eval_functor(k, v))
        rhs = q_dimension(kernel(phi.eval_at(v))[0])
        assert lhs == rhs
        # phi o iota = 0 componentwise
        assert phi.eval_at(v).compose(iota.eval_at(v)).is_zero()


def test_kernel_eval_nonzero_case():
    # maps factoring through projectives from R + R/(x) at finite probes
    phi = stable_map(MIXED)
    k, _ = kernel_fun(phi)
    assert q_dimension(eval_functor(k, MOD_X)) == 1
    assert q_dimension(eval_functor(k, MOD_X2)) == 2


def test_kernel_of_stable_projection_evaluates_to_projective_part():
    # eval(Ker((A,-) -> stable), V) = P(A,V) = image of A* (x) V -> Hom(A,V)
    phi = stable_map(MIXED)
    k, _ = kernel_fun(phi)
    mu = tensor_eval_map(MIXED)
    for v in probe_set(RX):
        assert q_dimension(eval_functor(k, v)) \
            == q_dimension(image(mu.eval_at(v))[0])


def test_cokernel_eval_commutes_with_evaluation():
    phi = tensor_eval_map(MOD_X2)
    c = cokernel_fun(phi)
    for v in probe_set(RX):
        lhs = q_dimension(eval_functor(c, v))
        rhs = q_dimension(cokernel(phi.eval_at(v))[0])
        assert lhs == rhs


# -- the defect -------------------------------------------------------------------


def test_defect_examples():
    w, _ = defect(tensor_functor(MOD_X))
    assert w.is_zero()
    w2, emb2 = defect(stable_hom(MOD_X))
    assert emb2.target == MOD_X
    assert is_isomorphism(emb2)


def test_defect_comparison_bijective_for_corpus():
    for name, f in corpus.corpus_functors():
        assert is_isomorphism(defect_comparison(f)), name


def test_defect_via_nat_dimensions():
    f = stable_hom(MIXED)
    assert q_dimension(defect_via_nat(f)) == q_dimension(defect(f)[0])


# -- contravariant side -------------------------------------------------------------


def test_contra_representable_defect():
    x = MOD_X2
    assert cdefect(contra_representable(x)) == x


def test_contra_stable_hom_defect_vanishes():
    for a in (MOD_X, MOD_X2, MIXED, MOD_XY):
        assert cdefect(contra_stable_hom(a)).is_zero()


def test_contra_defect_of_multiplication():
    g = Morphism(R1, R1, mat(RX, [["x"]]))
    assert cdefect(ContraFPFunctor(g)) == MOD_X


def test_contra_defect_equals_evaluation_at_ring():
    from malgrange.functors import eval_contra_functor
    g = Morphism(R1, R1, mat(RX, [["x"]]))
    f = ContraFPFunctor(g)
    assert q_dimension(cdefect(f)) == q_dimension(eval_contra_functor(f, R1))


# -- transformation algebra ----------------------------------------------------------


def test_funmorphism_identity_and_zero():
    f = stable_hom(MOD_X)
    assert not FunMorphism.identity(f).is_zero()
    assert FunMorphism.zero(f, f).is_zero()


def test_funmorphism_addition():
    f = representable(MOD_X2)
    one = FunMorphism.identity(f)
    assert (one - one).is_zero()
    assert (one + (-one)).is_zero()


def test_funmorphism_rejects_invalid_carrier():
    # carrier x: R -> R admits no witness against stable_hom(R/(x)): the
    # square would need x * id to factor through 0
    f = stable_hom(MOD_X)
    g = forgetful(RX)
    with pytest.raises(ValueError):
        FunMorphism(g, f, Morphism(f.y, g.y, mat(RX, [["1"]])))


def test_funmorphism_zero_iff_carrier_factors():
    # b = t o f_G is the zero transformation
    g = tensor_functor(MOD_X)  # f_G = (x): R -> R
    t = Morphism(g.x, g.y, mat(RX, [["1"]]))
    b = t.compose(g.f)
    alpha = FunMorphism(g, g, b)
    assert alpha.is_zero()
    assert not FunMorphism.identity(g).is_zero()


# -- theorem reports ----------------------------------------------------------------


def test_main_theorem_free_module():
    rep = verify_main_theorem(R1)
    assert rep["equal"] and rep.ok
    assert rep["defect_generators"] == []
    assert rep["torsion_generators"] == []


def test_main_theorem_torsion_module():
    rep = verify_main_theorem(MOD_X)
    assert rep["equal"]
    assert rep["defect_generators"] == ["[1]"]
    assert rep["torsion_generators"] == ["[1]"]


def test_main_theorem_mixed_module():
    rep = verify_main_theorem(MIXED)
    assert rep["equal"]
    assert rep["defect_generators"] == ["[0, 1]"]
    assert rep["torsion_generators"] == ["[0, 1]"]


def test_main_theorem_presents_neither_kernel():
    # the theorem compares the two kernels' images in A; neither kernel's
    # own relations are built
    a = dict(corpus.main_theorem_modules())["random-xy-0"]
    groebner._CACHE.clear()
    assert verify_main_theorem(a).ok
    d, emb = defect(stable_hom(a))
    t, iota = bass_torsion(a)
    keys = [("syzygies_mod", emb.mat, a.relations),
            ("syzygies_mod", iota.mat, a.relations)]
    assert not any(key in groebner._CACHE for key in keys)
    d.relations, t.relations  # forced, they land under those keys
    assert all(key in groebner._CACHE for key in keys)


def test_verify_all_completes_no_tracked_basis(monkeypatch, capsys):
    # lifts, Hom and Nat encodings and _factor_through all read an
    # elimination basis: no cofactors are tracked
    callers = []
    original = groebner.extended_buchberger

    def counting(*args, **kwargs):
        callers.append({f.name for f in traceback.extract_stack()})
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "extended_buchberger", counting)
    groebner._CACHE.clear()
    assert main(["verify", "--all", "--seed", "1"]) == 0
    capsys.readouterr()
    assert callers == []


def test_kernel_columns_span_the_source_relations():
    # a kernel's columns are the reduced basis of a preimage that contains
    # every relation of the source: the basis of the columns alone is that
    # of the columns and the relations together
    embeddings = [bass_torsion(MIXED)[1]]
    for _, a in corpus.main_theorem_modules():
        embeddings += [defect(stable_hom(a))[1], bass_torsion(a)[1]]
    for phi in embeddings:
        t = phi.target
        alone = buchberger(phi.mat.columns(), ring=t.ring, rank=t.ngens)
        both = buchberger(phi.mat.columns() + t.relations.columns(),
                          ring=t.ring, rank=t.ngens)
        assert alone.gens == both.gens


def test_main_theorem_images_compare_through_their_column_bases(monkeypatch):
    # once both kernels are built, each image is the stored basis of its
    # columns: the comparison completes nothing, reduces no relation of A
    # and checks each column of each embedding once
    def refused(*args):
        raise AssertionError("the image comparison started a completion")

    original = GrobnerBasis.contains
    checked = []

    def counting(self, v):
        checked.append(v)
        return original(self, v)

    for _, a in corpus.main_theorem_modules():
        groebner._CACHE.clear()
        _, emb = defect(stable_hom(a))
        _, iota = bass_torsion(a)
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_complete", refused)
            patch.setattr(GrobnerBasis, "contains", counting)
            checked.clear()
            assert functors._image_membership_witness(emb, iota) is None
        assert len(checked) == emb.mat.ncols + iota.mat.ncols


def test_main_theorem_report_serialization(monkeypatch):
    # a Report equals the dict --json prints, keys in output order; the
    # verdict is an attribute and never a key
    module = {"ngens": 1, "relations": "[[x]]"}
    rep = verify_main_theorem(MOD_X)
    assert isinstance(rep, Report) and rep.ok is True
    assert rep == {"check": "main-theorem", "module": module,
                   "defect_generators": ["[1]"],
                   "torsion_generators": ["[1]"], "equal": True}
    assert list(rep) == ["check", "module", "defect_generators",
                         "torsion_generators", "equal"]
    assert "ok" not in rep
    assert json.loads(json.dumps(rep)) == rep
    with pytest.raises(AttributeError):
        rep.witness = None  # the verdict is the only attribute
    # a failed check carries the generator the images disagree on
    monkeypatch.setattr(functors, "_image_membership_witness",
                        lambda phi, psi: "defect generator [1] not in torsion")
    failed = verify_main_theorem(MOD_X)
    assert failed.ok is False and failed["equal"] is False
    assert list(failed)[-2:] == ["equal", "witness"]
    assert failed["witness"] == "defect generator [1] not in torsion"


def _deferred_report(calls):
    """A Report with deferred entries, one of them nested; each function
    logs its name in calls when it runs."""
    def entry(name, value):
        def compute():
            calls.append(name)
            return value
        return compute

    inner = Report(True, lists=entry("inner", ["[1]"]), n=2)
    return Report(False, a=1, b=entry("b", ["[x]", "[y]"]), nested=inner,
                  c=entry("c", []))


DEFERRED = {"a": 1, "b": ["[x]", "[y]"], "nested": {"lists": ["[1]"], "n": 2},
            "c": []}

DEFERRED_READS = {
    "getitem": lambda r: {key: r[key] for key in r},
    "get": lambda r: {key: r.get(key) for key in r},
    "items": lambda r: dict(r.items()),
    "values": lambda r: dict(zip(r, r.values())),
    "dict": dict,
    "kwargs": lambda r: Report(r.ok, **r),
    "unpack": lambda r: {**r},
    "json": lambda r: json.loads(json.dumps(r)),
    "json-indent": lambda r: json.loads(json.dumps(r, indent=2)),
}


@pytest.mark.parametrize("read", sorted(DEFERRED_READS))
def test_every_read_of_a_report_sees_its_deferred_entries(read):
    calls = []
    rep = _deferred_report(calls)
    assert list(rep) == list(DEFERRED) and len(rep) == 4 and calls == []
    for _ in range(2):
        seen = DEFERRED_READS[read](rep)
        assert not any(callable(v) for v in seen.values())
        assert seen == DEFERRED
    # each function ran once, and the key order is kept
    assert sorted(calls) == ["b", "c", "inner"]
    assert list(rep) == list(DEFERRED) and rep.ok is False


def test_deferred_entries_compare_print_and_serialize_as_values():
    for check in (lambda r: r == DEFERRED, lambda r: DEFERRED == r,
                  lambda r: not r != DEFERRED,
                  lambda r: r == _deferred_report([]),
                  lambda r: repr(r) == repr(DEFERRED),
                  lambda r: json.dumps(r) == json.dumps(DEFERRED),
                  lambda r: json.dumps(r, indent=2)
                  == json.dumps(DEFERRED, indent=2)):
        calls = []
        assert check(_deferred_report(calls))
        assert sorted(calls) == ["b", "c", "inner"]
    assert _deferred_report([]) != dict(DEFERRED, c=[0])


def test_an_unread_deferred_entry_never_runs():
    calls = []
    rep = _deferred_report(calls)
    assert rep["b"] == ["[x]", "[y]"] and rep["b"] is rep.get("b")
    assert rep["a"] == 1 and rep.get("missing", 0) == 0
    assert "c" in rep and calls == ["b"]
    assert rep["nested"]["n"] == 2 and calls == ["b"]


def test_a_nested_theorem_check_serializes_alike_with_and_without_indent():
    # the C encoder (no indent) and the Python one (indent) each read a
    # nested Report's deferred generator lists
    from malgrange.control import ControlSystem, autonomy_report
    rd = ring("d")
    sysm = ControlSystem(rd, ["x", "u"], PolyMatrix(rd, 1, 2, [
        [parse_poly("d^2", rd), parse_poly("0", rd)]]))
    flat = json.dumps(autonomy_report(sysm))
    indented = json.dumps(autonomy_report(sysm), indent=2)
    assert indented == json.dumps(json.loads(flat), indent=2)
    check = json.loads(flat)["theorem_check"]
    assert check["defect_generators"] == check["torsion_generators"] \
        == ["[1, 0]"]


def test_adjunction_report_serialization(monkeypatch):
    module = {"ngens": 1, "relations": "[[x]]"}
    adj = verify_adjunction(representable(MOD_X), MOD_X)
    assert isinstance(adj, Report)
    functor = {"f": "[]", "Y": module, "X": {"ngens": 0, "relations": "[]"}}
    assert adj == {"check": "adjunction", "functor": functor,
                   "module": module, "nat_generators": 1,
                   "hom_generators": 1, "injective": True,
                   "surjective": True, "bijective": True}
    assert list(adj) == ["check", "functor", "module", "nat_generators",
                         "hom_generators", "injective", "surjective",
                         "bijective"]
    assert adj.ok is True and "ok" not in adj
    assert json.loads(json.dumps(adj)) == adj
    # a comparison map that is not onto fails, and says which half holds
    monkeypatch.setattr(functors, "is_surjective", lambda phi: False)
    half = verify_adjunction(representable(MOD_X), MOD_X)
    assert half.ok is False
    assert (half["injective"], half["surjective"], half["bijective"]) \
        == (True, False, False)


def test_main_theorem_functoriality():
    # a morphism A -> B carries the verified submodule of A into that of B
    rng = random.Random(7)
    mods = [MOD_X, MOD_X2, MIXED]
    for _ in range(6):
        a, b = rng.choice(mods), rng.choice(mods)
        h = hom_module(a, b)
        if h.ngens == 0:
            continue
        phi = h.decode(rng.choice(h.generators()))
        ka = defect(stable_hom(a))[1]
        kb = defect(stable_hom(b))[1]
        gb = buchberger(kb.mat.columns() + b.relations.columns(),
                        ring=b.ring, rank=b.ngens)
        for j in range(ka.mat.ncols):
            assert gb.contains(phi.mat.mul_vec(ka.mat.column(j)))


def test_adjunction_spot_checks():
    # representable target: Yoneda on both sides
    rep = verify_adjunction(representable(MOD_X), MOD_X2)
    assert rep["bijective"] and rep.ok
    # F = stable_hom(M), A = the ring: both sides are the torsion of M
    rep2 = verify_adjunction(stable_hom(MIXED), R1)
    assert rep2.ok
    t, _ = bass_torsion(MIXED)
    assert rep2["nat_generators"] == rep2["hom_generators"]
    assert q_dimension(t) == q_dimension(hom_module(R1, defect(stable_hom(MIXED))[0]))
    rep3 = verify_adjunction(tensor_functor(MOD_X2), MIXED)
    assert rep3.ok


# -- Nat comparisons: one lift against the per-generator definitions ---------------


def _reference_adjunction_map(fun, a):
    """Nat(F, Hom(A,-)) -> Hom(A, Ker f_F) one generator at a time: decode
    the transformation, lift its carrier through Ker f_F, and take the
    class of the flattened lift in Hom(A, Ker f_F)."""
    n = nat_hom(fun, representable(a))
    w, emb = defect(fun)
    h = hom_module(a, w)
    flat = [_flatten(lift_through(emb, n.decode(gen).b).mat).column(0)
            for gen in n.generators()]
    return Morphism(n, h, h.classes(
        PolyMatrix.from_columns(a.ring, a.ngens * w.ngens, flat)))


def _reference_defect_comparison(fun):
    """Nat(F, Hom(R,-)) -> Ker f_F from the decoded carriers' columns."""
    n = defect_via_nat(fun)
    _, emb = defect(fun)
    cols = [n.decode(gen).b.mat.column(0) for gen in n.generators()]
    return lift_through(emb, Morphism(n, fun.y, PolyMatrix.from_columns(
        fun.y.ring, fun.y.ngens, cols)))


def _nat_comparison_cases(r):
    """(functor, module) pairs over r: the corpus adjunction pairs, each
    corpus functor with its own Y, and the representable, tensor and
    stable Hom functors of seeded random cokernels, each with another
    draw."""
    cases = [(fun, a) for _, fun, _, a in corpus.adjunction_pairs()
             if a.ring == r]
    cases += [(fun, fun.y) for _, fun in corpus.corpus_functors()
              if fun.y.ring == r]
    rng = random.Random(2511 + r.nvars)
    for _ in range(2):
        b = corpus.random_cokernel(r, rng, 2, rng.randint(1, 3))
        a = corpus.random_cokernel(r, rng, rng.randint(1, 2),
                                   rng.randint(1, 2))
        cases += [(make(b), a)
                  for make in (representable, tensor_functor, stable_hom)]
    return cases


def _bijection(phi):
    return {"injective": is_injective(phi), "surjective": is_surjective(phi),
            "bijective": is_isomorphism(phi)}


@pytest.mark.parametrize("r", [RX, RXY], ids=["x", "xy"])
def test_nat_comparisons_equal_their_per_generator_definitions(r, monkeypatch):
    # the adjunction's comparison map is the one it tests for injectivity
    maps = []

    def capture(phi):
        maps.append(phi)
        return is_injective(phi)

    monkeypatch.setattr(functors, "is_injective", capture)
    cases = _nat_comparison_cases(r)
    assert len(cases) >= 10
    for fun, a in cases:
        rep = verify_adjunction(fun, a)
        ref = _reference_adjunction_map(fun, a)
        assert maps.pop() == ref, (fun, a)
        assert list(rep) == ["check", "functor", "module", "nat_generators",
                             "hom_generators", "injective", "surjective",
                             "bijective"]
        assert rep == {**rep, "nat_generators": ref.source.ngens,
                       "hom_generators": ref.target.ngens, **_bijection(ref)}
        assert rep.ok is rep["bijective"]
        new, ref = defect_comparison(fun), _reference_defect_comparison(fun)
        assert new == ref, fun
        assert _bijection(new) == _bijection(ref)


def test_nat_comparisons_make_one_lift_and_decode_nothing(monkeypatch):
    # the carriers are read off the Nat module's embedding: no generator
    # is decoded into a transformation, and its compatibility witness
    # is never solved
    def refuse(*args, **kwargs):
        raise AssertionError("a Nat generator took the per-generator route")

    monkeypatch.setattr(NatModule, "decode", refuse)
    monkeypatch.setattr(FunMorphism, "__init__", refuse)
    monkeypatch.setattr(Element, "__init__", refuse)
    # the adjunction lifts by one solve_mod, the defect by one lift_through
    callers = []

    def counting(original):
        def call(*args):
            callers.append(traceback.extract_stack(limit=2)[0].name)
            return original(*args)
        return call

    monkeypatch.setattr(functors, "lift_through",
                        counting(functors.lift_through))
    monkeypatch.setattr(functors, "solve_mod", counting(functors.solve_mod))
    for _, fun, _, a in corpus.adjunction_pairs():
        callers.clear()
        assert verify_adjunction(fun, a).ok
        assert callers.count("verify_adjunction") == 1
    for _, fun in corpus.corpus_functors():
        callers.clear()
        assert is_isomorphism(defect_comparison(fun))
        assert callers.count("defect_comparison") == 1


def test_nat_carrier_maps_are_checked_morphisms(monkeypatch):
    # the carriers' matrix is checked as a map out of the Nat module
    # before it is lifted: into Hom(A, Y) for the adjunction, into Y for
    # the defect
    checked = []
    original = GrobnerBasis.first_product_outside

    def recording(self, a, c):
        checked.append(a)
        return original(self, a, c)

    monkeypatch.setattr(GrobnerBasis, "first_product_outside", recording)
    for _, fun, _, a in corpus.adjunction_pairs():
        checked.clear()
        verify_adjunction(fun, a)
        assert nat_hom(fun, representable(a))._into_h1 in checked
    for _, fun in corpus.corpus_functors():
        checked.clear()
        defect_comparison(fun)
        n = defect_via_nat(fun)
        assert n._h1.emb.mat * n._into_h1 in checked
