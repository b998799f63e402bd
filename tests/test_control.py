import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from malgrange.rings import ring
from malgrange.parsing import parse_poly
from malgrange import control, functors, groebner, modules
from malgrange.groebner import PolyMatrix
from malgrange.modules import (FPModule, Morphism, bass_torsion, cokernel,
                               hom_module, is_isomorphism, q_dimension)
from malgrange.control import (ControlSystem, autonomy, autonomy_report,
                               is_controllable, malgrange_check,
                               malgrange_module, solution_module)
from malgrange.functors import Report
from malgrange import corpus

from reference_engine import reference_syzygies_mod

RD = ring("d")
RDD = ring("d1", "d2")


def mat(r, rows):
    return PolyMatrix(r, len(rows), len(rows[0]),
                      [[parse_poly(s, r) for s in row] for row in rows])


def coker_of(r, rows):
    m = mat(r, rows)
    return FPModule(r, m.ncols, m.transpose())


INTEGRATOR = ControlSystem(RD, ["x", "u"], mat(RD, [["d", "-1"]]))
FREE_DRIFT = ControlSystem(RD, ["x"], mat(RD, [["d"]]))
DIVERGENCE = ControlSystem(RDD, ["y1", "y2"], mat(RDD, [["d1", "d2"]]))
GRADIENT = ControlSystem(RDD, ["y"], mat(RDD, [["d1"], ["d2"]]))


# -- construction ------------------------------------------------------------------


def test_system_validation():
    with pytest.raises(ValueError):
        ControlSystem(RD, ["x"], mat(RD, [["d", "-1"]]))
    with pytest.raises(ValueError):
        ControlSystem(RD, ["x", "x"], mat(RD, [["d", "-1"]]))
    with pytest.raises(ValueError):
        ControlSystem(RDD, ["x", "u"], mat(RD, [["d", "-1"]]))


def test_system_shape():
    assert INTEGRATOR.n_equations == 1
    assert INTEGRATOR.n_unknowns == 2
    assert GRADIENT.n_equations == 2


# -- the Malgrange module -----------------------------------------------------------


def test_malgrange_module_of_integrator_is_free_of_rank_one():
    # d*x - u = 0 makes u redundant: M is free on the class of x
    m = malgrange_module(INTEGRATOR)
    assert m.ngens == 2
    emb = Morphism(FPModule.free(RD, 1), m, mat(RD, [["1"], ["0"]]))
    assert is_isomorphism(emb)


def test_malgrange_module_of_free_drift():
    assert malgrange_module(FREE_DRIFT) == coker_of(RD, [["d"]])


def test_malgrange_module_of_gradient():
    assert malgrange_module(GRADIENT) == coker_of(RDD, [["d1"], ["d2"]])


def test_malgrange_relations_are_transposed_equations():
    m = malgrange_module(DIVERGENCE)
    assert m.relations == DIVERGENCE.mat.transpose()


# -- the Malgrange isomorphism Hom(M, V) = Sol(V) -------------------------------------


def test_scalar_operator_probe():
    # single equation x*w = 0 probed at R/(x^2): both sides are R/(x)
    rx = ring("x")
    sys = ControlSystem(rx, ["w"], mat(rx, [["x"]]))
    v = coker_of(rx, [["x^2"]])
    rep = malgrange_check(sys, v)
    assert rep["bijective"] and rep.ok
    assert q_dimension(hom_module(malgrange_module(sys), v)) == 1
    sol, _ = solution_module(sys, v)
    assert q_dimension(sol) == 1


def test_integrator_solutions_are_free_choices_of_x():
    for v in (FPModule.free(RD, 1), coker_of(RD, [["d^3"]])):
        rep = malgrange_check(INTEGRATOR, v)
        assert rep["bijective"]
        sol, _ = solution_module(INTEGRATOR, v)
        assert q_dimension(sol) == q_dimension(v)


def test_zero_probe():
    v = FPModule(RD, 1, mat(RD, [["1"]]))
    rep = malgrange_check(INTEGRATOR, v)
    assert rep["bijective"]
    assert (rep["hom_generators"] == rep["solution_generators"] == 0
            or rep["bijective"])


def test_malgrange_check_all_corpus_pairs():
    for sname, sys, pname, probe in corpus.malgrange_pairs():
        rep = malgrange_check(sys, probe)
        assert rep["bijective"], (sname, pname)


def test_malgrange_check_report_serialization():
    rep = malgrange_check(FREE_DRIFT, coker_of(RD, [["d^2"]]))
    assert rep["check"] == "malgrange"
    assert rep["bijective"] is True
    json.dumps(rep)


def _completions(monkeypatch, run):
    """The ``groebner._complete`` calls run() makes on a cold cache."""
    calls = []
    original = groebner._complete

    def counting(*args):
        calls.append(args)
        return original(*args)

    groebner._CACHE.clear()
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_complete", counting)
        run()
    return len(calls)


def test_the_malgrange_check_completes_only_hom(monkeypatch):
    # the check compares the images of two kernel embeddings in V^q by the
    # bases their kernels cached: it completes only what the build of
    # Hom(M, V) needs, and never its relations, which are built on first
    # read; it lifts, solves and tests no map between the two sides
    def refuse(*args):
        raise AssertionError("the Malgrange check built a comparison map")

    fewer = 0
    for sname, sys, pname, probe in corpus.malgrange_pairs():
        hom = _completions(monkeypatch, lambda: hom_module(
            malgrange_module(sys), probe))
        presented = _completions(monkeypatch, lambda: hom_module(
            malgrange_module(sys), probe).relations)
        fewer += hom < presented
        with monkeypatch.context() as patch:
            for owner in (groebner, modules, functors, control):
                for name in ("lift_through", "solve_mod", "is_injective",
                             "is_surjective"):
                    if hasattr(owner, name):
                        patch.setattr(owner, name, refuse)
            check = _completions(patch, lambda: malgrange_check(sys, probe))
        assert check == hom, (sname, pname)
    # reading the relations completes a basis that the check does not
    assert fewer


def _solution_draw(r, rng):
    """A system of at most 2 equations in at most 3 unknowns, entries of
    degree at most 2, and a probe on n <= 2 generators with at most 3 - n
    relations of degree 1, over r.  The textbook engine eliminates in
    rank n * (equations + unknowns), which is kept at most 8: at rank 10,
    or with probe relations of degree 2, some draws over Q[x,y] take it
    longer than 10 s."""
    p, q, deg = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2)
    rows = [[corpus.random_poly(r, rng, deg) for _ in range(q)]
            for _ in range(p)]
    sys = ControlSystem(r, [f"w{i}" for i in range(q)],
                        PolyMatrix(r, p, q, rows))
    n = rng.randint(1, 2) if p + q <= 4 else 1
    return sys, corpus.random_cokernel(r, rng, n, rng.randint(0, 3 - n), 1)


def _assert_solutions_match_the_reference(sys, v):
    # Sol(V) is the reduced basis of {c in V^q : (A (x) I) c = 0 in V^p},
    # computed here by the textbook engine
    action = PolyMatrix.kron(sys.mat, PolyMatrix.identity(v.ring, v.ngens))
    vp = PolyMatrix.block_diag(v.ring, [v.relations] * sys.n_equations)
    expected = reference_syzygies_mod(action, vp)
    assert solution_module(sys, v)[1].mat.columns() == expected, (sys, v)
    assert malgrange_check(sys, v).ok, (sys, v)


def test_corpus_solutions_match_the_reference_engine():
    for _, sys, _, probe in corpus.malgrange_pairs():
        _assert_solutions_match_the_reference(sys, probe)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([ring("x"), ring("x", "y")]))
def test_drawn_solutions_match_the_reference_engine(seed, r):
    _assert_solutions_match_the_reference(
        *_solution_draw(r, random.Random(seed)))


# -- autonomy and controllability ------------------------------------------------------


def test_integrator_is_controllable():
    t, _ = autonomy(INTEGRATOR)
    assert t.is_zero()
    assert is_controllable(INTEGRATOR)


def test_free_drift_is_fully_autonomous():
    assert not is_controllable(FREE_DRIFT)
    t, _ = autonomy(FREE_DRIFT)
    m = malgrange_module(FREE_DRIFT)
    assert q_dimension(t) == q_dimension(m) == 1
    rep = autonomy_report(FREE_DRIFT)
    assert len(rep["autonomy"]) == 1
    gen = rep["autonomy"][0]
    assert gen["combination"] == "x"
    assert gen["annihilators"][0] == "d"


def test_analysis_report_serialization():
    # the analysis nests its main-theorem Report, and its verdict is that
    # report's; each autonomy entry is a plain dict
    rep = autonomy_report(FREE_DRIFT)
    module = {"ngens": 1, "relations": "[[d]]"}
    check = {"check": "main-theorem", "module": module,
             "defect_generators": ["[1]"], "torsion_generators": ["[1]"],
             "equal": True}
    assert rep == {
        "check": "analysis", "system": "[[d]]", "unknowns": ["x"],
        "malgrange": module,
        "autonomy": [{"combination": "x", "element": "[1]",
                      "annihilators": ["d"]}],
        "controllable": False, "theorem_check": check}
    assert list(rep) == ["check", "system", "unknowns", "malgrange",
                         "autonomy", "controllable", "theorem_check"]
    assert isinstance(rep["theorem_check"], Report)
    assert type(rep["autonomy"][0]) is dict
    assert rep.ok is rep["theorem_check"].ok is True
    assert "ok" not in rep


def test_controllability_computes_no_torsion_relations(monkeypatch):
    # is_controllable asks whether the torsion generators vanish in M, as
    # autonomy_report does, and agrees with it; on a cold cache it never
    # eliminates against the torsion embedding to present T itself
    original = groebner.syzygies_mod
    for name, sys in corpus.control_corpus():
        firsts = []

        def recording(a, b):
            firsts.append(a)
            return original(a, b)

        groebner._CACHE.clear()
        for module in (groebner, modules):
            monkeypatch.setattr(module, "syzygies_mod", recording)
        controllable = is_controllable(sys)
        monkeypatch.undo()
        iota = autonomy(sys)[1]
        assert iota.mat not in firsts, name
        assert controllable == autonomy_report(sys)["controllable"], name


def test_divergence_is_controllable():
    assert is_controllable(DIVERGENCE)
    rep = autonomy_report(DIVERGENCE)
    assert rep["controllable"]
    assert rep["autonomy"] == []
    assert rep.ok


def test_gradient_is_fully_autonomous():
    assert not is_controllable(GRADIENT)
    rep = autonomy_report(GRADIENT)
    assert len(rep["autonomy"]) == 1
    gen = rep["autonomy"][0]
    assert gen["combination"] == "y"
    assert set(gen["annihilators"]) == {"d1", "d2"}


def test_mixed_system_has_one_autonomy_generator():
    # equations d*x = 0 and u = 0: M = R/(d) (+) 0
    sys = ControlSystem(RD, ["x", "u"], mat(RD, [["d", "0"], ["0", "1"]]))
    rep = autonomy_report(sys)
    assert not rep["controllable"]
    assert len(rep["autonomy"]) == 1
    assert rep["autonomy"][0]["combination"] == "x"
    assert rep["autonomy"][0]["annihilators"][0] == "d"


def test_partially_autonomous_system():
    # d*x = 0 with u unconstrained: autonomy is R/(d), quotient is free
    sys = ControlSystem(RD, ["x", "u"], mat(RD, [["d", "0"]]))
    assert not is_controllable(sys)
    t, iota = autonomy(sys)
    assert q_dimension(t) == 1
    q, _ = cokernel(iota)
    assert bass_torsion(q)[0].is_zero()


def test_quotient_by_autonomy_is_torsion_free():
    for name, sys in corpus.control_corpus():
        t, iota = autonomy(sys)
        q, _ = cokernel(iota)
        assert bass_torsion(q)[0].is_zero(), name


def test_autonomy_agrees_with_defect_on_corpus():
    for name, sys in corpus.control_corpus():
        rep = autonomy_report(sys)
        assert rep["theorem_check"]["equal"], name
        assert rep.ok, name


def test_redundant_equation_changes_nothing():
    # append d*(row 0) + row 1 to the gradient system
    extended = ControlSystem(
        RDD, ["y"], mat(RDD, [["d1"], ["d2"], ["d1*d1+d2"]]))
    base = autonomy_report(GRADIENT)
    ext = autonomy_report(extended)
    m0, m1 = malgrange_module(GRADIENT), malgrange_module(extended)
    assert m0.gb.gens == m1.gb.gens
    assert ext["controllable"] == base["controllable"]
    assert [g["combination"] for g in ext["autonomy"]] \
        == [g["combination"] for g in base["autonomy"]]
    assert [set(g["annihilators"]) for g in ext["autonomy"]] \
        == [set(g["annihilators"]) for g in base["autonomy"]]


def test_analysis_report_is_json_serializable():
    rep = autonomy_report(FREE_DRIFT)
    assert rep["check"] == "analysis"
    assert rep["controllable"] is False
    assert rep["autonomy"][0]["annihilators"] == ["d"]
    assert rep["theorem_check"]["equal"] is True
    assert json.loads(json.dumps(rep)) == rep
