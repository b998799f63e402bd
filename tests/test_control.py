import json

import pytest

from malgrange.rings import ring
from malgrange.parsing import parse_poly
from malgrange.groebner import PolyMatrix
from malgrange.modules import (FPModule, Morphism, bass_torsion, cokernel,
                               hom_module, is_isomorphism, q_dimension)
from malgrange.control import (AutonomyGenerator, ControlSystem, autonomy,
                               autonomy_report, is_controllable,
                               malgrange_check, malgrange_module,
                               solution_module)
from malgrange import corpus

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
    assert rep.bijective and rep.ok
    assert q_dimension(hom_module(malgrange_module(sys), v)) == 1
    sol, _ = solution_module(sys, v)
    assert q_dimension(sol) == 1


def test_integrator_solutions_are_free_choices_of_x():
    for v in (FPModule.free(RD, 1), coker_of(RD, [["d^3"]])):
        rep = malgrange_check(INTEGRATOR, v)
        assert rep.bijective
        sol, _ = solution_module(INTEGRATOR, v)
        assert q_dimension(sol) == q_dimension(v)


def test_zero_probe():
    v = FPModule(RD, 1, mat(RD, [["1"]]))
    rep = malgrange_check(INTEGRATOR, v)
    assert rep.bijective
    assert rep.source_ngens == rep.target_ngens == 0 or rep.bijective


def test_malgrange_check_all_corpus_pairs():
    for sname, sys, pname, probe in corpus.malgrange_pairs():
        rep = malgrange_check(sys, probe)
        assert rep.bijective, (sname, pname)


def test_malgrange_check_report_serialization():
    rep = malgrange_check(FREE_DRIFT, coker_of(RD, [["d^2"]]))
    d = rep.to_dict()
    assert d["check"] == "malgrange"
    assert d["bijective"] is True
    json.dumps(d)


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
    assert len(rep.generators) == 1
    gen = rep.generators[0]
    assert gen.combination == "x"
    assert gen.witness == "d"


def test_analysis_report_serialization():
    rep = autonomy_report(FREE_DRIFT)
    module = {"ngens": 1, "relations": "[[d]]"}
    check = {"check": "main-theorem", "module": module,
             "defect_generators": ["[1]"], "torsion_generators": ["[1]"],
             "equal": True}
    assert rep.to_dict() == {
        "check": "analysis", "system": "[[d]]", "unknowns": ["x"],
        "malgrange": module,
        "autonomy": [{"combination": "x", "element": "[1]",
                      "annihilators": ["d"]}],
        "controllable": False, "theorem_check": check}
    assert repr(rep.generators[0]) == (
        "AutonomyGenerator(combination='x', element='[1]', "
        "witnesses=('d',))")
    assert repr(rep) == (
        "AnalysisReport(system='[[d]]', unknowns=('x',), "
        "malgrange={'ngens': 1, 'relations': '[[d]]'}, "
        f"generators=({rep.generators[0]!r},), controllable=False, "
        f"theorem_check={rep.theorem_check!r})")
    assert rep.ok
    assert not rep._replace(
        theorem_check=rep.theorem_check._replace(equal=False)).ok
    assert AutonomyGenerator("x", "[1]", ()).witness is None
    for obj, name in ((rep, "controllable"), (rep.generators[0], "element")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_divergence_is_controllable():
    assert is_controllable(DIVERGENCE)
    rep = autonomy_report(DIVERGENCE)
    assert rep.controllable
    assert rep.generators == ()
    assert rep.ok


def test_gradient_is_fully_autonomous():
    assert not is_controllable(GRADIENT)
    rep = autonomy_report(GRADIENT)
    assert len(rep.generators) == 1
    gen = rep.generators[0]
    assert gen.combination == "y"
    assert set(gen.witnesses) == {"d1", "d2"}


def test_mixed_system_has_one_autonomy_generator():
    # equations d*x = 0 and u = 0: M = R/(d) (+) 0
    sys = ControlSystem(RD, ["x", "u"], mat(RD, [["d", "0"], ["0", "1"]]))
    rep = autonomy_report(sys)
    assert not rep.controllable
    assert len(rep.generators) == 1
    assert rep.generators[0].combination == "x"
    assert rep.generators[0].witness == "d"


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
        assert rep.theorem_check.equal, name
        assert rep.ok, name


def test_redundant_equation_changes_nothing():
    # append d*(row 0) + row 1 to the gradient system
    extended = ControlSystem(
        RDD, ["y"], mat(RDD, [["d1"], ["d2"], ["d1*d1+d2"]]))
    base = autonomy_report(GRADIENT)
    ext = autonomy_report(extended)
    m0, m1 = malgrange_module(GRADIENT), malgrange_module(extended)
    assert m0.gb.gens == m1.gb.gens
    assert ext.controllable == base.controllable
    assert [g.combination for g in ext.generators] \
        == [g.combination for g in base.generators]
    assert [set(g.witnesses) for g in ext.generators] \
        == [set(g.witnesses) for g in base.generators]


def test_analysis_report_serialization():
    rep = autonomy_report(FREE_DRIFT)
    d = rep.to_dict()
    assert d["check"] == "analysis"
    assert d["controllable"] is False
    assert d["autonomy"][0]["annihilators"] == ["d"]
    assert d["theorem_check"]["equal"] is True
    json.dumps(d)
