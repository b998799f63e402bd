import pytest

from malgrange.rings import ring
from malgrange.parsing import ParseError, parse_poly
from malgrange.groebner import PolyMatrix
from malgrange.modules import FPModule, Morphism, is_isomorphism
from malgrange.session import Session, parse_session


def err_at(text):
    with pytest.raises(ParseError) as exc:
        parse_session(text)
    return exc.value.line, exc.value.col


def test_sessions_share_no_container():
    a, b = Session(ring("d")), Session(ring("d"))
    a.systems["S"] = a.modules["M"] = None
    a.bindings.append(("module", "M"))
    a.commands.append(("torsion", ("M",)))
    for name in ("systems", "modules", "bindings", "commands"):
        assert getattr(a, name) and not getattr(b, name), name
    assert not parse_session("ring Q[d];").bindings


# -- well-formed sessions -----------------------------------------------------------


def test_system_binding():
    s = parse_session("ring Q[d]; system S = [[d, -1]] vars x, u;")
    assert list(s.ring.var_names) == ["d"]
    sys = s.systems["S"]
    assert sys.unknowns == ("x", "u")
    rd = ring("d")
    assert sys.mat == PolyMatrix(rd, 1, 2, [[parse_poly("d", rd),
                                             parse_poly("-1", rd)]])
    assert s.bindings == [("system", "S")]


def test_module_binding_rows_are_relations():
    # one relation row on two generators: 2 gens, 1 relation column
    s = parse_session("ring Q[d1,d2]; module M = coker [[d1, d2]];")
    m = s.modules["M"]
    assert m.ngens == 2
    assert m.relations.nrows == 2 and m.relations.ncols == 1
    rdd = ring("d1", "d2")
    assert m.relations.column(0).entries == (parse_poly("d1", rdd),
                                             parse_poly("d2", rdd))


def test_whitespace_insensitive():
    a = parse_session("ring Q[d]; module M = coker [[d^2, 1], [0, d]];")
    b = parse_session("ring  Q [ d ] ;\n module M =\n  coker [\n"
                      "  [ d^2 , 1 ] ,\n  [ 0 , d ]\n ] ;")
    assert a.modules["M"] == b.modules["M"]


def test_rational_coefficients_and_powers():
    s = parse_session("ring Q[d]; module M = coker [[1/2*d^2 + d]];")
    rd = ring("d")
    assert s.modules["M"].relations.at(0, 0) == parse_poly("1/2*d^2+d", rd)


def test_command_list_in_order():
    s = parse_session(
        "ring Q[d]; module M = coker [[d]]; system S = [[d]] vars x; "
        "verify; torsion M; hom M S; gb S; defect M; analyze S;")
    assert s.commands == [("verify", ()), ("torsion", ("M",)),
                         ("hom", ("M", "S")), ("gb", ("S",)),
                         ("defect", ("M",)), ("analyze", ("S",))]


def test_module_of_resolves_systems():
    s = parse_session("ring Q[d]; system S = [[d, -1]] vars x, u;")
    m = s.module_of("S")
    rd = ring("d")
    assert is_isomorphism(Morphism(
        FPModule.free(rd, 1), m,
        PolyMatrix(rd, 2, 1, [[parse_poly("1", rd)], [parse_poly("0", rd)]])))


def test_matrix_text_round_trips():
    src = "ring Q[x,y]; module M = coker [[x^2 + y, 1], [0, x*y - 2]];"
    m = parse_session(src).modules["M"]
    # rows of the displayed relation matrix are columns of the presentation
    again = parse_session(
        f"ring Q[x,y]; module M = coker {m.relations.transpose()};")
    assert again.modules["M"] == m
    assert again.modules["M"].relations == m.relations


def test_empty_command_list_allowed():
    s = parse_session("ring Q[d];")
    assert s.commands == [] and s.bindings == []


# -- errors carry line and column (0-based columns) -----------------------------------


def test_empty_ring_declaration():
    assert err_at("ring Q[]") == (1, 7)


def test_missing_ring_declaration():
    assert err_at("module M = coker [[d]];") == (1, 0)


def test_non_rational_base_ring():
    assert err_at("ring Z[d];") == (1, 5)


def test_duplicate_ring_variable():
    assert err_at("ring Q[d,d];") == (1, 0)


def test_duplicate_ring_declaration():
    assert err_at("ring Q[d]; ring Q[e];") == (1, 11)


def test_unknown_statement():
    assert err_at("ring Q[d]; frobnicate M;") == (1, 11)


def test_unknown_identifier_in_command():
    assert err_at("ring Q[d]; torsion M;") == (1, 19)


def test_vars_arity_mismatch():
    assert err_at("ring Q[d]; system S = [[d, -1]] vars x;") == (1, 32)


def test_row_arity_mismatch():
    assert err_at("ring Q[d]; module M = coker [[d],[d,1]];") == (1, 33)


def test_missing_terminator():
    assert err_at("ring Q[d]; module M = coker [[d]]") == (1, 33)


def test_analyze_rejects_modules():
    text = "ring Q[d]; module M = coker [[d]]; analyze M;"
    assert err_at(text) == (1, 43)


def test_duplicate_binding_name():
    text = "ring Q[d]; module M = coker [[d]]; module M = coker [[d]];"
    assert err_at(text) == (1, 42)


def test_error_position_on_later_lines():
    assert err_at("ring Q[d];\nmodule M = coker [[d,]];") == (2, 21)


def test_unknown_variable_in_poly():
    line, col = err_at("ring Q[d]; module M = coker [[e]];")
    assert (line, col) == (1, 30)
