"""The reference engine (``reference_engine.py``) is independent of the
engine it checks.

It converts at the boundary only: from ``malgrange`` it imports the
public value types and the grevlex key, nothing of ``groebner``'s integer
layer.  So a fault in a routine that both sides of an engine check share
passes the engine's own certificates and still shows against the
reference.
"""

import ast
from pathlib import Path

import malgrange.groebner as groebner
from malgrange.groebner import PolyMatrix, Vector, buchberger, syzygies_mod
from malgrange.parsing import parse_poly
from malgrange.rings import ring
from reference_engine import (reference_buchberger, reference_divide,
                              reference_syzygies_mod)

REFERENCE = Path(__file__).with_name("reference_engine.py")
BOUNDARY = {("malgrange.groebner", "PolyMatrix"),
            ("malgrange.groebner", "Vector"), ("malgrange.rings", "Poly"),
            ("malgrange.rings", "ring"), ("malgrange.rings", "GREVLEX")}

RXY = ring("x", "y")


def vec(*texts):
    return Vector(RXY, [parse_poly(t, RXY) for t in texts])


def _malgrange_imports(source: str):
    """(module, name) for each name imported from malgrange, with "*" for
    a module imported whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[0] == "malgrange":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "*") for alias in node.names
                      if alias.name.split(".")[0] == "malgrange"]
    return found


def test_an_import_of_the_integer_layer_is_found():
    source = ("from malgrange.groebner import Vector, _reduce\n"
              "import malgrange.groebner as g\n"
              "from fractions import Fraction\n")
    assert _malgrange_imports(source) == [("malgrange.groebner", "Vector"),
                                          ("malgrange.groebner", "_reduce"),
                                          ("malgrange.groebner", "*")]


def test_the_reference_imports_only_the_boundary_types():
    imports = _malgrange_imports(REFERENCE.read_text(encoding="utf-8"))
    assert imports, "the reference converts nothing"
    assert not [name for _, name in imports if name.startswith("_")]
    assert set(imports) <= BOUNDARY, set(imports) - BOUNDARY


def test_the_reference_divides_as_the_textbook_does():
    # x^2*y + x*y^2 + y^2 by [x*y - 1] and [y^2 - 1] (Cox, Little and
    # O'Shea, Ideals, Varieties, and Algorithms, ch. 2, section 3)
    rem, q = reference_divide(vec("x^2*y + x*y^2 + y^2"),
                              [vec("x*y - 1"), vec("y^2 - 1")])
    assert rem == vec("x + y + 1")
    assert q == [parse_poly("x + y", RXY), parse_poly("1", RXY)]


def _minimal_only(basis):
    """``groebner._interreduce`` without its tail-reduction pass: the
    minimal basis, not the reduced one."""
    layout = basis.layout
    minimal = groebner._IntBasis(layout, basis.rank)
    for i in sorted(range(len(basis)), key=basis.leads.__getitem__,
                    reverse=True):
        lead = basis.leads[i]
        if not any(layout.divides(e, lead) for _, e, _, _
                   in minimal.by_pos.get(lead >> layout.pos_shift, ())):
            minimal.add(basis.terms[i], lead)
    return minimal


def test_a_shared_fault_passes_the_engine_and_fails_the_reference(
        monkeypatch):
    # a completion that skips tail-reduction still yields a Groebner
    # basis: every input reduces to zero against it, and the kernels read
    # off it multiply out, so no engine check raises.  Only a side that
    # shares no code with the completion sees that the basis is not the
    # reduced one
    gens = [vec("x", "y"), vec("y^2", "x*y - 1"), vec("x^2", "y")]
    a = PolyMatrix.from_columns(RXY, 2, gens)
    none = PolyMatrix.zeros(RXY, 2, 0)
    want = reference_buchberger(gens, RXY, 2)
    groebner._CACHE.clear()
    assert list(buchberger(gens).gens) == want
    assert syzygies_mod(a, none).columns() == reference_syzygies_mod(a, none)
    monkeypatch.setattr(groebner, "_interreduce", _minimal_only)
    groebner._CACHE.clear()
    got = buchberger(gens)
    assert all(got.contains(v) for v in gens)
    assert syzygies_mod(a, none).ncols  # certified by multiplying out
    assert list(got.gens) != want
