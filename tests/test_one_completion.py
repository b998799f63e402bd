"""Every Groebner basis the engine computes comes from one completion
routine, ``groebner._complete``, which checks its inputs against the
result and returns one untagged integer basis: no other function in
``groebner.py`` constructs a ``_Completion``, and no basis carries tag
positions or a second, cofactor-tracked completion (``extended_buchberger``
and ``SpanSolver`` read the one elimination the engine computes).  The
completion never reads a cofactor: only the readers of a division or an
elimination turn the positions past its leads into polynomials
(``_polys``).  Polynomials enter the integer layer at one place:
``_pack``, which packs a whole sequence of columns at once, is the only
function that calls ``scaled_ints``.  Every product is certified by one
routine too: only ``GrobnerBasis.first_product_outside`` forms a product
of packed columns (``_times``).  The completion's pending pairs are keyed without a layout
(``_pair``): no ``_Completion`` method re-keys them or rebuilds their
heap, and the lcm of a pair is computed once, then packed by
``_IntBasis.lcm_key``.  A matrix's columns are completed by one property
too: only ``PolyMatrix.span`` calls ``buchberger`` on a matrix's
columns, and that property is the one memo of such a basis: a cache
entry keyed by the matrix, with no slot on the matrix and no cache entry
of ``buchberger``'s own.  A completion takes its start and its entering
vectors and nothing else: eliminations start empty, and the one seeded
completion, from a projection of a relation basis
(``_IntBasis.trailing``), is ``colon_ideal``'s, which keeps no memo of
its own.  The core builds nothing it drops: an S-vector and a primitive
part are each one term dict, with no scale or content beside it."""

import ast
import inspect
from pathlib import Path

import malgrange.groebner as groebner
from malgrange.groebner import Vector
from malgrange.parsing import parse_poly
from malgrange.rings import ring

SOURCE = Path(groebner.__file__)
ROUTINE = "_complete"
COFACTOR_FREE = {"_Completion", "_complete", "_interreduce"}
CERTIFICATE = "GrobnerBasis.first_product_outside"
PACKER = "_pack"
SPAN = "PolyMatrix.span"


def _calling_functions(tree: ast.Module, callee: str,
                       methods: bool = False, where=lambda call: True):
    """The name of the outermost function or class around each call of
    callee, by name or as an attribute (x.callee), for which where(call)
    holds, in source order; "<module>" at module level.  With methods, a
    call inside a method of a top-level class is named Class.method."""
    sites = []
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.ClassDef))
                 else "<module>")
        scopes = [(owner, top)]
        if methods and isinstance(top, ast.ClassDef):
            scopes = [(f"{owner}.{node.name}"
                       if isinstance(node, ast.FunctionDef) else owner, node)
                      for node in top.body]
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and callee in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)) and where(node):
                    sites.append(name)
    return sites


def _is_columns(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "columns")


def _columns_lookups(tree: ast.Module):
    """The sites, by method, of each buchberger call whose first argument
    is x.columns(), or a name that the tree binds to one."""
    bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _is_columns(node.value)
             for t in node.targets if isinstance(t, ast.Name)}

    def on_columns(call: ast.Call) -> bool:
        first = call.args[0] if call.args else None
        return _is_columns(first) or getattr(first, "id", None) in bound

    return _calling_functions(tree, "buchberger", methods=True,
                              where=on_columns)


def _engine_tree() -> ast.Module:
    return ast.parse(SOURCE.read_text(encoding="utf-8"), filename=str(SOURCE))


def test_a_second_entry_is_found():
    tree = ast.parse("class _Completion:\n"
                     "    pass\n"
                     "def _complete(b):\n"
                     "    return _Completion(b)\n"
                     "def other(b):\n"
                     "    def inner():\n"
                     "        return _Completion(b)\n"
                     "    return inner\n"
                     "X = _Completion(None)\n")
    assert _calling_functions(tree, "_Completion") == ["_complete", "other",
                                                       "<module>"]


def test_only_the_one_routine_starts_a_completion():
    sites = _calling_functions(_engine_tree(), "_Completion")
    assert sites, "no completion is started at all"
    assert set(sites) == {ROUTINE}, (
        f"_Completion is constructed outside {ROUTINE}: {sites}")


def test_a_cofactor_read_in_a_method_is_found():
    tree = ast.parse("class _Completion:\n"
                     "    def sweep(self):\n"
                     "        return _polys(self)\n"
                     "def _interreduce(b):\n"
                     "    return [_polys(t) for t in b]\n"
                     "def _tracked(b):\n"
                     "    return _polys(b)\n")
    sites = _calling_functions(tree, "_polys")
    assert sites == ["_Completion", "_interreduce", "_tracked"]
    assert COFACTOR_FREE & set(sites) == {"_Completion", "_interreduce"}


def test_the_shared_completion_reads_no_cofactor():
    sites = _calling_functions(_engine_tree(), "_polys")
    assert sites, "no tag part is read at all"
    assert not COFACTOR_FREE & set(sites), (
        f"the shared completion reads tag terms: {sites}")


def test_a_packing_in_a_method_is_named_by_its_method():
    tree = ast.parse("class GrobnerBasis:\n"
                     "    K = _times(None)\n"
                     "    def first_product_outside(self, a, c):\n"
                     "        return _times(a), _times(c)\n"
                     "class SpanSolver:\n"
                     "    def _certified_syzygies(self):\n"
                     "        return _times(self)\n"
                     "def _packed_for(a):\n"
                     "    return rings.scaled_ints(a)\n")
    assert _calling_functions(tree, "_times", methods=True) == [
        "GrobnerBasis", CERTIFICATE, CERTIFICATE,
        "SpanSolver._certified_syzygies"]
    assert _calling_functions(tree, "_times") == ["GrobnerBasis"] * 3 + [
        "SpanSolver"]
    assert _calling_functions(tree, "scaled_ints") == ["_packed_for"]


def test_only_the_one_certificate_packs_a_product():
    sites = _calling_functions(_engine_tree(), "_times", methods=True)
    assert sites, "no product is formed at all"
    assert set(sites) == {CERTIFICATE}, (
        f"a packed product is formed outside {CERTIFICATE}: {sites}")


def test_one_function_packs_polynomial_terms():
    # every Poly term enters the integer layer through _pack, a whole
    # sequence of columns at a time: no per-vector or per-matrix packer
    # is left beside it
    assert _calling_functions(_engine_tree(), "scaled_ints",
                              methods=True) == [PACKER]
    for name in ("_scaled_ints", "_Packed"):
        assert not hasattr(groebner, name), name
    assert not hasattr(groebner._IntBasis, "pack")


def test_an_attribute_call_in_a_method_is_found():
    tree = ast.parse("import heapq\n"
                     "class _Completion:\n"
                     "    def _sync(self, old):\n"
                     "        keys = [self.new.repack(k, old) for k in []]\n"
                     "        heapq.heapify(keys)\n"
                     "    def run(self):\n"
                     "        heapify(self.pending)\n"
                     "        return self.repack\n"
                     "def _complete(layout, old, k):\n"
                     "    return layout.repack(k, old)\n")
    assert _calling_functions(tree, "repack", methods=True) == [
        "_Completion._sync", "_complete"]
    assert _calling_functions(tree, "heapify", methods=True) == [
        "_Completion._sync", "_Completion.run"]


def test_no_completion_method_re_keys_its_pairs():
    tree = _engine_tree()
    for callee in ("heapify", "repack"):
        sites = _calling_functions(tree, callee, methods=True)
        assert sites, f"{callee} is not called at all"
        rekeying = [s for s in sites if s.split(".")[0] == "_Completion"]
        assert not rekeying, f"_Completion calls {callee}: {rekeying}"


def test_a_pair_lcm_is_computed_once():
    # the lcm of a pair is computed when the pair is queued or swept, and
    # packed, with the basis fitted for its S-vector, by lcm_key alone:
    # _s_vector takes it packed
    tree = _engine_tree()
    assert set(_calling_functions(tree, "lcm_exps", methods=True)) == {
        "_Completion.add", "_Completion.sweep"}
    fitting = _calling_functions(tree, "fit", methods=True)
    assert "_IntBasis.lcm_key" in fitting and "_s_vector" not in fitting


def test_a_lookup_on_columns_is_found():
    tree = ast.parse("class PolyMatrix:\n"
                     "    @property\n"
                     "    def span(self):\n"
                     "        return buchberger(self.columns(), rank=1)\n"
                     "def _elimination(a, b):\n"
                     "    cols = b.columns()\n"
                     "    return buchberger(cols), buchberger([a])\n"
                     "def solve_mod(b):\n"
                     "    return groebner.buchberger(b.columns())\n")
    assert _columns_lookups(tree) == [SPAN, "_elimination", "solve_mod"]


def test_only_the_span_property_completes_a_matrix_s_columns():
    sites = []
    for path in sorted(SOURCE.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [f"{path.stem}.{site}" for site in _columns_lookups(tree)]
    assert sites == [f"groebner.{SPAN}"], (
        f"buchberger is called on a matrix's columns outside {SPAN}: "
        f"{sites}")


def test_a_column_basis_has_one_memo():
    assert "_span" not in groebner.PolyMatrix.__slots__
    assert not hasattr(groebner, "_gb_key")
    sites = _calling_functions(_engine_tree(), "cached", methods=True)
    assert SPAN in sites
    assert "buchberger" not in sites, "buchberger caches its result"


def test_a_completion_takes_no_second_list():
    assert list(inspect.signature(groebner._complete).parameters) == [
        "start", "entering"]
    assert not hasattr(groebner, "_seeded")


def _on_trailing(call: ast.Call) -> bool:
    first = call.args[0] if call.args else None
    return (isinstance(first, ast.Call)
            and getattr(first.func, "attr", None) == "trailing")


def test_a_trailing_seed_is_found():
    tree = ast.parse("def colon_ideal(b, v):\n"
                     "    return _complete(b.trailing(1, 2), [v])\n"
                     "def _elimination(start, vs):\n"
                     "    return _complete(start, vs)\n"
                     "class X:\n"
                     "    def seeded(self, b):\n"
                     "        return groebner._complete(b.trailing(0, 1), [])\n")
    assert _calling_functions(tree, "_complete", methods=True,
                              where=_on_trailing) == ["colon_ideal",
                                                      "X.seeded"]


def test_only_the_colon_ideal_seeds_a_completion():
    tree = _engine_tree()
    assert not hasattr(groebner._IntBasis, "padded")
    assert _calling_functions(tree, "_complete", methods=True,
                              where=_on_trailing) == ["colon_ideal"]
    assert "colon_ideal" not in _calling_functions(tree, "cached")


def test_an_s_vector_and_a_primitive_part_are_one_dict():
    # 3*y*(x^2 + y) - x*(3*x*y + 2): the leads x^2 and 3*x*y are scaled to
    # their coefficients' lcm 3, and nothing else comes back
    rxy = ring("x", "y")
    basis = groebner._IntBasis.of(rxy, [
        Vector(rxy, [parse_poly("x^2 + y", rxy)]),
        Vector(rxy, [parse_poly("3*x*y + 2", rxy)])], 1)
    lcm = basis.layout.lcm_exps(*basis.leads)
    s = groebner._s_vector(basis, 0, 1, basis.lcm_key(0, lcm))
    assert type(s) is dict
    assert groebner._vector(basis.layout, rxy, 1, s, 1) == Vector(
        rxy, [parse_poly("3*y^2 - 2*x", rxy)])
    doubled = groebner._primitive({k: -2 * c for k, c in s.items()})
    assert type(doubled) is dict and doubled == s
    assert list(inspect.signature(groebner._Completion.reduce).parameters) == [
        "self", "p", "sugar"]


def test_the_core_keeps_one_untagged_basis():
    assert "tags" not in groebner._IntBasis.__slots__
    assert "tags" not in inspect.signature(groebner._IntBasis).parameters
    for name in ("_tracked", "_tag_remainder"):
        assert not hasattr(groebner, name), name
    for name in ("vector_part", "escapes"):
        assert not hasattr(groebner._IntBasis, name), name
    rxy = ring("x", "y")
    start = groebner._IntBasis(groebner._Layout(rxy.nvars, 1), 1)
    final = groebner._complete(start, [(parse_poly("x", rxy),),
                                       (parse_poly("y", rxy),)])
    assert isinstance(final, groebner._IntBasis) and len(final) == 2
