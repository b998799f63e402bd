"""Every Groebner basis the engine computes comes from one completion
routine, ``groebner._complete``, which checks its inputs against the
result: no other function in ``groebner.py`` constructs a
``_Completion``.  That shared completion never reads a cofactor: only the
tracked reference turns tag terms into polynomials (``_polys``).  Every
product is certified by one routine too: only
``GrobnerBasis.first_product_outside`` packs a matrix for a product
(``_Packed``)."""

import ast
from pathlib import Path

import malgrange.groebner as groebner

SOURCE = Path(groebner.__file__)
ROUTINE = "_complete"
COFACTOR_FREE = {"_Completion", "_complete", "_interreduce"}
CERTIFICATE = "GrobnerBasis.first_product_outside"


def _calling_functions(tree: ast.Module, callee: str,
                       methods: bool = False):
    """The name of the outermost function or class around each call of
    callee, in source order; "<module>" at module level.  With methods, a
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
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == callee):
                    sites.append(name)
    return sites


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
                     "    K = _Packed(None)\n"
                     "    def first_product_outside(self, a, c):\n"
                     "        return _Packed(a), _Packed(c)\n"
                     "class SpanSolver:\n"
                     "    def _certified_syzygies(self):\n"
                     "        return _Packed(self)\n"
                     "def _packed_for(a):\n"
                     "    return _Packed(a)\n")
    assert _calling_functions(tree, "_Packed", methods=True) == [
        "GrobnerBasis", CERTIFICATE, CERTIFICATE,
        "SpanSolver._certified_syzygies", "_packed_for"]
    assert _calling_functions(tree, "_Packed") == [
        "GrobnerBasis"] * 3 + ["SpanSolver", "_packed_for"]


def test_only_the_one_certificate_packs_a_product():
    sites = _calling_functions(_engine_tree(), "_Packed", methods=True)
    assert sites, "no product is packed at all"
    assert set(sites) == {CERTIFICATE}, (
        f"_Packed is constructed outside {CERTIFICATE}: {sites}")
