"""Every Groebner basis the engine computes comes from one completion
routine, ``groebner._complete``, which checks its inputs against the
result: no other function in ``groebner.py`` constructs a
``_Completion``."""

import ast
from pathlib import Path

import malgrange.groebner as groebner

SOURCE = Path(groebner.__file__)
ROUTINE = "_complete"


def _constructing_functions(tree: ast.Module):
    """The name of the outermost function or class around each call of
    ``_Completion``, in source order; "<module>" at module level."""
    sites = []
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef,
                                              ast.ClassDef))
                 else "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_Completion"):
                sites.append(owner)
    return sites


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
    assert _constructing_functions(tree) == ["_complete", "other",
                                             "<module>"]


def test_only_the_one_routine_starts_a_completion():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"), filename=str(SOURCE))
    sites = _constructing_functions(tree)
    assert sites, "no completion is started at all"
    assert set(sites) == {ROUTINE}, (
        f"_Completion is constructed outside {ROUTINE}: {sites}")
