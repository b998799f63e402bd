"""Every function, method and class defined in the engine is referenced
somewhere outside its own definition, in ``src/``, ``tests/``,
``scripts/`` or ``perfbench/``.

A reference is a name read, an attribute, an imported name, or a part of
a dotted string constant, which is how ``perfbench/tracing.py`` names
what it wraps ("SpanSolver.__init__", "groebner.buchberger").  Dunder
methods are exempt: the language calls them."""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "malgrange"
READERS = ("src", "tests", "scripts", "perfbench")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, int, int]]:
    """(name, first line, last line) of every function, method and class
    in tree, nested ones included and dunders left out."""
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno, node.end_lineno


def _references(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """(name, line) of every reference in tree (see the module
    docstring)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _dead(engine: List[str],
          trees: Dict[str, ast.AST]) -> List[Tuple[str, int, str]]:
    """(file, line, name), sorted, of every definition in the engine files
    (keys of trees) that no tree references outside the definition's own
    lines."""
    lines: Dict[str, Dict[str, List[int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            lines.setdefault(name, {}).setdefault(path, []).append(line)
    dead = []
    for path in engine:
        for name, first, last in _definitions(trees[path]):
            sites = lines.get(name, {})
            if not any(other != path or not first <= line <= last
                       for other, found in sites.items() for line in found):
                dead.append((path, first, name))
    return sorted(dead)


def test_a_dead_definition_is_found():
    engine = ast.parse("class A:\n"
                       "    def used(self):\n"
                       "        return 1\n"
                       "    def unused(self):\n"
                       "        return self.unused()\n"
                       "    def __eq__(self, other):\n"
                       "        return True\n"
                       "def wrapped():\n"
                       "    def inner():\n"
                       "        return inner\n"
                       "    return 1\n"
                       "def recursive(n):\n"
                       "    return recursive(n - 1)\n"
                       "def imported():\n"
                       "    pass\n"
                       "def _kept():\n"
                       "    pass\n"
                       "KEEP = _kept\n")
    reader = ast.parse("from engine import imported\n"
                       "WRAPS = ('engine', 'A.used', 'engine.wrapped')\n"
                       "NOT_DOTTED = 'recursive'\n"
                       "recursive = None\n"
                       "def f(a):\n"
                       "    return a.used\n")
    assert _dead(["engine.py"], {"engine.py": engine,
                                 "reader.py": reader}) == [
        ("engine.py", 4, "unused"), ("engine.py", 9, "inner"),
        ("engine.py", 12, "recursive")]


def test_every_engine_definition_is_referenced():
    trees = {str(path.relative_to(ROOT)): ast.parse(
        path.read_text(encoding="utf-8"), filename=str(path))
        for top in READERS for path in sorted((ROOT / top).rglob("*.py"))}
    engine = [str(path.relative_to(ROOT))
              for path in sorted(ENGINE.glob("*.py"))]
    assert engine
    dead = [f"{path}:{line}: {name} is never referenced"
            for path, line, name in _dead(engine, trees)]
    assert dead == []
