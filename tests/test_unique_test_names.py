"""No test module binds the same top-level function or class name twice:
the later binding shadows the earlier, and pytest never collects the
first, so a test would silently stop running."""

import ast
from pathlib import Path

TESTS = sorted(Path(__file__).parent.glob("test_*.py"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _rebound(tree: ast.Module):
    """(line, name) of every top-level def or class whose name an earlier
    top-level def or class of the module already binds."""
    seen = set()
    for node in tree.body:
        if isinstance(node, _DEFS):
            if node.name in seen:
                yield node.lineno, node.name
            seen.add(node.name)


def test_a_rebound_name_is_found():
    tree = ast.parse("def test_a():\n"
                     "    pass\n"
                     "class TestB:\n"
                     "    def test_a(self):\n"
                     "        pass\n"
                     "def test_c():\n"
                     "    def test_c():\n"
                     "        pass\n"
                     "async def test_a():\n"
                     "    pass\n"
                     "class TestB:\n"
                     "    pass\n")
    assert list(_rebound(tree)) == [(9, "test_a"), (11, "TestB")]


def test_no_test_module_binds_a_name_twice():
    assert TESTS
    rebound = [f"{path.name}:{line}: {name} is bound again"
               for path in TESTS
               for line, name in _rebound(
                   ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path)))]
    assert rebound == []
