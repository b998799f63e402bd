"""The engine imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import malgrange

SOURCES = sorted(Path(malgrange.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path):
    """(line, top-level package) of every absolute import in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_engine_imports_only_the_standard_library():
    assert SOURCES
    outside = [f"{path.name}:{line}: {name}" for path in SOURCES
               for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []
