"""No engine function assigns a local name or takes a parameter that it
never reads, and no engine module imports a name that it never reads."""

import ast
from pathlib import Path

import malgrange

SOURCES = sorted(Path(malgrange.__file__).parent.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)
_EXEMPT_PARAMS = {"self", "cls", "_"}


def _own_nodes(fn):
    """The nodes of fn's body outside its nested functions and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.AST):
    """(line, function, name) of every local assigned and never read; a
    read in a nested function counts, and ``_`` is exempt."""
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        outer, stored = set(), {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)):
                stored.setdefault(node.id, node.lineno)
        read = _reads(fn)
        for name, line in sorted(stored.items(), key=lambda kv: kv[1]):
            if name != "_" and name not in read and name not in outer:
                yield line, fn.name, name


def _reads(node: ast.AST):
    """Every name read anywhere under node, nested scopes included."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unused_params(tree: ast.AST):
    """(line, function, name) of every parameter a function never reads; a
    read in a nested function counts, and ``self``, ``cls`` and ``_`` (also
    as ``*_``) are exempt."""
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        read = _reads(fn)
        for p in params:
            if p.arg not in _EXEMPT_PARAMS and p.arg not in read:
                yield p.lineno, fn.name, p.arg


def _unused_imports(tree: ast.Module):
    """(line, name) of every name a module-level ``from ... import`` binds
    and the module never reads, ``from __future__`` exempt; a read
    anywhere in the module counts."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read:
                    yield node.lineno, name


def test_an_unused_local_is_found():
    tree = ast.parse("def f(a):\n"
                     "    b, _ = a\n"
                     "    c = 1\n"
                     "    for d in a:\n"
                     "        pass\n"
                     "    def g():\n"
                     "        nonlocal c\n"
                     "        c = 2\n"
                     "        e = 3\n"
                     "    return c, g\n")
    assert list(_unused_locals(tree)) == [(2, "f", "b"), (4, "f", "d"),
                                          (9, "g", "e")]


def test_engine_functions_read_every_local_they_assign():
    assert SOURCES
    unused = [f"{path.name}:{line}: {fn} assigns {name!r} and never reads it"
              for path in SOURCES
              for line, fn, name in _unused_locals(
                  ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)))]
    assert unused == []


def test_an_unused_parameter_is_found():
    tree = ast.parse("def f(a, b, /, c=1, *args, d, **kw):\n"
                     "    def g(e, _):\n"
                     "        return a\n"
                     "    return g, kw\n"
                     "class C:\n"
                     "    def m(self, *_, x):\n"
                     "        return 1\n"
                     "    @classmethod\n"
                     "    def k(cls):\n"
                     "        return 2\n")
    assert sorted(_unused_params(tree)) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (1, "f", "d"),
        (2, "g", "e"), (6, "m", "x")]


def test_engine_functions_read_every_parameter():
    unused = [f"{path.name}:{line}: {fn} never reads its parameter {name!r}"
              for path in SOURCES
              for line, fn, name in _unused_params(
                  ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)))]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "from typing import List, Optional\n"
                     "from .a import b as c, d\n"
                     "def g(x: Optional[int]):\n"
                     "    return d\n")
    assert list(_unused_imports(tree)) == [(2, "List"), (3, "c")]


def test_engine_modules_read_every_name_they_import():
    # the package's __init__ imports names to re-export them
    unused = [f"{path.name}:{line}: imports {name!r} and never reads it"
              for path in SOURCES if path.name != "__init__.py"
              for line, name in _unused_imports(
                  ast.parse(path.read_text(encoding="utf-8"),
                            filename=str(path)))]
    assert unused == []
