"""Session files: a ring declaration, named bindings, and commands.

Grammar (whitespace-insensitive, ';'-terminated statements):

    session   := ring_decl stmt*
    ring_decl := "ring" "Q" "[" ident ("," ident)* "]" ";"
    stmt      := ("system" ident "=" matrix "vars" ident ("," ident)*
                  | "module" ident "=" "coker" matrix
                  | command) ";"
    matrix    := "[" row ("," row)* "]"
    row       := "[" poly ("," poly)* "]"
    command   := "analyze" ident | "torsion" ident | "defect" ident
                  | "hom" ident ident | "verify" | "gb" ident

Matrix rows are relations on the listed generators (for modules) or
equations in the listed unknowns (for systems); internal presentations
store relations as columns, so module matrices are transposed on entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .rings import Poly, RingSpec
from .groebner import PolyMatrix
from .modules import FPModule
from .control import ControlSystem, malgrange_module
from .parsing import ParseError, TokenStream, parse_poly_tokens, tokenize

COMMANDS = ("analyze", "torsion", "defect", "hom", "verify", "gb")

_KEYWORDS = ("system", "module") + COMMANDS


class Session:
    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.systems: Dict[str, ControlSystem] = {}
        self.modules: Dict[str, FPModule] = {}
        self.bindings: List[Tuple[str, str]] = []
        self.commands: List[Tuple[str, Tuple[str, ...]]] = []

    def is_bound(self, name: str) -> bool:
        return name in self.systems or name in self.modules

    def module_of(self, name: str) -> FPModule:
        """The module a name denotes: bound module, or the system's module."""
        if name in self.modules:
            return self.modules[name]
        return malgrange_module(self.systems[name])


def _parse_matrix(ts: TokenStream, ring: RingSpec) -> PolyMatrix:
    ts.expect_punct("[")
    rows: List[List[Poly]] = []
    while True:
        row_tok = ts.expect_punct("[")
        row: List[Poly] = [parse_poly_tokens(ts, ring)]
        while ts.accept_punct(","):
            row.append(parse_poly_tokens(ts, ring))
        ts.expect_punct("]")
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"arity mismatch: row has {len(row)} entries, "
                f"expected {len(rows[0])}", row_tok.line, row_tok.col)
        rows.append(row)
        if not ts.accept_punct(","):
            break
    ts.expect_punct("]")
    return PolyMatrix(ring, len(rows), len(rows[0]), rows)


def _parse_name_list(ts: TokenStream, what: str) -> List[str]:
    names = [ts.expect_ident(what).text]
    while ts.accept_punct(","):
        names.append(ts.expect_ident(what).text)
    return names


def _require_bound(session: Session, tok) -> str:
    if not session.is_bound(tok.text):
        raise ParseError(f"unknown identifier {tok.text!r}",
                         tok.line, tok.col)
    return tok.text


def parse_session(text: str) -> Session:
    ts = TokenStream(tokenize(text))
    kw = ts.expect_ident("'ring'")
    if kw.text != "ring":
        raise ts.error("session must start with a ring declaration", kw)
    q = ts.expect_ident("'Q'")
    if q.text != "Q":
        raise ts.error("only rings over Q are supported", q)
    ts.expect_punct("[")
    var_names = _parse_name_list(ts, "variable name")
    ts.expect_punct("]")
    ts.expect_punct(";")
    try:
        ring = RingSpec(tuple(var_names))
    except ValueError as exc:
        raise ParseError(str(exc), kw.line, kw.col)
    session = Session(ring=ring)

    while ts.peek().kind != "EOF":
        tok = ts.expect_ident("statement keyword")
        if tok.text == "ring":
            raise ts.error("duplicate ring declaration", tok)
        if tok.text not in _KEYWORDS:
            raise ts.error(f"unknown statement {tok.text!r}", tok)
        if tok.text == "system":
            name_tok = ts.expect_ident("system name")
            if session.is_bound(name_tok.text):
                raise ts.error(f"duplicate name {name_tok.text!r}", name_tok)
            ts.expect_punct("=")
            mat = _parse_matrix(ts, ring)
            vars_kw = ts.expect_ident("'vars'")
            if vars_kw.text != "vars":
                raise ts.error("expected 'vars' after system matrix", vars_kw)
            unknowns = _parse_name_list(ts, "unknown name")
            if len(unknowns) != mat.ncols:
                raise ParseError(
                    f"arity mismatch: {len(unknowns)} unknowns for "
                    f"{mat.ncols} matrix columns",
                    vars_kw.line, vars_kw.col)
            try:
                session.systems[name_tok.text] = ControlSystem(
                    ring, unknowns, mat)
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
            session.bindings.append(("system", name_tok.text))
        elif tok.text == "module":
            name_tok = ts.expect_ident("module name")
            if session.is_bound(name_tok.text):
                raise ts.error(f"duplicate name {name_tok.text!r}", name_tok)
            ts.expect_punct("=")
            coker_kw = ts.expect_ident("'coker'")
            if coker_kw.text != "coker":
                raise ts.error("expected 'coker' in module binding", coker_kw)
            mat = _parse_matrix(ts, ring)
            # text rows are relations; presentations store them as columns
            try:
                session.modules[name_tok.text] = FPModule(
                    ring, mat.ncols, mat.transpose())
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
            session.bindings.append(("module", name_tok.text))
        elif tok.text == "verify":
            session.commands.append(("verify", ()))
        elif tok.text == "analyze":
            arg = ts.expect_ident("system name")
            _require_bound(session, arg)
            if arg.text not in session.systems:
                raise ParseError(f"'analyze' expects a system, "
                                 f"{arg.text!r} is a module",
                                 arg.line, arg.col)
            session.commands.append(("analyze", (arg.text,)))
        elif tok.text == "hom":
            a = ts.expect_ident("name")
            _require_bound(session, a)
            b = ts.expect_ident("name")
            _require_bound(session, b)
            session.commands.append(("hom", (a.text, b.text)))
        else:  # torsion, defect, gb
            arg = ts.expect_ident("name")
            _require_bound(session, arg)
            session.commands.append((tok.text, (arg.text,)))
        ts.expect_punct(";")
    return session
