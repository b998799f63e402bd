"""Fuzzing the input boundary: mutated sessions through ``cli.main``.

Two small valid sessions are cut into tokens, and a few tokens are
inserted, deleted or replaced (by a token of the same kind, so that some
mutants still parse and reach the engine).  Whatever the text, every
command must return exit 0, 1 or 2 without raising, within a bounded
time, and exit 1 must come only with a failed verification verdict.
"""

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from malgrange.cli import main
from malgrange.session import COMMANDS

SESSIONS = (
    "ring Q[d]; system S = [[d, -1]] vars x, u; "
    "module M = coker [[d^2, d], [0, d]]; analyze S; hom M M;",
    "ring Q[x, y]; module N = coker [[x, y], [0, 1/2*x*y]]; "
    "torsion N; gb N;",
)
TOKENS = [re.findall(r"\d+|[A-Za-z_]\w*|\S", s) for s in SESSIONS]
VOCABULARY = sorted({t for ts in TOKENS for t in ts}
                    | {"0", "3", "(", ")", "+", "*", "/", "z", "module",
                       "system", "verify", "defect", "coker", "vars"})


def _kind(token: str) -> int:
    return 0 if token.isdigit() else 1 if token[0].isalpha() else 2


KINDS = [[t for t in VOCABULARY if _kind(t) == k] for k in range(3)]

# per example; the unmutated sessions answer in well under a second
SECONDS = 10


@st.composite
def mutated_sessions(draw):
    tokens = list(draw(st.sampled_from(TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(VOCABULARY)))
        elif tokens:
            i = draw(st.integers(0, len(tokens) - 1))
            if edit == "delete":
                del tokens[i]
            else:
                tokens[i] = draw(st.sampled_from(KINDS[_kind(tokens[i])]))
    return " ".join(tokens)


def _has_failed_verdict(out: str, json_out: bool) -> bool:
    if not json_out:
        return re.search(r": failed$", out, re.M) is not None
    if not out:
        return False
    results = json.loads(out)["results"]
    return any(r.get("equal") is False or r.get("bijective") is False
               for r in results)


def _run(path, command, json_out):
    argv = [command, str(path)] + (["--json"] if json_out else [])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def test_the_unmutated_sessions_run(tmp_path):
    path = tmp_path / "session.mg"
    for tokens in TOKENS:
        path.write_text(" ".join(tokens), encoding="utf-8")
        for command in COMMANDS:
            assert _run(path, command, False)[0] == 0, command


@settings(max_examples=500, deadline=None)
@given(mutated_sessions(), st.sampled_from(COMMANDS), st.booleans())
def test_mutated_sessions_exit_cleanly(tmp_path_factory, text, command,
                                       json_out):
    path = tmp_path_factory.getbasetemp() / "fuzz-session.mg"
    path.write_text(text, encoding="utf-8")
    code, out, seconds = _run(path, command, json_out)
    assert code in (0, 1, 2), (code, text)
    assert seconds < SECONDS, (seconds, text)
    if code == 1:
        assert command == "verify" and _has_failed_verdict(out, json_out)
