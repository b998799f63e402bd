"""The command line's argument contract.

``cli._parse_args`` replaced an ``argparse`` parser built with
``parse_intermixed_args``.  TABLE, recorded from that parser, is the
contract: it gave the same result on CPython 3.10.13, 3.11.7, 3.12.1 and
3.13.0 for every row.  The property test compares the two parsers on argv
drawn from the table's strings, leaving out ``--``, whose handling is
where argparse releases differ most.
"""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

import malgrange
from malgrange.cli import _parse_args
from malgrange.session import COMMANDS

HELP = """\
usage: malgrange [-h] [--json] [--seed SEED] [--all]
                 {analyze,torsion,defect,hom,verify,gb} [session_file]

Exact autonomy/controllability analysis of linear systems over polynomial
rings.

positional arguments:
  {analyze,torsion,defect,hom,verify,gb}
  session_file          session file (required except for 'verify --all')

options:
  -h, --help            show this help message and exit
  --json
  --seed SEED
  --all                 verify the bundled corpus
"""

UNKNOWN_COMMAND = """\
usage: malgrange [-h] [--json] [--seed SEED] [--all]
                 {analyze,torsion,defect,hom,verify,gb} [session_file]
malgrange: error: argument command: invalid choice: 'frobnicate' (choose \
from 'analyze', 'torsion', 'defect', 'hom', 'verify', 'gb')
"""

# argv -> (command, session_file, json_out, seed, all_corpus) or exit code
TABLE = [
    # options before, between or after the positionals
    (["analyze", "s.mg"], ("analyze", "s.mg", False, None, False)),
    (["--json", "analyze", "s.mg"], ("analyze", "s.mg", True, None, False)),
    (["analyze", "--json", "s.mg"], ("analyze", "s.mg", True, None, False)),
    (["analyze", "s.mg", "--json"], ("analyze", "s.mg", True, None, False)),
    (["--seed", "3", "verify", "--all"], ("verify", None, False, 3, True)),
    (["verify", "--seed", "3", "--all"], ("verify", None, False, 3, True)),
    (["verify", "--all", "--seed", "3"], ("verify", None, False, 3, True)),
    (["analyze", "--json", "--json"], ("analyze", None, True, None, False)),
    # unique prefixes of the long options
    (["--js", "analyze", "s.mg"], ("analyze", "s.mg", True, None, False)),
    (["analyze", "--j", "s.mg"], ("analyze", "s.mg", True, None, False)),
    (["verify", "--all", "--se", "3"], ("verify", None, False, 3, True)),
    (["verify", "--all", "--se=3"], ("verify", None, False, 3, True)),
    (["--a", "verify"], ("verify", None, False, None, True)),
    (["verify", "--al"], ("verify", None, False, None, True)),
    (["--h"], 0),
    (["--he"], 0),
    # --seed=N, what int() accepts, the last --seed wins
    (["verify", "--all", "--seed=5"], ("verify", None, False, 5, True)),
    (["verify", "--all", "--seed=-5"], ("verify", None, False, -5, True)),
    (["verify", "--all", "--seed", "-5"], ("verify", None, False, -5, True)),
    (["verify", "--all", "--seed", " 7 "], ("verify", None, False, 7, True)),
    (["verify", "--all", "--seed", "+3"], ("verify", None, False, 3, True)),
    (["verify", "--all", "--seed", "1_000"],
     ("verify", None, False, 1000, True)),
    (["verify", "--all", "--seed", "٣"], ("verify", None, False, 3, True)),
    (["verify", "--all", "--seed", "0x10"], 2),
    (["verify", "--all", "--seed", "3.0"], 2),
    (["verify", "--all", "--seed", "-"], 2),
    (["verify", "--all", "--seed="], 2),
    (["verify", "--all", "--seed", "3", "--seed", "4"],
     ("verify", None, False, 4, True)),
    (["verify", "--seed=9", "--all", "--se", "2"],
     ("verify", None, False, 2, True)),
    # -- ends the options, except before every positional
    (["--", "analyze", "s.mg"], ("analyze", "s.mg", False, None, False)),
    (["analyze", "--", "s.mg"], ("analyze", "s.mg", False, None, False)),
    (["analyze", "s.mg", "--"], ("analyze", "s.mg", False, None, False)),
    (["analyze", "--", "-s.mg"], ("analyze", "-s.mg", False, None, False)),
    (["analyze", "--", "--json"], ("analyze", "--json", False, None, False)),
    (["analyze", "--", "-h"], ("analyze", "-h", False, None, False)),
    (["analyze", "--", "--"], ("analyze", None, False, None, False)),
    (["--json", "--", "analyze", "s.mg"],
     ("analyze", "s.mg", True, None, False)),
    (["--", "analyze", "--json"], ("analyze", None, True, None, False)),
    (["--seed", "3", "--", "verify", "--all"],
     ("verify", None, False, 3, True)),
    (["--", "-h"], 0),
    (["--", "analyze", "--json", "s.mg"], 2),
    (["--", "frobnicate", "-h"], 2),
    (["analyze", "s.mg", "--", "x"], 2),
    (["analyze", "--", "--", "s.mg"], 2),
    (["--seed", "--", "3"], 2),
    # '-' and negative-looking strings are positionals
    (["analyze", "-"], ("analyze", "-", False, None, False)),
    (["analyze", "-5"], ("analyze", "-5", False, None, False)),
    (["analyze", "-5.5"], ("analyze", "-5.5", False, None, False)),
    (["analyze", "-.5"], ("analyze", "-.5", False, None, False)),
    (["verify", "--all", "-5"], ("verify", "-5", False, None, True)),
    (["analyze", "-x y"], ("analyze", "-x y", False, None, False)),
    (["analyze", ""], ("analyze", "", False, None, False)),
    (["-5", "analyze"], 2),
    (["analyze", "-1e3"], 2),
    # usage errors
    (["analyze", "--json=1"], 2),
    (["analyze", "--json="], 2),
    (["--all=1", "verify"], 2),
    (["--help=1"], 2),
    (["analyze", "--seed"], 2),
    (["analyze", "--seed", "x"], 2),
    (["--seed", "--json", "verify", "--all"], 2),
    (["analyze", "-x"], 2),
    (["analyze", "-x", "s.mg"], 2),
    (["analyze", "---"], 2),
    (["analyze", "s.mg", "extra"], 2),
    ([], 2),
    (["--json"], 2),
    (["frobnicate"], 2),
    (["", "analyze"], 2),
    (["--=x", "analyze"], 2),
    # help, unless an earlier option is in error
    (["-h"], 0),
    (["--help"], 0),
    (["-hh"], 0),
    (["-h", "frobnicate"], 0),
    (["frobnicate", "-h"], 0),
    (["analyze", "s.mg", "extra", "-h"], 0),
    (["-x", "-h"], 0),
    (["-h", "--seed", "x"], 0),
    (["--seed", "x", "-h"], 2),
    (["--json=1", "-h"], 2),
    (["-h", "--=x"], 2),
]

VOCABULARY = sorted({arg for argv, _ in TABLE for arg in argv} - {"--"})


def _parse(parse, argv):
    """(result or exit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


def _parsed_by_argparse(argv):
    # built as cli.main built it before it parsed its own arguments
    parser = argparse.ArgumentParser(
        prog="malgrange",
        description="Exact autonomy/controllability analysis of linear "
                    "systems over polynomial rings.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("session_file", nargs="?",
                        help="session file (required except for "
                             "'verify --all')")
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--all", action="store_true", dest="all_corpus",
                        help="verify the bundled corpus")
    args = parser.parse_intermixed_args(argv)
    return (args.command, args.session_file, args.json_out, args.seed,
            args.all_corpus)


def _assert_printed(result, out, err):
    if result == 0:
        assert (out, err) == (HELP, "")
    elif result == 2:
        assert out == ""
        usage, error = err.split("\nmalgrange: error: ")
        assert usage + "\n" == HELP[:HELP.index("\n\n") + 1]
        assert error.endswith("\n") and "\n" not in error[:-1]
    else:
        assert (out, err) == ("", "")


def test_the_parser_keeps_the_argparse_table():
    for argv, expected in TABLE:
        result, out, err = _parse(_parse_args, argv)
        assert result == expected, argv
        _assert_printed(result, out, err)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(VOCABULARY), max_size=6))
def test_the_parser_agrees_with_argparse(argv):
    result, out, err = _parse(_parse_args, argv)
    assert result == _parse(_parsed_by_argparse, argv)[0]
    _assert_printed(result, out, err)


def test_help_and_usage_errors_do_not_depend_on_the_terminal():
    src = os.path.dirname(os.path.dirname(malgrange.__file__))
    for columns in ("50", "200"):
        env = dict(os.environ, COLUMNS=columns, PYTHONPATH=src)
        for args, code, out, err in ((["--help"], 0, HELP, ""),
                                     (["frobnicate"], 2, "",
                                      UNKNOWN_COMMAND)):
            r = subprocess.run([sys.executable, "-m", "malgrange", *args],
                               capture_output=True, text=True, env=env)
            assert (r.returncode, r.stdout, r.stderr) == (code, out, err)
