"""Command-line surface: ``malgrange <command> [session-file] [flags]``.

Commands: analyze, torsion, defect, hom, verify, gb.  A session file
supplies the ring, bindings, and optionally embedded commands; when the
session embeds commands of the requested kind only those run, otherwise
the command applies to every eligible binding in declaration order.
``verify --all`` runs the bundled-corpus suites and takes no session file.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Output is byte-deterministic for a fixed session and flag set.
"""

from __future__ import annotations

import os
import re
import sys
from typing import List, Optional, Tuple

from .control import autonomy_report, malgrange_check
from .functors import (Report, module_dict, stable_hom, verify_adjunction,
                       verify_main_theorem)
from .modules import (FPModule, annihilator, bass_torsion, hom_module,
                      nonzero_columns)
from .parsing import ParseError
from .session import COMMANDS, Session, parse_session

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


class _Printer:
    def __init__(self, color: bool):
        self.color = color
        self.lines: List[str] = []

    def add(self, text: str):
        self.lines.append(text)

    def verdict(self, ok: bool) -> str:
        word = "ok" if ok else "failed"
        if self.color:
            return (_GREEN if ok else _RED) + word + _RESET
        return word

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _targets(session: Session, command: str) -> List[Tuple[str, ...]]:
    hits = [args for cmd, args in session.commands if cmd == command]
    if hits:
        return hits
    if command == "analyze":
        return [(name,) for kind, name in session.bindings
                if kind == "system"]
    if command == "hom":
        names = [name for _, name in session.bindings]
        return [(a, b) for a in names for b in names]
    if command == "verify":
        return [()]
    return [(name,) for _, name in session.bindings]


def _run_analyze(session: Session, out: _Printer):
    for (name,) in _targets(session, "analyze"):
        rep = autonomy_report(session.systems[name])
        flavor = "yes" if rep["controllable"] else "no"
        out.add(f"analyze {name}: controllable: {flavor}, "
                f"autonomy: {len(rep['autonomy'])}")
        for gen in rep["autonomy"]:
            anns = gen["annihilators"]
            plural = "es" if len(anns) != 1 else ""
            out.add(f"  generator {gen['combination']}: "
                    f"witness{plural} {', '.join(anns)}")
        out.add(f"  torsion = defect: {out.verdict(rep.ok)}")
        yield Report(rep.ok, name=name, **rep)


def _run_torsion(session: Session, out: _Printer):
    for (name,) in _targets(session, "torsion"):
        m = session.module_of(name)
        gens = nonzero_columns(bass_torsion(m)[1])
        out.add(f"torsion {name}: generators: {len(gens)}")
        entries = []
        for col in gens:
            anns = [str(g) for g in annihilator(m.element(col)).gens]
            word = "annihilator" if len(anns) == 1 else "annihilators"
            out.add(f"  generator {col}: {word} {', '.join(anns)}")
            entries.append({"element": str(col), "annihilators": anns})
        yield Report(None, check="torsion", name=name,
                     module=module_dict(m), generators=entries)


def _run_defect(session: Session, out: _Printer):
    for (name,) in _targets(session, "defect"):
        rep = verify_main_theorem(session.module_of(name))
        gens = rep["defect_generators"]
        out.add(f"defect {name}: generators: {len(gens)}, "
                f"matches torsion: {out.verdict(rep.ok)}")
        for g in gens:
            out.add(f"  generator {g}")
        yield Report(rep.ok, check="defect", name=name, generators=gens,
                     matches_torsion=rep.ok, witness=rep.get("witness"))


def _run_hom(session: Session, out: _Printer):
    for a, b in _targets(session, "hom"):
        h = hom_module(session.module_of(a), session.module_of(b))
        out.add(f"hom {a} {b}: generators: {h.ngens}")
        mats = [str(h.decode(g).mat) for g in h.generators()]
        for s in mats:
            out.add(f"  generator {s}")
        out.add(f"  relations: {h.relations}")
        yield Report(None, check="hom", source=a, target=b, ngens=h.ngens,
                     relations=str(h.relations), generators=mats)


def _run_gb(session: Session, out: _Printer):
    for (name,) in _targets(session, "gb"):
        m = session.module_of(name)
        basis = m.gb.gens[::-1]  # a reduced basis lists its leads ascending
        out.add(f"gb {name}: elements: {len(basis)}")
        for v in basis:
            out.add(f"  {v}")
        yield Report(None, check="gb", name=name,
                     elements=[str(v) for v in basis])


def _run_verify(entries, out: _Printer) -> List[Report]:
    """Render the (label, report) pairs' verdicts and their tally."""
    reports = []
    for label, rep in entries:
        out.add(f"{label}: {out.verdict(rep.ok)}")
        reports.append(rep)
    failures = sum(not rep.ok for rep in reports)
    out.add(f"verify: {len(reports)} checks, {failures} failures")
    return reports


def _session_verify_entries(session: Session):
    modules = [(name, session.module_of(name))
               for _, name in session.bindings]
    for name, m in modules:
        yield f"main-theorem {name}", verify_main_theorem(m)
    for name, m in modules:
        yield (f"adjunction stable({name}) @ {name}",
               verify_adjunction(stable_hom(m), m))
    for kind, name in session.bindings:
        if kind != "system":
            continue
        sysm = session.systems[name]
        probes = [("R", FPModule.free(sysm.ring, 1))]
        probes += [(pname, session.modules[pname])
                   for _, pname in session.bindings
                   if pname in session.modules
                   and session.modules[pname].ring == sysm.ring]
        for pname, probe in probes:
            yield f"malgrange {name} @ {pname}", malgrange_check(sysm, probe)


def _corpus_verify_entries(seed: int):
    # kept off the start-up path: only verify --all needs them
    import random
    from . import corpus
    for name, m in corpus.main_theorem_modules():
        yield f"main-theorem {name}", verify_main_theorem(m)
    if seed:
        rng = random.Random(seed)
        for i, r in enumerate((corpus.univariate_ring(),
                               corpus.univariate_ring(),
                               corpus.bivariate_ring())):
            m = corpus.random_cokernel(r, rng)
            yield f"main-theorem seeded-{seed}-{i}", verify_main_theorem(m)
    for fname, fun, aname, a in corpus.adjunction_pairs():
        yield f"adjunction {fname} @ {aname}", verify_adjunction(fun, a)
    for sname, sysm, pname, probe in corpus.malgrange_pairs():
        yield f"malgrange {sname} @ {pname}", malgrange_check(sysm, probe)


_HANDLERS = {"analyze": _run_analyze, "torsion": _run_torsion,
             "defect": _run_defect, "hom": _run_hom, "gb": _run_gb}


def run(session: Optional[Session], command: str, *, json_out: bool = False,
        seed: int = 0, all_corpus: bool = False,
        color: bool = False) -> Tuple[int, str]:
    """Execute one command against a session (or the bundled corpus)."""
    out = _Printer(color and not json_out)
    if command != "verify":
        reports = list(_HANDLERS[command](session, out))
    elif all_corpus:
        reports = _run_verify(_corpus_verify_entries(seed), out)
    else:
        reports = _run_verify(_session_verify_entries(session), out)
    code = 1 if any(rep.ok is False for rep in reports) else 0
    if json_out:
        import json  # kept off the start-up path: only --json needs it
        payload = {"format": 1, "command": command, "results": reports,
                   "exit": code}
        return code, json.dumps(payload, indent=2) + "\n"
    return code, out.text()


def _color_enabled(stream) -> Optional[bool]:
    mode = os.environ.get("MALGRANGE_COLOR", "auto")
    if mode == "never":
        return False
    if mode == "auto":
        return bool(getattr(stream, "isatty", lambda: False)())
    return None


_COMMAND_CHOICES = "{" + ",".join(COMMANDS) + "}"
_USAGE = ("usage: malgrange [-h] [--json] [--seed SEED] [--all]\n"
          f"                 {_COMMAND_CHOICES} [session_file]\n")
_HELP = f"""{_USAGE}
Exact autonomy/controllability analysis of linear systems over polynomial
rings.

positional arguments:
  {_COMMAND_CHOICES}
  session_file          session file (required except for 'verify --all')

options:
  -h, --help            show this help message and exit
  --json
  --seed SEED
  --all                 verify the bundled corpus
"""
_OPTIONS = ("-h", "--help", "--json", "--seed", "--all")
# no option looks like a number, so -5 and -.5 are positionals, as in argparse
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}malgrange: error: {message}\n")
    raise SystemExit(2)


def _option(arg: str):
    """``(option, explicit value or None)`` for an option string, ``None``
    for a positional, ``("", None)`` for an unknown option.  A long option
    may be cut to a unique prefix, and ``-h`` may carry letters after it."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in _OPTIONS:
        return arg, None
    name, eq, value = arg.partition("=")
    explicit = value if eq else None
    if eq and name in _OPTIONS:
        return name, explicit
    if arg.startswith("--"):
        hits = [o for o in _OPTIONS if o.startswith(name)]
        if len(hits) > 1:
            _usage_error(f"ambiguous option: {arg} could match "
                         f"{', '.join(hits)}")
        if hits:
            return hits[0], explicit
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return "", None


def _check_command(word: str):
    if word not in COMMANDS:
        choices = ", ".join(repr(c) for c in COMMANDS)
        _usage_error(f"argument command: invalid choice: {word!r} "
                     f"(choose from {choices})")


def _kinds(args: List[str]) -> list:
    """Each string's ``_option``, up to the first ``--``; that one is
    ``"--"`` and every later string a positional."""
    if "--" not in args:
        return [_option(a) for a in args]
    cut = args.index("--")
    return ([_option(a) for a in args[:cut]] + ["--"]
            + [None] * (len(args) - cut - 1))


def _parse_args(argv: List[str]) -> Tuple[str, Optional[str], bool,
                                          Optional[int], bool]:
    """``(command, session_file, json_out, seed, all_corpus)`` from argv.

    Accepts and rejects what ``argparse``'s intermixed parsing of the same
    arguments did: options may come before, between or after the
    positionals and act left to right, so ``-h`` prints help unless an
    earlier option is in error.  ``--`` ends the options, except where it
    comes before every positional: argparse's first pass dropped it there
    and its second pass re-read the rest, which then must give the
    positionals in one run.  Where argparse releases differ, ``-hx`` and
    ``-h=h`` act as on 3.10-3.12 and ``--seed=--`` is an error as on 3.13.
    Help and usage errors raise ``SystemExit`` with 0 and 2.
    """
    json_out = all_corpus = False
    seed = None
    words: List[str] = []
    extras: List[str] = []
    args = argv
    kinds = _kinds(args)
    reread = closed = False
    i = 0
    while i < len(args):
        arg, kind = args[i], kinds[i]
        i += 1
        if kind == "--":
            if not words and not reread:
                reread = True
                args, kinds, i = args[i:], _kinds(args[i:]), 0
            elif closed:
                extras.append(arg)
            continue
        if kind is None:
            (extras if closed else words).append(arg)
            if reread and len(words) == 1:
                _check_command(words[0])
            continue
        closed = reread and bool(words)
        name, explicit = kind
        if name in ("-h", "--help"):
            if explicit is not None and (name == "--help" or not explicit
                                         or explicit.strip("h")):
                _usage_error("argument -h/--help: ignored explicit "
                             f"argument {explicit!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if name == "--seed":
            if explicit is None:
                if i == len(args) or kinds[i] is not None:
                    _usage_error("argument --seed: expected one argument")
                explicit = args[i]
                i += 1
            try:
                seed = int(explicit)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: "
                             f"{explicit!r}")
        elif name:
            if explicit is not None:
                _usage_error(f"argument {name}: ignored explicit argument "
                             f"{explicit!r}")
            json_out = json_out or name == "--json"
            all_corpus = all_corpus or name == "--all"
        else:
            extras.append(arg)
    if not words:
        _usage_error("the following arguments are required: command")
    _check_command(words[0])
    extras += words[2:]
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    # argparse dropped a '--' from each positional's strings
    session_file = words[1] if len(words) > 1 and words[1] != "--" else None
    return words[0], session_file, json_out, seed, all_corpus


def main(argv: Optional[List[str]] = None) -> int:
    try:
        command, session_file, json_out, seed, all_corpus = _parse_args(
            sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code)
    if all_corpus and command != "verify":
        print("error: --all applies only to 'verify'", file=sys.stderr)
        return 2
    if seed is not None and not all_corpus:
        print("error: --seed applies only to 'verify --all'",
              file=sys.stderr)
        return 2
    if all_corpus and session_file is not None:
        print("error: 'verify --all' takes no session file",
              file=sys.stderr)
        return 2

    color = _color_enabled(sys.stdout)
    if color is None:
        print("error: MALGRANGE_COLOR must be 'auto' or 'never'",
              file=sys.stderr)
        return 2

    session = None
    if session_file is not None:
        try:
            with open(session_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {session_file}: {exc}",
                  file=sys.stderr)
            return 2
        except UnicodeDecodeError:
            print(f"error: cannot read {session_file}: "
                  "not valid UTF-8", file=sys.stderr)
            return 2
        try:
            session = parse_session(text)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif not all_corpus:
        print("error: a session file is required "
              "(only 'verify --all' runs without one)", file=sys.stderr)
        return 2

    code, output = run(session, command, json_out=json_out,
                       seed=seed or 0, all_corpus=all_corpus,
                       color=color)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
