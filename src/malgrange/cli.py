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

import argparse
import os
import random
import sys
from typing import Dict, List, Optional, Tuple

from . import corpus
from .control import autonomy_report, malgrange_check
from .functors import (module_dict, stable_hom, verify_adjunction,
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


def _run_analyze(session: Session, out: _Printer, results: List[Dict]) -> int:
    code = 0
    for (name,) in _targets(session, "analyze"):
        rep = autonomy_report(session.systems[name])
        flavor = "yes" if rep.controllable else "no"
        out.add(f"analyze {name}: controllable: {flavor}, "
                f"autonomy: {len(rep.generators)}")
        for gen in rep.generators:
            plural = "es" if len(gen.witnesses) != 1 else ""
            out.add(f"  generator {gen.combination}: "
                    f"witness{plural} {', '.join(gen.witnesses)}")
        out.add(f"  torsion = defect: {out.verdict(rep.ok)}")
        if not rep.ok:
            code = 1
        results.append({"name": name, **rep.to_dict()})
    return code


def _run_torsion(session: Session, out: _Printer, results: List[Dict]) -> int:
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
        results.append({"check": "torsion", "name": name,
                        "module": module_dict(m),
                        "generators": entries})
    return 0


def _run_defect(session: Session, out: _Printer, results: List[Dict]) -> int:
    code = 0
    for (name,) in _targets(session, "defect"):
        m = session.module_of(name)
        rep = verify_main_theorem(m)
        ok = rep.equal
        out.add(f"defect {name}: generators: "
                f"{len(rep.defect_generators)}, matches torsion: "
                f"{out.verdict(ok)}")
        for g in rep.defect_generators:
            out.add(f"  generator {g}")
        if not ok:
            code = 1
        results.append({"check": "defect", "name": name,
                        "generators": list(rep.defect_generators),
                        "matches_torsion": ok,
                        "witness": rep.witness})
    return code


def _run_hom(session: Session, out: _Printer, results: List[Dict]) -> int:
    for a, b in _targets(session, "hom"):
        src = session.module_of(a)
        tgt = session.module_of(b)
        h = hom_module(src, tgt)
        out.add(f"hom {a} {b}: generators: {h.ngens}")
        mats = [str(h.decode(g).mat) for g in h.generators()]
        for s in mats:
            out.add(f"  generator {s}")
        out.add(f"  relations: {h.relations}")
        results.append({"check": "hom", "source": a, "target": b,
                        "ngens": h.ngens, "relations": str(h.relations),
                        "generators": mats})
    return 0


def _run_gb(session: Session, out: _Printer, results: List[Dict]) -> int:
    for (name,) in _targets(session, "gb"):
        m = session.module_of(name)
        basis = m.gb.gens[::-1]  # a reduced basis lists its leads ascending
        out.add(f"gb {name}: elements: {len(basis)}")
        for v in basis:
            out.add(f"  {v}")
        results.append({"check": "gb", "name": name,
                        "elements": [str(v) for v in basis]})
    return 0


def _verify_triple(entries, out: _Printer, results: List[Dict]) -> int:
    """Run (label, report) pairs, render verdicts, count failures."""
    failures = 0
    for label, rep in entries:
        ok = rep.ok
        out.add(f"{label}: {out.verdict(ok)}")
        if not ok:
            failures += 1
        results.append(rep.to_dict())
    return failures


def _session_verify_entries(session: Session):
    entries = []
    modules = [(name, session.module_of(name))
               for _, name in session.bindings]
    for name, m in modules:
        entries.append((f"main-theorem {name}", verify_main_theorem(m)))
    for name, m in modules:
        entries.append((f"adjunction stable({name}) @ {name}",
                        verify_adjunction(stable_hom(m), m)))
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
            entries.append((f"malgrange {name} @ {pname}",
                            malgrange_check(sysm, probe)))
    return entries


def _corpus_verify_entries(seed: int):
    entries = []
    for name, m in corpus.main_theorem_modules():
        entries.append((f"main-theorem {name}", verify_main_theorem(m)))
    if seed:
        rng = random.Random(seed)
        for i, r in enumerate((corpus.univariate_ring(),
                               corpus.univariate_ring(),
                               corpus.bivariate_ring())):
            m = corpus.random_cokernel(r, rng)
            entries.append((f"main-theorem seeded-{seed}-{i}",
                            verify_main_theorem(m)))
    for fname, fun, aname, a in corpus.adjunction_pairs():
        entries.append((f"adjunction {fname} @ {aname}",
                        verify_adjunction(fun, a)))
    for sname, sysm, pname, probe in corpus.malgrange_pairs():
        entries.append((f"malgrange {sname} @ {pname}",
                        malgrange_check(sysm, probe)))
    return entries


def run(session: Optional[Session], command: str, *, json_out: bool = False,
        seed: int = 0, all_corpus: bool = False,
        color: bool = False) -> Tuple[int, str]:
    """Execute one command against a session (or the bundled corpus)."""
    out = _Printer(color and not json_out)
    results: List[Dict] = []
    if command == "verify":
        if all_corpus:
            entries = _corpus_verify_entries(seed)
        else:
            entries = _session_verify_entries(session)
        failures = _verify_triple(entries, out, results)
        out.add(f"verify: {len(entries)} checks, {failures} failures")
        code = 1 if failures else 0
    else:
        handler = {"analyze": _run_analyze, "torsion": _run_torsion,
                   "defect": _run_defect, "hom": _run_hom,
                   "gb": _run_gb}[command]
        code = handler(session, out, results)
    if json_out:
        import json  # kept off the start-up path: only --json needs it
        payload = {"format": 1, "command": command, "results": results,
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="malgrange",
        description="Exact autonomy/controllability analysis of linear "
                    "systems over polynomial rings.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("session_file", nargs="?",
                        help="session file (required except for "
                             "'verify --all')")
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--all", action="store_true", dest="all_corpus",
                        help="verify the bundled corpus")
    try:
        # intermixed: flags may appear before or after the session file
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.all_corpus and args.command != "verify":
        print("error: --all applies only to 'verify'", file=sys.stderr)
        return 2
    if args.all_corpus and args.session_file is not None:
        print("error: 'verify --all' takes no session file",
              file=sys.stderr)
        return 2

    color = _color_enabled(sys.stdout)
    if color is None:
        print("error: MALGRANGE_COLOR must be 'auto' or 'never'",
              file=sys.stderr)
        return 2

    session = None
    if args.session_file is not None:
        try:
            with open(args.session_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.session_file}: {exc}",
                  file=sys.stderr)
            return 2
        except UnicodeDecodeError:
            print(f"error: cannot read {args.session_file}: "
                  "not valid UTF-8", file=sys.stderr)
            return 2
        try:
            session = parse_session(text)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif not args.all_corpus:
        print("error: a session file is required "
              "(only 'verify --all' runs without one)", file=sys.stderr)
        return 2

    code, output = run(session, args.command, json_out=args.json_out,
                       seed=args.seed, all_corpus=args.all_corpus,
                       color=color)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
