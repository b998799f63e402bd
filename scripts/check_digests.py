#!/usr/bin/env python3
"""Check every benchmark input against its recorded stdout digest.

    python3 scripts/check_digests.py [--workload NAME ...]

Run from the root of a checkout.  Each of the 64 inputs of each
``perfbench`` workload runs through ``malgrange.cli.main`` in this process,
with the Groebner cache emptied before each input so no input sees another's
results: the cache is the engine's only memo of results, column bases
(``PolyMatrix.span``) included, so each input starts cold.  Its stdout must
pass ``perfbench/run.py``'s ``check_output``: exit code 0, no failed
verdict, the workload's own check, and the sha256 recorded in
``perfbench/digests.json``.  Nothing under
``perfbench/`` is written.  Exits 1 if any input fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import malgrange.cli as cli  # noqa: E402
from malgrange import groebner  # noqa: E402


def _load_bench():
    sys.dont_write_bytecode = True  # leave perfbench/ exactly as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def check(bench, name: str, work: Path) -> tuple:
    """(number of inputs, failures among them) of one workload."""
    w = bench.WORKLOADS[name]
    table = bench.load_digests(name)
    failures = []
    for k in sorted(table):
        session = work / f"{name}-{k}.mg"
        if w.session is not None:
            session.write_text(w.session(k), encoding="utf-8")
        groebner._CACHE.clear()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(w.argv(k, session))
        except Exception as exc:  # reported, then the next input runs
            failures.append(f"{name} input {k}: {type(exc).__name__}: {exc}")
            continue
        text = out.getvalue()
        reason = bench.check_output(w, code, text,
                                    table[k]["stdout_sha256"])
        if reason is not None:
            got = hashlib.sha256(text.encode()).hexdigest()
            failures.append(f"{name} input {k}: {reason} (sha256 {got})")
    return len(table), failures


def main() -> int:
    bench = _load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench.WORKLOADS))
    args = parser.parse_args()
    os.environ["MALGRANGE_COLOR"] = "never"
    names = args.workload or list(bench.WORKLOADS)
    total = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            count, failures = check(bench, name, Path(tmp))
            total += count
            failed += len(failures)
            for line in failures:
                print(line, file=sys.stderr)
            print(f"{name}: {len(failures)} failed", flush=True)
    print(f"digests: {total - failed}/{total} match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
