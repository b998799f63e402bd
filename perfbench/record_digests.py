"""Record the expected output and cost of every input in the universe.

    python3 perfbench/record_digests.py [--workload NAME ...]

Run from the root of a checkout of the commit whose outputs define
correctness.  For each input it stores the sha256 of the CLI's stdout, the
wall seconds of one untraced invocation (which sizes a run to --seconds)
and the number of monomial-order key calls (a deterministic cost that
ranks inputs into the strata of ``run.schedule``).  An input whose output
fails the workload's own checks, or whose traced output differs from the
untraced one, aborts the recording.  The digests must not be re-recorded
to make a later change pass: they are the benchmark's correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import run
from inputs import UNIVERSE


def record(root: Path, w: run.Workload) -> dict:
    runner = run.Runner(root, w, {})
    entries = {}
    try:
        runner.warm_up()
        for k in range(1, UNIVERSE + 1):
            code, out, wall, _ = runner.execute(k, "plain")
            digest = hashlib.sha256(out.encode()).hexdigest()
            reason = run.check_output(w, code, out, digest)
            code2, out2, _, counted = runner.execute(k, "counts")
            if reason is None and (code2 != code or out2 != out):
                reason = "traced output differs from untraced output"
            if reason is not None:
                raise SystemExit(f"{w.name} input {k}: {reason}")
            entry = entries[str(k)] = {
                "stdout_sha256": digest,
                "wall_s": round(wall, 4),
                "cost": counted["counts"]["rings.order_key"],
            }
            print(f"{w.name} {k}: {wall:.3f} s, cost {entry['cost']}",
                  flush=True)
    finally:
        runner.close()
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    table = {}
    if run.DIGESTS.exists():
        table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for name in args.workload or run.WORKLOADS:
        table[name] = record(Path.cwd(), run.WORKLOADS[name])
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
