#!/usr/bin/env python3
"""Walk the bundled control systems: Malgrange module, autonomy generators
with annihilating operators, controllability verdict, and the runtime
torsion = defect cross-check for each."""

import sys

from malgrange import corpus
from malgrange.control import autonomy_report, malgrange_module


def main() -> int:
    failures = 0
    for name, sys_ in corpus.control_corpus():
        m = malgrange_module(sys_)
        rep = autonomy_report(sys_)
        print(f"{name}: A = {sys_.mat}, unknowns {', '.join(sys_.unknowns)}")
        print(f"  Malgrange module: {m.ngens} generator(s), "
              f"relations {m.relations}")
        if rep["autonomy"]:
            for gen in rep["autonomy"]:
                ann = ", ".join(gen["annihilators"])
                print(f"  autonomous observable {gen['combination']}: "
                      f"annihilated by {ann}")
        else:
            print("  no autonomous observables")
        flavor = "controllable" if rep["controllable"] else "not controllable"
        check = "ok" if rep.ok else "FAILED"
        print(f"  verdict: {flavor}; torsion = defect: {check}")
        print()
        if not rep.ok:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
