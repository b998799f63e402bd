#!/usr/bin/env python3
"""Stress the torsion = defect identity on seeded random presentations.

Draws random cokernels (``corpus.random_cokernel``'s defaults: two
generators, three relations, entries of degree at most 2), times
bass_torsion against the full functor-side verification, and reports
agreement plus timing percentiles.  bass_torsion is cached per
presentation, so the "full check" time reads the torsion embedding from
the cache and covers the defect side and the comparison.
"""

import argparse
import random
import statistics
import sys
import time

from malgrange.corpus import random_cokernel
from malgrange.functors import verify_main_theorem
from malgrange.modules import bass_torsion, q_dimension
from malgrange.rings import ring


def run(seed: int, count: int, variables: str) -> int:
    r = ring(*variables.split(","))
    rng = random.Random(seed)
    torsion_times = []
    check_times = []
    failures = 0
    for i in range(count):
        m = random_cokernel(r, rng)
        t0 = time.monotonic()
        t, _ = bass_torsion(m)
        t1 = time.monotonic()
        rep = verify_main_theorem(m)
        t2 = time.monotonic()
        torsion_times.append(t1 - t0)
        check_times.append(t2 - t1)
        dim = q_dimension(t)
        dim_s = "inf" if dim is None else str(dim)
        status = "ok" if rep.equal else "MISMATCH"
        print(f"case {i:3d}: torsion dim {dim_s:>4}  "
              f"torsion {t1 - t0:6.3f}s  check {t2 - t1:6.3f}s  {status}")
        if not rep.equal:
            failures += 1
    print()
    for label, times in (("bass_torsion", torsion_times),
                         ("full check", check_times)):
        print(f"{label}: median {statistics.median(times):.3f}s, "
              f"max {max(times):.3f}s, total {sum(times):.3f}s")
    print(f"agreement: {count - failures}/{count}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1789)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--variables", default="x,y",
                    help="comma-separated ring variable names")
    args = ap.parse_args()
    return run(args.seed, args.count, args.variables)


if __name__ == "__main__":
    sys.exit(main())
