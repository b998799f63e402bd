#!/usr/bin/env python3
"""Stress the torsion = defect identity and the torsion annihilators on
seeded random presentations.

Draws random cokernels (``corpus.random_cokernel``'s defaults: two
generators, three relations, entries of degree at most 2), times
bass_torsion against the full functor-side verification, and reports
agreement plus timing percentiles.  bass_torsion is cached per
presentation, so the "full check" time reads the torsion embedding from
the cache and covers the defect side and the comparison.

Each torsion generator's annihilator is then computed as ``malgrange
torsion`` computes it (``annihilator(m.element(col))``) and compared, on
an emptied Groebner cache, with two references: the tag-only part of
``buchberger`` over [v; 1] and the relations [b_j; 0], completed from
scratch, and the definition, g * v in the span of the relations for every
generator g.  A draw agrees when torsion = defect and every annihilator
matches both; the script exits 1 if any draw does not.

Each draw also checks the two facts the torsion = defect comparison and
the Hom encodings read without re-checking them: the reduced basis of the
columns of the torsion embedding, and that of the defect embedding, each
contains every relation of the module (``kernel``); and every column of
a ``HomModule.classes`` result is its own normal form: ``eval_map(m)`` in
the double dual, and the class of M's identity in Hom(M, M).  Either
failing counts as a mismatch of the draw.
"""

import argparse
import random
import statistics
import sys
import time

from malgrange import groebner
from malgrange.corpus import random_cokernel
from malgrange.functors import defect, stable_hom, verify_main_theorem
from malgrange.groebner import Vector, buchberger
from malgrange.modules import (Morphism, _flatten, annihilator,
                               bass_torsion, dual, eval_map, hom_module,
                               nonzero_columns, q_dimension)
from malgrange.rings import Poly, ring


def annihilator_mismatches(m, gens) -> int:
    """How many of the torsion generators gens of m have an annihilator
    that differs from either reference."""
    r, k = m.ring, m.ngens
    got = [annihilator(m.element(v)).gens for v in gens]
    groebner._CACHE.clear()  # the references read nothing back
    cols = m.relations.columns()
    span = buchberger(cols, ring=r, rank=k)
    one, zero = Poly.one(r), Poly.zero(r)
    bad = 0
    for v, ideal in zip(gens, got):
        scratch = buchberger(
            [Vector(r, v.entries + (one,))]
            + [Vector(r, c.entries + (zero,)) for c in cols],
            ring=r, rank=k + 1)
        tag = [w.entries[k] for w in scratch.gens
               if all(p.is_zero() for p in w.entries[:k])]
        if (ideal != tuple(reversed(tag))
                or not all(span.contains(v.poly_mul(g)) for g in ideal)):
            bad += 1
    return bad


def span_mismatches(m, embeddings) -> int:
    """How many of the kernel embeddings into m have a column basis that
    misses a relation of m."""
    rels = m.relations.columns()
    return sum(
        not all(buchberger(e.mat.columns(), ring=m.ring, rank=m.ngens
                           ).contains(r) for r in rels)
        for e in embeddings)


def normal_form_mismatches(m) -> int:
    """How many columns of eval_map(m), and of the class of M's identity in
    Hom(M, M), differ from their normal form there.  M** has had no
    relations on the draws sampled, so Hom(M, M) is the case with terms
    to reduce."""
    h = hom_module(m, m)
    pairs = [(dual(dual(m)), eval_map(m).mat),
             (h, h.classes(_flatten(Morphism.identity(m).mat)))]
    return sum(hom.gb.reduce(c) != c for hom, mat in pairs
               for c in mat.columns())


def run(seed: int, count: int, variables: str) -> int:
    r = ring(*variables.split(","))
    rng = random.Random(seed)
    torsion_times = []
    check_times = []
    failures = anns = ann_failures = span_failures = nf_failures = 0
    for i in range(count):
        m = random_cokernel(r, rng)
        t0 = time.monotonic()
        t, iota = bass_torsion(m)
        t1 = time.monotonic()
        rep = verify_main_theorem(m)
        t2 = time.monotonic()
        torsion_times.append(t1 - t0)
        check_times.append(t2 - t1)
        spans = span_mismatches(m, [iota, defect(stable_hom(m))[1]])
        forms = normal_form_mismatches(m)
        span_failures += spans
        nf_failures += forms
        gens = nonzero_columns(iota)
        bad = annihilator_mismatches(m, gens)
        anns += len(gens)
        ann_failures += bad
        dim = q_dimension(t)
        dim_s = "inf" if dim is None else str(dim)
        ok = rep.ok and not (bad or spans or forms)
        status = "ok" if ok else "MISMATCH"
        print(f"case {i:3d}: torsion dim {dim_s:>4}  "
              f"torsion {t1 - t0:6.3f}s  check {t2 - t1:6.3f}s  "
              f"annihilators {len(gens) - bad}/{len(gens)}  {status}")
        if not ok:
            failures += 1
    print()
    for label, times in (("bass_torsion", torsion_times),
                         ("full check", check_times)):
        print(f"{label}: median {statistics.median(times):.3f}s, "
              f"max {max(times):.3f}s, total {sum(times):.3f}s")
    print(f"agreement: {count - failures}/{count}, "
          f"annihilator mismatches: {ann_failures} of {anns}, "
          f"span mismatches: {span_failures}, "
          f"normal form mismatches: {nf_failures}")
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
