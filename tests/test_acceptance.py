"""Acceptance gate: the nine shipping criteria for the engine.

Each test records one PASS/FAIL verdict line (echoed in a summary section
after the run, see conftest) and then asserts, so a plain ``pytest`` run
shows one line per criterion.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from conftest import record_verdict

from malgrange.rings import Poly, mono_div, mono_lcm, ring
from malgrange.groebner import Vector, buchberger, divide, syzygies
from malgrange.modules import (bass_torsion, cokernel, image, is_isomorphism,
                               q_dimension)
from malgrange.functors import (cdefect, contra_stable_hom, defect,
                                defect_comparison, representable, stable_hom,
                                verify_adjunction, verify_main_theorem)
from malgrange.smith import invariant_factors, smith_torsion_oracle
from malgrange.control import autonomy_report, is_controllable, malgrange_check
from malgrange import corpus
from reference_engine import reference_divide


def verdict(num, label, ok):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    record_verdict(line)
    print(line)
    assert ok, line


def rand_vector(r, rng, rank, deg=2, terms=3):
    entries = []
    for _ in range(rank):
        p = Poly.zero(r)
        for _ in range(rng.randint(0, terms)):
            exps = [0] * r.nvars
            for _ in range(rng.randint(0, deg)):
                exps[rng.randrange(r.nvars)] += 1
            p = p + Poly.term(r, Fraction(rng.randint(-3, 3)), tuple(exps))
        entries.append(p)
    return Vector(r, entries)


def test_criterion_1_main_theorem_suite():
    mods = corpus.main_theorem_modules()
    start = time.monotonic()
    ok = len(mods) >= 12
    for name, m in mods:
        rep = verify_main_theorem(m)
        ok = ok and rep["equal"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    verdict(1, f"torsion = defect on {len(mods)} modules "
               f"({elapsed:.1f}s)", ok)


def test_criterion_2_univariate_oracle_agreement():
    mods = corpus.univariate_modules()
    ok = len(mods) >= 8
    for name, m in mods:
        t, iota = bass_torsion(m)
        sub, _, _ = image(iota)
        oracle = smith_torsion_oracle(m)
        ok = ok and q_dimension(sub) == q_dimension(oracle)
        ok = ok and invariant_factors(sub) == invariant_factors(oracle)
    verdict(2, f"Smith-form agreement on {len(mods)} modules", ok)


def test_criterion_3_malgrange_isomorphism():
    pairs = corpus.malgrange_pairs()
    ok = len(pairs) >= 10
    ok = ok and any(s == "scalar-x" and p == "R/(x^2)"
                    for s, _, p, _ in pairs)
    for sname, sysm, pname, probe in pairs:
        ok = ok and malgrange_check(sysm, probe)["bijective"]
    verdict(3, f"Hom(M,V) = Sol(V) bijective on {len(pairs)} pairs", ok)


def test_criterion_4_control_verdicts():
    systems = dict(corpus.control_corpus())
    ok = is_controllable(systems["integrator"])
    drift = autonomy_report(systems["free-drift"])
    ok = ok and not drift["controllable"]
    ok = ok and [g["annihilators"] for g in drift["autonomy"]] == [["d"]]
    ok = ok and is_controllable(systems["divergence"])
    grad = autonomy_report(systems["gradient"])
    ok = ok and not grad["controllable"]
    ok = ok and len(grad["autonomy"]) == 1
    ok = ok and set(grad["autonomy"][0]["annihilators"]) == {"d1", "d2"}
    verdict(4, "four control verdicts exact", ok)


def test_criterion_5_radical_law():
    mods = corpus.main_theorem_modules()
    ok = True
    for name, m in mods:
        _, iota = bass_torsion(m)
        q, _ = cokernel(iota)
        ok = ok and bass_torsion(q)[0].is_zero()
    verdict(5, f"torsion of M/torsion vanishes on {len(mods)} modules", ok)


def test_criterion_6_adjunction_suite():
    pairs = corpus.adjunction_pairs()
    ok = len(pairs) >= 6
    for fname, fun, aname, a in pairs:
        ok = ok and verify_adjunction(fun, a)["bijective"]
    verdict(6, f"Nat(F,(A,-)) = Hom(A,w(F)) on {len(pairs)} pairs", ok)


def test_criterion_7_defect_coherence():
    funs = corpus.corpus_functors()
    ok = True
    for name, f in funs:
        ok = ok and is_isomorphism(defect_comparison(f))
    for name, m in corpus.univariate_modules()[:4]:
        w, emb = defect(representable(m))
        ok = ok and emb.target == m and is_isomorphism(emb)
    rx = ring("x")
    for name, m in corpus.univariate_modules()[:4]:
        ok = ok and cdefect(contra_stable_hom(m)).is_zero()
    verdict(7, "defect = defect-via-Nat; w(repr) = A; "
               "contravariant stable defect = 0", ok)


def test_criterion_8_engine_soundness():
    rx, rxy = ring("x"), ring("x", "y")
    ok = True
    # 100 division identities, re-multiplied exactly
    rng = random.Random(4001)
    done = 0
    while done < 100:
        r = rxy if done % 2 else rx
        rank = rng.randint(1, 3)
        basis = [b for b in (rand_vector(r, rng, rank) for _ in range(3))
                 if not b.is_zero()]
        if not basis:
            continue
        v = rand_vector(r, rng, rank)
        rem, quots = divide(v, basis)
        acc = rem
        for q, g in zip(quots, basis):
            acc = acc + g.poly_mul(q)
        ok = ok and acc == v
        done += 1
    # every S-vector of a returned basis reduces to zero, by the
    # reference's textbook reducer rather than the engine's own
    rng = random.Random(4002)
    for _ in range(10):
        rank = rng.randint(1, 2)
        gens = [rand_vector(rxy, rng, rank) for _ in range(3)]
        gb = buchberger(gens, ring=rxy, rank=rank)
        for v, w in combinations(gb.gens, 2):
            pv, ev, cv = v.leading()
            pw, ew, cw = w.leading()
            if pv != pw:
                continue
            l = mono_lcm(ev, ew)
            s = (v.mul_term(1 / cv, mono_div(l, ev))
                 - w.mul_term(1 / cw, mono_div(l, ew)))
            ok = ok and reference_divide(s, gb.gens)[0].is_zero()
    # syzygies multiply to zero exactly
    rng = random.Random(4003)
    for _ in range(10):
        rank = rng.randint(1, 2)
        gens = [rand_vector(rxy, rng, rank) for _ in range(3)]
        if all(g.is_zero() for g in gens):
            continue
        for s in syzygies(gens, rxy, rank).columns():
            acc = Vector.zero(rxy, rank)
            for c, g in zip(s.entries, gens):
                acc = acc + g.poly_mul(c)
            ok = ok and acc.is_zero()
    # reduced bases do not depend on generator order
    rng = random.Random(4004)
    for _ in range(20):
        rank = rng.randint(1, 2)
        gens = [rand_vector(rxy, rng, rank) for _ in range(4)]
        g1 = buchberger(gens, ring=rxy, rank=rank)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        g2 = buchberger(shuffled, ring=rxy, rank=rank)
        ok = ok and g1.gens == g2.gens
    verdict(8, "division identities, S-vectors, syzygies, "
               "permutation invariance", ok)


def test_criterion_9_cli_determinism():
    env = dict(os.environ, MALGRANGE_COLOR="never")
    cmd = [sys.executable, "-m", "malgrange", "verify", "--all", "--json"]
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    ok = a.returncode == 0 and b.returncode == 0
    ok = ok and a.stdout == b.stdout and len(a.stdout) > 0
    ok = ok and json.loads(a.stdout)["exit"] == 0
    verdict(9, "verify --all --json byte-identical, exit 0", ok)
