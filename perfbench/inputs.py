"""Seeded inputs for the three benchmark workloads.

Each workload draws from a fixed universe of ``UNIVERSE`` inputs, numbered
1..UNIVERSE.  Input ``k`` of a workload is a pure function of ``k``, so its
expected CLI output can be recorded once (``digests.json``) and checked on
every later run.  The workload seed only chooses which inputs a run visits
and in what order (``run.schedule``).

The generators are self-contained: they build session text with their own
small polynomial arithmetic and never import ``malgrange``, so a change to
the engine cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Tuple

UNIVERSE = 64

# same coefficient distribution as the engine's random corpus modules
_COEFFS = (-2, -1, 0, 0, 0, 1, 1, 2)

Mono = Tuple[int, ...]
Poly = Dict[Mono, int]


def _monomials(nvars: int, deg: int) -> List[Mono]:
    return sorted(e for e in product(range(deg + 1), repeat=nvars)
                  if sum(e) <= deg)


def _random_poly(rng: random.Random, nvars: int, deg: int) -> Poly:
    out: Poly = {}
    for m in _monomials(nvars, deg):
        c = rng.choice(_COEFFS)
        if c:
            out[m] = c
    return out


def _mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(f: Poly, g: Poly, sign: int = 1) -> Poly:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _degree(f: Poly) -> int:
    return max((sum(m) for m in f), default=-1)


def _format(f: Poly, names: Tuple[str, ...]) -> str:
    if not f:
        return "0"
    text = ""
    for i, m in enumerate(sorted(f, key=lambda e: (sum(e), e), reverse=True)):
        c = f[m]
        mono = "*".join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, m) if e)
        body = mono if mono and abs(c) == 1 else (
            f"{abs(c)}*{mono}" if mono else str(abs(c)))
        if i == 0:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


def _matrix(rows: List[List[Poly]], names: Tuple[str, ...]) -> str:
    return "[" + ", ".join("[" + ", ".join(_format(p, names) for p in row)
                           + "]" for row in rows) + "]"


def torsion_session(k: int) -> str:
    """A random 2x3 degree-2 cokernel over Q[x,y]: two generators, three
    relations, the shape of the engine's ``random-xy-*`` corpus modules."""
    rng = random.Random(f"torsion-xy:{k}")
    names = ("x", "y")
    relations = [[_random_poly(rng, 2, 2) for _ in range(2)]
                 for _ in range(3)]
    return f"ring Q[x, y];\nmodule M = coker {_matrix(relations, names)};\n"


def analyze_session(k: int) -> str:
    """A = P*C over Q[x,y,z] with P a 2x2 and C a 2x3 matrix of random
    degree-1 entries.  Draws are kept only when det P is non-constant and
    C has a nonzero 2x2 minor, which plants a nonzero torsion module: the
    known answer is 'not controllable' with at least one generator."""
    rng = random.Random(f"analyze-xyz:{k}")
    names = ("x", "y", "z")
    while True:
        p = [[_random_poly(rng, 3, 1) for _ in range(2)] for _ in range(2)]
        c = [[_random_poly(rng, 3, 1) for _ in range(3)] for _ in range(2)]
        det = _add(_mul(p[0][0], p[1][1]), _mul(p[0][1], p[1][0]), -1)
        minors = [_add(_mul(c[0][i], c[1][j]), _mul(c[0][j], c[1][i]), -1)
                  for i in range(3) for j in range(i + 1, 3)]
        if _degree(det) >= 1 and any(minors):
            break
    a = [[_add(_mul(p[i][0], c[0][j]), _mul(p[i][1], c[1][j]))
          for j in range(3)] for i in range(2)]
    return (f"ring Q[x, y, z];\n"
            f"system S = {_matrix(a, names)} vars u1, u2, u3;\n")

