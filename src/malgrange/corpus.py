"""Bundled test corpus: named modules, systems, and functors.

Everything here is deterministic.  Randomized entries use a fixed seed so
repeated runs (and the `verify --all` command) produce identical objects.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .rings import Poly, RingSpec, ring
from .groebner import PolyMatrix
from .parsing import parse_poly
from .modules import FPModule, direct_sum
from .functors import (FPFunctor, representable, stable_hom, tensor_functor)
from .control import ControlSystem

CORPUS_SEED = 1789


def univariate_ring() -> RingSpec:
    return ring("x")


def bivariate_ring() -> RingSpec:
    return ring("x", "y")


def _monomials_upto(r: RingSpec, deg: int) -> List[Tuple[int, ...]]:
    """The exponents of all monomials of total degree <= deg, in a fixed
    order."""
    exps_list = [()]
    for _ in range(r.nvars):
        exps_list = [e + (k,) for e in exps_list for k in range(deg + 1)]
    return [exps for exps in sorted(exps_list) if sum(exps) <= deg]


def random_poly(r: RingSpec, rng: random.Random, deg: int = 2) -> Poly:
    """One coefficient drawn from rng per monomial of total degree <= deg,
    in ``_monomials_upto`` order; the polynomial is built by one ``Poly``,
    which drops the zero draws."""
    return Poly(r, [(exps, rng.choice((-2, -1, 0, 0, 0, 1, 1, 2)))
                    for exps in _monomials_upto(r, deg)])


def random_cokernel(r: RingSpec, rng: random.Random, nrows: int = 2,
                    ncols: int = 3, deg: int = 2) -> FPModule:
    rows = [[random_poly(r, rng, deg) for _ in range(ncols)]
            for _ in range(nrows)]
    return FPModule(r, nrows, PolyMatrix(r, nrows, ncols, rows))


def _matrix(r: RingSpec, rows: List[List[str]]) -> PolyMatrix:
    """Matrix over r from text rows of polynomials."""
    return PolyMatrix(r, len(rows), len(rows[0]),
                      [[parse_poly(s, r) for s in row] for row in rows])


def _coker(r: RingSpec, rows: List[List[str]]) -> FPModule:
    """Module from text rows of relations (rows are relation vectors)."""
    mat = _matrix(r, rows)
    return FPModule(r, mat.ncols, mat.transpose())


def main_theorem_modules() -> List[Tuple[str, FPModule]]:
    """At least 12 modules over Q[x] and Q[x,y] for the torsion=defect check."""
    rx = univariate_ring()
    rxy = bivariate_ring()
    out: List[Tuple[str, FPModule]] = [
        ("free-rank1-x", FPModule.free(rx, 1)),
        ("free-rank2-xy", FPModule.free(rxy, 2)),
        ("R/(x)", _coker(rx, [["x"]])),
        ("R/(x^2)", _coker(rx, [["x^2"]])),
        ("R/(x,y)", _coker(rxy, [["x"], ["y"]])),
        ("R+R/(x)", direct_sum(FPModule.free(rx, 1), _coker(rx, [["x"]]))[0]),
        # the ideal (x, y) presented by its Koszul relation
        ("ideal(x,y)", _coker(rxy, [["y", "-x"]])),
    ]
    rng = random.Random(CORPUS_SEED)
    for i in range(2):
        out.append((f"random-x-{i}", random_cokernel(rx, rng)))
    for i in range(3):
        out.append((f"random-xy-{i}", random_cokernel(rxy, rng)))
    return out


def univariate_modules() -> List[Tuple[str, FPModule]]:
    """At least 8 Q[x]-modules for the Smith-form agreement check."""
    rx = univariate_ring()
    out: List[Tuple[str, FPModule]] = [
        ("free-rank1", FPModule.free(rx, 1)),
        ("free-rank2", FPModule.free(rx, 2)),
        ("R/(x)", _coker(rx, [["x"]])),
        ("R/(x^2)", _coker(rx, [["x^2"]])),
        ("R/(x)+R/(x^2)", _coker(rx, [["x", "0"], ["0", "x^2"]])),
        ("coker-diag(x,1)", _coker(rx, [["x", "0"], ["0", "1"]])),
        ("R/(x^2-1)", _coker(rx, [["x^2 - 1"]])),
        ("scrambled", _coker(rx, [["x^2", "x^3"], ["x^2 + x", "x^3 + x"]])),
    ]
    rng = random.Random(CORPUS_SEED + 1)
    out.append(("random-univ", random_cokernel(rx, rng)))
    return out


def control_corpus() -> List[Tuple[str, ControlSystem]]:
    rd = ring("d")
    rdd = ring("d1", "d2")
    return [
        ("integrator", ControlSystem(rd, ["x", "u"],
                                     _matrix(rd, [["d", "-1"]]))),
        ("free-drift", ControlSystem(rd, ["x"], _matrix(rd, [["d"]]))),
        ("divergence", ControlSystem(rdd, ["y1", "y2"],
                                     _matrix(rdd, [["d1", "d2"]]))),
        ("gradient", ControlSystem(rdd, ["y"],
                                   _matrix(rdd, [["d1"], ["d2"]]))),
    ]


def malgrange_pairs() -> List[Tuple[str, ControlSystem, str, FPModule]]:
    """At least 10 (system, probe module) pairs over matching rings."""
    rd = ring("d")
    rdd = ring("d1", "d2")
    rx = univariate_ring()
    systems = dict(control_corpus())
    # the single scalar operator a = x, probed at R/(x^2)
    scalar = ControlSystem(rx, ["w"], _matrix(rx, [["x"]]))

    probes_d = [
        ("R", FPModule.free(rd, 1)),
        ("R/(d^2)", _coker(rd, [["d^2"]])),
        ("R/(d)", _coker(rd, [["d"]])),
        ("R+R/(d)", direct_sum(FPModule.free(rd, 1), _coker(rd, [["d"]]))[0]),
    ]
    probes_dd = [
        ("R", FPModule.free(rdd, 1)),
        ("R/(d1)", _coker(rdd, [["d1"]])),
        ("R/(d1,d2)", _coker(rdd, [["d1"], ["d2"]])),
    ]
    pairs: List[Tuple[str, ControlSystem, str, FPModule]] = []
    pairs.append(("scalar-x", scalar, "R/(x^2)", _coker(rx, [["x^2"]])))
    for sname in ("integrator", "free-drift"):
        for pname, probe in probes_d:
            pairs.append((sname, systems[sname], pname, probe))
    for sname in ("divergence", "gradient"):
        for pname, probe in probes_dd:
            if sname == "gradient" and pname == "R":
                continue
            pairs.append((sname, systems[sname], pname, probe))
    return pairs


def adjunction_pairs() -> List[Tuple[str, FPFunctor, str, FPModule]]:
    """At least 6 (functor, module) pairs for the hom-adjunction check."""
    rx = univariate_ring()
    rxy = bivariate_ring()
    r_x = _coker(rx, [["x"]])
    r_x2 = _coker(rx, [["x^2"]])
    mixed = direct_sum(FPModule.free(rx, 1), r_x)[0]
    r_xy = _coker(rxy, [["x"], ["y"]])
    ideal = _coker(rxy, [["y", "-x"]])
    return [
        ("repr(R/(x))", representable(r_x), "R/(x^2)", r_x2),
        ("repr(R)", representable(FPModule.free(rx, 1)), "R/(x)", r_x),
        ("tensor(R/(x))", tensor_functor(r_x), "R+R/(x)", mixed),
        ("tensor(R/(x,y))", tensor_functor(r_xy), "ideal(x,y)", ideal),
        ("stable(R/(x))", stable_hom(r_x), "R/(x^2)", r_x2),
        ("stable(R/(x,y))", stable_hom(r_xy), "R/(x,y)", r_xy),
        ("stable(R+R/(x))", stable_hom(mixed), "R/(x)", r_x),
    ]


def corpus_functors() -> List[Tuple[str, FPFunctor]]:
    """Functors used for the defect-coherence sweep."""
    rx = univariate_ring()
    rxy = bivariate_ring()
    r_x = _coker(rx, [["x"]])
    r_x2 = _coker(rx, [["x^2"]])
    mixed = direct_sum(FPModule.free(rx, 1), r_x)[0]
    r_xy = _coker(rxy, [["x"], ["y"]])
    return [
        ("repr(R)", representable(FPModule.free(rx, 1))),
        ("repr(R/(x))", representable(r_x)),
        ("repr(R/(x,y))", representable(r_xy)),
        ("tensor(R/(x))", tensor_functor(r_x)),
        ("tensor(R/(x^2))", tensor_functor(r_x2)),
        ("stable(R/(x))", stable_hom(r_x)),
        ("stable(R+R/(x))", stable_hom(mixed)),
        ("stable(R/(x,y))", stable_hom(r_xy)),
    ]
