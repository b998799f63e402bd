"""Linear constant-coefficient systems and their module-theoretic analysis.

A system A X = 0 (rows of A are equations in the unknowns X over a ring of
commuting operator symbols) is studied through the module M presented by
the transpose of A: solutions with values in a module V are exactly the
homomorphisms M -> V, autonomy is the torsion submodule of M, and the
system is controllable precisely when M is torsion free.  Every analysis
re-checks the torsion/defect identity at runtime.

Hom(M, V) and the solutions Sol(V) are both the kernel of a matrix
acting V^q -> V^p, built by one function (``modules.power_kernel``), and
``malgrange_check`` compares the two as submodules of V^q.  Both are
built from the same matrix today, so that check cannot disagree; a
second presentation of one side only has to change the matrix that
``solution_module`` passes in.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .rings import Poly, RingSpec
from .groebner import PolyMatrix, Vector
from .modules import (Element, FPModule, Morphism, annihilator,
                      bass_torsion, hom_module, nonzero_columns,
                      power_kernel)
from .functors import (Report, _outside_image, module_dict,
                       verify_main_theorem)


class ControlSystem:
    """Kernel representation A X = 0; rows are equations, columns unknowns."""

    __slots__ = ("ring", "unknowns", "mat")

    def __init__(self, ring: RingSpec, unknowns: Sequence[str],
                 mat: PolyMatrix):
        if mat.nrows < 1 or mat.ncols < 1:
            raise ValueError("system needs at least one equation and "
                             "one unknown")
        if mat.ncols != len(unknowns):
            raise ValueError("one unknown per matrix column required")
        if len(set(unknowns)) != len(unknowns):
            raise ValueError("duplicate unknown name")
        if mat.ring != ring:
            raise ValueError("system matrix ring mismatch")
        self.ring = ring
        self.unknowns = tuple(unknowns)
        self.mat = mat

    @property
    def n_equations(self) -> int:
        return self.mat.nrows

    @property
    def n_unknowns(self) -> int:
        return self.mat.ncols

    def __str__(self) -> str:
        return (f"ControlSystem({self.ring}, vars={', '.join(self.unknowns)}, "
                f"{self.n_equations} equation(s))")

    __repr__ = __str__


def malgrange_module(sys: ControlSystem) -> FPModule:
    """Module on one generator per unknown, with the equations as relations."""
    return FPModule(sys.ring, sys.n_unknowns, sys.mat.transpose())


def solution_module(sys: ControlSystem, v: FPModule,
                    ) -> Tuple[FPModule, Morphism]:
    """Sol(V) = {(v_1..v_q) in V^q : A v = 0 in V^p}, with its embedding
    in V^q: the kernel of A acting V^q -> V^p (``power_kernel``), built by
    the function that builds Hom(M, V), from the system's own matrix."""
    return power_kernel(sys.mat, v)


def malgrange_check(sys: ControlSystem, v: FPModule) -> Report:
    """Check Hom(M, V) = Sol(V) as submodules of V^q, where Hom(M, V)
    sits by phi -> (phi(e_1)..phi(e_q)): the images of the two kernel
    embeddings, each column of one tested against the other's cached
    ``span`` (``functors._outside_image``), so no map between them is
    built.  ``injective``: every Hom(M, V) generator lies in Sol(V), so
    the comparison map exists, and it is injective because Hom's
    embedding is; ``surjective``: every Sol(V) generator lies in
    Hom(M, V); ``bijective``: both.  A failed check ends with the first
    generator outside the other image as ``witness``.  The system and
    probe entries are formatted when first read (``Report``)."""
    h = hom_module(malgrange_module(sys), v)
    sol, emb = solution_module(sys, v)
    hom_out, sol_out = _outside_image(h.emb, emb), _outside_image(emb, h.emb)
    injective, surjective = hom_out is None, sol_out is None
    rep = Report(injective and surjective, check="malgrange",
                 system=lambda: str(sys.mat), probe=lambda: module_dict(v),
                 hom_generators=h.ngens, solution_generators=sol.ngens,
                 injective=injective, surjective=surjective,
                 bijective=injective and surjective)
    if hom_out is not None:
        rep["witness"] = f"hom generator {hom_out} not in solutions"
    elif sol_out is not None:
        rep["witness"] = f"solution generator {sol_out} not in hom"
    return rep


def autonomy(sys: ControlSystem) -> Tuple[FPModule, Morphism]:
    """The torsion submodule of the Malgrange module, with its inclusion."""
    return bass_torsion(malgrange_module(sys))


def is_controllable(sys: ControlSystem) -> bool:
    """Controllable = torsion-free Malgrange module: every generator of
    the torsion submodule is zero in M, the test ``autonomy_report``
    makes for ``controllable``, so no relation of T is computed."""
    return not nonzero_columns(autonomy(sys)[1])


def _combination(sys: ControlSystem, vec: Vector) -> str:
    """Human-readable R-combination of the system unknowns."""
    parts = []
    one = Poly.one(sys.ring)
    for name, p in zip(sys.unknowns, vec.entries):
        if p.is_zero():
            continue
        if p == one:
            parts.append(name)
        elif p == -one:
            parts.append(f"-{name}")
        else:
            parts.append(f"({p})*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def autonomy_report(sys: ControlSystem) -> Report:
    """Autonomy generators with annihilator witnesses, plus the runtime
    torsion/defect cross-check under ``theorem_check``; one ``autonomy``
    entry per generator: the combination of unknowns, its element of M,
    and the operators annihilating it."""
    m = malgrange_module(sys)
    gens: List[Dict] = []
    for col in nonzero_columns(bass_torsion(m)[1]):
        elem = Element(m, col)
        gens.append({"combination": _combination(sys, elem.vec),
                     "element": str(elem.vec),
                     "annihilators": [str(g)
                                      for g in annihilator(elem).gens]})
    check = verify_main_theorem(m)
    return Report(check.ok, check="analysis", system=str(sys.mat),
                  unknowns=list(sys.unknowns), malgrange=module_dict(m),
                  autonomy=gens, controllable=not gens, theorem_check=check)
