"""Linear constant-coefficient systems and their module-theoretic analysis.

A system A X = 0 (rows of A are equations in the unknowns X over a ring of
commuting operator symbols) is studied through the module M presented by
the transpose of A: solutions with values in a module V are exactly the
homomorphisms M -> V, autonomy is the torsion submodule of M, and the
system is controllable precisely when M is torsion free.  Every analysis
re-checks the torsion/defect identity at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .rings import Poly, RingSpec
from .groebner import PolyMatrix, Vector
from .modules import (Element, FPModule, Morphism, annihilator,
                      bass_torsion, direct_power, hom_module, kernel,
                      lift_through, nonzero_columns)
from .functors import (Report, bijection_report, module_dict,
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
    """Sol(V) = {(v_1..v_q) in V^q : A v = 0 in V^p}, with its embedding."""
    ring = sys.ring
    vq = direct_power(v, sys.n_unknowns)
    vp = direct_power(v, sys.n_equations)
    action = PolyMatrix.kron(sys.mat, PolyMatrix.identity(ring, v.ngens))
    return kernel(Morphism(vq, vp, action, _checked=True))


def malgrange_check(sys: ControlSystem, v: FPModule) -> Report:
    """Assert Hom(M, V) = Sol(V) via the map phi -> (phi(e_1)..phi(e_q))."""
    h = hom_module(malgrange_module(sys), v)
    _, emb = solution_module(sys, v)
    tuples = Morphism(h, emb.target, h.emb.mat, _checked=True)
    cmp_map = lift_through(emb, tuples)
    return bijection_report("malgrange",
                            {"system": str(sys.mat), "probe": module_dict(v)},
                            cmp_map, "hom_generators", "solution_generators")


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
