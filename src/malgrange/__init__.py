"""Exact module-theoretic analysis of linear control systems over Q[x1..xn].

The layers, bottom to top:

- ``rings``: multivariate polynomials over Q (coefficients are
  ``fractions.Fraction``) in grevlex order.
- ``groebner``: Gröbner bases for submodules of free modules, division,
  syzygies, and membership certificates.
- ``modules``: finitely presented modules, morphisms, Hom modules, duals,
  the evaluation map, and Bass torsion.
- ``smith``: an independent univariate oracle via Smith normal form.
- ``functors``: finitely presented functors, natural-transformation
  modules, the defect, and the torsion = defect verification.
- ``control``: Malgrange modules, autonomy, and controllability.
- ``session``/``cli``: the input language and command-line surface.
"""

from .rings import GREVLEX, MonomialOrder, Poly, RingSpec, ring
from .groebner import (GrobnerBasis, PolyMatrix, SpanSolver, Vector,
                       buchberger, colon_ideal, divide, syzygies, syzygies_mod,
                       solve_mod)
from .modules import (AnnihilatorIdeal, Element, FPModule, Morphism,
                      annihilator, bass_torsion, cokernel, direct_sum,
                      direct_power, dual, dual_morphism, eval_map,
                      hom_module, hom_pre, hom_post, image, is_injective,
                      is_isomorphism, is_surjective, kernel, lift_through,
                      module_annihilator, q_dimension, tensor_modules)
from .smith import (invariant_factors, smith_diagonal,
                    smith_invariant_factors, smith_torsion_oracle)
from .functors import (ContraFPFunctor, FPFunctor, FunMorphism, Report,
                       cdefect, cokernel_fun, contra_representable,
                       contra_stable_hom, defect, defect_via_nat,
                       eval_functor, eval_functor_map, forgetful,
                       is_zero_functor, kernel_fun, nat_hom, representable,
                       stable_hom, stable_map, tensor_eval_map,
                       tensor_functor, verify_adjunction,
                       verify_main_theorem, zero_functor)
from .control import (ControlSystem, autonomy, autonomy_report,
                      is_controllable, malgrange_check, malgrange_module,
                      solution_module)
from .parsing import ParseError, parse_poly
from .session import Session, parse_session

__version__ = "0.1.0"

__all__ = [
    "GREVLEX", "MonomialOrder", "Poly", "RingSpec", "ring",
    "GrobnerBasis", "PolyMatrix", "SpanSolver", "Vector", "buchberger",
    "colon_ideal", "divide", "syzygies", "syzygies_mod", "solve_mod",
    "AnnihilatorIdeal", "Element", "FPModule", "Morphism", "annihilator",
    "bass_torsion", "cokernel", "direct_sum", "direct_power", "dual",
    "dual_morphism", "eval_map", "hom_module", "hom_pre", "hom_post",
    "image", "is_injective", "is_isomorphism", "is_surjective", "kernel",
    "lift_through", "module_annihilator", "q_dimension", "tensor_modules",
    "invariant_factors", "smith_diagonal", "smith_invariant_factors",
    "smith_torsion_oracle",
    "ContraFPFunctor", "FPFunctor", "FunMorphism", "Report", "cdefect",
    "cokernel_fun", "contra_representable", "contra_stable_hom", "defect",
    "defect_via_nat", "eval_functor", "eval_functor_map", "forgetful",
    "is_zero_functor", "kernel_fun", "nat_hom", "representable",
    "stable_hom", "stable_map", "tensor_eval_map", "tensor_functor",
    "verify_adjunction", "verify_main_theorem", "zero_functor",
    "ControlSystem", "autonomy", "autonomy_report", "is_controllable",
    "malgrange_check", "malgrange_module", "solution_module",
    "ParseError", "parse_poly", "Session", "parse_session",
    "__version__",
]
