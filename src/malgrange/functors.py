"""Finitely presented functors on the category of f.p. modules.

A covariant functor F is stored as one chosen presentation: a module map
f: Y -> X realizing F = coker(Hom(X,-) -> Hom(Y,-)).  A transformation
F -> G is a map b: Y_G -> Y_F whose composite with f_F factors through
f_G (the witness a); b represents zero precisely when it factors through
f_G itself.  All functor-level constructions (natural-transformation
modules, kernels, cokernels, the defect both as Ker f and as a module of
transformations into the forgetful functor) reduce to Hom-module algebra.

Functor equality is never tested; comparisons go through explicit
bijective transformations or module-level evaluation, following the
convention that presentations are chosen data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .rings import RingSpec
from .groebner import GrobnerBasis, PolyMatrix, Vector, solve_mod
from .modules import (Element, FPModule, Morphism, _flatten, bass_torsion,
                      cokernel, direct_sum, dual, hom_module, hom_pre,
                      hom_post, kernel, lift_through, nonzero_columns)


class FPFunctor:
    """Covariant f.p. functor, presented by f: Y -> X."""

    __slots__ = ("f",)

    def __init__(self, f: Morphism):
        self.f = f

    @property
    def y(self) -> FPModule:
        return self.f.source

    @property
    def x(self) -> FPModule:
        return self.f.target

    def __str__(self) -> str:
        return f"FPFunctor(f: {self.y} -> {self.x})"

    __repr__ = __str__


class ContraFPFunctor:
    """Contravariant f.p. functor, presented by g: Y -> X with
    F = coker(Hom(-,Y) -> Hom(-,X))."""

    __slots__ = ("g",)

    def __init__(self, g: Morphism):
        self.g = g

    @property
    def y(self) -> FPModule:
        return self.g.source

    @property
    def x(self) -> FPModule:
        return self.g.target

    def __str__(self) -> str:
        return f"ContraFPFunctor(g: {self.y} -> {self.x})"

    __repr__ = __str__


def _factor_through(f: Morphism, g: Morphism) -> Optional[PolyMatrix]:
    """Coefficients, over the generators of Hom(f.target, g.target), of a
    t with g = t o f, as one column, or None when g does not factor
    through f: read off the elimination basis that the kernel of Hom(f,
    g.target) reads."""
    h = hom_module(f.source, g.target)
    pre = hom_pre(f, g.target)
    return solve_mod(h.classes(_flatten(g.mat)), pre.mat, h.relations)


def _solve_witness(src: FPFunctor, tgt: FPFunctor, b: Morphism,
                   ) -> Optional[Morphism]:
    """a: X_tgt -> X_src with f_src o b = a o f_tgt, if one exists."""
    coeffs = _factor_through(tgt.f, src.f.compose(b))
    if coeffs is None:
        return None
    h3 = hom_module(tgt.x, src.x)
    return h3.decode(Element(h3, coeffs.column(0)))


class FunMorphism:
    """Transformation F -> G carried by b: Y_G -> Y_F with witness a."""

    __slots__ = ("src", "tgt", "b", "a")

    def __init__(self, src: FPFunctor, tgt: FPFunctor, b: Morphism,
                 a: Optional[Morphism] = None):
        if b.source != tgt.y or b.target != src.y:
            raise ValueError("transformation carrier must map Y_tgt -> Y_src")
        if a is None:
            a = _solve_witness(src, tgt, b)
            if a is None:
                raise ValueError("carrier does not define a transformation: "
                                 "no compatibility witness exists")
        else:
            lhs = src.f.compose(b)
            rhs = a.compose(tgt.f)
            if not (lhs - rhs).is_zero():
                raise ValueError("compatibility square does not commute")
        self.src = src
        self.tgt = tgt
        self.b = b
        self.a = a

    @staticmethod
    def identity(fun: FPFunctor) -> "FunMorphism":
        return FunMorphism(fun, fun, Morphism.identity(fun.y),
                           Morphism.identity(fun.x))

    @staticmethod
    def zero(src: FPFunctor, tgt: FPFunctor) -> "FunMorphism":
        return FunMorphism(src, tgt, Morphism.zero(tgt.y, src.y),
                           Morphism.zero(tgt.x, src.x))

    def compose(self, other: "FunMorphism") -> "FunMorphism":
        """self o other; apply other first."""
        return FunMorphism(other.src, self.tgt, other.b.compose(self.b),
                           other.a.compose(self.a))

    def __add__(self, other: "FunMorphism") -> "FunMorphism":
        return FunMorphism(self.src, self.tgt, self.b + other.b,
                           self.a + other.a)

    def __sub__(self, other: "FunMorphism") -> "FunMorphism":
        return FunMorphism(self.src, self.tgt, self.b - other.b,
                           self.a - other.a)

    def __neg__(self) -> "FunMorphism":
        return FunMorphism(self.src, self.tgt, -self.b, -self.a)

    def is_zero(self) -> bool:
        """Zero as a transformation: b factors through f_tgt."""
        return _factor_through(self.tgt.f, self.b) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunMorphism):
            return NotImplemented
        return (self - other).is_zero()

    def eval_at(self, v: FPModule) -> Morphism:
        """The component at v as a map of evaluated modules."""
        fv = eval_functor(self.src, v)
        gv = eval_functor(self.tgt, v)
        return Morphism(fv, gv, hom_pre(self.b, v).mat)

    def __str__(self) -> str:
        return f"FunMorphism({self.src} -> {self.tgt})"

    __repr__ = __str__


# -- basic constructions -----------------------------------------------------------

def representable(a: FPModule) -> FPFunctor:
    """The functor Hom(A, -), presented by A -> 0."""
    z = FPModule.zero(a.ring)
    return FPFunctor(Morphism(a, z, PolyMatrix.zeros(a.ring, 0, a.ngens),
                              _checked=True))


def zero_functor(ring: RingSpec) -> FPFunctor:
    return representable(FPModule.zero(ring))


def forgetful(ring: RingSpec) -> FPFunctor:
    """Hom(R, -), the underlying-module functor."""
    return representable(FPModule.free(ring, 1))


def is_zero_functor(fun: FPFunctor) -> bool:
    """F = 0 iff f: Y -> X is a split mono (Hom(X,-) -> Hom(Y,-) epi)."""
    return _factor_through(fun.f, Morphism.identity(fun.y)) is not None


def tensor_functor(b: FPModule) -> FPFunctor:
    """B (x) -, presented by the transpose of B's relation matrix."""
    ring = b.ring
    y = FPModule.free(ring, b.ngens)
    x = FPModule.free(ring, b.relations.ncols)
    return FPFunctor(Morphism(y, x, b.relations.transpose(), _checked=True))


def stable_hom(a: FPModule) -> FPFunctor:
    """Hom(A,-) modulo maps factoring through projectives.

    Presented by the stacked generators of the dual module: f: A -> R^t,
    x |-> (lambda_1(x), .., lambda_t(x)).
    """
    mat = dual(a).emb.mat.transpose()  # row i is lambda_i (see eval_map)
    return FPFunctor(Morphism(a, FPModule.free(a.ring, mat.nrows), mat))


def stable_map(a: FPModule) -> FunMorphism:
    """The canonical projection Hom(A,-) -> stable_hom(A)."""
    f = stable_hom(a)
    return FunMorphism(representable(a), f, Morphism.identity(a))


def tensor_eval_map(a: FPModule) -> FunMorphism:
    """mu_A : A* (x) -  ->  Hom(A, -), the trace-form transformation."""
    t = tensor_functor(dual(a))
    r = representable(a)
    return FunMorphism(t, r, stable_hom(a).f)


def contra_representable(x: FPModule) -> ContraFPFunctor:
    """Hom(-, X), presented by 0 -> X."""
    z = FPModule.zero(x.ring)
    return ContraFPFunctor(Morphism(z, x, PolyMatrix.zeros(x.ring, x.ngens, 0),
                                    _checked=True))


def contra_stable_hom(a: FPModule) -> ContraFPFunctor:
    """Hom(-,A) modulo projectives, presented by a free cover of A."""
    cover = FPModule.free(a.ring, a.ngens)
    pi = Morphism(cover, a, PolyMatrix.identity(a.ring, a.ngens),
                  _checked=True)
    return ContraFPFunctor(pi)


# -- evaluation --------------------------------------------------------------------

def eval_functor(fun: FPFunctor, v: FPModule) -> FPModule:
    """F(V) = coker(Hom(X,V) -> Hom(Y,V))."""
    c = hom_pre(fun.f, v)
    return cokernel(c)[0]


def eval_functor_map(fun: FPFunctor, phi: Morphism) -> Morphism:
    """F(phi): F(source) -> F(target), by post-composition."""
    fv = eval_functor(fun, phi.source)
    fw = eval_functor(fun, phi.target)
    return Morphism(fv, fw, hom_post(fun.y, phi).mat)


def eval_contra_functor(fun: ContraFPFunctor, v: FPModule) -> FPModule:
    """F(V) = coker(Hom(V,Y) -> Hom(V,X))."""
    c = hom_post(v, fun.g)
    return cokernel(c)[0]


# -- natural transformations as a module --------------------------------------------

class NatModule(FPModule):
    """Nat(F, G) as an FP module with decode/encode to FunMorphisms.

    Presented as {b : f_F o b factors through f_G} modulo {t o f_G}:
    a kernel of Hom(Y_G,Y_F) -> Hom(Y_G,X_F)/im, with the factoring
    transformations quotiented out.  The generators are the kernel's,
    carried into Hom(Y_G, Y_F) by ``_into_h1``; the relations (the
    kernel's, and the lift of Hom(f_G, Y_F) through it by
    ``lift_through``, whose ``Morphism`` check certifies them) are built
    when ``relations`` is first read (``FPModule``): a caller that reads
    only the carriers (``verify_adjunction``) never builds them.
    """

    __slots__ = ("fsrc", "ftgt", "_h1", "_into_h1")

    def __init__(self, fsrc: FPFunctor, ftgt: FPFunctor):
        f_f, f_g = fsrc.f, ftgt.f
        h1 = hom_module(ftgt.y, fsrc.y)
        c = hom_post(ftgt.y, f_f)
        d = hom_pre(f_g, fsrc.x)
        coker_d, _ = cokernel(d)
        _, emb = kernel(Morphism(h1, coker_d, c.mat, _checked=True))

        def relations() -> PolyMatrix:
            e_tilde = lift_through(emb, hom_pre(f_g, fsrc.y))
            return cokernel(e_tilde)[0].relations

        super().__init__(h1.ring, emb.mat.ncols, relations)
        self.fsrc = fsrc
        self.ftgt = ftgt
        self._h1 = h1
        self._into_h1 = emb.mat

    def decode(self, elem: Element) -> FunMorphism:
        if elem.module != self:
            raise ValueError("element not in this Nat module")
        h1_elem = Element(self._h1, self._into_h1.mul_vec(elem.vec))
        b = self._h1.decode(h1_elem)
        return FunMorphism(self.fsrc, self.ftgt, b)

    def encode(self, alpha: FunMorphism) -> Element:
        """The class of alpha: its class in Hom(Y_G, Y_F) lifted through
        the kernel embedding modulo that module's relations (``solve_mod``,
        certified, as in ``lift_through``)."""
        h1_vec = self._h1.encode(alpha.b).vec
        coeffs = solve_mod(PolyMatrix.from_columns(self.ring, h1_vec.rank,
                                                   [h1_vec]),
                           self._into_h1, self._h1.relations)
        if coeffs is None:
            raise ValueError("transformation failed to encode")
        return Element(self, coeffs.column(0))


def nat_hom(fsrc: FPFunctor, ftgt: FPFunctor) -> NatModule:
    return NatModule(fsrc, ftgt)


# -- kernels and cokernels in the functor category -----------------------------------

def cokernel_fun(phi: FunMorphism) -> FPFunctor:
    """Coker(phi: F -> G), presented by (b; f_G): Y_G -> Y_F + X_G."""
    f, g = phi.src, phi.tgt
    s, _ = direct_sum(f.y, g.x)
    mat = PolyMatrix.vstack(phi.b.mat, g.f.mat)
    return FPFunctor(Morphism(g.y, s, mat))


def kernel_fun(phi: FunMorphism) -> Tuple[FPFunctor, FunMorphism]:
    """(K, iota): the kernel of phi: F -> G.

    Module-level recipe: C = coker((b; -f_G): Y_G -> Y_F + X_G),
    D = coker((q; -f_F): Y_F -> C + X_F) with q the corner map Y_F -> C;
    K is presented by the canonical C -> D and iota is carried by q.
    """
    f, g = phi.src, phi.tgt
    ring = f.y.ring
    s1, _ = direct_sum(f.y, g.x)
    u = Morphism(g.y, s1, PolyMatrix.vstack(phi.b.mat, -g.f.mat))
    c_mod, _ = cokernel(u)
    q_mat = PolyMatrix.vstack(
        PolyMatrix.identity(ring, f.y.ngens),
        PolyMatrix.zeros(ring, g.x.ngens, f.y.ngens))
    q = Morphism(f.y, c_mod, q_mat, _checked=True)
    s2, _ = direct_sum(c_mod, f.x)
    v = Morphism(f.y, s2, PolyMatrix.vstack(q_mat, -f.f.mat))
    d_mod, _ = cokernel(v)
    fk_mat = PolyMatrix.vstack(
        PolyMatrix.identity(ring, c_mod.ngens),
        PolyMatrix.zeros(ring, f.x.ngens, c_mod.ngens))
    k = FPFunctor(Morphism(c_mod, d_mod, fk_mat, _checked=True))
    a_mat = PolyMatrix.vstack(
        PolyMatrix.zeros(ring, c_mod.ngens, f.x.ngens),
        PolyMatrix.identity(ring, f.x.ngens))
    a = Morphism(f.x, d_mod, a_mat, _checked=True)
    iota = FunMorphism(k, f, q, a)
    return k, iota


# -- the defect ---------------------------------------------------------------------

def defect(fun: FPFunctor) -> Tuple[FPModule, Morphism]:
    """(W, emb) with W = Ker(f: Y -> X) embedded in Y."""
    return kernel(fun.f)


def defect_via_nat(fun: FPFunctor) -> NatModule:
    """The defect as Nat(F, Hom(R,-)), the transformations into the
    forgetful functor."""
    return nat_hom(fun, forgetful(fun.y.ring))


def defect_comparison(fun: FPFunctor) -> Morphism:
    """Canonical map defect_via_nat(F) -> defect(F).W, the carriers R -> Y
    as one map lifted through Ker f; always bijective."""
    n = defect_via_nat(fun)
    _, emb = defect(fun)
    return lift_through(emb, Morphism(n, fun.y, n._h1.emb.mat * n._into_h1))


def cdefect(fun: ContraFPFunctor) -> FPModule:
    """Defect of a contravariant functor: Coker(g), equal to F(R)."""
    return cokernel(fun.g)[0]


# -- verification reports -------------------------------------------------------------

def module_dict(m: FPModule) -> Dict:
    return {"ngens": m.ngens, "relations": str(m.relations)}


class Report(dict):
    """The result of one check or computation: its ``--json`` entries, in
    output order, with the verdict in ``ok``: a bool, or ``None`` for a
    plain computation, which has no verdict.

    An entry may be given as a zero-argument function: it runs when the
    entry is first read and its value is stored in place, so key order is
    kept and an entry nobody reads costs nothing.  Every read sees the
    value: ``rep[k]``, ``get``, ``items``, ``values``, ``==``, ``repr``,
    ``dict(rep)``, ``**rep`` and ``json.dumps``."""

    __slots__ = ("ok",)

    def __init__(self, ok: Optional[bool], /, **entries):
        super().__init__(entries)
        self.ok = ok

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if callable(value):
            value = value()
            super().__setitem__(key, value)
        return value

    # A Python-level __iter__ makes dict(rep) and **rep read each entry
    # through keys() and __getitem__ instead of copying the stored slots.
    def __iter__(self):
        return super().__iter__()

    def _compute_all(self):
        for key in tuple(self):
            self[key]

    def get(self, key, default=None):
        return self[key] if key in self else default

    # json.dumps reads a dict subclass through items()
    def items(self):
        self._compute_all()
        return super().items()

    def values(self):
        self._compute_all()
        return super().values()

    def __eq__(self, other):
        self._compute_all()
        if isinstance(other, Report):
            other._compute_all()
        return super().__eq__(other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        self._compute_all()
        return super().__repr__()


def _first_outside(mat: PolyMatrix, gb: GrobnerBasis,
                   ) -> Optional[Tuple[int, Vector]]:
    """(j, column j) for the first column of mat that gb does not
    contain, or None when gb contains them all."""
    return next(((j, col) for j, col in enumerate(mat.columns())
                 if not gb.contains(col)), None)


def _outside_image(phi: Morphism, psi: Morphism) -> Optional[Vector]:
    """The first column of phi outside psi's image, or None when phi's
    image lies in psi's.  psi is a kernel embedding, so its image is the
    basis of its columns alone (``kernel``): the ``span`` of its matrix,
    which ``syzygies_mod`` cached with the matrix, so no basis is
    completed."""
    hit = _first_outside(phi.mat, psi.mat.span)
    return None if hit is None else hit[1]


def _image_membership_witness(phi: Morphism, psi: Morphism) -> Optional[str]:
    """A generator of one image missing from the other, or None when equal
    (``_outside_image`` both ways, the second only when the first holds)."""
    col = _outside_image(phi, psi)
    if col is not None:
        return f"defect generator {col} not in torsion"
    col = _outside_image(psi, phi)
    return None if col is None else f"torsion generator {col} not in defect"


def _column_strs(phi: Morphism) -> List[str]:
    """phi's columns that are nonzero in its target, printed; this needs
    the basis of the target's relations."""
    return [str(col) for col in nonzero_columns(phi)]


def verify_main_theorem(a: FPModule) -> Report:
    """Check that the defect of the stabilized Hom functor of A coincides
    with the torsion submodule of A, as submodules of A: the images of two
    kernel embeddings, neither kernel presented.  A failed check carries
    a generator in one image and not the other as ``witness``.  The
    module entry and the generator lists are computed when first read
    (``Report``): the verdict never needs A's relation basis, which the
    lists do."""
    _, emb = defect(stable_hom(a))
    _, iota = bass_torsion(a)
    witness = _image_membership_witness(emb, iota)
    rep = Report(witness is None, check="main-theorem",
                 module=lambda: module_dict(a),
                 defect_generators=lambda: _column_strs(emb),
                 torsion_generators=lambda: _column_strs(iota),
                 equal=witness is None)
    if witness is not None:
        rep["witness"] = witness
    return rep


def verify_adjunction(fun: FPFunctor, a: FPModule) -> Report:
    """Check Nat(F, Hom(A,-)) = Hom(A, Ker f_F) as submodules of
    Hom(A, Y_F): as X = 0 for Hom(A,-), Nat's carriers lie there, and
    Hom(A, Ker f_F) sits there by Hom(A, -) of the defect's embedding.
    Two image tests decide, as in ``control.malgrange_check``: no map
    between the sides is lifted and Nat's relations are never built.
    ``injective``: every carrier lies in Hom(A, Ker f_F)'s image (with
    Hom(A, Y_F)'s relations), so the comparison map exists, and it is
    injective because the carriers embed; ``surjective``: every
    Hom(A, Ker f_F) generator lies in the carriers' cached ``span``, a
    kernel embedding's, so it holds Hom(A, Y_F)'s relations;
    ``bijective``: both.  A failed check ends with the first generator
    outside the other image as ``witness``.  The functor and module
    entries are formatted when first read (``Report``)."""
    n = nat_hom(fun, representable(a))
    _, emb = defect(fun)
    iota = hom_post(a, emb)
    image = PolyMatrix.hstack(iota.mat, iota.target.relations).span
    nat_out = _first_outside(n._into_h1, image)
    hom_out = _first_outside(iota.mat, n._into_h1.span)
    injective, surjective = nat_out is None, hom_out is None
    rep = Report(injective and surjective, check="adjunction",
                 functor=lambda: {"f": str(fun.f.mat), "Y": module_dict(fun.y),
                                  "X": module_dict(fun.x)},
                 module=lambda: module_dict(a), nat_generators=n.ngens,
                 hom_generators=iota.source.ngens, injective=injective,
                 surjective=surjective, bijective=injective and surjective)
    if nat_out is not None:
        rep["witness"] = ("nat generator {} carries {}, not in the image of "
                          "Hom(A, Ker f)".format(*nat_out))
    elif hom_out is not None:
        rep["witness"] = ("hom generator {} maps to {}, not among the nat "
                          "carriers".format(*hom_out))
    return rep
