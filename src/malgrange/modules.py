"""Finitely presented modules over Q[x1..xn] and their morphism calculus.

A module is a cokernel presentation R^p -> R^m -> M -> 0 stored as the
m x p relation matrix (relations are columns).  Elements are column vectors
in R^m, canonicalized by normal form against the relation basis; morphisms
are matrices acting on the left, checked for well-definedness when built.

Kernels, cokernels, images, Hom modules, duals, evaluation maps, and the
torsion subfunctor Ker(M -> M**) all reduce to the syzygy and membership
primitives of the Groebner layer.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, List, Optional, Tuple, Union

from .rings import Poly, RingSpec, mono_divides
from .groebner import (GrobnerBasis, PolyMatrix, Vector, cached, colon_ideal,
                       solve_mod, syzygies_mod)


class FPModule:
    """Module presented by generators e_1..e_m and relation columns.

    The relations may be given as a zero-argument builder instead of a
    matrix: it runs when ``relations`` is first read, and its matrix is
    checked then, as a given matrix is checked here.

    Equality and hashing are those of the presentation: ring, generator
    count and relation matrix.  Two presentations of one module, even of
    the zero module, are unequal; ``is_zero`` decides whether a module
    vanishes.
    """

    __slots__ = ("ring", "ngens", "_relations")

    def __init__(self, ring: RingSpec, ngens: int,
                 relations: Union[PolyMatrix, Callable[[], PolyMatrix]]):
        self.ring = ring
        self.ngens = ngens
        self._relations = relations
        if isinstance(relations, PolyMatrix):
            self._check(relations)

    def _check(self, relations: PolyMatrix) -> None:
        if relations.ring != self.ring or relations.nrows != self.ngens:
            raise ValueError("relation matrix must have one row per generator")

    @property
    def relations(self) -> PolyMatrix:
        rels = self._relations
        if not isinstance(rels, PolyMatrix):
            rels = rels()
            self._check(rels)
            self._relations = rels
        return rels

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "FPModule":
        return FPModule(ring, rank, PolyMatrix.zeros(ring, rank, 0))

    @staticmethod
    def zero(ring: RingSpec) -> "FPModule":
        return FPModule(ring, 0, PolyMatrix.zeros(ring, 0, 0))

    @property
    def gb(self) -> GrobnerBasis:
        """The reduced basis of the relations: the relation matrix's
        ``PolyMatrix.span``, cached under that matrix, not kept by the
        module."""
        return self.relations.span

    def element(self, vec: Vector) -> "Element":
        return Element(self, vec)

    def generator(self, i: int) -> "Element":
        return Element(self, Vector.unit(self.ring, self.ngens, i))

    def generators(self) -> List["Element"]:
        return [self.generator(i) for i in range(self.ngens)]

    def zero_element(self) -> "Element":
        return Element(self, Vector.zero(self.ring, self.ngens))

    def is_zero(self) -> bool:
        """True when every generator is killed by the relations."""
        return not nonzero_columns(Morphism.identity(self))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FPModule) and self.ring == other.ring
                and self.ngens == other.ngens
                and self.relations == other.relations)

    def __hash__(self) -> int:
        return hash((self.ring, self.ngens, self.relations))

    def __str__(self) -> str:
        return (f"FPModule({self.ring}, gens={self.ngens}, "
                f"rels={self.relations.ncols})")

    __repr__ = __str__


class Element:
    """Residue class in an FP module; the stored vector is the normal form."""

    __slots__ = ("module", "vec")

    def __init__(self, module: FPModule, vec: Vector):
        if vec.rank != module.ngens:
            raise ValueError("element rank mismatch")
        self.module = module
        self.vec = module.gb.reduce(vec)

    def is_zero(self) -> bool:
        return self.vec.is_zero()

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.module, self.vec + other.vec)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.module, self.vec - other.vec)

    def __neg__(self) -> "Element":
        return Element(self.module, -self.vec)

    def smul(self, f: Poly) -> "Element":
        return Element(self.module, self.vec.poly_mul(f))

    def _check(self, other: "Element"):
        if self.module != other.module:
            raise ValueError("elements live in different modules")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.module == other.module
                and self.vec == other.vec)

    def __hash__(self) -> int:
        return hash((self.module, self.vec))

    def __str__(self) -> str:
        return str(self.vec)

    __repr__ = __str__


class Morphism:
    """Module map source -> target given by a matrix acting on column vectors.

    The constructor verifies that every relation of the source is sent into
    the relation span of the target with the engine's one product
    certificate (``GrobnerBasis.first_product_outside``), so instances are
    always well defined.
    """

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: FPModule, target: FPModule, mat: PolyMatrix,
                 *, _checked: bool = False):
        if mat.nrows != target.ngens or mat.ncols != source.ngens:
            raise ValueError("morphism matrix shape mismatch")
        if mat.ring != source.ring or source.ring != target.ring:
            raise ValueError("morphism ring mismatch")
        if not _checked:
            j = target.gb.first_product_outside(mat, source.relations)
            if j is not None:
                raise ValueError(
                    "matrix does not define a morphism: relation "
                    f"{j} is not sent into the target relations")
        self.source = source
        self.target = target
        self.mat = mat

    @staticmethod
    def identity(m: FPModule) -> "Morphism":
        return Morphism(m, m, PolyMatrix.identity(m.ring, m.ngens),
                        _checked=True)

    @staticmethod
    def zero(source: FPModule, target: FPModule) -> "Morphism":
        return Morphism(source, target,
                        PolyMatrix.zeros(source.ring, target.ngens,
                                         source.ngens), _checked=True)

    def __call__(self, e: Element) -> Element:
        if e.module != self.source:
            raise ValueError("element not in the source module")
        return Element(self.target, self.mat.mul_vec(e.vec))

    def compose(self, other: "Morphism") -> "Morphism":
        """self o other; apply other first."""
        if other.target != self.source:
            raise ValueError("composition source/target mismatch")
        return Morphism(other.source, self.target, self.mat * other.mat,
                        _checked=True)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("morphism addition shape mismatch")
        return Morphism(self.source, self.target, self.mat + other.mat,
                        _checked=True)

    def __sub__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("morphism subtraction shape mismatch")
        return Morphism(self.source, self.target, self.mat - other.mat,
                        _checked=True)

    def __neg__(self) -> "Morphism":
        return Morphism(self.source, self.target, -self.mat, _checked=True)

    def smul(self, f: Poly) -> "Morphism":
        return Morphism(self.source, self.target, self.mat.scale(f),
                        _checked=True)

    def is_zero(self) -> bool:
        """Zero as a map: every generator image dies in the target."""
        return not nonzero_columns(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return (self - other).is_zero()

    def __str__(self) -> str:
        return f"Morphism({self.source} -> {self.target})"

    __repr__ = __str__


# -- kernels, cokernels, images ---------------------------------------------------

def kernel(phi: Morphism) -> Tuple[FPModule, Morphism]:
    """(K, iota) with K -> source exact onto {v : phi(v) = 0}.

    K's generators G are ``syzygies_mod(phi.mat, target relations)``, the
    reduced basis of the preimage of the target's relations, and iota is
    G.  As phi is well defined, that preimage holds every relation of the
    source, so G alone spans iota's image with them: images in the source
    compare through the basis of G (``functors._outside_image``).  K's
    relations are ``syzygies_mod(G, B)``, B the source's relations: read
    off ``_elimination(G, B)``, the basis that lifts through iota read too
    (``lift_through``).  They are built when ``K.relations`` is first
    read; a caller that compares images in the source never pays for them.
    A free target with phi.mat of full column rank at a point modulo a
    prime gives K = 0 with no elimination (``syzygies_mod``), as for the
    dual of a torsion module.
    """
    m = phi.source
    gens = syzygies_mod(phi.mat, phi.target.relations)
    k = FPModule(m.ring, gens.ncols,
                 lambda: syzygies_mod(gens, m.relations))
    return k, Morphism(k, m, gens, _checked=True)


def cokernel(phi: Morphism) -> Tuple[FPModule, Morphism]:
    """(C, pi) with pi: target -> C the canonical projection."""
    n = phi.target
    rels = PolyMatrix.hstack(n.relations, phi.mat)
    c = FPModule(n.ring, n.ngens, rels)
    return c, Morphism(n, c, PolyMatrix.identity(n.ring, n.ngens),
                       _checked=True)


def image(phi: Morphism) -> Tuple[FPModule, Morphism, Morphism]:
    """(I, epi, mono) with phi = mono o epi and I presented on source gens."""
    m = phi.source
    rels = syzygies_mod(phi.mat, phi.target.relations)
    i = FPModule(m.ring, m.ngens, rels)
    epi = Morphism(m, i, PolyMatrix.identity(m.ring, m.ngens), _checked=True)
    mono = Morphism(i, phi.target, phi.mat, _checked=True)
    return i, epi, mono


def direct_sum(a: FPModule, b: FPModule) -> Tuple[FPModule, Tuple[Morphism, ...]]:
    """(A + B, (inc_a, inc_b, proj_a, proj_b))."""
    ring = a.ring
    rels = PolyMatrix.block_diag(ring, [a.relations, b.relations])
    s = FPModule(ring, a.ngens + b.ngens, rels)
    za = PolyMatrix.zeros(ring, b.ngens, a.ngens)
    zb = PolyMatrix.zeros(ring, a.ngens, b.ngens)
    ia = PolyMatrix.vstack(PolyMatrix.identity(ring, a.ngens), za)
    ib = PolyMatrix.vstack(zb, PolyMatrix.identity(ring, b.ngens))
    pa = ia.transpose()
    pb = ib.transpose()
    return s, (Morphism(a, s, ia, _checked=True),
               Morphism(b, s, ib, _checked=True),
               Morphism(s, a, pa, _checked=True),
               Morphism(s, b, pb, _checked=True))


def direct_power(m: FPModule, k: int) -> FPModule:
    rels = PolyMatrix.block_diag(m.ring, [m.relations] * k)
    return FPModule(m.ring, m.ngens * k, rels)


# -- Hom modules -------------------------------------------------------------------

def _flatten(mat: PolyMatrix) -> PolyMatrix:
    """Column-major flattening into one column; column k of mat occupies
    rows k*nrows..(k+1)*nrows."""
    return PolyMatrix(mat.ring, mat.nrows * mat.ncols, 1,
                      ((mat.rows[i][k],) for k in range(mat.ncols)
                       for i in range(mat.nrows)))


def _unflatten(ring: RingSpec, nrows: int, ncols: int, v: Vector) -> PolyMatrix:
    rows = [[v.entries[k * nrows + i] for k in range(ncols)]
            for i in range(nrows)]
    return PolyMatrix(ring, nrows, ncols, rows)


def power_kernel(mat: PolyMatrix, v: FPModule) -> Tuple[FPModule, Morphism]:
    """(K, iota): the kernel of the p x q matrix mat acting V^q -> V^p,
    as mat (x) I on the generators of the powers (``kernel``).  With mat
    the transposed relations of M this is Hom(M, V) (``HomModule``); with
    mat a system's equations, its solutions in V (``solution_module``).
    K's relations are built on first read.  mat (x) I by an identity
    multiplies no entry (``Poly.mul_term``)."""
    action = PolyMatrix.kron(mat, PolyMatrix.identity(v.ring, v.ngens))
    return kernel(Morphism(direct_power(v, mat.ncols),
                           direct_power(v, mat.nrows), action, _checked=True))


class HomModule(FPModule):
    """Hom(M, N) presented as the kernel of N^m -> N^p, Phi |-> Phi o rel_M
    (``power_kernel`` of rel_M's transpose).  Its relations are the
    kernel's, built when ``relations`` is first read: a caller that reads
    only the embedding (``control.malgrange_check``) never completes them.

    emb maps the generators to flattened matrices M -> N (``_flatten``), in
    N^m; decode reads one morphism off it.  classes lifts flattened
    morphisms back, and encode inverts decode for any well-defined
    morphism.
    """

    __slots__ = ("dom", "cod", "emb")

    def __init__(self, dom: FPModule, cod: FPModule):
        k, emb = power_kernel(dom.relations.transpose(), cod)
        super().__init__(dom.ring, k.ngens, k._relations)
        self.dom = dom
        self.cod = cod
        self.emb = emb

    def decode(self, e: Element) -> Morphism:
        if e.module != self:
            raise ValueError("element not in this Hom module")
        flat = self.emb.mat.mul_vec(e.vec)
        mat = _unflatten(self.ring, self.cod.ngens, self.dom.ngens, flat)
        return Morphism(self.dom, self.cod, mat, _checked=True)

    def classes(self, flat: PolyMatrix) -> PolyMatrix:
        """The classes of the columns of flat, flattened matrices dom ->
        cod, as normal forms: all lifted through the embedding modulo
        cod^m's relations by one ``solve_mod`` (certified, as in
        ``lift_through``).  A lift exists exactly when each column is a
        well-defined morphism.  The lifts are returned as read: each is
        reduced modulo this module's relations by ``solve_mod`` itself."""
        coeffs = solve_mod(flat, self.emb.mat, self.emb.target.relations)
        if coeffs is None:
            raise ValueError("morphism failed to encode into Hom module")
        return coeffs

    def encode(self, phi: Morphism) -> Element:
        """The class of phi (``classes`` of its flattened matrix)."""
        if phi.source != self.dom or phi.target != self.cod:
            raise ValueError("morphism does not match this Hom module")
        return Element(self, self.classes(_flatten(phi.mat)).column(0))


def hom_module(dom: FPModule, cod: FPModule) -> HomModule:
    """Hom(dom, cod), built once per pair of presentations (``cached``)."""
    # keyed on the relation matrices, which carry the ring and generator
    # count
    return cached(("hom", dom.relations, cod.relations),
                  lambda: HomModule(dom, cod))


def hom_pre(f: Morphism, cod: FPModule) -> Morphism:
    """Hom(f, cod): Hom(target, cod) -> Hom(source, cod), phi -> phi o f.

    On flattened matrices phi -> phi o f is vec(phi f) = (f^T (x) I) vec(phi),
    so the generators' images are that Kronecker product times the
    embedding of Hom(target, cod), lifted at once (``HomModule.classes``)."""
    h_t = hom_module(f.target, cod)
    h_s = hom_module(f.source, cod)
    act = PolyMatrix.kron(f.mat.transpose(),
                          PolyMatrix.identity(f.mat.ring, cod.ngens))
    return Morphism(h_t, h_s, h_s.classes(act * h_t.emb.mat), _checked=True)


def hom_post(dom: FPModule, f: Morphism) -> Morphism:
    """Hom(dom, f): Hom(dom, source) -> Hom(dom, target), phi -> f o phi:
    vec(f phi) = (I (x) f) vec(phi), as in ``hom_pre``."""
    h_s = hom_module(dom, f.source)
    h_t = hom_module(dom, f.target)
    act = PolyMatrix.kron(PolyMatrix.identity(f.mat.ring, dom.ngens), f.mat)
    return Morphism(h_s, h_t, h_t.classes(act * h_s.emb.mat), _checked=True)


def dual(m: FPModule) -> HomModule:
    return hom_module(m, FPModule.free(m.ring, 1))


def dual_morphism(f: Morphism) -> Morphism:
    """f* : target* -> source*."""
    return hom_pre(f, FPModule.free(f.source.ring, 1))


def tensor_modules(a: FPModule, b: FPModule) -> FPModule:
    """A (x) B on generators e_i (x) f_j, index i*ngens_b + j."""
    ring = a.ring
    ida = PolyMatrix.identity(ring, a.ngens)
    idb = PolyMatrix.identity(ring, b.ngens)
    rels = PolyMatrix.hstack(PolyMatrix.kron(a.relations, idb),
                             PolyMatrix.kron(ida, b.relations))
    return FPModule(ring, a.ngens * b.ngens, rels)


# -- torsion via the double dual ---------------------------------------------------

def eval_map(m: FPModule) -> Morphism:
    """Canonical M -> M**, generator e_j to evaluation-at-e_j.

    The dual's embedding E (m x t) sends its relations to zero exactly, so
    its column i is the i-th generator lambda_i of M* itself, and row j is
    evaluation at e_j.  All m evaluations are checked as one morphism M* ->
    R^m, then lifted into M** at once (``HomModule.classes``)."""
    d = dual(m)
    dd = dual(d)
    e = d.emb.mat
    Morphism(d, FPModule.free(m.ring, m.ngens), e)  # raises if ill defined
    return Morphism(m, dd, dd.classes(e.transpose()))


def bass_torsion(m: FPModule) -> Tuple[FPModule, Morphism]:
    """(T, iota) = ker(M -> M**), built once per presentation (``cached``)."""
    return cached(("torsion", m.relations), lambda: kernel(eval_map(m)))


def nonzero_columns(phi: Morphism) -> List[Vector]:
    """The columns of phi whose classes in phi.target are nonzero."""
    gb = phi.target.gb
    return [col for col in phi.mat.columns() if not gb.contains(col)]


class AnnihilatorIdeal:
    """Ideal {r in R : r * e = 0}, canonical generators, witness flagged."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, basis: GrobnerBasis):
        if basis.rank != 1:
            raise ValueError("an ideal is a rank-1 basis")
        self.ring = basis.ring
        # canonical presentation: the reduced basis of the ideal, listed
        # with largest leading monomial first
        self._gb = basis
        self.gens = tuple(v.entries[0] for v in reversed(basis.gens))

    @property
    def witness(self) -> Optional[Poly]:
        """A nonzero annihilating element, when one exists."""
        return self.gens[0] if self.gens else None

    def is_zero(self) -> bool:
        return self.witness is None

    def contains(self, f: Poly) -> bool:
        return self._gb.contains(Vector(self.ring, [f]))

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    __repr__ = __str__


def annihilator(e: Element) -> AnnihilatorIdeal:
    """The ideal of r in R with r * e = 0 in the parent module."""
    return AnnihilatorIdeal(colon_ideal(e.vec, e.module.relations))


def module_annihilator(m: FPModule) -> AnnihilatorIdeal:
    """The ideal {f in R : f * M = 0}."""
    # f kills M iff f * vec(Id) lies in the span of one relation block per
    # generator: a colon ideal in rank ngens^2
    return AnnihilatorIdeal(colon_ideal(
        _flatten(PolyMatrix.identity(m.ring, m.ngens)).column(0),
        direct_power(m, m.ngens).relations))


# -- lifting, injectivity and surjectivity ------------------------------------------

def lift_through(iota: Morphism, phi: Morphism) -> Morphism:
    """psi with iota o psi = phi, for any iota into phi's target.

    psi is c with iota.mat * c = phi.mat modulo the target's relations
    (one ``solve_mod``, certified): read off the elimination basis
    whose projection is K's relations when iota is a kernel embedding
    (``kernel``).  Raises ValueError when a column does not factor
    through iota, or when the lifts do not define a morphism phi.source
    -> iota.source (``Morphism``), as may happen when iota is not
    injective.
    """
    if iota.target != phi.target:
        raise ValueError("lift requires a common target")
    mat = solve_mod(phi.mat, iota.mat, iota.target.relations)
    if mat is None:
        raise ValueError("morphism does not factor through the image")
    return Morphism(phi.source, iota.source, mat)


def is_injective(phi: Morphism) -> bool:
    """True when phi has zero kernel: every generator of the preimage of
    the target's relations (``kernel``) lies in the span of the source's
    relations.  No presentation of the kernel is built."""
    return not nonzero_columns(kernel(phi)[1])


def is_surjective(phi: Morphism) -> bool:
    c, _ = cokernel(phi)
    return c.is_zero()


def is_isomorphism(phi: Morphism) -> bool:
    return is_surjective(phi) and is_injective(phi)


# -- dimension over the ground field ------------------------------------------------

def q_dimension(m: FPModule) -> Optional[int]:
    """Dimension of M as a Q-vector space, or None when infinite.

    Counts standard monomials: pairs (position, monomial) outside the
    leading-term module of the relations.
    """
    nv = m.ring.nvars
    leads = [[] for _ in range(m.ngens)]
    for g in m.gb.gens:
        pos, exps, _ = g.leading()
        leads[pos].append(exps)
    total = 0
    for pos in range(m.ngens):
        bound = [None] * nv
        for exps in leads[pos]:
            nz = [i for i in range(nv) if exps[i] > 0]
            if len(nz) == 0:
                bound = [0] * nv
                break
            if len(nz) == 1:
                i = nz[0]
                if bound[i] is None or exps[i] < bound[i]:
                    bound[i] = exps[i]
        if any(b is None for b in bound):
            return None
        count = 0
        for cand in iter_product(*(range(b) for b in bound)):
            if not any(mono_divides(e, cand) for e in leads[pos]):
                count += 1
        total += count
    return total
