import random

import pytest

from malgrange.rings import Poly, ring
from malgrange.parsing import parse_poly
from malgrange.groebner import PolyMatrix
from malgrange.modules import FPModule, bass_torsion, image, q_dimension
from malgrange.smith import (invariant_factors, poly_deg, poly_divmod,
                             poly_gcd, smith_diagonal, smith_free_rank,
                             smith_invariant_factors, smith_torsion_oracle)
from malgrange import corpus

RX = ring("x")
RXY = ring("x", "y")


def px(s):
    return parse_poly(s, RX)


def mat(r, rows):
    return PolyMatrix(r, len(rows), len(rows[0]),
                      [[parse_poly(s, r) for s in row] for row in rows])


def coker_of(r, rows):
    m = mat(r, rows)
    return FPModule(r, m.ncols, m.transpose())


# -- Euclidean arithmetic -----------------------------------------------------


def test_poly_divmod_examples():
    q, r = poly_divmod(px("x^3 + x + 1"), px("x^2 + 1"))
    assert q == px("x")
    assert r == px("1")
    assert px("x") * px("x^2 + 1") + px("1") == px("x^3 + x + 1")


def test_poly_divmod_degree_contract():
    q, r = poly_divmod(px("x^5 - 2*x^2"), px("x^2 - x"))
    assert q * px("x^2 - x") + r == px("x^5 - 2*x^2")
    assert poly_deg(r) < 2


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(px("x"), Poly.zero(RX))


def test_poly_gcd_examples():
    # gcd(x^2-1, x^3-1) = x-1, monic
    assert poly_gcd(px("x^2 - 1"), px("x^3 - 1")) == px("x - 1")
    assert poly_gcd(px("2*x + 2"), px("4*x + 4")) == px("x + 1")
    assert poly_gcd(Poly.zero(RX), Poly.zero(RX)).is_zero()
    assert poly_gcd(px("x^2"), Poly.zero(RX)) == px("x^2")


def test_poly_gcd_divides_both():
    a, b = px("x^4 - 1"), px("x^6 - 1")
    g = poly_gcd(a, b)
    assert poly_divmod(a, g)[1].is_zero()
    assert poly_divmod(b, g)[1].is_zero()


# -- Smith diagonalization ----------------------------------------------------


def test_smith_diag_of_diagonal():
    d = smith_diagonal(mat(RX, [["x", "0"], ["0", "x^2"]]))
    assert d == [px("x"), px("x^2")]


def test_smith_diag_reorders_into_divisibility_chain():
    # diag(x^2, x) must come out as x | x^2
    d = smith_diagonal(mat(RX, [["x^2", "0"], ["0", "x"]]))
    assert d == [px("x"), px("x^2")]
    for a, b in zip(d, d[1:]):
        assert poly_divmod(b, a)[1].is_zero()


def test_smith_diag_units_first():
    d = smith_diagonal(mat(RX, [["x", "0"], ["0", "1"]]))
    assert d == [px("1"), px("x")]


def test_smith_diag_zero_matrix():
    assert smith_diagonal(PolyMatrix.zeros(RX, 2, 3)) == []


def test_smith_invariant_factors_drop_units():
    assert smith_invariant_factors(mat(RX, [["x", "0"], ["0", "1"]])) \
        == [px("x")]


def test_smith_rejects_multivariate():
    with pytest.raises(ValueError, match="oracle is univariate-only"):
        smith_diagonal(mat(RXY, [["x"]]))
    with pytest.raises(ValueError, match="oracle is univariate-only"):
        smith_torsion_oracle(FPModule.free(RXY, 1))


# -- torsion oracle -----------------------------------------------------------


def test_oracle_coker_diag_x_1():
    m = coker_of(RX, [["x", "0"], ["0", "1"]])
    t = smith_torsion_oracle(m)
    assert t == coker_of(RX, [["x"]])


def test_oracle_coker_diag_x_x2_dimension():
    m = coker_of(RX, [["x", "0"], ["0", "x^2"]])
    t = smith_torsion_oracle(m)
    assert q_dimension(t) == 3


def test_oracle_free_module():
    t = smith_torsion_oracle(FPModule.free(RX, 2))
    assert t.ngens == 0
    assert q_dimension(t) == 0


def test_smith_free_rank():
    assert smith_free_rank(FPModule.free(RX, 2)) == 2
    assert smith_free_rank(coker_of(RX, [["x"]])) == 0
    assert smith_free_rank(coker_of(RX, [["x", "0"], ["0", "1"]])) == 0


def test_invariant_factors_of_module():
    m = coker_of(RX, [["x", "0"], ["0", "x^2"]])
    assert invariant_factors(m) == [px("x"), px("x^2")]


# -- agreement with the double-dual torsion -----------------------------------


def torsion_submodule(m):
    """Image of the bass torsion inclusion, as an abstract module."""
    t, iota = bass_torsion(m)
    sub, _, _ = image(iota)
    return sub


def test_univariate_agreement_dimension_and_factors():
    # independent routes: Euclidean diagonalization vs double-dual kernel
    names = corpus.univariate_modules()
    assert len(names) >= 8
    for name, m in names:
        oracle = smith_torsion_oracle(m)
        tors = torsion_submodule(m)
        assert q_dimension(tors) == q_dimension(oracle), name
        assert invariant_factors(tors) == invariant_factors(oracle), name


def test_univariate_agreement_on_random_cokernels():
    # the same two routes on seeded random Q[x] cokernels: 1-3 generators,
    # 1-4 relations of degree 1-3; every disagreeing seed is reported
    disagree = []
    for seed in range(200):
        rng = random.Random(seed)
        m = corpus.random_cokernel(RX, rng, nrows=rng.randint(1, 3),
                                   ncols=rng.randint(1, 4),
                                   deg=rng.randint(1, 3))
        oracle = smith_torsion_oracle(m)
        tors = torsion_submodule(m)
        if (q_dimension(tors) != q_dimension(oracle)
                or invariant_factors(tors) != invariant_factors(oracle)):
            disagree.append(seed)
    assert disagree == []


def test_oracle_matches_relations_presented_in_scrambled_basis():
    # unit content but determinant x^3: torsion is R/(x^3) either way
    m = coker_of(RX, [["x^2", "1"], ["x^2", "x + 1"]])
    t = smith_torsion_oracle(m)
    assert invariant_factors(t) == [px("x^3")]
    tors = torsion_submodule(m)
    assert q_dimension(tors) == 3
    assert invariant_factors(tors) == [px("x^3")]
