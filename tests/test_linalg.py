"""Exact kernel: echelon forms, inverses, span/sum/intersect."""

import random
from fractions import Fraction

import pytest

from dqmat.errors import DimensionMismatch, InvalidInput, Singular
from dqmat.fields import GF, QQ, Field
from dqmat.linalg import Matrix, Subspace, matrix_invert, matrix_rref

from helpers import rank_oracle


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, rank, pivots = matrix_rref(m)
    assert r == m
    assert rank == 2
    assert pivots == [0, 1]


def test_rref_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    r, rank, pivots = matrix_rref(m)
    assert r == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert rank == 1
    assert pivots == [0]


def test_rref_gf2():
    # hand elimination mod 2: r2 += r1 -> [[1,1],[0,1]], then r1 += r2 -> I
    m = Matrix.from_rows(GF(2), [[1, 1], [1, 2]])
    r, rank, pivots = matrix_rref(m)
    assert r == Matrix.identity(GF(2), 2)
    assert rank == 2
    assert pivots == [0, 1]


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        m = Matrix.from_rows(QQ, [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                   for _ in range(4)] for _ in range(3)])
        r1, _, _ = matrix_rref(m)
        r2, _, _ = matrix_rref(r1)
        assert r1 == r2


def test_invert_identity():
    m = Matrix.identity(QQ, 3)
    assert matrix_invert(m) == m


def test_invert_block_triangular():
    # [[I, B], [0, I]] inverts to [[I, -B], [0, I]]
    b = [[2, 3], [5, 7]]
    m = Matrix.from_rows(QQ, [[1, 0, b[0][0], b[0][1]],
                              [0, 1, b[1][0], b[1][1]],
                              [0, 0, 1, 0],
                              [0, 0, 0, 1]])
    inv = matrix_invert(m)
    expected = Matrix.from_rows(QQ, [[1, 0, -b[0][0], -b[0][1]],
                                     [0, 1, -b[1][0], -b[1][1]],
                                     [0, 0, 1, 0],
                                     [0, 0, 0, 1]])
    assert inv == expected


def test_invert_singular():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
    with pytest.raises(Singular):
        matrix_invert(m)


def test_invert_roundtrip_random():
    rng = random.Random(11)
    for p, field in ((None, QQ), (7, GF(7))):
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) if p is None else rng.randrange(p)
                     for _ in range(n)] for _ in range(n)]
            if rank_oracle(rows, p=p) < n:
                continue
            m = Matrix.from_rows(field, rows)
            inv = matrix_invert(m)
            assert inv * m == Matrix.identity(field, n)
            assert m * inv == Matrix.identity(field, n)


def test_matrix_shape_is_checked():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, 0, 1, ())


def test_span_empty():
    s = Subspace.span(QQ, 3, [])
    assert s.dim == 0
    assert s.is_zero()


def test_span_elimination():
    s = Subspace.span(QQ, 3, [(1, 0, 0), (1, 1, 0)])
    assert s.dim == 2
    assert s.rows == ((Fraction(1), Fraction(0), Fraction(0)),
                      (Fraction(0), Fraction(1), Fraction(0)))


def test_span_rank_matches_oracle_gf7():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        s = Subspace.span(GF(7), 4, rows)
        assert s.dim == rank_oracle(rows, p=7)


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.span(QQ, 3, [(1, 0)])


def test_contains():
    a = Subspace.span(QQ, 3, [(1, 0, 0)])
    b = Subspace.span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    assert not a.contains(b)
    assert b.contains(a)


def test_sum():
    a = Subspace.span(QQ, 3, [(1, 0, 0)])
    b = Subspace.span(QQ, 3, [(0, 1, 0)])
    assert a.sum(b) == Subspace.span(QQ, 3, [(1, 0, 0), (0, 1, 0)])


def test_intersect():
    # common vectors of span{e1,e2} and span{e2,e3}: solve a1 e1 + a2 e2 = b2 e2 + b3 e3
    # forces a1 = b3 = 0, leaving span{e2}
    a = Subspace.span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.span(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    assert a.intersect(b) == Subspace.span(QQ, 3, [(0, 1, 0)])


def test_modular_law_random():
    rng = random.Random(19)
    for _ in range(30):
        m = rng.randint(2, 6)
        a = Subspace.span(GF(5), m, [[rng.randrange(5) for _ in range(m)]
                                     for _ in range(rng.randint(0, m))])
        b = Subspace.span(GF(5), m, [[rng.randrange(5) for _ in range(m)]
                                     for _ in range(rng.randint(0, m))])
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
        assert a.sum(b).contains(a) and a.sum(b).contains(b)
        assert a.contains(a.intersect(b)) and b.contains(a.intersect(b))


def test_exact_rational_arithmetic():
    rng = random.Random(23)
    for _ in range(50):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


def test_scalar_text_forms():
    assert QQ.format(QQ.parse("3/6")) == "1/2"
    assert QQ.format(QQ.parse("-4/2")) == "-2"
    assert QQ.format(QQ.of(5)) == "5"
    assert GF(7).parse("12") == 5
    assert GF(7).format(GF(7).of(-1)) == "6"


def test_prime_moduli():
    assert Field(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(InvalidInput):
        Field(561)  # Carmichael number: a Fermat test with base 2 would pass it
    with pytest.raises(InvalidInput):
        Field(2 ** 89 - 1)  # prime, but above the bound of the proven Miller-Rabin bases
