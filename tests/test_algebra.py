"""Subalgebra machinery: closures, ideals, radicals, centralizers, conjugation."""

import random

import pytest

from dqmat.algebra import (
    MatSubalgebra,
    centralizer,
    commutator_ideal,
    conjugate_algebra,
    ideal_power,
    is_commutative,
    nilpotency_index,
    product_space,
    radical,
    two_sided_ideal,
    unital_closure,
)
from dqmat.errors import (
    ClosureViolation,
    DimensionMismatch,
    NotInAlgebra,
    UnsupportedCharacteristic,
)
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix, Subspace

from helpers import rank_oracle


def e(i, j, n, field=QQ):
    return Matrix.unit(field, n, i - 1, j - 1)


def upper_triangular_algebra(n, field=QQ):
    units = [e(i, j, n, field) for i in range(1, n + 1) for j in range(i, n + 1)]
    return MatSubalgebra.from_matrices(field, n, units)


def diagonal_algebra(n, field=QQ):
    return MatSubalgebra.from_matrices(field, n, [e(i, i, n, field) for i in range(1, n + 1)])


def scalar_algebra(n, field=QQ):
    return MatSubalgebra.from_matrices(field, n, [Matrix.identity(field, n)])


def test_unital_closure_empty():
    a = unital_closure(QQ, 3, [])
    assert a.dim == 1
    assert a.contains(Matrix.identity(QQ, 3))


def test_unital_closure_nilpotent_generator():
    a = unital_closure(QQ, 2, [e(1, 2, 2)])
    assert a.dim == 2


def test_unital_closure_two_units():
    # saturate by hand: e12*e23 = e13, every other unit product vanishes
    a = unital_closure(QQ, 3, [e(1, 2, 3), e(2, 3, 3)])
    assert a.dim == 4
    for m in (Matrix.identity(QQ, 3), e(1, 2, 3), e(2, 3, 3), e(1, 3, 3)):
        assert a.contains(m)


def test_closure_check_rejects_open_span():
    with pytest.raises(ClosureViolation):
        MatSubalgebra.from_matrices(QQ, 3, [Matrix.identity(QQ, 3), e(1, 2, 3), e(2, 3, 3)])


def test_wrong_shape_space_is_rejected():
    # K^4 holds M_2, not M_3; the check must survive python -O
    with pytest.raises(DimensionMismatch):
        MatSubalgebra(QQ, 3, Subspace.full(QQ, 4))


def test_product_space_square_zero():
    a = MatSubalgebra.from_matrices(QQ, 2, [Matrix.identity(QQ, 2), e(1, 2, 2)])
    i = two_sided_ideal(a, [e(1, 2, 2)])
    assert product_space(i, i).is_zero()


def test_product_space_unit_product():
    u3 = upper_triangular_algebra(3)
    i = two_sided_ideal(u3, [e(1, 2, 3)])
    j = two_sided_ideal(u3, [e(2, 3, 3)])
    assert product_space(i, j) == Subspace.span(QQ, 9, [e(1, 3, 3).entries])


def test_product_space_strict_upper_squared():
    u3 = upper_triangular_algebra(3)
    strict = two_sided_ideal(u3, [e(1, 2, 3), e(1, 3, 3), e(2, 3, 3)])
    sq = product_space(strict, strict)
    assert sq == Subspace.span(QQ, 9, [e(1, 3, 3).entries])
    assert sq.dim == 1


def test_two_sided_ideal_zero_seed():
    u2 = upper_triangular_algebra(2)
    i = two_sided_ideal(u2, [Matrix.zero(QQ, 2)])
    assert i.is_zero()


def test_two_sided_ideal_u2():
    # e11*e12 = e12 and e12*e22 = e12: saturation adds nothing beyond e12
    u2 = upper_triangular_algebra(2)
    i = two_sided_ideal(u2, [e(1, 2, 2)])
    assert i.space == Subspace.span(QQ, 4, [e(1, 2, 2).entries])


def test_two_sided_ideal_full_matrix_algebra():
    # e21*e12 = e22, e12*e21 = e11, then e21*e11 = e21: the whole of M_2
    m2 = MatSubalgebra.from_matrices(QQ, 2, [e(i, j, 2) for i in (1, 2) for j in (1, 2)])
    i = two_sided_ideal(m2, [e(1, 2, 2)])
    assert i.dim == 4


def test_two_sided_ideal_rejects_outside_seed():
    u2 = upper_triangular_algebra(2)
    with pytest.raises(NotInAlgebra):
        two_sided_ideal(u2, [e(2, 1, 2)])


def test_commutator_ideal_commutative():
    assert commutator_ideal(diagonal_algebra(3)).is_zero()


def test_commutator_ideal_u2():
    # [e11, e12] = e12
    i = commutator_ideal(upper_triangular_algebra(2))
    assert i.space == Subspace.span(QQ, 4, [e(1, 2, 2).entries])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_ideal_un_is_strictly_upper(n):
    i = commutator_ideal(upper_triangular_algebra(n))
    expected = Subspace.span(QQ, n * n,
                             [e(r, c, n).entries for r in range(1, n + 1)
                              for c in range(r + 1, n + 1)])
    assert i.space == expected
    assert i.dim == n * (n - 1) // 2


def test_nilpotency_zero_ideal():
    u2 = upper_triangular_algebra(2)
    assert nilpotency_index(two_sided_ideal(u2, [])) == 1


def test_nilpotency_strict_upper_u3():
    u3 = upper_triangular_algebra(3)
    strict = two_sided_ideal(u3, [e(1, 2, 3), e(1, 3, 3), e(2, 3, 3)])
    assert nilpotency_index(strict) == 3


def test_nilpotency_idempotent_seed():
    d2 = diagonal_algebra(2)
    i = two_sided_ideal(d2, [e(1, 1, 2)])
    assert nilpotency_index(i) is None


def test_ideal_power_order_irrelevant():
    # left-to-right vs right-to-left powers agree (associativity)
    u4 = upper_triangular_algebra(4)
    i = commutator_ideal(u4)
    left = ideal_power(i, 3)
    space = i.space
    for _ in range(2):
        mats = [Matrix.from_vector(QQ, 4, 4, row) for row in space.rows]
        space = Subspace.span(QQ, 16, [(y * x).entries for x in mats for y in i.matrices()])
    assert left == space


def test_radical_semisimple():
    assert radical(diagonal_algebra(3)).is_zero()


def test_radical_u2():
    # trace form by hand: tr(e12*e11) = tr(e12*e12) = tr(e12*e22) = 0
    r = radical(upper_triangular_algebra(2))
    assert r.space == Subspace.span(QQ, 4, [e(1, 2, 2).entries])


def test_radical_characteristic_guard():
    a = scalar_algebra(2, GF(2))
    with pytest.raises(UnsupportedCharacteristic):
        radical(a)


def test_radical_prime_field_ok():
    r = radical(upper_triangular_algebra(3, GF(101)))
    assert r.dim == 3


def test_centralizer_of_scalars():
    c = centralizer(scalar_algebra(3))
    assert c.dim == 9


def test_centralizer_c12_self():
    # solve the 2x2 commutation equations: X commutes with e12 iff X = aI + b e12
    a = MatSubalgebra.from_matrices(QQ, 2, [Matrix.identity(QQ, 2), e(1, 2, 2)])
    assert centralizer(a) == a


def test_centralizer_corner_self():
    # KI_4 + upper-right 2x2 corner: self-centralizing of dimension floor(16/4)+1 = 5
    corner = [e(1, 3, 4), e(1, 4, 4), e(2, 3, 4), e(2, 4, 4)]
    a = MatSubalgebra.from_matrices(QQ, 4, [Matrix.identity(QQ, 4)] + corner)
    assert a.dim == 5
    assert centralizer(a) == a


def test_centralizer_double():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randint(2, 3)
        gens = [Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)])]
        a = unital_closure(QQ, n, gens)
        assert centralizer(centralizer(a)).space.contains(a.space)


def test_conjugate_identity():
    u2 = upper_triangular_algebra(2)
    assert conjugate_algebra(u2, Matrix.identity(QQ, 2)) == u2


def test_conjugate_diagonal_counterexample():
    # X = [[1,1],[0,1]] sends diag(a,b) to [[a, a-b],[0, b]]
    d2 = diagonal_algebra(2)
    x = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    conj = conjugate_algebra(d2, x)
    expected = MatSubalgebra.from_matrices(
        QQ, 2, [Matrix.from_rows(QQ, [[1, 1], [0, 0]]),
                Matrix.from_rows(QQ, [[0, -1], [0, 1]])])
    assert conj == expected
    assert conj != d2


def test_conjugation_preserves_invariants():
    rng = random.Random(13)
    u3 = upper_triangular_algebra(3)
    for _ in range(5):
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            if rank_oracle(rows) == 3:
                break
        x = Matrix.from_rows(QQ, rows)
        conj = conjugate_algebra(u3, x)
        assert conj.dim == u3.dim
        assert is_commutative(conj) == is_commutative(u3)
        assert radical(conj).dim == radical(u3).dim
        assert commutator_ideal(conj).dim == commutator_ideal(u3).dim


def test_is_commutative():
    assert is_commutative(scalar_algebra(4))
    assert not is_commutative(upper_triangular_algebra(2))
    # three basis pairs of span{I, e12+e23, e13} all commute
    n3 = MatSubalgebra.from_matrices(
        QQ, 3, [Matrix.identity(QQ, 3), e(1, 2, 3) + e(2, 3, 3), e(1, 3, 3)])
    assert is_commutative(n3)


def test_commutator_ideal_zero_iff_commutative():
    for a in (diagonal_algebra(2), scalar_algebra(3), upper_triangular_algebra(2),
              upper_triangular_algebra(3, GF(7))):
        assert commutator_ideal(a).is_zero() == is_commutative(a)


def test_closure_fixed_point_and_rounds():
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randint(2, 4)
        gens = [Matrix.from_rows(GF(5), [[rng.randrange(5) for _ in range(n)]
                                         for _ in range(n)])
                for _ in range(rng.randint(1, 2))]
        a = unital_closure(GF(5), n, gens)
        assert a.closure_defect() is None
        i = two_sided_ideal(a, [gens[0]])
        assert i.saturation_rounds <= n * n
