"""Minimal q, brute-force identity checks, triangulation, type detection,
and the maximality decision."""

import random

import pytest

from dqmat.algebra import (
    MatSubalgebra,
    commutator_ideal,
    conjugate_algebra,
    radical,
    two_sided_ideal,
    unital_closure,
)
from dqmat.blocks import BlockType, diagonal_blocks_vanish, is_block_upper
from dqmat.constructions import (
    block_type_algebra,
    canonical_commutative,
    full_matrix_algebra,
    named_example,
)
from dqmat.errors import BudgetExceeded, NotNilpotent, ZeroIdeal
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix
from dqmat.structure import (
    block_triangulate,
    check_dq_bruteforce,
    detect_type,
    is_maximal_dq,
    min_dq,
)

from helpers import (
    commutator_ideal_oracle,
    nilpotency_index_oracle,
    random_invertible_rows,
)


def e(i, j, n, field=QQ):
    return Matrix.unit(field, n, i - 1, j - 1)


def upper_triangular_algebra(n, field=QQ):
    units = [e(i, j, n, field) for i in range(1, n + 1) for j in range(i, n + 1)]
    return MatSubalgebra.from_matrices(field, n, units)


def test_min_dq_scalars():
    a = unital_closure(QQ, 3, [])
    assert min_dq(a) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_dq_un(n):
    assert min_dq(upper_triangular_algebra(n)) == n


def test_min_dq_full_matrix_algebra():
    assert min_dq(full_matrix_algebra(QQ, 2)) is None


def test_bruteforce_commutative():
    a = unital_closure(QQ, 2, [])
    assert check_dq_bruteforce(a, 1)


def test_bruteforce_u2():
    u2 = upper_triangular_algebra(2)
    assert check_dq_bruteforce(u2, 2)
    assert not check_dq_bruteforce(u2, 1)


def test_bruteforce_budget():
    u3 = upper_triangular_algebra(3)
    with pytest.raises(BudgetExceeded):
        check_dq_bruteforce(u3, 3, budget=100)


def test_bruteforce_u3_brackets_minimal_q():
    u3 = upper_triangular_algebra(3)
    assert check_dq_bruteforce(u3, 3)
    assert not check_dq_bruteforce(u3, 2)


def test_bruteforce_agrees_with_min_dq():
    rng = random.Random(41)
    for _ in range(6):
        n = rng.randint(2, 4)
        gens = [Matrix.from_rows(GF(101), [[rng.randrange(4) for _ in range(n)]
                                           for _ in range(n)])]
        a = unital_closure(GF(101), n, gens)
        q = min_dq(a)
        if q is None or a.dim ** (2 * q) > 10 ** 6:
            continue
        assert check_dq_bruteforce(a, q)
        if q > 1:
            assert not check_dq_bruteforce(a, q - 1)


def test_triangulate_u3_strict_upper():
    u3 = upper_triangular_algebra(3)
    strict = two_sided_ideal(u3, [e(1, 2, 3), e(1, 3, 3), e(2, 3, 3)])
    tri = block_triangulate(u3, strict)
    assert tri.block_type == BlockType((1, 1, 1))
    assert tri.conjugator == Matrix.identity(QQ, 3)
    assert tri.filtration_dims == (1, 2, 3)


def test_triangulate_rejects_zero_ideal():
    a = unital_closure(QQ, 2, [])
    ideal = two_sided_ideal(a, [])
    with pytest.raises(ZeroIdeal):
        block_triangulate(a, ideal)


def test_triangulate_rejects_non_nilpotent():
    d2 = MatSubalgebra.from_matrices(QQ, 2, [e(1, 1, 2), e(2, 2, 2)])
    ideal = two_sided_ideal(d2, [e(1, 1, 2)])
    with pytest.raises(NotNilpotent):
        block_triangulate(d2, ideal)


def test_triangulate_scrambled_d2_gf101():
    # build a block-type D_2 algebra inside U_5, scramble by a random conjugation,
    # then verify all three triangulation invariants on the output
    rng = random.Random(77)
    field = GF(101)
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(field, (2, 1)),
                            canonical_commutative(field, (3, 1))])
    x = Matrix.from_rows(field, random_invertible_rows(rng, 5, 101))
    scrambled = conjugate_algebra(a, x)
    ideal = commutator_ideal(scrambled)
    tri = block_triangulate(scrambled, ideal)
    assert tri.filtration_dims[-1] == 5
    assert all(d1 < d2 for d1, d2 in zip(tri.filtration_dims, tri.filtration_dims[1:]))
    for m in tri.conjugated.echelon_basis():
        assert is_block_upper(m, tri.block_type)
    for m in tri.conjugated_ideal.matrices():
        assert is_block_upper(m, tri.block_type)
        assert diagonal_blocks_vanish(m, tri.block_type)


def test_detect_type_commutative():
    a = unital_closure(QQ, 4, [])
    assert detect_type(a) == BlockType((4,))


def test_detect_type_block_23():
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(QQ, (2, 1)),
                            canonical_commutative(QQ, (3, 1))])
    assert detect_type(a) == BlockType((2, 3))


def test_detect_type_conjugation_invariant():
    rng = random.Random(99)
    field = GF(101)
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(field, (2, 1)),
                            canonical_commutative(field, (3, 2))])
    x = Matrix.from_rows(field, random_invertible_rows(rng, 5, 101))
    assert detect_type(conjugate_algebra(a, x)) == BlockType((2, 3))


def test_is_maximal_block_type_true():
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(QQ, (2, 1)),
                            canonical_commutative(QQ, (3, 1))])
    verdict, witness, blocks_checked = is_maximal_dq(a)
    assert verdict
    assert blocks_checked
    assert witness.block_type == BlockType((2, 3))


def test_is_maximal_scalar_block_false():
    # shrink the second block to K*I_3: centralizer(K*I_3) = M_3, so not maximal
    scalars3 = MatSubalgebra.from_matrices(QQ, 3, [Matrix.identity(QQ, 3)])
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(QQ, (2, 1)), scalars3])
    verdict, witness, blocks_checked = is_maximal_dq(a)
    assert not verdict
    assert blocks_checked


def test_is_maximal_dependent_blocks_false():
    # the M_4 embedding of 2x2 dual-number matrices is not even D_q (its
    # quotient by the radical is M_2); dependent diagonal blocks give dim 8 < 12
    a = named_example(QQ, "m2-dual-numbers")
    verdict, witness, blocks_checked = is_maximal_dq(a)
    assert not verdict
    assert witness is None
    assert not blocks_checked
    tri = block_triangulate(a, radical(a))
    blocks_total = 4 + 4 + 2 * 2  # independent blocks would need dim 12
    assert a.dim == 8 < blocks_total


def test_is_maximal_invariant_under_conjugation():
    rng = random.Random(31)
    field = GF(101)
    maximal = block_type_algebra(BlockType((2, 3)),
                                 [canonical_commutative(field, (2, 1)),
                                  canonical_commutative(field, (3, 2))])
    scalars3 = MatSubalgebra.from_matrices(field, 3, [Matrix.identity(field, 3)])
    not_maximal = block_type_algebra(BlockType((2, 3)),
                                     [canonical_commutative(field, (2, 1)), scalars3])
    # diagonal + K*E_13: type (1, 4) with maximal commutative blocks K and the
    # diagonal of M_4, but dim 6 < 1 + 4 + 1*4, so only the dimension count fails
    thin = MatSubalgebra.from_matrices(
        field, 5, [Matrix.unit(field, 5, i, i) for i in range(5)] + [Matrix.unit(field, 5, 0, 2)])
    for _ in range(3):
        x = Matrix.from_rows(field, random_invertible_rows(rng, 5, 101))
        assert is_maximal_dq(conjugate_algebra(maximal, x))[0] is True
        assert is_maximal_dq(conjugate_algebra(not_maximal, x))[0] is False
        verdict, witness, blocks_checked = is_maximal_dq(conjugate_algebra(thin, x))
        assert (verdict, blocks_checked) == (False, False)
        assert witness.block_type == BlockType((1, 4))


def test_min_dq_at_most_n():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        gens = [Matrix.from_rows(GF(101), [[rng.randrange(101) for _ in range(n)]
                                           for _ in range(n)])
                for _ in range(rng.randint(1, 2))]
        a = unital_closure(GF(101), n, gens)
        q = min_dq(a)
        assert q is None or q <= n


def test_min_dq_against_independent_oracle():
    # the commutator-ideal route cross-checked against raw-list saturation
    for algebra, n, p in (
        (upper_triangular_algebra(3), 3, None),
        (block_type_algebra(BlockType((1, 2)),
                            [canonical_commutative(QQ, (1, 1)),
                             canonical_commutative(QQ, (2, 2))]), 3, None),
    ):
        basis = [[list(m.row(i)) for i in range(n)] for m in algebra.echelon_basis()]
        ideal_mats = commutator_ideal_oracle(basis, p=p)
        expected = nilpotency_index_oracle(ideal_mats, n, p=p)
        assert min_dq(algebra) == expected
