"""Bounds, type enumeration, block recognition, invariants, isomorphism decision."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from dqmat.algebra import conjugate_algebra
from dqmat.blocks import BlockType
from dqmat.classify import (
    blocktype_structure,
    build_block_conjugator,
    canonical_block_conjugator,
    count_iso_classes,
    domokos_module_bound,
    enumerate_max_types,
    is_isomorphic_maxdim,
    iso_invariants,
    max_dim_formula,
    recognize_block,
    schur_bound,
    type_dimension,
)
from dqmat.constructions import (
    admissible_k,
    block_type_algebra,
    canonical_commutative,
    full_matrix_algebra,
)
from dqmat.errors import InvalidQ, NotBlockTypeMaxDim, NotCanonical, ShapeMismatch
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix

from helpers import (
    compositions,
    multiset_permutation_count,
    pair_condition_holds,
    partitions_into,
    random_invertible_rows,
    random_upper_invertible_rows,
)


def test_schur_bound():
    assert schur_bound(1) == 1
    assert schur_bound(4) == 5
    assert schur_bound(7) == 13


def test_type_dimension():
    assert type_dimension((2, 3)) == 11
    for n in (2, 3, 5):
        assert type_dimension((1,) * n) == n + n * (n - 1) // 2
    assert type_dimension((2, 3, 3, 3, 3)) == 92


def test_max_dim_formula():
    assert max_dim_formula(5, 2) == 11
    assert max_dim_formula(6, 2) == 15
    assert type_dimension((3, 3)) == type_dimension((2, 4)) == 15
    for n in (2, 5, 9):
        assert max_dim_formula(n, 1) == schur_bound(n)
    with pytest.raises(InvalidQ):
        max_dim_formula(4, 5)


def test_max_dim_formula_vs_composition_bruteforce():
    # small slice of the exhaustive acceptance check
    for n in range(2, 9):
        for q in range(2, n + 1):
            best = max(type_dimension(c) for c in compositions(n, q))
            assert max_dim_formula(n, q) == best


def test_domokos_module_bound():
    radicand, bound = domokos_module_bound(2, 2)
    assert radicand == 0 and bound == 0
    radicand, bound = domokos_module_bound(11, 2)
    assert radicand == 24 and bound == 5
    radicand, bound = domokos_module_bound(3, 2)
    assert radicand == Fraction(8, 3) and bound == 2


def test_enumerate_5_2():
    enum = enumerate_max_types(5, 2)
    assert enum.sorted_tuples == ((2, 3),)
    assert enum.ordered_counts == (2,)
    assert enum.ordered_tuples() == [(2, 3), (3, 2)]


def test_enumerate_6_2():
    enum = enumerate_max_types(6, 2)
    assert enum.sorted_tuples == ((3, 3), (2, 4))
    assert enum.ordered_tuples() == [(3, 3), (2, 4), (4, 2)]


def test_enumerate_14_5():
    enum = enumerate_max_types(14, 5)
    assert enum.sorted_tuples == ((2, 3, 3, 3, 3), (2, 2, 3, 3, 4), (2, 2, 2, 4, 4))
    assert enum.ordered_counts == (5, 30, 10)
    assert [p for (_, p) in enum.parameters] == [0, 1, 2]


def test_enumerate_22_7():
    enum = enumerate_max_types(22, 7)
    assert len(enum.sorted_tuples) == 4
    assert enum.ordered_counts == (7, 105, 210, 35)


def test_enumerate_ordered_counts_match_oracle():
    for n, q in ((8, 3), (10, 4), (9, 2)):
        enum = enumerate_max_types(n, q)
        for tup, count in zip(enum.sorted_tuples, enum.ordered_counts):
            assert count == multiset_permutation_count(tup)
            assert type_dimension(tup) == max_dim_formula(n, q)


def test_count_iso_classes():
    assert count_iso_classes(5, 2) == 20
    assert count_iso_classes(6, 2) == 29
    assert count_iso_classes(2, 2) == 1


def test_enumerate_dual_generation_agrees_up_to_16():
    # the closed-form family is exactly the argmax of type_dimension over all
    # partitions of n into q parts, and each argmax type meets the pairwise
    # difference condition
    for n in range(2, 17):
        for q in range(2, n + 1):
            enum = enumerate_max_types(n, q)
            dims = {p: type_dimension(p) for p in partitions_into(n, q)}
            best = max(dims.values())
            argmax = {p for p, d in dims.items() if d == best}
            assert set(enum.sorted_tuples) == argmax, (n, q)
            assert len(enum.sorted_tuples) == len(argmax)
            assert all(pair_condition_holds(p) for p in argmax), (n, q)
            assert enum.max_dimension == best == max_dim_formula(n, q)


def test_enumerate_scales_to_large_n():
    start = time.perf_counter()
    enum = enumerate_max_types(1000, 40)
    classes = count_iso_classes(120, 10)
    assert time.perf_counter() - start < 0.5
    assert enum.max_dimension == max_dim_formula(1000, 40)
    assert all(sum(t) == 1000 and type_dimension(t) == enum.max_dimension
               for t in enum.sorted_tuples)
    assert classes == len(admissible_k(12)) ** 10


def test_ordered_tuples_are_the_distinct_permutations():
    for n in range(2, 13):
        for q in range(2, min(n, 7) + 1):
            enum = enumerate_max_types(n, q)
            want = []
            for t in enum.sorted_tuples:
                want.extend(sorted(set(itertools.permutations(t))))
            assert enum.ordered_tuples() == want, (n, q)
            assert len(want) == sum(enum.ordered_counts)


def test_recognize_c23():
    # t = 1, J^2 = 0, J*V = span(e1, e2) of dimension 2
    assert recognize_block(canonical_commutative(QQ, (3, 2))).as_tuple() == (3, 2)


def test_recognize_c15():
    # radical occupies rows 1..2, so J*V has dimension 2 = floor(5/2)
    assert recognize_block(canonical_commutative(QQ, (5, 1))).as_tuple() == (5, 1)


def test_recognize_conjugated_c43():
    rng = random.Random(3)
    a = canonical_commutative(QQ, (3, 4))
    x = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    assert recognize_block(conjugate_algebra(a, x)).as_tuple() == (3, 4)
    y = Matrix.from_rows(GF(101), random_invertible_rows(rng, 3, 101))
    b = conjugate_algebra(canonical_commutative(GF(101), (3, 4)), y)
    assert recognize_block(b).as_tuple() == (3, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_recognize_roundtrip(n):
    for k in admissible_k(n):
        assert recognize_block(canonical_commutative(QQ, (n, k))).as_tuple() == (n, k)


def test_recognize_rejects_non_maximal():
    with pytest.raises(NotCanonical):
        recognize_block(full_matrix_algebra(QQ, 2))


@pytest.mark.parametrize("nk", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                (4, 1), (5, 1), (5, 2)])
def test_canonical_conjugator_roundtrip(nk):
    rng = random.Random(nk[0] * 10 + nk[1])
    for field, invertible in ((QQ, None), (GF(101), random_invertible_rows)):
        a = canonical_commutative(field, nk)
        if invertible is None:
            rows = random_upper_invertible_rows(rng, nk[0], 5)
            x = Matrix.from_rows(field, rows)
        else:
            x = Matrix.from_rows(field, invertible(rng, nk[0], 101))
        scrambled = conjugate_algebra(a, x)
        bid, z = canonical_block_conjugator(scrambled)
        assert bid.as_tuple() == nk
        assert conjugate_algebra(scrambled, z) == canonical_commutative(field, nk)


def test_canonical_conjugator_rejects_irrational_split():
    # {[[a, 2b], [b, a]]} is commutative of maximum dimension in M_2(Q) but has
    # no rational eigenvalue split (it is the field Q(sqrt 2))
    from dqmat.algebra import MatSubalgebra

    a = MatSubalgebra.from_matrices(
        QQ, 2, [Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [[0, 2], [1, 0]])])
    assert recognize_block(a).as_tuple() == (2, 2)  # invariant table cannot see this
    with pytest.raises(NotCanonical):
        canonical_block_conjugator(a)


def _pair(second_k, field=QQ):
    return block_type_algebra(
        BlockType((2, 3)),
        [canonical_commutative(field, (2, 1)), canonical_commutative(field, (3, second_k))])


def test_iso_invariants_radical_commutator_products():
    # products of the off-diagonal strip with the block radicals: columns 2-3 of
    # the (1,2) block for C^1_3 (dimension 4) vs column 3 only for C^2_3 (dimension 2)
    a = _pair(1)
    b = _pair(2)
    va, vb = iso_invariants(a), iso_invariants(b)
    assert va.dim_commutator_radical == 4
    assert vb.dim_commutator_radical == 2
    assert va.block_type == vb.block_type == (2, 3)
    assert va.block_ids == ((2, 1), (3, 1))
    assert vb.block_ids == ((2, 1), (3, 2))


def test_iso_invariants_conjugation_invariant():
    rng = random.Random(8)
    field = GF(101)
    for a in (_pair(2, field),
              block_type_algebra(BlockType((3, 3)),
                                 [canonical_commutative(field, (3, 3)),
                                  canonical_commutative(field, (3, 1))])):
        base = iso_invariants(a)
        for _ in range(3):
            x = Matrix.from_rows(field, random_invertible_rows(rng, a.n, 101))
            assert iso_invariants(conjugate_algebra(a, x)) == base


def test_is_isomorphic_reflexive_with_identity_certificate():
    a = _pair(1)
    verdict, cert = is_isomorphic_maxdim(a, a)
    assert verdict
    assert cert.conjugator is not None
    assert conjugate_algebra(a, cert.conjugator) == a
    assert cert.block_ids == ((2, 1), (3, 1))
    assert cert.field_caveat


def test_is_isomorphic_distinguishes_block_k():
    verdict, cert = is_isomorphic_maxdim(_pair(1), _pair(2))
    assert not verdict and cert is None


def test_is_isomorphic_distinguishes_type_order():
    a = _pair(1)
    b = block_type_algebra(
        BlockType((3, 2)),
        [canonical_commutative(QQ, (3, 1)), canonical_commutative(QQ, (2, 1))])
    verdict, cert = is_isomorphic_maxdim(a, b)
    assert not verdict and cert is None


def test_is_isomorphic_certificate_maps_a_to_b():
    # same canonical data, blocks scrambled inside their own M_{n_i}
    x2 = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    x3 = Matrix.from_rows(QQ, [[1, 0, 2], [0, 1, 1], [0, 0, 1]])
    blocks_b = [conjugate_algebra(canonical_commutative(QQ, (2, 1)), x2),
                conjugate_algebra(canonical_commutative(QQ, (3, 1)), x3)]
    a = _pair(1)
    b = block_type_algebra(BlockType((2, 3)), blocks_b)
    verdict, cert = is_isomorphic_maxdim(a, b)
    assert verdict
    assert cert.conjugator is not None
    assert conjugate_algebra(a, cert.conjugator) == b
    verdict_back, cert_back = is_isomorphic_maxdim(b, a)
    assert verdict_back
    assert conjugate_algebra(b, cert_back.conjugator) == a


def test_is_isomorphic_rejects_non_blocktype():
    from dqmat.constructions import named_example

    with pytest.raises(NotBlockTypeMaxDim):
        blocktype_structure(named_example(QQ, "m2-dual-numbers"))
    with pytest.raises(NotBlockTypeMaxDim):
        is_isomorphic_maxdim(full_matrix_algebra(QQ, 2), full_matrix_algebra(QQ, 2))


def test_build_block_conjugator():
    bt = BlockType((2, 2))
    ident = build_block_conjugator(bt, [Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)])
    assert ident == Matrix.identity(QQ, 4)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    perm = build_block_conjugator(bt, [Matrix.identity(QQ, 2), swap])
    expected = Matrix.from_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 0, 1], [0, 0, 1, 0]])
    assert perm == expected
    with pytest.raises(ShapeMismatch):
        build_block_conjugator(bt, [Matrix.identity(QQ, 3), Matrix.identity(QQ, 2)])


def test_build_block_conjugator_fixes_scrambled_block():
    # conjugating by diag(I_2, Z) where Z canonicalizes the scrambled second block
    x3 = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    scrambled = conjugate_algebra(canonical_commutative(QQ, (3, 1)), x3)
    a = block_type_algebra(BlockType((2, 3)),
                           [canonical_commutative(QQ, (2, 1)), scrambled])
    _, z = canonical_block_conjugator(scrambled)
    big = build_block_conjugator(BlockType((2, 3)), [Matrix.identity(QQ, 2), z])
    fixed = conjugate_algebra(a, big)
    assert fixed == _pair(1)
