"""Class oracle: one representative per isomorphism class of maximum dimension.

For every ordered maximum-dimension type (n_1, ..., n_q) of M_n and every
choice of admissible canonical blocks C^k_(n_i), the block-type algebra is a
representative.  The representatives must reach the maximum dimension, be
maximal, carry their own type, be pairwise non-isomorphic and number exactly
`count_iso_classes`.  Each must stay isomorphic to its conjugates in any
basis, with a certificate checked by the raw-list oracles of tests/helpers.py.
"""

import itertools
import random

import pytest

from dqmat.algebra import conjugate_algebra
from dqmat.blocks import BlockType
from dqmat.classify import (
    blocktype_structure,
    count_iso_classes,
    enumerate_max_types,
    is_isomorphic_maxdim,
    max_dim_formula,
)
from dqmat.constructions import admissible_k, block_type_algebra, canonical_commutative
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix
from dqmat.structure import detect_type, is_maximal_dq

from helpers import conjugates_onto, random_invertible_rows, random_upper_invertible_rows

CASES = [(GF(101), n, q) for n in range(2, 6) for q in range(2, n + 1)] + \
        [(QQ, n, q) for n in range(2, 5) for q in range(2, n + 1)]


def _case_id(case):
    field, n, q = case
    return f"{'Q' if field.p is None else f'GF{field.p}'}-{n}-{q}"


def representatives(field, n, q):
    for parts in enumerate_max_types(n, q).ordered_tuples():
        for ks in itertools.product(*(admissible_k(s) for s in parts)):
            blocks = [canonical_commutative(field, (s, k)) for s, k in zip(parts, ks)]
            yield parts, ks, block_type_algebra(BlockType(parts), blocks)


def grid(m):
    return [list(m.row(i)) for i in range(m.nrows)]


def certificate_holds(a, b, z):
    return conjugates_onto([grid(m) for m in a.basis], [grid(m) for m in b.basis], grid(z),
                           a.field.p)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_representatives_are_the_classes(case):
    field, n, q = case
    # small entries keep the rational eigenvalue search of the blocks cheap
    modulus = 101 if field.p else 5
    rng = random.Random(n * 10 + q)
    reps = list(representatives(field, n, q))
    assert len(reps) == count_iso_classes(n, q)
    for parts, ks, a in reps:
        assert a.dim == max_dim_formula(n, q)
        assert is_maximal_dq(a)[0]
        assert detect_type(a).parts == parts
        x = Matrix.from_rows(field, random_invertible_rows(rng, n, modulus))
        dense = conjugate_algebra(a, x)
        for first, second in ((a, dense), (dense, a)):
            verdict, cert = is_isomorphic_maxdim(first, second)
            assert verdict and cert.block_ids == tuple(zip(parts, ks))
            assert certificate_holds(first, second, cert.conjugator)
    for (_, _, a), (_, _, b) in itertools.combinations(reps, 2):
        assert is_isomorphic_maxdim(a, b) == (False, None)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF101", "Q"])
def test_upper_triangular_conjugates_need_no_triangulation(field):
    # the U_n(K) theorem: an upper triangular conjugate of a block-type algebra
    # is still in block upper form, so its stored triangulation is the identity
    rng = random.Random(7)
    modulus = 101 if field.p else 5
    for _, _, a in representatives(field, 5, 3):
        x = Matrix.from_rows(field, random_upper_invertible_rows(rng, 5, modulus))
        moved = conjugate_algebra(a, x)
        assert blocktype_structure(moved)[0].conjugator == Matrix.identity(field, 5)
        verdict, cert = is_isomorphic_maxdim(moved, a)
        assert verdict and certificate_holds(moved, a, cert.conjugator)
