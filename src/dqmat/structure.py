"""D_q structure theory: minimal q, identity checking, block triangulation,
type detection, and the maximality decision.

An algebra is D_q when every product of q commutators vanishes.  The minimal
such q for a subalgebra of M_n(K) equals the nilpotency index of its
commutator ideal, which caps it at n.  The triangulation below follows the
filtration 0 < I^(q-1)V < ... < IV < V of column spaces of a nilpotent ideal:
an adapted basis makes the algebra block upper triangular and pushes the
ideal strictly above the block diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    IdealSpace,
    MatSubalgebra,
    commutator_ideal,
    commutators,
    conjugate_algebra,
    conjugate_ideal,
    centralizer,
    ideal_defect,
    ideal_power,
    is_commutative,
    nilpotency_index,
    square_matrices,
    stored,
)
from .blocks import BlockType, diagonal_blocks_vanish, embed_block, is_block_upper, submatrix
from .errors import (
    BudgetExceeded,
    InvalidInput,
    NotAnIdeal,
    NotNilpotent,
    ResultCheckFailed,
    ZeroIdeal,
)
from .linalg import Matrix, Subspace, column_space

DEFAULT_BRUTE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class TriangulationResult:
    """Outcome of a block triangulation along a nilpotent ideal.

    `conjugated` = conjugator^-1 * a * conjugator is block upper triangular
    with respect to `block_type`, and the conjugated ideal is strictly block
    upper; `filtration_dims` are the dimensions of I^(q-1)V < ... < IV < V.
    """

    conjugator: Matrix
    block_type: BlockType
    conjugated: MatSubalgebra
    conjugated_ideal: IdealSpace
    filtration_dims: tuple


@stored
def min_dq(a: MatSubalgebra):
    """Minimal q for which a satisfies the q-fold commutator-product identity.

    Commutative algebras give 1; otherwise this is the nilpotency index of the
    commutator ideal, and None means the algebra satisfies no such identity.
    """
    if is_commutative(a):
        return 1
    return nilpotency_index(commutator_ideal(a))


def check_dq_bruteforce(a: MatSubalgebra, q: int, budget: int = DEFAULT_BRUTE_BUDGET) -> bool:
    """Evaluate the product of q commutators over all 2q-tuples of basis elements.

    Multilinearity in each slot makes basis tuples sufficient.  Internally the
    distinct nonzero commutator values are multiplied level by level, which
    covers exactly the same set of products.
    """
    if q < 1:
        raise InvalidInput("q must be >= 1")
    d = a.dim
    if d ** (2 * q) > budget:
        raise BudgetExceeded(f"{d}^{2 * q} tuple evaluations exceed the budget {budget}")
    # pairs x before y suffice: [y, x] = -[x, y] vanishes in a product whenever [x, y] does
    comms = set(commutators(a))
    level = list(comms)
    if q == 1 or not level:
        return not level
    for _ in range(q - 1):
        nxt = set()
        for prod in level:
            for c in comms:
                pc = prod * c
                if not pc.is_zero():
                    nxt.add(pc)
        level = list(nxt)
        if not level:
            return True
    return not level


def block_triangulate(a: MatSubalgebra, ideal: IdealSpace) -> TriangulationResult:
    """Conjugate a into block upper triangular form along a nilpotent ideal.

    The block sizes are the dimension jumps of the filtration I^(q-i)V; the
    adapted basis is extended deterministically, drawing candidates first from
    the echelon basis of each filtration space and then from the standard
    basis vectors in index order.  The result is a fact of the ideal when a is
    its parent; an ideal of another parent is first checked in full against a.
    """
    if ideal.space.ambient_dim != a.n ** 2 or ideal.parent.field != a.field:
        raise NotAnIdeal("ideal lives in a different matrix algebra")
    if ideal.parent is not a:
        ideal = IdealSpace(a, ideal.space)
    return _triangulation(ideal)


@stored
def _triangulation(ideal: IdealSpace) -> TriangulationResult:
    a = ideal.parent
    field, n = a.field, a.n
    if ideal.is_zero():
        raise ZeroIdeal("triangulation needs a nonzero nilpotent ideal")
    defect = ideal_defect(ideal)
    if defect is not None:
        raise NotAnIdeal(f"subspace {defect}")
    q = nilpotency_index(ideal)
    if q is None:
        raise NotNilpotent("ideal powers stabilize at a nonzero subspace")
    # I^(q-1)V < ... < IV < V, where I^k V is the column space of I^k
    filtration = [column_space(field, n, square_matrices(field, n, ideal_power(ideal, k)))
                  for k in range(q - 1, 0, -1)] + [Subspace.full(field, n)]
    dims = tuple(s.dim for s in filtration)
    parts = tuple(d - prev for d, prev in zip(dims, (0,) + dims[:-1]))
    bt = BlockType(parts)

    chosen = []
    chosen_space = Subspace.zero_space(field, n)
    std = [tuple(field.one if k == i else field.zero for k in range(n)) for i in range(n)]
    for space in filtration:
        for candidate in list(space.rows) + std:
            if chosen_space.dim == space.dim:
                break
            if space.contains_vector(candidate) and not chosen_space.contains_vector(candidate):
                chosen.append(candidate)
                chosen_space = Subspace.span(field, n, chosen)
        if chosen_space.dim != space.dim:
            raise ResultCheckFailed("adapted basis does not fill the filtration")

    # adapted basis vectors become the columns of the conjugator
    x = Matrix(field, n, n, tuple(chosen[j][i] for i in range(n) for j in range(n)))
    conj = conjugate_algebra(a, x)
    conj_ideal = conjugate_ideal(ideal, x, conj)
    if not all(is_block_upper(m, bt) for m in conj.echelon_basis()) or \
       not all(is_block_upper(m, bt) and diagonal_blocks_vanish(m, bt)
               for m in conj_ideal.matrices()):
        raise ResultCheckFailed("conjugated algebra or ideal is not block triangular")
    return TriangulationResult(x, bt, conj, conj_ideal, dims)


def detect_type(a: MatSubalgebra):
    """The tuple (n_1, ..., n_q) read off the commutator-ideal filtration.

    This is a conjugation invariant; for maximal D_q algebras it is the unique
    type of the conjugated block triangular form.  Returns None when the
    algebra satisfies no q-fold identity, and (n,) for commutative input.
    """
    q = min_dq(a)
    if q is None:
        return None
    if q == 1:
        return BlockType((a.n,))
    return block_triangulate(a, commutator_ideal(a)).block_type


def diagonal_block_algebras(conj: MatSubalgebra, bt: BlockType) -> list:
    """The algebras of diagonal blocks of a block upper triangular algebra.

    Projection onto a diagonal block is an algebra homomorphism on block
    triangular matrices, so each image is a unital subalgebra of M_{n_i}.
    """
    return list(_diagonal_blocks(conj, bt))


@stored
def _diagonal_blocks(conj: MatSubalgebra, bt: BlockType) -> tuple:
    out = []
    for i in range(bt.q):
        mats = [submatrix(m, bt, i, i) for m in conj.echelon_basis()]
        space = Subspace.span(conj.field, bt.parts[i] ** 2, [m.entries for m in mats])
        out.append(MatSubalgebra(conj.field, bt.parts[i], space, unital=True))
    return tuple(out)


def strip_structure_matches(conj: MatSubalgebra, bt: BlockType, blocks: list) -> bool:
    """Whether conj equals the block-type algebra over its own diagonal blocks.

    The containment conj <= (strips + full off-diagonal blocks) always holds,
    so equality amounts to the dimension count plus explicit strip membership.
    """
    field = conj.field
    expected = sum(b.dim for b in blocks)
    for i in range(bt.q):
        for j in range(i + 1, bt.q):
            expected += bt.parts[i] * bt.parts[j]
    if conj.dim != expected:
        return False
    for i, block in enumerate(blocks):
        for m in block.echelon_basis():
            if not conj.contains(embed_block(field, bt, i, i, m)):
                return False
    for i in range(bt.q):
        for j in range(i + 1, bt.q):
            for r in range(bt.parts[i]):
                for c in range(bt.parts[j]):
                    unit = Matrix.unit(field, bt.n, bt.offsets[i] + r, bt.offsets[j] + c)
                    if not conj.contains(unit):
                        return False
    return True


def is_maximal_dq(a: MatSubalgebra, q=None):
    """Decide maximality among D_q subalgebras of M_n(K).

    Triangulates along the commutator ideal and answers True exactly when the
    conjugated algebra is the full block-type algebra over its diagonal blocks
    and every diagonal block is maximal commutative (equal to its own
    centralizer).  Returns (verdict, triangulation witness, blocks_checked);
    blocks_checked is False when the strip-structure test already failed, so
    the per-block maximal-commutativity checks never ran.

    An algebra satisfying no q-fold identity at all is not a D_q subalgebra,
    hence not a maximal one: the answer is (False, None, False).
    """
    if q is None:
        q = min_dq(a)
    if q is None:
        return False, None, False
    if q < 2:
        raise InvalidInput("maximality test needs a noncommutative algebra (q >= 2)")
    return _maximality(a)


@stored
def _maximality(a: MatSubalgebra):
    tri = block_triangulate(a, commutator_ideal(a))
    blocks = diagonal_block_algebras(tri.conjugated, tri.block_type)
    if not strip_structure_matches(tri.conjugated, tri.block_type, blocks):
        return False, tri, False
    for block in blocks:
        if not is_commutative(block) or centralizer(block) != block:
            return False, tri, True
    return True, tri, True
