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
from .blocks import BlockType, diagonal_blocks_vanish, is_block_upper, submatrix
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
    adapted basis is extended deterministically from the echelon basis of each
    filtration space, which spans it and hence extends the smaller spaces
    before it.  The result is a fact of the ideal when a is its parent; an
    ideal of another parent is first checked in full against a.
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
    for space in filtration:
        for row in space.rows:
            if chosen_space.dim == space.dim:
                break
            if not chosen_space.contains_vector(row):
                chosen.append(row)
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


@stored
def diagonal_block_algebras(conj: MatSubalgebra, bt: BlockType) -> tuple:
    """The algebras of diagonal blocks of a block upper triangular algebra.

    Projection onto a diagonal block is an algebra homomorphism on block
    triangular matrices, so each image is a unital subalgebra of M_{n_i}.
    """
    out = []
    for i in range(bt.q):
        mats = [submatrix(m, bt, i, i) for m in conj.echelon_basis()]
        space = Subspace.span(conj.field, bt.parts[i] ** 2, [m.entries for m in mats])
        out.append(MatSubalgebra(conj.field, bt.parts[i], space))
    return tuple(out)


@stored
def is_maximal_dq(a: MatSubalgebra):
    """Decide whether a is maximal D_q for q = min_dq(a) among subalgebras of M_n(K).

    A maximal D_q algebra is conjugate to a block triangular T(B_1, ..., B_q)
    with maximal commutative diagonal blocks.  The algebra triangulated along
    its commutator ideal lies in the block-type algebra over its own diagonal
    blocks B_i, so it equals that algebra exactly when its dimension is
    sum dim B_i + sum_{i<j} n_i n_j; the verdict is True when that count holds
    and every B_i is commutative and equal to its own centralizer.  Returns
    (verdict, triangulation witness, blocks_checked); blocks_checked is False
    when the count already failed, so the per-block checks never ran.

    No larger q is offered: a maximal D_2 algebra may lie in a bigger D_3 one.
    An algebra satisfying no q-fold identity at all is not a D_q subalgebra,
    hence not a maximal one: the answer is (False, None, False).
    """
    q = min_dq(a)
    if q is None:
        return False, None, False
    if q < 2:
        raise InvalidInput("maximality test needs a noncommutative algebra (q >= 2)")
    tri = block_triangulate(a, commutator_ideal(a))
    bt = tri.block_type
    blocks = diagonal_block_algebras(tri.conjugated, bt)
    off_diagonal = (bt.n ** 2 - sum(p * p for p in bt.parts)) // 2  # sum_{i<j} n_i n_j
    if tri.conjugated.dim != sum(b.dim for b in blocks) + off_diagonal:
        return False, tri, False
    for block in blocks:
        if not is_commutative(block) or centralizer(block) != block:
            return False, tri, True
    return True, tri, True
