"""Dimension formulas, enumeration of maximum-dimension types, canonical-block
recognition, and the isomorphism/conjugacy decision for block-type algebras.

Recognition and the isomorphism verdicts rely on the classification of
maximum-dimension commutative subalgebras up to conjugation, which holds under
algebraically-closed semantics; computed over Q or GF(p) the answers carry a
field caveat (see IsomorphismCertificate.field_caveat and the CLI reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt

from .algebra import (
    IdealSpace,
    MatSubalgebra,
    commutator_ideal,
    conjugate_algebra,
    ideal_power,
    is_commutative,
    product_space,
    radical,
    stored,
)
from .blocks import BlockType
from .constructions import CanonicalBlockId, admissible_k, canonical_commutative
from .errors import (
    BudgetExceeded,
    InvalidInput,
    InvalidQ,
    NotBlockTypeMaxDim,
    NotCanonical,
    ResultCheckFailed,
    ShapeMismatch,
)
from .fields import Field
from .linalg import Matrix, Subspace, column_space, linear_combination, matrix_invert, nullspace
from .structure import (
    block_triangulate,
    detect_type,
    diagonal_block_algebras,
    is_maximal_dq,
    min_dq,
)


def schur_bound(n: int) -> int:
    """Maximum dimension of a commutative subalgebra of M_n(K): floor(n^2/4) + 1."""
    if n < 1:
        raise InvalidInput("n must be positive")
    return n * n // 4 + 1


def type_dimension(parts) -> int:
    """q + sum_i floor(n_i^2/4) + sum_{i<j} n_i n_j for a block type."""
    parts = tuple(parts.parts) if isinstance(parts, BlockType) else tuple(parts)
    n = sum(parts)
    # sum_{i<j} n_i n_j = (n^2 - sum_i n_i^2) / 2
    return len(parts) + sum(p * p // 4 for p in parts) + (n * n - sum(p * p for p in parts)) // 2


def max_dim_formula(n: int, q: int) -> int:
    """Sharp maximum dimension of a D_q subalgebra of M_n(K): the dimension of
    the balanced type, whose q parts differ by at most one."""
    if not 1 <= q <= n:
        raise InvalidQ(f"need 1 <= q <= n, got q={q}, n={n}")
    f, r = divmod(n, q)
    return type_dimension((f,) * (q - r) + (f + 1,) * r)


def _ceil_sqrt_fraction(x: Fraction) -> int:
    if x <= 0:
        return 0
    m = isqrt(x.numerator // x.denominator)
    while Fraction(m * m) < x:
        m += 1
    return m


def domokos_module_bound(dim_a: int, q: int):
    """Lower bound on the dimension of a faithful module over a D_q algebra.

    Returns the exact rational radicand (dim_a - q) / (1/2 - 1/(4q)) together
    with its integer ceiling square root.
    """
    if q < 1 or dim_a < q:
        raise InvalidInput("need q >= 1 and dim_a >= q")
    radicand = Fraction(dim_a - q) / (Fraction(1, 2) - Fraction(1, 4 * q))
    return radicand, _ceil_sqrt_fraction(radicand)


# -- enumeration of maximum-dimension types ---------------------------------------

def _multiset_permutations(tup) -> int:
    counts = {}
    for x in tup:
        counts[x] = counts.get(x, 0) + 1
    total = factorial(len(tup))
    for c in counts.values():
        total //= factorial(c)
    return total


def _distinct_permutations(parts):
    """Distinct permutations of a nondecreasing tuple, in lexicographic order.

    Each step is the next-permutation step (Knuth, TAOCP 7.2.1.2, Algorithm L),
    so the cost is in proportion to the output.
    """
    a = list(parts)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


@dataclass(frozen=True)
class TypeEnumeration:
    """Sorted maximum-dimension types for (n, q) with multiset permutation counts."""

    n: int
    q: int
    r: int
    base: int
    sorted_tuples: tuple
    parameters: tuple
    ordered_counts: tuple
    max_dimension: int

    def ordered_tuples(self) -> list:
        out = []
        for t in self.sorted_tuples:
            out.extend(_distinct_permutations(t))
        return out


def enumerate_max_types(n: int, q: int, budget: int | None = None) -> TypeEnumeration:
    """All nondecreasing block types achieving the maximum D_q dimension in M_n.

    The closed-form family of the paper, indexed by a single parameter (s when
    floor(n/q) is even, t when odd) over at most q/2 + 1 values; the work is
    in proportion to the output, for any n.  With a budget, an output of more
    than `budget` parts (types times q) raises BudgetExceeded before any type
    is built.
    """
    if not 2 <= q <= n:
        raise InvalidQ(f"need 2 <= q <= n, got q={q}, n={n}")
    f, r = divmod(n, q)
    if f % 2 == 0:
        name, values = "s", range(r // 2 + 1)
    else:
        name, values = "t", range(1 if f == 1 else (q - r) // 2 + 1)  # parts stay positive
    if budget is not None and len(values) * q > budget:
        raise BudgetExceeded(f"{len(values)} types of {q} parts exceed the budget {budget}")
    if f % 2 == 0:
        tuples = [(f,) * (q - r + s) + (f + 1,) * (r - 2 * s) + (f + 2,) * s for s in values]
    else:
        tuples = [(f - 1,) * t + (f,) * (q - r - 2 * t) + (f + 1,) * (r + t) for t in values]

    best = max_dim_formula(n, q)
    for t in tuples:
        if type_dimension(t) != best:
            raise ResultCheckFailed(
                f"type {t} misses the maximum dimension {best} for (n, q) = ({n}, {q})")
    return TypeEnumeration(
        n=n, q=q, r=r, base=f,
        sorted_tuples=tuple(tuples),
        parameters=tuple((name, v) for v in values),
        ordered_counts=tuple(_multiset_permutations(t) for t in tuples),
        max_dimension=best,
    )


def count_iso_classes(n: int, q: int) -> int:
    """Number of isomorphism classes of maximum-dimension D_q subalgebras of M_n.

    Sums, over ordered maximum-dimension types, the product of per-block
    canonical choices; an isomorphism-class count under algebraically-closed
    semantics.
    """
    enum = enumerate_max_types(n, q)
    total = 0
    for tup, count in zip(enum.sorted_tuples, enum.ordered_counts):
        per_tuple = 1
        for part in tup:
            per_tuple *= len(admissible_k(part))
        total += count * per_tuple
    return total


# -- invariants of commutative blocks ----------------------------------------------

@stored
def _block_invariants(a: MatSubalgebra):
    rad = radical(a)
    t = a.dim - rad.dim
    d2 = product_space(rad, rad).dim
    v = column_space(a.field, a.n, rad.matrices()).dim
    return rad, t, d2, v


def recognize_block(a: MatSubalgebra) -> CanonicalBlockId:
    """Identify which canonical algebra C^k_n a maximum-dimension commutative
    subalgebra is conjugate to, from conjugation invariants alone.

    Uses t = number of simple summands, the dimension of J^2, and the
    dimension of J*V.  Valid for algebras conjugate to a canonical
    representative (guaranteed under algebraically-closed semantics).
    """
    n = a.n
    if not is_commutative(a):
        raise NotCanonical("algebra is not commutative")
    if a.dim != schur_bound(n):
        raise NotCanonical(f"dimension {a.dim} is not the maximum {schur_bound(n)}")
    _, t, d2, v = _block_invariants(a)
    if n == 1:
        return CanonicalBlockId(1, 1)
    if n == 2:
        return CanonicalBlockId(2, 1 if t == 1 else 2)
    if n == 3:
        if t == 3:
            return CanonicalBlockId(3, 5)
        if t == 2:
            return CanonicalBlockId(3, 4)
        if t == 1 and d2 == 1:
            return CanonicalBlockId(3, 3)
        if t == 1 and d2 == 0 and v == 1:
            return CanonicalBlockId(3, 1)
        if t == 1 and d2 == 0 and v == 2:
            return CanonicalBlockId(3, 2)
        raise NotCanonical(f"invariants (t, d2, v) = ({t}, {d2}, {v}) match no table row")
    if t == 1 and d2 == 0:
        if n % 2 == 0 and v == n // 2:
            return CanonicalBlockId(n, 1)
        if n % 2 == 1 and v == n // 2:
            return CanonicalBlockId(n, 1)
        if n % 2 == 1 and v == n // 2 + 1:
            return CanonicalBlockId(n, 2)
    raise NotCanonical(f"invariants (t, d2, v) = ({t}, {d2}, {v}) match no table row")


# -- canonicalizing conjugators ------------------------------------------------------

_MAX_BRUTE_PRIME = 100_000
_MAX_DIVISOR_SCAN = 10 ** 15


def _charpoly(x: Matrix) -> list:
    """Monic characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1], n <= 3."""
    f = x.field
    n = x.nrows
    if n == 1:
        return [f.neg(x[0, 0]), f.one]
    if n == 2:
        tr = f.add(x[0, 0], x[1, 1])
        det = f.sub(f.mul(x[0, 0], x[1, 1]), f.mul(x[0, 1], x[1, 0]))
        return [det, f.neg(tr), f.one]
    if n == 3:
        tr = f.reduce(x[0, 0] + x[1, 1] + x[2, 2])
        c2 = f.zero
        for i, j in ((0, 1), (0, 2), (1, 2)):
            c2 = f.add(c2, f.sub(f.mul(x[i, i], x[j, j]), f.mul(x[i, j], x[j, i])))
        det = f.reduce(
            x[0, 0] * (x[1, 1] * x[2, 2] - x[1, 2] * x[2, 1])
            - x[0, 1] * (x[1, 0] * x[2, 2] - x[1, 2] * x[2, 0])
            + x[0, 2] * (x[1, 0] * x[2, 1] - x[1, 1] * x[2, 0]))
        return [f.neg(det), c2, f.neg(tr), f.one]
    raise NotCanonical("eigenvalue search is only needed for blocks of size <= 3")


def _poly_eval(field: Field, coeffs, x):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _divisors(m: int) -> list:
    m = abs(m)
    if m == 0 or m > _MAX_DIVISOR_SCAN:
        raise NotCanonical("entries too large for exact rational eigenvalue search")
    out = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            out.add(m // d)
        d += 1
    return sorted(out)


def _roots_in_field(field: Field, coeffs) -> list:
    """All roots of the monic charpoly lying in the ground field, sorted."""
    if field.is_prime_field:
        if field.p > _MAX_BRUTE_PRIME:
            raise NotCanonical(f"prime field too large for exhaustive root search (p={field.p})")
        return [x for x in range(field.p) if _poly_eval(field, coeffs, x) == 0]
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0]]
    if deg == 2:
        c0, c1, _ = coeffs
        disc = c1 * c1 - 4 * c0
        if disc < 0:
            return []
        num, den = disc.numerator, disc.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return []
        root = Fraction(rn, rd)
        return sorted({field.div(field.sub(r, c1), 2) for r in (root, -root)})
    # degree 3: peel off rational roots via the rational root theorem
    roots = set()
    work = list(coeffs)
    if work[0] == 0:
        roots.add(field.zero)
        work = work[1:]  # divide by lambda
        roots.update(_roots_in_field(field, work))
        return sorted(roots)
    denom_lcm = 1
    for c in work:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in work]
    for p in _divisors(ints[0]):
        for qd in _divisors(ints[-1]):
            for cand in (field.of(Fraction(p, qd)), field.of(Fraction(-p, qd))):
                if _poly_eval(field, coeffs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _scalar_sort_key(field: Field, x):
    return x if field.is_prime_field else (x.numerator, x.denominator)


def _matrix_power(m: Matrix, k: int) -> Matrix:
    out = Matrix.identity(m.field, m.nrows)
    for _ in range(k):
        out = out * m
    return out


def _split_along(a: MatSubalgebra, x: Matrix, lam):
    """Complementary a-invariant subspaces ker((x - lam)^n) and im((x - lam)^n)."""
    f, n = a.field, a.n
    p = _matrix_power(x - Matrix.identity(f, n).scaled(lam), n)
    kernel_rows = [p.row(i) for i in range(n)]
    kernel = Subspace.span(f, n, nullspace(f, kernel_rows, n))
    image = Subspace.span(f, n, [tuple(p[i, j] for i in range(n)) for j in range(n)])
    if kernel.dim + image.dim != n or not kernel.intersect(image).is_zero():
        raise ResultCheckFailed("generalized eigenspace and its complement do not split K^n")
    return kernel, image


def _find_split(a: MatSubalgebra):
    """An a-invariant proper decomposition of K^n, or None if no basis element
    (or pairwise sum) has two distinct eigenvalues in the ground field."""
    basis = list(a.echelon_basis())
    candidates = basis + [basis[i] + basis[j]
                          for i in range(len(basis)) for j in range(i + 1, len(basis))]
    ident = Matrix.identity(a.field, a.n)
    for x in candidates:
        if x == ident.scaled(x[0, 0]):
            continue
        roots = _roots_in_field(a.field, _charpoly(x))
        if len(roots) >= 2:
            lam = min(roots, key=lambda r: _scalar_sort_key(a.field, r))
            kernel, image = _split_along(a, x, lam)
            if 0 < kernel.dim < a.n:
                return kernel, image
    return None


def _restrict_to_invariant(a: MatSubalgebra, sub: Subspace) -> MatSubalgebra:
    """The algebra a acting on an a-invariant subspace, in the echelon basis of sub."""
    f = a.field
    k = sub.dim
    mats = []
    for b in a.echelon_basis():
        cols = []
        for w in sub.rows:
            image = b.apply(w)
            if not sub.contains_vector(image):
                raise ResultCheckFailed("split subspace is not invariant under the algebra")
            cols.append([image[pc] for pc in sub.pivots])
        mats.append(Matrix(f, k, k, tuple(cols[j][i] for i in range(k) for j in range(k))))
    space = Subspace.span(f, k * k, [m.entries for m in mats])
    return MatSubalgebra(f, k, space)


def _atomic_decomposition(a: MatSubalgebra, ambient_basis: list) -> list:
    """Recursively split K^n into indecomposable a-invariant summands.

    Returns a list of (embedding columns, restricted algebra); embedding
    columns are vectors of the original K^n expressing the summand basis.
    """
    restricted = a
    split = _find_split(restricted)
    if split is None:
        return [(ambient_basis, restricted)]
    out = []
    for sub in split:
        sub_ambient = [linear_combination(a.field, w, ambient_basis) for w in sub.rows]
        out.extend(_atomic_decomposition(_restrict_to_invariant(restricted, sub), sub_ambient))
    return out


def _canonicalize_local(a: MatSubalgebra) -> Matrix:
    """Conjugator taking a local (single idempotent) max-dimension commutative
    algebra to its corner or shift canonical form."""
    f, n = a.field, a.n
    if n == 1:
        return Matrix.identity(f, 1)
    rad, _, d2, _ = _block_invariants(a)
    if rad.is_zero():
        raise NotCanonical("local block of size > 1 with zero radical")
    if d2 == 0:
        tri = block_triangulate(a, rad)
        return tri.conjugator
    if n == 3 and d2 == 1:
        tri = block_triangulate(a, rad)
        # triangulated radical is spanned by [[0,alpha,0],[0,0,beta],[0,0,0]] + gamma*e13
        # and e13; rescale the third coordinate to force alpha = beta
        conj_rad = tri.conjugated_ideal
        gen = None
        for m in conj_rad.matrices():
            if m[0, 1] != f.zero:
                gen = m
                break
        if gen is None or gen[1, 2] == f.zero:
            raise NotCanonical("triangulated radical has no shift generator")
        ratio = f.div(gen[0, 1], gen[1, 2])
        scale = Matrix.from_rows(f, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        scale = scale + Matrix.unit(f, 3, 2, 2).scaled(ratio)
        return tri.conjugator * scale
    raise NotCanonical("radical shape matches no canonical local block")


def canonical_block_conjugator(a: MatSubalgebra):
    """(CanonicalBlockId, Z) with Z^-1 a Z equal to the canonical representative.

    Corner-type blocks are canonicalized by triangulating along the radical;
    decomposable blocks are split along exact eigenvalues of algebra elements.
    Raises NotCanonical when a is not conjugate over its own field to any
    canonical representative (possible over non-closed fields).
    """
    bid = recognize_block(a)
    f, n = a.field, a.n
    _, t, _, _ = _block_invariants(a)
    if t == 1:
        z = _canonicalize_local(a)
    else:
        std = [tuple(f.one if k == i else f.zero for k in range(n)) for i in range(n)]
        atoms = _atomic_decomposition(a, std)
        if sum(len(cols) for cols, _ in atoms) != n:
            raise NotCanonical("invariant decomposition does not span")
        atoms.sort(key=lambda item: -len(item[0]))
        columns = []
        for cols, restricted in atoms:
            k = len(cols)
            z_local = Matrix.identity(f, k) if restricted.dim == 1 else \
                _canonicalize_local(restricted)
            embed = Matrix(f, n, k, tuple(cols[j][i] for i in range(n) for j in range(k)))
            block_cols = embed * z_local
            for j in range(k):
                columns.append(tuple(block_cols[i, j] for i in range(n)))
        z = Matrix(f, n, n, tuple(columns[j][i] for i in range(n) for j in range(n)))
    if conjugate_algebra(a, z) != canonical_commutative(f, bid):
        raise NotCanonical("algebra is not conjugate to a canonical representative "
                           "over its ground field")
    return bid, z


# -- block-type structure and the isomorphism decision -------------------------------

@stored
def blocktype_structure(a: MatSubalgebra):
    """(triangulation, diagonal blocks, block ids) of a maximal D_q algebra whose
    diagonal blocks have maximum commutative dimension, in any basis.

    Reads the stored maximality triangulation: tri.conjugated is block upper
    with the blocks on its diagonal.  For an algebra already in block upper
    form the commutator filtration is the standard flag, so tri.conjugator is
    the identity.  Raises NotBlockTypeMaxDim otherwise.
    """
    q = min_dq(a)
    if q is None or q < 2:
        raise NotBlockTypeMaxDim("minimal q is not at least 2")
    maximal, tri, blocks_checked = is_maximal_dq(a)
    if not blocks_checked:
        raise NotBlockTypeMaxDim("diagonal strips are not independent or off-diagonal "
                                 "blocks are not full")
    if not maximal:
        raise NotBlockTypeMaxDim("a diagonal block is not maximal commutative")
    blocks = diagonal_block_algebras(tri.conjugated, tri.block_type)
    if any(block.dim != schur_bound(block.n) for block in blocks):
        raise NotBlockTypeMaxDim("a diagonal block is not of maximum dimension")
    return tri, blocks, tuple(recognize_block(block) for block in blocks)


@dataclass
class IsoInvariantVector:
    """Conjugation invariants: the filtration type, per-block canonical ids when
    the block structure is extractable, and auxiliary product dimensions."""

    block_type: tuple | None
    block_ids: tuple | None
    dim_radical: int
    dim_commutator: int
    dim_radical_commutator: int
    dim_commutator_radical: int
    dim_commutator_power_radical: int | None


def iso_invariants(a: MatSubalgebra) -> IsoInvariantVector:
    """Compute the conjugation-invariant vector of an algebra.

    Block ids are filled in only when the algebra triangulates to a block-type
    form with maximal commutative blocks of maximum dimension; they are then
    themselves conjugation invariants.
    """
    rad = radical(a)
    comm = commutator_ideal(a)
    q = min_dq(a)
    if q is None:
        power_j = None
    elif q == 1:
        power_j = rad.dim
    else:
        power_j = product_space(IdealSpace(a, ideal_power(comm, q - 1)), rad).dim

    bt = detect_type(a)
    try:
        block_ids = tuple(i.as_tuple() for i in blocktype_structure(a)[2])
    except (NotBlockTypeMaxDim, NotCanonical):
        block_ids = None
    return IsoInvariantVector(
        block_type=tuple(bt.parts) if bt is not None else None,
        block_ids=block_ids,
        dim_radical=rad.dim,
        dim_commutator=comm.dim,
        dim_radical_commutator=product_space(rad, comm).dim,
        dim_commutator_radical=product_space(comm, rad).dim,
        dim_commutator_power_radical=power_j,
    )


def build_block_conjugator(bt: BlockType, per_block) -> Matrix:
    """Block-diagonal matrix diag(X_1, ..., X_q) from invertible per-block parts."""
    per_block = list(per_block)
    if len(per_block) != bt.q:
        raise ShapeMismatch(f"{bt.q} blocks expected, got {len(per_block)}")
    field = per_block[0].field
    n = bt.n
    ent = [field.zero] * (n * n)
    for i, x in enumerate(per_block):
        if x.nrows != bt.parts[i] or x.ncols != bt.parts[i]:
            raise ShapeMismatch(f"block {i} has size {x.nrows}x{x.ncols}, "
                                f"expected {bt.parts[i]}")
        matrix_invert(x)  # raises Singular on a non-invertible block
        off = bt.offsets[i]
        for r in range(x.nrows):
            for c in range(x.ncols):
                ent[(off + r) * n + off + c] = x[r, c]
    return Matrix(field, n, n, tuple(ent))


@dataclass
class IsomorphismCertificate:
    """Conjugacy certificate for a positive isomorphism verdict.

    `conjugator` maps the first algebra onto the second by conjugation; it is
    None when the verdict holds under algebraically-closed semantics but no
    conjugator exists over the ground field.  field_caveat is always True over
    Q and GF(p).
    """

    block_ids: tuple
    conjugator: Matrix | None
    field_caveat: bool = True
    note: str | None = None


def is_isomorphic_maxdim(a: MatSubalgebra, b: MatSubalgebra):
    """Isomorphism decision for block-type D_q algebras with max-dim blocks.

    True iff the types agree and the per-block canonical recognitions agree.
    On a positive verdict the certificate is Z = T_a * diag(Z_i) * T_b^-1:
    T_a and T_b triangulate a and b, and each Z_i maps a diagonal block of
    a onto that of b through their common canonical form.  Z^-1 a Z = b is
    checked before Z is returned.
    """
    tri_a, blocks_a, ids_a = blocktype_structure(a)
    tri_b, blocks_b, ids_b = blocktype_structure(b)
    if tri_a.block_type.parts != tri_b.block_type.parts or ids_a != ids_b:
        return False, None
    try:
        per_block = []
        for x, y in zip(blocks_a, blocks_b):
            _, zx = canonical_block_conjugator(x)
            _, zy = canonical_block_conjugator(y)
            per_block.append(zx * matrix_invert(zy))
        conjugator = tri_a.conjugator * build_block_conjugator(tri_a.block_type, per_block) \
            * matrix_invert(tri_b.conjugator)
        note = None
    except NotCanonical as exc:
        conjugator = None
        note = f"verdict assumes algebraically-closed semantics: {exc}"
    if conjugator is not None and conjugate_algebra(a, conjugator) != b:
        raise ResultCheckFailed("certificate does not conjugate the first algebra onto the second")
    cert = IsomorphismCertificate(
        block_ids=tuple(i.as_tuple() for i in ids_a),
        conjugator=conjugator,
        note=note,
    )
    return True, cert
