"""Unital subalgebras of M_n(K): closures, ideals, radicals, centralizers.

A MatSubalgebra is a multiplicatively closed subspace of K^(n*n) (row-major
flattening).  All operations are pure; saturation loops keep only local state
and terminate because dimensions are bounded by n^2.  Structural facts are
computed once per (immutable) object and kept in its `facts` (see `stored`).
"""

from __future__ import annotations

import functools

from .errors import (
    ClosureViolation,
    DimensionMismatch,
    InvalidInput,
    NotInAlgebra,
    ResultCheckFailed,
    UnsupportedCharacteristic,
)
from .fields import Field
from .linalg import Matrix, Subspace, commutator, linear_combination, matrix_invert, nullspace


def stored(compute):
    """Make compute(x, *args) a fact of x: computed on first use, then read from x.facts.

    The owner is immutable, so a fact never goes stale; it dies with its owner.
    """
    name = compute.__name__

    @functools.wraps(compute)
    def read(x, *args):
        key = (name,) + args
        if key not in x.facts:
            x.facts[key] = compute(x, *args)
        return x.facts[key]
    return read


def square_matrices(field: Field, n: int, space: Subspace) -> tuple:
    """The echelon rows of a subspace of K^(n*n) as n x n matrices."""
    return tuple(Matrix.from_vector(field, n, n, row) for row in space.rows)


class MatSubalgebra:
    """A unital subalgebra of M_n(K), stored as a canonical subspace of K^(n*n).

    `basis` keeps the presentation-order basis used for serialization; `space`
    is the canonical echelon form used for every equality and membership test.
    """

    __slots__ = ("field", "n", "space", "basis", "facts")

    def __init__(self, field: Field, n: int, space: Subspace, basis: tuple | None = None):
        if space.ambient_dim != n * n:
            raise DimensionMismatch(f"subspace of K^{space.ambient_dim} is not in M_{n}")
        self.field = field
        self.n = n
        self.space = space
        self.facts = {}
        self.basis = self.echelon_basis() if basis is None else basis

    @classmethod
    def from_matrices(cls, field: Field, n: int, mats, *, check: bool = True) -> "MatSubalgebra":
        """Wrap an already multiplicatively closed span containing the identity.

        With check (the default) a span without the identity is InvalidInput and
        one that is not closed under products is ClosureViolation.
        """
        mats = tuple(mats)
        for m in mats:
            if m.nrows != n or m.ncols != n or m.field != field:
                raise DimensionMismatch("generator of wrong shape or field")
        space = Subspace.span(field, n * n, [m.entries for m in mats])
        alg = cls(field, n, space, basis=mats if mats else None)
        if check:
            if not space.contains_vector(Matrix.identity(field, n).entries):
                raise InvalidInput("the span does not contain the identity matrix; "
                                   "add it to the basis")
            defect = alg.closure_defect()
            if defect is not None:
                i, j = defect
                raise ClosureViolation(
                    f"product of basis elements {i} and {j} leaves the span")
        return alg

    @property
    def dim(self) -> int:
        return self.space.dim

    @stored
    def echelon_basis(self) -> tuple:
        return square_matrices(self.field, self.n, self.space)

    def contains(self, m: Matrix) -> bool:
        if m.nrows != self.n or m.ncols != self.n or m.field != self.field:
            return False
        return self.space.contains_vector(m.entries)

    def closure_defect(self):
        """Pair (i, j) of echelon-basis indices with b_i*b_j outside the span, or None."""
        basis = self.echelon_basis()
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                if not self.space.contains_vector((a * b).entries):
                    return (i, j)
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatSubalgebra) and self.field == other.field
                and self.n == other.n and self.space == other.space)

    def __hash__(self) -> int:
        return hash((self.n, self.space))

    def __repr__(self) -> str:
        return f"MatSubalgebra(n={self.n}, dim={self.dim}, field={self.field!r})"


class IdealSpace:
    """A two-sided ideal of a MatSubalgebra, stored as a subspace of K^(n*n)."""

    __slots__ = ("parent", "space", "saturation_rounds", "facts")

    def __init__(self, parent: MatSubalgebra, space: Subspace, saturation_rounds: int = 0):
        self.parent = parent
        self.space = space
        self.saturation_rounds = saturation_rounds
        self.facts = {}

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_zero(self) -> bool:
        return self.space.is_zero()

    @stored
    def matrices(self) -> tuple:
        return square_matrices(self.parent.field, self.parent.n, self.space)

    def __repr__(self) -> str:
        return f"IdealSpace(n={self.parent.n}, dim={self.dim})"


def _matrices_of(x) -> tuple:
    if isinstance(x, MatSubalgebra):
        return x.echelon_basis()
    if isinstance(x, IdealSpace):
        return x.matrices()
    raise TypeError(f"expected MatSubalgebra or IdealSpace, got {type(x).__name__}")


def _ambient_of(x):
    if isinstance(x, MatSubalgebra):
        return x.field, x.n
    return x.parent.field, x.parent.n


def unital_closure(field: Field, n: int, generators) -> MatSubalgebra:
    """Smallest unital subalgebra of M_n containing the generators.

    Saturates span{I, generators} under pairwise products until the dimension
    stabilizes; at most n^2 rounds since the dimension grows strictly.
    """
    gens = list(generators)
    for g in gens:
        if g.nrows != n or g.ncols != n or g.field != field:
            raise DimensionMismatch("generator of wrong shape or field")
    vectors = [Matrix.identity(field, n).entries] + [g.entries for g in gens]
    space = Subspace.span(field, n * n, vectors)
    while True:
        basis = square_matrices(field, n, space)
        products = [(a * b).entries for a in basis for b in basis]
        bigger = Subspace.span(field, n * n, list(space.rows) + products)
        if bigger.dim == space.dim:
            break
        space = bigger
    return MatSubalgebra(field, n, space)


def product_space(a, b) -> Subspace:
    """span{x*y : x in basis(a), y in basis(b)} in canonical form."""
    fa, na = _ambient_of(a)
    fb, nb = _ambient_of(b)
    if fa != fb or na != nb:
        raise DimensionMismatch("operands live in different matrix algebras")
    mats_a, mats_b = _matrices_of(a), _matrices_of(b)
    return Subspace.span(fa, na * na, [(x * y).entries for x in mats_a for y in mats_b])


def two_sided_ideal(parent: MatSubalgebra, seed) -> IdealSpace:
    """Smallest two-sided ideal of `parent` containing the seed matrices."""
    seed = list(seed)
    for s in seed:
        if not parent.contains(s):
            raise NotInAlgebra("seed matrix lies outside the parent algebra")
    space = Subspace.span(parent.field, parent.n ** 2, [s.entries for s in seed])
    basis = parent.echelon_basis()
    rounds = 0
    while True:
        mats = square_matrices(parent.field, parent.n, space)
        products = [p.entries for b in basis for x in mats for p in (b * x, x * b)]
        bigger = Subspace.span(parent.field, parent.n ** 2, list(space.rows) + products)
        rounds += 1
        if bigger.dim == space.dim:
            ideal = IdealSpace(parent, space, rounds)
            # fact ideal_defect(ideal) is None: the last round found every product in the span
            ideal.facts[("ideal_defect",)] = None
            return ideal
        space = bigger


@stored
def ideal_defect(ideal: IdealSpace):
    """Why the subspace is not a two-sided ideal of its parent algebra, or None."""
    if not ideal.parent.space.contains(ideal.space):
        return "is not contained in the algebra"
    for b in ideal.parent.echelon_basis():
        for x in ideal.matrices():
            if not ideal.space.contains_vector((b * x).entries) or \
               not ideal.space.contains_vector((x * b).entries):
                return "is not closed under multiplication by the algebra"
    return None


@stored
def commutators(a: MatSubalgebra) -> tuple:
    """The nonzero commutators [x, y] of echelon basis elements x before y."""
    basis = a.echelon_basis()
    comms = (commutator(x, y) for i, x in enumerate(basis) for y in basis[i + 1:])
    return tuple(c for c in comms if not c.is_zero())


@stored
def commutator_ideal(a: MatSubalgebra) -> IdealSpace:
    """Two-sided ideal generated by all commutators; basis pairs suffice by bilinearity."""
    return two_sided_ideal(a, commutators(a))


@stored
def _ideal_powers(ideal: IdealSpace) -> tuple:
    """(I, I^2, ..., I^m), products left to right, ending at a zero power or before a repeat.

    The powers are weakly decreasing subspaces (ideals absorb), so one of the two
    happens within n^2 steps, and then I^k = I^m for every k >= m.
    """
    field, n = _ambient_of(ideal)
    base = ideal.matrices()
    powers = [ideal.space]
    while not powers[-1].is_zero():
        mats = square_matrices(field, n, powers[-1])
        nxt = Subspace.span(field, n * n, [(x * y).entries for x in mats for y in base])
        if nxt == powers[-1]:
            break
        powers.append(nxt)
    return tuple(powers)


def ideal_power(ideal: IdealSpace, k: int) -> Subspace:
    """The subspace spanned by k-fold products of ideal elements (left to right)."""
    if k < 1:
        raise InvalidInput("ideal powers start at k = 1")
    powers = _ideal_powers(ideal)
    return powers[min(k, len(powers)) - 1]


def nilpotency_index(ideal: IdealSpace):
    """Least q >= 1 with ideal^q = 0; None when the power sequence stabilizes nonzero."""
    powers = _ideal_powers(ideal)
    return len(powers) if powers[-1].is_zero() else None


@stored
def radical(a: MatSubalgebra) -> IdealSpace:
    """Jacobson radical via the trace bilinear form (valid in char 0 or p > n).

    J(a) = {x in a : trace(x*b) = 0 for every basis element b}; computed as the
    kernel of the Gram matrix of the trace form on a.  The result is verified
    post hoc to be a nilpotent two-sided ideal.
    """
    f = a.field
    if f.is_prime_field and f.p <= a.n:
        raise UnsupportedCharacteristic(
            f"trace-form radical needs characteristic 0 or p > n, got p={f.p}, n={a.n}")
    basis = a.echelon_basis()
    gram = [[(x * y).trace() for y in basis] for x in basis]
    entries = [b.entries for b in basis]
    rad_vectors = [linear_combination(f, c, entries) for c in nullspace(f, gram, a.dim)]
    ideal = IdealSpace(a, Subspace.span(f, a.n ** 2, rad_vectors))
    defect = ideal_defect(ideal)
    if defect is not None:
        raise ResultCheckFailed(f"radical candidate {defect}")
    if nilpotency_index(ideal) is None:
        raise ResultCheckFailed("radical candidate is not nilpotent")
    return ideal


def centralizer(a: MatSubalgebra) -> MatSubalgebra:
    """All X in M_n commuting with every basis element, via one linear system.

    Constraint rows come from X*b - b*X = 0 read entry by entry; the nullspace
    in K^(n*n) is always a unital subalgebra.
    """
    f, n = a.field, a.n
    zero = f.zero
    rows = []
    for b in a.echelon_basis():
        for i in range(n):
            for j in range(n):
                # coefficient of X[i,k] is b[k,j]; coefficient of X[k,j] is -b[i,k]
                row = [zero] * (n * n)
                for k in range(n):
                    row[i * n + k] = f.add(row[i * n + k], b[k, j])
                    row[k * n + j] = f.sub(row[k * n + j], b[i, k])
                if any(row):
                    rows.append(row)
    vectors = nullspace(f, rows, n * n) if rows else \
        [v for v in Subspace.full(f, n * n).rows]
    space = Subspace.span(f, n * n, vectors)
    return MatSubalgebra(f, n, space)


def conjugate_algebra(a: MatSubalgebra, x: Matrix) -> MatSubalgebra:
    """The subalgebra x^-1 a x; dimension is preserved."""
    if x.nrows != a.n or x.ncols != a.n or x.field != a.field:
        raise DimensionMismatch("conjugator of wrong shape or field")
    xinv = matrix_invert(x)
    conj_basis = tuple(xinv * b * x for b in a.basis)
    space = Subspace.span(a.field, a.n ** 2, [m.entries for m in conj_basis])
    if space.dim != a.dim:
        raise ResultCheckFailed("conjugation changed the dimension of the algebra")
    return MatSubalgebra(a.field, a.n, space, basis=conj_basis)


def conjugate_ideal(ideal: IdealSpace, x: Matrix, new_parent: MatSubalgebra) -> IdealSpace:
    xinv = matrix_invert(x)
    vectors = [(xinv * m * x).entries for m in ideal.matrices()]
    f, n = _ambient_of(ideal)
    return IdealSpace(new_parent, Subspace.span(f, n * n, vectors))


def is_commutative(a: MatSubalgebra) -> bool:
    return not commutators(a)
