"""Dense exact matrices, reduced row echelon forms, and subspace arithmetic.

Everything here is pure and exact: no floats, no tolerances.  Subspaces are
always held in the unique reduced row-echelon basis, so equality of subspaces
is plain tuple equality.  Matrices are flattened row-major when treated as
vectors of K^(rows*cols); that bijection is the single fixed convention for
the whole package.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import DimensionMismatch, Singular
from .fields import Field


class Matrix:
    """Immutable dense matrix over an exact field, entries stored row-major."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: tuple):
        if nrows < 1 or ncols < 1 or len(entries) != nrows * ncols:
            raise DimensionMismatch(f"{len(entries)} entries for a {nrows}x{ncols} matrix")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        flat = tuple(field.of(x) for row in rows for x in row)
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int | None = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return cls(field, nrows, ncols, (field.zero,) * (nrows * ncols))

    @classmethod
    def unit(cls, field: Field, n: int, i: int, j: int) -> "Matrix":
        """The matrix unit e_ij (0-indexed) in M_n."""
        ent = [field.zero] * (n * n)
        ent[i * n + j] = field.one
        return cls(field, n, n, tuple(ent))

    @classmethod
    def from_vector(cls, field: Field, nrows: int, ncols: int, vec) -> "Matrix":
        return cls(field, nrows, ncols, tuple(vec))

    # -- protocol --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.entries))

    def __repr__(self) -> str:
        rows = [" ".join(self.field.format(x) for x in self.row(i)) for i in range(self.nrows)]
        return "Matrix[" + "; ".join(rows) + "]"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for x in self.entries)

    # -- arithmetic ------------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        f = self.field
        return Matrix(f, self.nrows, self.ncols,
                      tuple(f.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, tuple(f.neg(a) for a in self.entries))

    def scaled(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        return Matrix(f, self.nrows, self.ncols, tuple(f.mul(c, a) for a in self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        n, m, l = self.nrows, self.ncols, other.ncols
        f = self.field
        # inner products of integer numerators; one scalar (reduced mod p, or
        # over the common denominator) per output entry
        a, da = f.numerators(self.entries)
        b, db = f.numerators(other.entries)
        rows = [a[i * m : (i + 1) * m] for i in range(n)]
        cols = [b[j::l] for j in range(l)]
        sums = [sum(map(mul, arow, col)) for arow in rows for col in cols]
        return Matrix(f, n, l, tuple(f.quotients(sums, da * db)))

    def apply(self, vec) -> tuple:
        """Matrix-vector product, vec a length-ncols sequence."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        reduce = self.field.reduce
        m = self.ncols
        ent = self.entries
        return tuple(
            reduce(sum(x * y for x, y in zip(ent[i * m : (i + 1) * m], vec)))
            for i in range(self.nrows)
        )

    def trace(self):
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        n = self.ncols
        return self.field.reduce(sum(self.entries[i * n + i] for i in range(n)))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def _primitive(row):
    """An integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref_in_place(field: Field, rows: list) -> list:
    """Reduce a list of row lists to reduced echelon form; returns pivot columns.

    Zero rows are removed, pivots are normalized to 1 and their columns cleared,
    so the surviving rows are the unique canonical basis of the row space.
    Over Q the elimination is fraction-free, as in Bareiss (1968), but keeps its
    integers small by content removal: rows are primitive integer vectors, a
    row update pv*x - f*y is divided by the gcd of its entries, and each row is
    divided by its pivot once, at the end.  Over GF(p) each pivot row is scaled
    by the inverse of its pivot.
    """
    if not rows:
        return []
    p = field.p
    if p is None:
        rows[:] = [_primitive(field.numerators(row)[0]) for row in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if p is not None and pv != 1:
            inv = pow(pv, p - 2, p)
            prow = rows[r] = [inv * x % p for x in prow]
        for i, ri in enumerate(rows):
            f = ri[c]
            if not f or i == r:
                continue
            if p is None:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                rows[i] = _primitive([s * x - t * y for x, y in zip(ri, prow)])
            else:
                rows[i] = [(x - f * y) % p for x, y in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    if p is None:
        for i, c in enumerate(pivots):
            row = rows[i]
            pv = row[c]
            if pv < 0:
                row, pv = [-x for x in row], -pv
            rows[i] = field.quotients(row, pv)
    return pivots


def matrix_rref(m: Matrix) -> tuple:
    """Return (rref, rank, pivot_columns) of a matrix, exactly."""
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = rref_in_place(m.field, rows)
    zero_row = [m.field.zero] * m.ncols
    rows += [list(zero_row)] * (m.nrows - len(rows))
    flat = tuple(x for row in rows for x in row)
    return Matrix(m.field, m.nrows, m.ncols, flat), len(pivots), list(pivots)


def matrix_invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises Singular when rank-deficient."""
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.ncols
    f = m.field
    one, zero = f.one, f.zero
    rows = [list(m.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
    pivots = rref_in_place(f, rows)
    if pivots != list(range(n)):
        raise Singular("matrix is not invertible")
    flat = tuple(x for row in rows for x in row[n:])
    return Matrix(f, n, n, flat)


def linear_combination(field: Field, coeffs, vectors) -> tuple:
    """sum_i coeffs[i] * vectors[i] for equal-length vectors."""
    terms = [(c, v) for c, v in zip(coeffs, vectors) if c != field.zero]
    return tuple(field.reduce(sum((c * v[k] for c, v in terms), field.zero))
                 for k in range(len(vectors[0])))


def nullspace(field: Field, rows, ncols: int) -> list:
    """Canonical basis of {v : A v = 0} for A given as an iterable of rows."""
    work = [list(r) for r in rows]
    pivots = rref_in_place(field, work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, one = field.zero, field.one
    basis = []
    for fcol in free:
        v = [zero] * ncols
        v[fcol] = one
        for row, pc in zip(work, pivots):
            v[pc] = field.neg(row[fcol])
        basis.append(tuple(v))
    return basis


class Subspace:
    """A subspace of K^m held as the unique reduced-echelon basis (row tuples)."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        work = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(f"vector of length {len(v)} in K^{ambient_dim}")
            if any(v):
                work.append(list(v))
        pivots = rref_in_place(field, work)
        return cls(field, ambient_dim, tuple(tuple(r) for r in work), tuple(pivots))

    @classmethod
    def zero_space(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        one, zero = field.one, field.zero
        rows = tuple(tuple(one if i == j else zero for j in range(ambient_dim))
                     for i in range(ambient_dim))
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def contains_vector(self, vec) -> bool:
        """Whether vec lies in the subspace: its residual against the echelon basis is zero.

        The residual is carried as integer numerators over a denominator d that
        the zero test never needs, so it is not kept.
        """
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        f = self.field
        p = f.p
        v, _ = f.numerators(vec)
        for row, pc in zip(self.rows, self.pivots):
            x = v[pc]
            if not x:
                continue
            if p is None:
                # v/d - (x/d) * (r/dr), where r[pc] = dr, is (s*v - t*r) / (d*s)
                r, dr = f.numerators(row)
                g = gcd(x, dr)
                s, t = dr // g, x // g
                v = [s * a - t * b for a, b in zip(v, r)]
            else:
                v = [(a - x * b) % p for a, b in zip(v, row)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if other.dim > self.dim:
            return False
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient_dim, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce [A|A; B|0]; rows with zero left half carry A cap B."""
        self._check_compatible(other)
        m = self.ambient_dim
        zero = self.field.zero
        zeros = [zero] * m
        work = [list(r) + list(r) for r in self.rows]
        work += [list(r) + zeros for r in other.rows]
        rref_in_place(self.field, work)
        inter = [row[m:] for row in work if all(x == zero for x in row[:m])]
        return Subspace.span(self.field, m, inter)


def column_space(field: Field, n: int, mats) -> Subspace:
    """Span in K^n of all columns of the given n x n matrices."""
    return Subspace.span(field, n, [m.entries[j::n] for m in mats for j in range(n)])

