"""Exact matrix arithmetic over Q or GF(p), written independently of dqmat.

The benchmark builds its documents and checks the program's answers with this
module only, so no verdict depends on the code under test.  A field is named
by `p`: None for the rationals, a prime for GF(p).  A matrix is a list of row
lists; rational entries are ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def unit(n: int, i: int, j: int) -> list:
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def add(a: list, b: list, p) -> list:
    out = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[x % p for x in row] for row in out] if p else out


def mul(a: list, b: list, p) -> list:
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[x % p for x in row] for row in out] if p else out


def _inv(x, p):
    return pow(x, p - 2, p) if p else 1 / Fraction(x)


def echelon(vectors, p) -> tuple:
    """The unique reduced row-echelon basis of the span of `vectors`."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return ()
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        s = _inv(rows[rank][c], p)
        prow = [x * s % p for x in rows[rank]] if p else [x * s for x in rows[rank]]
        rows[rank] = prow
        for i, row in enumerate(rows):
            f = row[c]
            if i != rank and f != 0:
                new = [x - f * y for x, y in zip(row, prow)]
                rows[i] = [x % p for x in new] if p else new
        rank += 1
        if rank == len(rows):
            break
    return tuple(tuple(row) for row in rows[:rank])


def inverse(x: list, p):
    """The inverse of a square matrix, or None when it is singular."""
    n = len(x)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(x)]
    red = echelon(aug, p)
    if len(red) < n or any(red[i][j] != (1 if i == j else 0)
                           for i in range(n) for j in range(n)):
        return None
    return [list(row[n:]) for row in red]


def conjugate(basis: list, x: list, p) -> list:
    """x^-1 b x for every b in basis; x must be invertible."""
    xinv = inverse(x, p)
    return [mul(mul(xinv, b, p), x, p) for b in basis]


def flat(m: list) -> tuple:
    return tuple(v for row in m for v in row)


def span_key(basis: list, p) -> tuple:
    """Canonical form of span(basis) in K^(n*n): equal keys mean equal subspaces."""
    return echelon([flat(m) for m in basis], p)


def block_upper(m: list, parts) -> bool:
    """True when every entry below the diagonal blocks of type `parts` is zero."""
    start = 0
    for size in parts:
        for i in range(start, start + size):
            if any(m[i][j] != 0 for j in range(start)):
                return False
        start += size
    return True


def scalar_text(x, p):
    """The document form of a scalar: "a" or "a/b" over Q, an int over GF(p)."""
    return x % p if p else str(Fraction(x))


def parse_scalar(x, p):
    return int(x) % p if p else Fraction(str(x))


def grid(m: list, p) -> list:
    return [[scalar_text(x, p) for x in row] for row in m]


def parse_grid(g, p) -> list:
    return [[parse_scalar(x, p) for x in row] for row in g]
