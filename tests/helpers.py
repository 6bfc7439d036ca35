"""Independent oracles and small utilities shared by the test modules.

Everything here deliberately avoids the library's Subspace/RREF machinery:
ranks come from a plain forward elimination, ideal saturation from raw
list-of-rows loops.  These are the second route of every dual-route check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial


# -- independent rank computation (forward elimination only, no RREF) ----------

def rank_oracle(rows, p=None):
    """Rank of a list of row vectors (ints/Fractions), via forward elimination.

    Over GF(p) pass the modulus; over Q leave p None and Fractions are used.
    """
    work = [[Fraction(x) for x in r] if p is None else [x % p for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pr = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c] != 0:
                if p is None:
                    f = work[i][c] / pr[c]
                    work[i] = [a - f * b for a, b in zip(work[i], pr)]
                else:
                    f = (work[i][c] * pow(pr[c], p - 2, p)) % p
                    work[i] = [(a - f * b) % p for a, b in zip(work[i], pr)]
        rank += 1
    return rank


def in_span_oracle(rows, vec, p=None):
    """Membership of vec in the row span, decided by a rank comparison."""
    rows = [list(r) for r in rows]
    return rank_oracle(rows + [list(vec)], p=p) == rank_oracle(rows, p=p)


# -- raw matrix helpers over plain nested lists --------------------------------

def mat_mul(a, b, p=None):
    n, m, l = len(a), len(b), len(b[0])
    assert len(a[0]) == m
    out = [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(l)] for i in range(n)]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def mat_sub(a, b, p=None):
    out = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def mat_comm(a, b, p=None):
    return mat_sub(mat_mul(a, b, p), mat_mul(b, a, p), p)


def flatten(m):
    return [x for row in m for x in row]


def is_zero_mat(m):
    return all(x == 0 for row in m for x in row)


def conjugates_onto(a_basis, b_basis, z, p=None):
    """Whether z^-1 span(a_basis) z = span(b_basis), for basis matrices as nested lists.

    Checked without an inverse: z is invertible and span(a z) = span(z b).
    """
    left = [flatten(mat_mul(m, z, p)) for m in a_basis]
    right = [flatten(mat_mul(z, m, p)) for m in b_basis]
    rank = rank_oracle(left, p=p)
    return rank_oracle(z, p=p) == len(z) and \
        rank == rank_oracle(right, p=p) == rank_oracle(left + right, p=p)


def span_basis_oracle(vectors, p=None):
    """A maximal independent subset of the given vectors (greedy, rank-based)."""
    basis = []
    for v in vectors:
        if any(x != 0 for x in v) and not (basis and in_span_oracle(basis, v, p=p)):
            if not basis and any(x != 0 for x in v):
                basis.append(list(v))
            elif basis:
                basis.append(list(v))
    return basis


class EliminationAccumulator:
    """Incremental forward elimination for independence testing.

    Keeps one reduced row per pivot position; add() reduces the incoming
    vector against them and reports whether anything survived.  Deliberately
    not the library's canonical RREF (no back substitution, no sorting).
    """

    def __init__(self, p=None):
        self.p = p
        self.rows = {}

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec] if self.p is None else [x % self.p for x in vec]
        for pos in sorted(self.rows):
            if v[pos] != 0:
                row = self.rows[pos]
                if self.p is None:
                    f = v[pos] / row[pos]
                    v = [a - f * b for a, b in zip(v, row)]
                else:
                    f = (v[pos] * pow(row[pos], self.p - 2, self.p)) % self.p
                    v = [(a - f * b) % self.p for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self._reduce(vec)
        for pos, x in enumerate(v):
            if x != 0:
                self.rows[pos] = v
                return True
        return False

    def contains(self, vec):
        return all(x == 0 for x in self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)


def commutator_ideal_oracle(basis_mats, p=None):
    """Independent generating set of the two-sided ideal of all commutators.

    Worklist saturation on raw nested lists: seed with every pairwise
    commutator, keep a matrix when it adds rank, and push its products with
    the algebra basis on both sides.
    """
    acc = EliminationAccumulator(p)
    work = []
    for a in basis_mats:
        for b in basis_mats:
            c = mat_comm(a, b, p)
            if not is_zero_mat(c):
                work.append(c)
    kept = []
    while work:
        m = work.pop()
        if not acc.add(flatten(m)):
            continue
        kept.append(m)
        for a in basis_mats:
            for prod in (mat_mul(a, m, p), mat_mul(m, a, p)):
                if not is_zero_mat(prod):
                    work.append(prod)
    return kept


def _prune_independent(mats, p=None):
    acc = EliminationAccumulator(p)
    out = []
    for m in mats:
        if not is_zero_mat(m) and acc.add(flatten(m)):
            out.append(m)
    return out


def nilpotency_index_oracle(ideal_mats, n, p=None, max_steps=None):
    """Least q with (span of ideal_mats)^q = 0, or None if the powers stabilize.

    Powers are computed on raw lists with rank-pruned bases.  Written before
    and independently of the library's nilpotency routine.
    """
    if not ideal_mats:
        return 1
    max_steps = max_steps if max_steps is not None else n * n + 1
    power = _prune_independent(ideal_mats, p)
    q = 1
    while q <= max_steps:
        if not power:
            return q
        nxt = _prune_independent(
            [mat_mul(x, y, p) for x in power for y in ideal_mats], p)
        if len(nxt) == len(power):
            acc = EliminationAccumulator(p)
            for m in power:
                acc.add(flatten(m))
            if all(acc.contains(flatten(m)) for m in nxt):
                return None
        power = nxt
        q += 1
    return None


# -- combinatorial oracles ------------------------------------------------------

def compositions(n, q):
    """All ordered tuples of q positive integers summing to n."""
    if q == 1:
        yield (n,)
        return
    for first in range(1, n - q + 2):
        for rest in compositions(n - first, q - 1):
            yield (first,) + rest


def partitions_into(n, q, minimum=1):
    """All nondecreasing tuples of q integers >= minimum summing to n."""
    if q == 1:
        if n >= minimum:
            yield (n,)
        return
    for first in range(minimum, n // q + 1):
        for rest in partitions_into(n - first, q - 1, first):
            yield (first,) + rest


def pair_condition_holds(parts):
    """|n_i - n_j| is 0 or 2 when both parts are even, otherwise 0 or 1."""
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            allowed = (0, 2) if a % 2 == 0 and b % 2 == 0 else (0, 1)
            if abs(a - b) not in allowed:
                return False
    return True


def multiset_permutation_count(tup):
    counts = {}
    for x in tup:
        counts[x] = counts.get(x, 0) + 1
    total = factorial(len(tup))
    for c in counts.values():
        total //= factorial(c)
    return total


def staircase_rows(parts, i, n):
    """Flat K^(n*n) indicator vectors spanning the i-th power staircase.

    Block (j, l) is full exactly when l >= j + i (1-indexed blocks); this is
    the expected shape of the i-th power of the commutator ideal of a
    block-type algebra with maximal commutative diagonal blocks.
    """
    offs = [0]
    for pp in parts:
        offs.append(offs[-1] + pp)
    rows = []
    qq = len(parts)
    for bj in range(qq):
        for bl in range(qq):
            if bl >= bj + i:
                for r in range(offs[bj], offs[bj + 1]):
                    for c in range(offs[bl], offs[bl + 1]):
                        v = [0] * (n * n)
                        v[r * n + c] = 1
                        rows.append(v)
    return rows


# -- random generators -----------------------------------------------------------

def random_invertible_rows(rng: random.Random, n, p):
    """Entries of a random invertible n x n matrix over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_oracle(rows, p=p) == n:
            return rows


def random_upper_invertible_rows(rng: random.Random, n, p):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(1, p)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(p)
    return rows
