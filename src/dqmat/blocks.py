"""Block shapes (n_1, ..., n_q) and helpers for block triangular matrices."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import InvalidInput
from .fields import Field
from .linalg import Matrix


@dataclass(frozen=True)
class BlockType:
    """The tuple (n_1, ..., n_q) of diagonal block sizes."""

    parts: tuple

    def __post_init__(self):
        if not self.parts or any(int(p) < 1 for p in self.parts):
            raise InvalidInput(f"block sizes must be positive integers, got {self.parts}")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @property
    def q(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def offsets(self) -> tuple:
        """(0, n_1, n_1 + n_2, ..., n): start index of each block plus the final n."""
        return (0,) + tuple(accumulate(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"BlockType{self.parts}"


def submatrix(m: Matrix, bt: BlockType, bi: int, bj: int) -> Matrix:
    """The (bi, bj) block of m with respect to bt (0-based block indices)."""
    offs = bt.offsets
    r0, r1 = offs[bi], offs[bi + 1]
    c0, c1 = offs[bj], offs[bj + 1]
    rows = [[m[i, j] for j in range(c0, c1)] for i in range(r0, r1)]
    return Matrix.from_rows(m.field, rows)


def embed_block(field: Field, bt: BlockType, bi: int, bj: int, block: Matrix) -> Matrix:
    """Place `block` at block position (bi, bj) of an n x n matrix, zeros elsewhere."""
    n = bt.n
    offs = bt.offsets
    ent = [field.zero] * (n * n)
    for i in range(block.nrows):
        for j in range(block.ncols):
            ent[(offs[bi] + i) * n + offs[bj] + j] = block[i, j]
    return Matrix(field, n, n, tuple(ent))


def is_block_upper(m: Matrix, bt: BlockType) -> bool:
    """True when every entry strictly below the block diagonal vanishes."""
    zero = m.field.zero
    n = bt.n
    offs = bt.offsets
    for b in range(bt.q):
        for i in range(offs[b], offs[b + 1]):
            if any(x != zero for x in m.entries[i * n:i * n + offs[b]]):
                return False
    return True


def diagonal_blocks_vanish(m: Matrix, bt: BlockType) -> bool:
    """True when every diagonal block of m is zero (strictly block upper part only)."""
    zero = m.field.zero
    n = bt.n
    offs = bt.offsets
    for b in range(bt.q):
        for i in range(offs[b], offs[b + 1]):
            for j in range(offs[b], offs[b + 1]):
                if m.entries[i * n + j] != zero:
                    return False
    return True
