"""Algebras the benchmark feeds to dqmat, with the facts their construction fixes.

Every algebra here is block upper triangular of a type (n_1, ..., n_q): the
diagonal blocks are given and every block above the diagonal is full.  A
block is one of

* ("canonical", k): the maximum-dimension commutative algebra C^k_{n_i};
* ("scalar",): K * I, commutative but not maximal for n_i >= 2;
* ("full",): all of M_{n_i}.

From such a description the dimension, the minimal q, the type, maximality,
the canonical block ids and the auxiliary invariants reported by `analyze`
follow by hand; `analyze_facts` writes them down.  The derivation is in
perfbench/README.md.  The dual-number algebra M_2(K[x]/x^2) inside M_4 has
its facts given as a table.
"""

from __future__ import annotations

import exact


def admissible_k(n: int) -> list:
    if n == 1:
        return [1]
    if n == 2:
        return [1, 2]
    if n == 3:
        return [1, 2, 3, 4, 5]
    return [1] if n % 2 == 0 else [1, 2]


def _corner(n: int, r: int) -> list:
    # K*I plus the full upper-right r x (n - r) corner
    return [exact.identity(n)] + [exact.unit(n, i, j) for i in range(r) for j in range(r, n)]


def canonical_block(n: int, k: int) -> list:
    """Basis of C^k_n, with entries 0 and 1."""
    e = exact.unit
    if n == 1:
        return [exact.identity(1)]
    if n == 2:
        return _corner(2, 1) if k == 1 else [e(2, 0, 0), e(2, 1, 1)]
    if n == 3:
        if k in (1, 2):
            return _corner(3, k)
        if k == 3:
            return [exact.identity(3), exact.add(e(3, 0, 1), e(3, 1, 2), None), e(3, 0, 2)]
        if k == 4:
            return [exact.add(e(3, 0, 0), e(3, 1, 1), None), e(3, 2, 2), e(3, 0, 1)]
        return [e(3, i, i) for i in range(3)]
    return _corner(n, n // 2 if k == 1 else n // 2 + 1)


def _block_facts(n: int, block: tuple) -> tuple:
    """(dim, dim of the radical, dim of rad*K^n, dim of K^n*rad) of one diagonal block."""
    if block[0] == "scalar":
        return 1, 0, 0, 0
    if block[0] == "full":
        return n * n, 0, 0, 0
    k = block[1]
    if n == 1 or (n, k) in ((2, 2), (3, 5)):
        return n * n // 4 + 1, 0, 0, 0
    if (n, k) == (3, 3):
        return 3, 2, 2, 2
    if (n, k) == (3, 4):
        return 3, 1, 1, 1
    # corner algebras: the radical is the r x (n - r) corner
    r = k if n == 3 else (n // 2 if k == 1 else n // 2 + 1)
    return n * n // 4 + 1, r * (n - r), r, n - r


def _block_basis(n: int, block: tuple) -> list:
    if block[0] == "scalar":
        return [exact.identity(n)]
    if block[0] == "full":
        return [exact.unit(n, i, j) for i in range(n) for j in range(n)]
    return canonical_block(n, block[1])


def block_type_basis(parts, blocks, block_bases=None) -> list:
    """Basis of the block upper triangular algebra with the given diagonal blocks.

    `block_bases` overrides the basis placed in each diagonal block (used for
    conjugated blocks); it defaults to the described block itself.
    """
    n = sum(parts)
    offs = [sum(parts[:i]) for i in range(len(parts))]
    if block_bases is None:
        block_bases = [_block_basis(s, b) for s, b in zip(parts, blocks)]
    basis = []
    for off, size, bb in zip(offs, parts, block_bases):
        for m in bb:
            big = [[0] * n for _ in range(n)]
            for i in range(size):
                for j in range(size):
                    big[off + i][off + j] = m[i][j]
            basis.append(big)
    for bi in range(len(parts)):
        for bj in range(bi + 1, len(parts)):
            for i in range(parts[bi]):
                for j in range(parts[bj]):
                    basis.append(exact.unit(n, offs[bi] + i, offs[bj] + j))
    return basis


def m2_dual_numbers_basis() -> list:
    # each dual number a + b*x is the 2x2 block [[a, b], [0, a]]
    e = exact.unit
    basis = []
    for i in range(2):
        for j in range(2):
            basis.append(exact.add(e(4, 2 * i, 2 * j), e(4, 2 * i + 1, 2 * j + 1), None))
            basis.append(e(4, 2 * i, 2 * j + 1))
    return basis


# The radical is x*M_2 and the commutator ideal all of M_2(K[x]/x^2); the
# triangulation along the radical gives type (2, 2).
_M2_INVARIANTS = {
    "dim_radical": 4, "dim_commutator_ideal": 8,
    "dim_radical_times_commutator": 4, "dim_commutator_times_radical": 4,
    "dim_commutator_power_times_radical": None,
}
M2_DUAL_FACTS = {
    "dim": 8, "commutative": False, "min_q": "not-Dq", "type": [2, 2],
    "type_caveat": "triangulated-along-radical", "maximal": False, "block_ids": None,
    "invariants": _M2_INVARIANTS,
}


def analyze_facts(parts, blocks) -> dict:
    """The conjugation-invariant fields of `analyze` for a block-type algebra."""
    q = len(parts)
    facts = [_block_facts(s, b) for s, b in zip(parts, blocks)]
    if q == 1:
        # a single canonical block: a maximum-dimension commutative algebra
        dim, rad = facts[0][:2]
        return {
            "dim": dim, "commutative": True, "min_q": 1, "type": list(parts),
            "type_caveat": None, "maximal": None, "block_ids": None,
            "invariants": {
                "dim_radical": rad, "dim_commutator_ideal": 0,
                "dim_radical_times_commutator": 0, "dim_commutator_times_radical": 0,
                "dim_commutator_power_times_radical": rad,
            },
        }
    off_diag = sum(parts[i] * parts[j] for i in range(q) for j in range(i + 1, q))
    far = sum(parts[i] * parts[j] for i in range(q) for j in range(i + 2, q))
    dim = sum(f[0] for f in facts) + off_diag
    if any(b[0] == "full" and s > 1 for s, b in zip(parts, blocks)):
        # not D_q: the full blocks lie in the commutator ideal
        full = [b[0] == "full" and s > 1 for s, b in zip(parts, blocks)]
        comm = off_diag + sum(s * s for s, f in zip(parts, full) if f)
        jc = far + sum(parts[i] * parts[i + 1] for i in range(q - 1) if full[i + 1])
        cj = far + sum(parts[i] * parts[i + 1] for i in range(q - 1) if full[i])
        return {
            "dim": dim, "commutative": False, "min_q": "not-Dq", "type": list(parts),
            "type_caveat": "triangulated-along-radical", "maximal": False, "block_ids": None,
            "invariants": {
                "dim_radical": off_diag, "dim_commutator_ideal": comm,
                "dim_radical_times_commutator": jc, "dim_commutator_times_radical": cj,
                "dim_commutator_power_times_radical": None,
            },
        }
    maximal = all(b[0] == "canonical" or s == 1 for s, b in zip(parts, blocks))
    # the commutator ideal is the strictly block upper part U; the radical adds
    # the radicals of the diagonal blocks
    jc = far + sum(facts[i][2] * parts[i + 1] for i in range(q - 1))
    cj = far + sum(parts[i] * facts[i + 1][3] for i in range(q - 1))
    return {
        "dim": dim, "commutative": False, "min_q": q, "type": list(parts),
        "type_caveat": None if maximal else "canonical-only-under-maximality",
        "maximal": maximal,
        "block_ids": [[s, b[1] if b[0] == "canonical" else 1] for s, b in zip(parts, blocks)]
        if maximal else None,
        "invariants": {
            "dim_radical": off_diag + sum(f[1] for f in facts),
            "dim_commutator_ideal": off_diag,
            "dim_radical_times_commutator": jc,
            "dim_commutator_times_radical": cj,
            "dim_commutator_power_times_radical": parts[0] * facts[-1][3],
        },
    }


def type_dimension(parts) -> int:
    q = len(parts)
    return (q + sum(s * s // 4 for s in parts)
            + sum(parts[i] * parts[j] for i in range(q) for j in range(i + 1, q)))


def balanced_parts(n: int, q: int) -> tuple:
    f, r = divmod(n, q)
    return (f,) * (q - r) + (f + 1,) * r
