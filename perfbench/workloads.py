"""The benchmark's workloads: rounds of CLI requests generated from a seed.

A workload is a fixed list of slots.  One round asks each slot for one
request, so every round has the same mix of request kinds and sizes.  A slot
that takes several types (or enumerate sizes) takes them in turn, the same in
every run, and the seed only picks the variant inside a type (block ids,
conjugators); so every run of a workload asks for the same mix of costs.  Round r of a workload depends only on (workload, seed, r).  A
run uses the first ROUNDS rounds, whatever the speed of the program, so every
run of a workload measures the same number of requests of the same classes.

No two requests of those rounds share an echelon form, and no two enumerate
requests share (n, q): a cache kept across requests would see no repeat, as
a user running one CLI call per process never does.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import algebras
import exact

P = 101
BUDGET = 10 ** 7
ROUNDS = 4
_TRIES = 400


@dataclass
class Request:
    """One CLI call: argv with document placeholders, the documents, and what to expect."""

    kind: str
    doc_class: str
    argv: list
    docs: dict
    expect: dict
    inputs: dict = field(default_factory=dict)  # document name -> (p, basis) for the checks


def _field_desc(p):
    return {"kind": "prime", "p": p} if p else {"kind": "rational"}


def document(basis: list, p) -> dict:
    return {"field": _field_desc(p), "n": len(basis[0]),
            "basis": [exact.grid(m, p) for m in basis]}


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def _dense_rational(rng, n):
    while True:
        x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if exact.inverse(x, None) is not None:
            return x


def _invertible_mod(rng, n, p):
    while True:
        x = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if exact.inverse(x, p) is not None:
            return x


def _random_blocks(rng, parts, scalar_at=None):
    return [("scalar",) if i == scalar_at else ("canonical", rng.choice(algebras.admissible_k(s)))
            for i, s in enumerate(parts)]


def _fresh(seen: set, draw):
    """Call draw() until its keys are distinct and new to the run; None if the slot ran dry.

    draw() returns (keys, *item); the keys of a document are its echelon form.
    """
    for _ in range(_TRIES):
        keys, *item = draw()
        if len(set(keys)) == len(keys) and seen.isdisjoint(keys):
            seen.update(keys)
            return item
    return None


def _analyze_slot(name, variants, dense, p=None):
    """analyze of one algebra class, (basis, facts) = variants(rng, turn), under a random
    conjugation; turn counts the slot's requests."""
    turns = itertools.count()

    def slot(seen, rng):
        turn = next(turns)

        def draw():
            basis, facts = variants(rng, turn)
            n = len(basis[0])
            x = _dense_rational(rng, n) if dense else _permutation(rng, n)
            moved = exact.conjugate(basis, x, p)
            return (exact.span_key(moved, p),), moved, facts
        item = _fresh(seen, draw)
        if item is None:
            return None
        moved, facts = item
        return Request("analyze", name, ["analyze", "{a}"], {"a": document(moved, p)},
                       {"facts": facts}, {"a": (p, moved)})
    return slot


def _block_type_variant(types, scalar=False, full=False):
    def variants(rng, turn):
        parts = types[turn % len(types)]
        if full:
            blocks = [("full",)] * len(parts)
        elif scalar:
            big = [i for i, s in enumerate(parts) if s > 1]
            blocks = _random_blocks(rng, parts, scalar_at=rng.choice(big))
        else:
            blocks = _random_blocks(rng, parts)
        return algebras.block_type_basis(parts, blocks), algebras.analyze_facts(parts, blocks)
    return variants


def _m2_variant(rng, turn):
    return algebras.m2_dual_numbers_basis(), algebras.M2_DUAL_FACTS


def _q_slots(dense):
    bt = _block_type_variant
    full = _analyze_slot("not-dq-full-type", bt([(2, 2), (1, 2, 1), (2, 1, 1), (1, 1, 2)], full=True),
                         dense)
    # One n = 5 request per round is the slowest class and the two full-type requests
    # (each full type twice in four rounds) are the next, so over ROUNDS = 4 rounds the
    # 11th-largest latency is a full-type one.
    return [
        _analyze_slot("max-n3", bt([(1, 2), (2, 1), (1, 1, 1)]), dense),
        _analyze_slot("max-n4-q2", bt([(1, 3), (3, 1), (2, 2)]), dense),
        full,
        _analyze_slot("max-n4-q3", bt([(1, 1, 2), (1, 2, 1), (2, 1, 1)]), dense),
        _analyze_slot("max-n5", bt([(1, 4), (4, 1)]), dense),
        _analyze_slot("nonmax-scalar-block",
                      bt([(2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1), (1, 3)], scalar=True),
                      dense),
        # M_4 has 12 permutation conjugates of the dual-number algebra, enough for ROUNDS
        _analyze_slot("not-dq-m2-dual-numbers", _m2_variant, dense),
        full,
    ]


def _max_dim_slot(n, q):
    """The maximum-dimension D_q algebra of M_n; for q = 1 a canonical C^k_n with random k."""
    parts = algebras.balanced_parts(n, q)

    def variants(rng, turn):
        blocks = _random_blocks(rng, parts) if q == 1 else [("canonical", 1)] * q
        return algebras.block_type_basis(parts, blocks), algebras.analyze_facts(parts, blocks)
    return _analyze_slot(f"max-dim-{n}-{q}", variants, dense=False, p=P)


def _classify_slot(types, isomorphic):
    """Two literal block-type algebras whose diagonal blocks are conjugated canonical blocks."""
    turns = itertools.count()

    def slot(seen, rng):
        parts = types[next(turns) % len(types)]

        def draw():
            ks_a = [rng.choice(algebras.admissible_k(s)) for s in parts]
            ks_b = list(ks_a)
            if not isomorphic:
                # same type with one block id changed, so that the verdict needs the
                # block recognition and costs about what an isomorphic pair costs
                choices = [i for i, s in enumerate(parts) if len(algebras.admissible_k(s)) > 1]
                i = rng.choice(choices)
                ks_b[i] = rng.choice([k for k in algebras.admissible_k(parts[i]) if k != ks_a[i]])
            bases = []
            for ks in (ks_a, ks_b):
                blocks = [algebras.canonical_block(s, k) for s, k in zip(parts, ks)]
                moved = [exact.conjugate(b, _invertible_mod(rng, len(b[0]), P), P) for b in blocks]
                bases.append(algebras.block_type_basis(parts, None, moved))
            return tuple(exact.span_key(b, P) for b in bases), bases, parts, ks_a
        item = _fresh(seen, draw)
        if item is None:
            return None
        bases, parts, ks_a = item
        expect = {"isomorphic": isomorphic,
                  "block_ids": [[s, k] for s, k in zip(parts, ks_a)]}
        name = "classify-iso" if isomorphic else "classify-non-iso"
        return Request("classify", name, ["classify", "{a}", "{b}"],
                       {"a": document(bases[0], P), "b": document(bases[1], P)}, expect,
                       {"a": (P, bases[0]), "b": (P, bases[1])})
    return slot


def _enumerate_slot(name, sizes):
    """enumerate of the next (n, q) of sizes, one per round."""
    def slot(seen, rng):
        fresh = [c for c in sizes if ("enumerate",) + c not in seen]
        if not fresh:
            return None
        n, q = fresh[0]
        seen.add(("enumerate", n, q))
        return Request("enumerate", name,
                       ["enumerate", "--n", str(n), "--q", str(q), "--ordered", "--count-classes"],
                       {}, {"n": n, "q": q})
    return slot


def _verify_slot(types, holds):
    """verify --brute-force at q = min_q (holds) or q = min_q - 1 (fails)."""
    turns = itertools.count()

    def slot(seen, rng):
        parts = types[next(turns) % len(types)]

        def draw():
            blocks = _random_blocks(rng, parts)
            basis = exact.conjugate(algebras.block_type_basis(parts, blocks),
                                    _permutation(rng, sum(parts)), P)
            return (exact.span_key(basis, P),), basis, len(parts)
        item = _fresh(seen, draw)
        if item is None:
            return None
        basis, min_q = item
        q = min_q if holds else min_q - 1
        expect = {"q": q, "min_q": min_q, "structural": holds, "brute_force": holds}
        return Request("verify", "verify-holds" if holds else "verify-fails",
                       ["verify", "{a}", "--q", str(q), "--brute-force", "--budget", str(BUDGET)],
                       {"a": document(basis, P)}, expect)
    return slot


def _mixed_slots():
    verify_types = [(2, 2), (1, 1, 2), (2, 3), (1, 2, 2), (3, 3)]
    # types of similar classify cost, so that the median request is not a coin toss
    # between cheap and dear pairs
    classify_types = [(1, 2, 3), (1, 3, 2), (3, 2, 1), (2, 2, 2), (3, 3)]
    # each of these slots comes twice a round and takes its types in turn over both
    iso, non_iso = _classify_slot(classify_types, True), _classify_slot(classify_types, False)
    holds, fails = _verify_slot(verify_types, True), _verify_slot(verify_types, False)
    return [
        _max_dim_slot(6, 3),
        iso,
        _enumerate_slot("enumerate-small", [(50, 3), (40, 4), (30, 5), (45, 4)]),
        holds,
        _max_dim_slot(7, 2),
        non_iso,
        _enumerate_slot("enumerate-q6", [(85, 6), (70, 6), (80, 6), (75, 6)]),
        fails,
        _max_dim_slot(8, 2),
        iso,
        _enumerate_slot("enumerate-q7", [(60, 7), (70, 7), (65, 7), (75, 7)]),
        holds,
        _max_dim_slot(9, 1),
        non_iso,
        # (83, 7) has the most partitions of these sizes, so it sets peak memory
        _enumerate_slot("enumerate-q8", [(83, 7), (72, 8), (80, 7), (70, 8)]),
        fails,
    ]


WORKLOADS = {
    "analyze-q-sparse": lambda: _q_slots(dense=False),
    "analyze-q-dense": lambda: _q_slots(dense=True),
    "mixed-gf101": _mixed_slots,
}


class Stream:
    """The rounds of one workload for one seed, generated on demand."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.slots = WORKLOADS[workload]()
        self.seen = set()

    def round(self, r: int) -> list:
        """The requests of round r; rounds must be asked for in order."""
        out = []
        for i, slot in enumerate(self.slots):
            rng = random.Random(f"{self.workload}:{self.seed}:{r}:{i}")
            req = slot(self.seen, rng)
            if req is None:
                raise RuntimeError(f"{self.workload}: slot {i} has no fresh document "
                                   f"for round {r}")
            out.append(req)
        return out
