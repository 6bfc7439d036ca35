"""Command-line surface: construct, analyze, enumerate, classify, verify, conjugate.

Results are JSON on stdout.  Exit status 0 on success, 1 on a domain error
(with a machine-readable error object), 2 on I/O or parse errors.  The
brute-force budget can be overridden with --budget or the DQMAT_BRUTE_BUDGET
environment variable; the same budget bounds the parts plain `enumerate`
writes (types times q) and the tuples `enumerate --ordered` expands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import conjugate_algebra, is_commutative, radical
from .blocks import BlockType
from .classify import (
    count_iso_classes,
    enumerate_max_types,
    is_isomorphic_maxdim,
    iso_invariants,
)
from .constructions import (
    EXAMPLE_NAMES,
    block_type_algebra,
    canonical_commutative,
    named_example,
)
from .errors import BudgetExceeded, DqmatError, InvalidInput, UnsupportedCharacteristic
from .serialize import (
    algebra_to_document,
    document_to_algebra,
    document_to_matrix,
    dump_json,
    load_json_file,
    matrix_to_grid,
    parse_field_text,
)
from .structure import (
    DEFAULT_BRUTE_BUDGET,
    block_triangulate,
    check_dq_bruteforce,
    is_maximal_dq,
    min_dq,
)


class _ParseFailure(Exception):
    """I/O or document-parse problem: exit status 2."""


def _load_algebra(path: str):
    try:
        doc = load_json_file(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read algebra document {path!r}: {exc}") from exc
    try:
        return document_to_algebra(doc)
    except (InvalidInput, ValueError, TypeError) as exc:
        raise _ParseFailure(f"bad algebra document {path!r}: {exc}") from exc


def _load_matrix(path: str):
    try:
        doc = load_json_file(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read matrix document {path!r}: {exc}") from exc
    try:
        return document_to_matrix(doc)
    except (InvalidInput, ValueError, TypeError) as exc:
        raise _ParseFailure(f"bad matrix document {path!r}: {exc}") from exc


def _emit(doc: dict, out_path: str | None):
    text = dump_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_budget() -> int:
    try:
        return int(os.environ.get("DQMAT_BRUTE_BUDGET", DEFAULT_BRUTE_BUDGET))
    except ValueError as exc:
        raise _ParseFailure(f"bad DQMAT_BRUTE_BUDGET: {exc}") from exc


def _int_token(option: str, token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise _ParseFailure(f"bad {option} entry {token!r}: not an integer") from exc


def _cmd_construct(args) -> dict:
    try:
        field = parse_field_text(args.field)
    except ValueError as exc:
        raise _ParseFailure(f"bad --field {args.field!r}: {exc}") from exc
    if args.example:
        a = named_example(field, args.example)
        return algebra_to_document(a, name=args.example)
    if not args.type or not args.blocks:
        raise InvalidInput("construct needs --type and --blocks (or --example)")
    parts = tuple(_int_token("--type", x) for x in args.type.split(","))
    tokens = args.blocks.split(",")
    if len(tokens) != len(parts):
        raise InvalidInput(f"{len(parts)} blocks expected, got {len(tokens)}")
    blocks = []
    for part, token in zip(parts, tokens):
        if token.strip().lstrip("-").isdigit():
            blocks.append(canonical_commutative(field, (part, _int_token("--blocks", token))))
        else:
            block = _load_algebra(token.strip())
            if block.n != part or block.field != field:
                raise InvalidInput(f"block document {token!r} does not fit size {part}")
            blocks.append(block)
    if len(parts) == 1:
        a = blocks[0]
    else:
        a = block_type_algebra(BlockType(parts), blocks)
    name = f"type-{'-'.join(map(str, parts))}"
    return algebra_to_document(a, name=name)


def _cmd_analyze(args) -> dict:
    a = _load_algebra(args.algebra)
    q = min_dq(a)
    report = {
        "field": algebra_to_document(a)["field"],
        "n": a.n,
        "dim": a.dim,
        "commutative": is_commutative(a),
        "min_q": q if q is not None else "not-Dq",
    }
    maximal = None
    conjugator = None
    block_type = None
    type_note = None
    if q == 1:
        block_type = [a.n]
    elif q is not None:
        maximal, witness, _ = is_maximal_dq(a)
        block_type = list(witness.block_type.parts)
        conjugator = matrix_to_grid(witness.conjugator)
        if not maximal:
            type_note = "canonical-only-under-maximality"
    else:
        # not D_q for any q: the commutator ideal is not nilpotent, but the
        # radical still block-triangulates the algebra when it is nonzero
        maximal = False
        try:
            rad = radical(a)
            if not rad.is_zero():
                tri = block_triangulate(a, rad)
                block_type = list(tri.block_type.parts)
                conjugator = matrix_to_grid(tri.conjugator)
                type_note = "triangulated-along-radical"
        except UnsupportedCharacteristic:
            pass
    report["type"] = block_type
    report["type_caveat"] = type_note
    report["maximal"] = maximal
    report["conjugator"] = conjugator
    try:
        vec = iso_invariants(a)
        report["block_ids"] = [list(t) for t in vec.block_ids] if vec.block_ids else None
        report["invariants"] = {
            "dim_radical": vec.dim_radical,
            "dim_commutator_ideal": vec.dim_commutator,
            "dim_radical_times_commutator": vec.dim_radical_commutator,
            "dim_commutator_times_radical": vec.dim_commutator_radical,
            "dim_commutator_power_times_radical": vec.dim_commutator_power_radical,
        }
    except UnsupportedCharacteristic as exc:
        report["block_ids"] = None
        report["invariants"] = None
        report["radical_unavailable"] = str(exc)
    report["field_caveat"] = True
    return report


def _cmd_enumerate(args) -> dict:
    # plain output is bounded in parts, the --ordered expansion in tuples
    budget = _default_budget()
    enum = enumerate_max_types(args.n, args.q, budget=None if args.ordered else budget)
    doc = {
        "n": enum.n,
        "q": enum.q,
        "r": enum.r,
        "base": enum.base,
        "max_dimension": enum.max_dimension,
        "sorted_tuples": [list(t) for t in enum.sorted_tuples],
        "parameters": [[name, value] for name, value in enum.parameters],
        "ordered_counts": list(enum.ordered_counts),
    }
    if args.ordered:
        if sum(enum.ordered_counts) > budget:
            raise BudgetExceeded(
                f"{sum(enum.ordered_counts)} ordered tuples exceed the budget {budget}")
        doc["ordered_tuples"] = [list(t) for t in enum.ordered_tuples()]
    if args.count_classes:
        doc["classes"] = count_iso_classes(args.n, args.q)
        doc["field_caveat"] = True
    return doc


def _cmd_classify(args) -> dict:
    a = _load_algebra(args.algebra_a)
    b = _load_algebra(args.algebra_b)
    verdict, cert = is_isomorphic_maxdim(a, b)
    doc = {"isomorphic": verdict, "field_caveat": True}
    if cert is not None:
        doc["certificate"] = {
            "block_ids": [list(t) for t in cert.block_ids],
            "conjugator": matrix_to_grid(cert.conjugator) if cert.conjugator else None,
        }
        if cert.note:
            doc["certificate"]["note"] = cert.note
    else:
        doc["certificate"] = None
    return doc


def _cmd_verify(args) -> dict:
    a = _load_algebra(args.algebra)
    if args.q < 1:
        raise InvalidInput("q must be >= 1")
    q = min_dq(a)
    structural = q is not None and q <= args.q
    doc = {
        "q": args.q,
        "min_q": q if q is not None else "not-Dq",
        "structural": structural,
        "brute_force": None,
    }
    if args.brute_force:
        budget = args.budget if args.budget else _default_budget()
        doc["brute_force"] = check_dq_bruteforce(a, args.q, budget=budget)
    return doc


def _cmd_conjugate(args) -> dict:
    a = _load_algebra(args.algebra)
    x = _load_matrix(args.by)
    conj = conjugate_algebra(a, x)
    return algebra_to_document(conj, name="conjugated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqmat",
        description="Exact toolkit for subalgebras of M_n(K) satisfying a "
                    "product-of-q-commutators identity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an algebra document")
    p.add_argument("--type", help="comma-separated block sizes, e.g. 2,3")
    p.add_argument("--blocks", help="per-block canonical k-indices or document paths")
    p.add_argument("--field", default="rational", help="rational (default) or prime:P")
    p.add_argument("--example", choices=EXAMPLE_NAMES, help="emit a named example instead")
    p.add_argument("-o", "--output", help="write the document here instead of stdout")

    p = sub.add_parser("analyze", help="full structural report for an algebra document")
    p.add_argument("algebra")
    p.add_argument("-o", "--output")

    p = sub.add_parser("enumerate", help="maximum-dimension types for (n, q); at most 10^6 "
                                         "or DQMAT_BRUTE_BUDGET parts without --ordered")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ordered", action="store_true",
                   help="expand ordered tuples (at most 10^6 or DQMAT_BRUTE_BUDGET)")
    p.add_argument("--count-classes", action="store_true",
                   help="include the isomorphism class count")
    p.add_argument("-o", "--output")

    p = sub.add_parser("classify", help="isomorphism verdict for two block-type algebras")
    p.add_argument("algebra_a")
    p.add_argument("algebra_b")
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="check the q-fold commutator identity")
    p.add_argument("algebra")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--budget", type=int, default=0,
                   help="tuple budget for --brute-force (default 10^6 or "
                        "DQMAT_BRUTE_BUDGET)")
    p.add_argument("-o", "--output")

    p = sub.add_parser("conjugate", help="conjugate an algebra by a matrix document")
    p.add_argument("algebra")
    p.add_argument("--by", required=True, help="matrix document with the conjugator")
    p.add_argument("-o", "--output")
    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "conjugate": _cmd_conjugate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _HANDLERS[args.command](args)
        _emit(doc, getattr(args, "output", None))
        return 0
    except _ParseFailure as exc:
        sys.stdout.write(dump_json({"error": {"code": "parse-error", "message": str(exc)}}))
        return 2
    except DqmatError as exc:
        sys.stdout.write(dump_json({"error": {"code": exc.code, "message": str(exc)}}))
        return 1
    except OSError as exc:
        sys.stdout.write(dump_json({"error": {"code": "io-error", "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
