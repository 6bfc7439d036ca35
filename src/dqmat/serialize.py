"""JSON interchange for algebras, matrices, and analysis reports.

Scalars travel in their canonical text forms ("a/b" strings over Q, plain
integers over GF(p)); field descriptors are {"kind": "rational"} or
{"kind": "prime", "p": 101}.  Document dictionaries keep a fixed key order so
serialized output is bit-stable.
"""

from __future__ import annotations

import json

from .algebra import MatSubalgebra
from .errors import ClosureViolation, InvalidInput
from .fields import GF, QQ, Field
from .linalg import Matrix


def field_to_descriptor(field: Field) -> dict:
    if field.is_prime_field:
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational"}


def field_from_descriptor(desc) -> Field:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InvalidInput("field descriptor must be an object with a 'kind'")
    if desc["kind"] == "rational":
        return QQ
    if desc["kind"] == "prime":
        if "p" not in desc:
            raise InvalidInput("prime field descriptor needs a modulus 'p'")
        return GF(int(desc["p"]))
    raise InvalidInput(f"unknown field kind {desc['kind']!r}")


def parse_field_text(text: str) -> Field:
    """CLI shorthand: 'rational' (or 'q'), or 'prime:P' (or 'gfP')."""
    t = text.strip().lower()
    if t in ("rational", "q", "qq"):
        return QQ
    if t.startswith("prime:"):
        return GF(int(t.split(":", 1)[1]))
    if t.startswith("gf"):
        return GF(int(t[2:]))
    raise InvalidInput(f"cannot parse field {text!r}; use 'rational' or 'prime:P'")


def matrix_to_grid(m: Matrix) -> list:
    fmt = m.field.format
    if m.field.is_prime_field:
        return [[x for x in m.row(i)] for i in range(m.nrows)]
    return [[fmt(x) for x in m.row(i)] for i in range(m.nrows)]


def matrix_from_grid(field: Field, grid, nrows=None, ncols=None) -> Matrix:
    if not grid or not all(isinstance(r, list) for r in grid):
        raise InvalidInput("matrix grid must be a non-empty list of rows")
    rows = [[field.parse(x) for x in r] for r in grid]
    m = Matrix.from_rows(field, rows)
    if nrows is not None and (m.nrows != nrows or m.ncols != ncols):
        raise InvalidInput(f"expected a {nrows}x{ncols} grid")
    return m


def algebra_to_document(a: MatSubalgebra, name: str | None = None) -> dict:
    doc = {
        "field": field_to_descriptor(a.field),
        "n": a.n,
        "basis": [matrix_to_grid(m) for m in a.basis],
    }
    if name:
        doc["metadata"] = {"name": name}
    return doc


def document_to_algebra(doc) -> MatSubalgebra:
    """Parse an AlgebraDocument; reports ClosureViolation with the offending product."""
    for key in ("field", "n", "basis"):
        if key not in doc:
            raise InvalidInput(f"algebra document is missing {key!r}")
    field = field_from_descriptor(doc["field"])
    n = int(doc["n"])
    if n < 1:
        raise InvalidInput("n must be positive")
    mats = [matrix_from_grid(field, grid, n, n) for grid in doc["basis"]]
    if not mats:
        raise InvalidInput("algebra document has an empty basis")
    try:
        return MatSubalgebra.from_matrices(field, n, mats, check=True)
    except ClosureViolation as exc:
        raise ClosureViolation(f"document basis is not multiplicatively closed: {exc}") from exc


def matrix_to_document(m: Matrix) -> dict:
    return {"field": field_to_descriptor(m.field), "matrix": matrix_to_grid(m)}


def document_to_matrix(doc) -> Matrix:
    for key in ("field", "matrix"):
        if key not in doc:
            raise InvalidInput(f"matrix document is missing {key!r}")
    field = field_from_descriptor(doc["field"])
    return matrix_from_grid(field, doc["matrix"])


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

