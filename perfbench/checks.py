"""Output checks, run outside the timed interval and without importing dqmat.

Each check takes a Request and the program's exit code and stdout, and
returns None when the answer is right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from collections import Counter
from math import factorial

import algebras
import exact


def check(req, rc, text):
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    return _CHECKS[req.kind](req, out)


def _conjugator_problem(out_grid, p, basis, parts):
    if out_grid is None:
        return "no conjugator"
    x = exact.parse_grid(out_grid, p)
    if exact.inverse(x, p) is None:
        return "conjugator is singular"
    for b in exact.conjugate(basis, x, p):
        if not exact.block_upper(b, parts):
            return f"conjugator does not make the algebra block upper of type {parts}"
    return None


def _check_analyze(req, out):
    facts = req.expect["facts"]
    for key, want in facts.items():
        if out.get(key) != want:
            return f"{key} is {out.get(key)!r}, expected {want!r}"
    p, basis = req.inputs["a"]
    if out.get("n") != len(basis[0]):
        return "wrong n"
    if facts["min_q"] == 1:
        return None if out.get("conjugator") is None else "conjugator for a commutative algebra"
    return _conjugator_problem(out.get("conjugator"), p, basis, facts["type"])


def _check_classify(req, out):
    want = req.expect
    if out.get("isomorphic") is not want["isomorphic"]:
        return f"isomorphic is {out.get('isomorphic')!r}, expected {want['isomorphic']!r}"
    cert = out.get("certificate")
    if not want["isomorphic"]:
        return None if cert is None else "certificate for non-isomorphic algebras"
    if cert is None or cert.get("block_ids") != want["block_ids"]:
        return "missing certificate or wrong block ids"
    if cert.get("conjugator") is None:
        # the blocks are conjugates of canonical blocks over GF(p), so one exists
        return "certificate without a conjugator"
    p, a = req.inputs["a"]
    _, b = req.inputs["b"]
    x = exact.parse_grid(cert["conjugator"], p)
    if exact.inverse(x, p) is None:
        return "certificate conjugator is singular"
    if exact.span_key(exact.conjugate(a, x, p), p) != exact.span_key(b, p):
        return "certificate does not conjugate the first algebra onto the second"
    return None


def _check_enumerate(req, out):
    n, q = req.expect["n"], req.expect["q"]
    best = algebras.type_dimension(algebras.balanced_parts(n, q))
    if out.get("n") != n or out.get("q") != q or out.get("max_dimension") != best:
        return f"max_dimension {out.get('max_dimension')} for ({n}, {q}), expected {best}"
    sorted_tuples = [tuple(t) for t in out["sorted_tuples"]]
    ordered = [tuple(t) for t in out["ordered_tuples"]]
    if algebras.balanced_parts(n, q) not in sorted_tuples:
        return "the balanced type is missing"
    for t in sorted_tuples + ordered:
        if sum(t) != n or len(t) != q or algebras.type_dimension(t) != best:
            return f"tuple {t} is not a maximum-dimension type for ({n}, {q})"
    counts = []
    for t in sorted_tuples:
        c = factorial(q)
        for m in Counter(t).values():
            c //= factorial(m)
        counts.append(c)
    if out["ordered_counts"] != counts or len(set(ordered)) != len(ordered) \
            or len(ordered) != sum(counts) or {tuple(sorted(t)) for t in ordered} != set(sorted_tuples):
        return "ordered tuples do not match the sorted tuples"
    classes = 0
    for t, c in zip(sorted_tuples, counts):
        per = 1
        for s in t:
            per *= len(algebras.admissible_k(s))
        classes += c * per
    if out.get("classes") != classes:
        return f"classes {out.get('classes')}, expected {classes}"
    return None


def _check_verify(req, out):
    for key, want in req.expect.items():
        if out.get(key) != want:
            return f"{key} is {out.get(key)!r}, expected {want!r}"
    return None


_CHECKS = {
    "analyze": _check_analyze,
    "classify": _check_classify,
    "enumerate": _check_enumerate,
    "verify": _check_verify,
}
