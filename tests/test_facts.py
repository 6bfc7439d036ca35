"""Each structural fact is computed once per algebra and read back by every caller.

The golden files under tests/golden hold `dqmat analyze` stdout recorded
before the fact store existed, and `dqmat classify` stdout recorded before
classify read its block structure from the stored triangulation; reading
facts back must not change a byte.
"""

import contextlib
import io
import pathlib

import pytest

from dqmat import algebra
from dqmat.algebra import (
    IdealSpace,
    MatSubalgebra,
    commutator_ideal,
    conjugate_algebra,
    ideal_power,
    nilpotency_index,
    radical,
)
from dqmat.blocks import BlockType
from dqmat.cli import main
from dqmat.constructions import block_type_algebra, canonical_commutative, max_dim_example
from dqmat.errors import NotAnIdeal
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix, Subspace
from dqmat.serialize import algebra_to_document, dump_json
from dqmat.structure import block_triangulate, detect_type, is_maximal_dq, min_dq

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def upper_triangular_algebra(n):
    units = [Matrix.unit(QQ, n, i, j) for i in range(n) for j in range(i, n)]
    return MatSubalgebra.from_matrices(QQ, n, units)


def analyze_stdout(path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path)]) == 0
    return out.getvalue()


def test_max_dim_analyze_work_counts(tmp_path, monkeypatch):
    path = tmp_path / "max_dim_8_3.json"
    a = max_dim_example(GF(101), 8, 3)
    path.write_text(dump_json(algebra_to_document(a)))
    counts = {"products": 0, "ideals": 0, "gram_traces": 0}
    mul, trace, two_sided_ideal = Matrix.__mul__, Matrix.trace, algebra.two_sided_ideal

    def counting_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    def counting_trace(self):
        # only the radical takes traces; 8 x 8 ones belong to the algebra itself
        counts["gram_traces"] += self.nrows == 8
        return trace(self)

    def counting_ideal(parent, seed):
        counts["ideals"] += 1
        return two_sided_ideal(parent, seed)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(Matrix, "trace", counting_trace)
    monkeypatch.setattr(algebra, "two_sided_ideal", counting_ideal)
    stdout = analyze_stdout(path)
    assert counts["ideals"] == 1  # the commutator ideal, once
    assert counts["gram_traces"] == a.dim ** 2  # one Gram matrix: the radical, once
    assert counts["products"] <= 11_000
    assert stdout == (GOLDEN / "analyze_max_dim_8_3_gf101.json").read_text()


def test_m2_dual_numbers_analyze_matches_golden():
    stdout = analyze_stdout(ROOT / "data" / "m2_dual_numbers.json")
    assert stdout == (GOLDEN / "analyze_m2_dual_numbers.json").read_text()


def test_literal_classify_matches_golden(tmp_path):
    # two literal (2, 3) algebras whose blocks C^2_2 and C^4_3 are conjugated
    # inside their own M_2 and M_3, so the certificate is not the identity
    paths = []
    for name, x2, x3 in (("a", [[1, 1], [0, 2]], [[1, 0, 2], [0, 1, 1], [0, 0, 1]]),
                         ("b", [[2, 0], [1, 1]], [[1, 0, 0], [3, 1, 0], [1, -1, 2]])):
        blocks = [conjugate_algebra(canonical_commutative(QQ, (2, 2)), Matrix.from_rows(QQ, x2)),
                  conjugate_algebra(canonical_commutative(QQ, (3, 4)), Matrix.from_rows(QQ, x3))]
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(algebra_to_document(
            block_type_algebra(BlockType((2, 3)), blocks))))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify"] + paths) == 0
    assert out.getvalue() == (GOLDEN / "classify_q_pair.json").read_text()


def test_facts_are_read_back():
    a = max_dim_example(QQ, 5, 2)
    c = commutator_ideal(a)
    assert commutator_ideal(a) is c
    assert radical(a) is radical(a)
    assert is_maximal_dq(a)[1] is is_maximal_dq(a)[1]
    assert detect_type(a) is is_maximal_dq(a)[1].block_type
    assert min_dq(a) == nilpotency_index(c) == 2
    assert ideal_power(c, 2).is_zero() and ideal_power(c, 7).is_zero()
    assert ideal_power(c, 1) == c.space


def test_block_triangulate_checks_an_outside_ideal():
    u3 = upper_triangular_algebra(3)
    e11 = Matrix.unit(QQ, 3, 0, 0)
    not_ideal = IdealSpace(u3, Subspace.span(QQ, 9, [e11.entries]))
    with pytest.raises(NotAnIdeal):
        block_triangulate(u3, not_ideal)
    # an ideal of an equal but distinct parent, and a hand-built one, are checked against u3
    strict = commutator_ideal(upper_triangular_algebra(3))
    assert block_triangulate(u3, strict).block_type.parts == (1, 1, 1)
    assert block_triangulate(u3, IdealSpace(u3, strict.space)).block_type.parts == (1, 1, 1)
