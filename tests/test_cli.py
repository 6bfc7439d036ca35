"""JSON interchange and the command-line surface."""

import json
import time
from fractions import Fraction

import pytest

from dqmat.algebra import MatSubalgebra
from dqmat.cli import main
from dqmat.constructions import (
    block_type_algebra,
    canonical_commutative,
    max_dim_example,
    named_example,
)
from dqmat.blocks import BlockType
from dqmat.errors import ClosureViolation
from dqmat.fields import GF, QQ
from dqmat.linalg import Matrix
from dqmat.serialize import (
    algebra_to_document,
    document_to_algebra,
    document_to_matrix,
    dump_json,
    matrix_to_document,
)

from helpers import conjugates_onto


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.mark.parametrize("algebra", [
    canonical_commutative(QQ, (3, 3)),
    canonical_commutative(GF(101), (4, 1)),
    max_dim_example(QQ, 5, 2),
    named_example(GF(7), "m2-dual-numbers"),
])
def test_document_roundtrip(algebra):
    doc = algebra_to_document(algebra)
    back = document_to_algebra(json.loads(dump_json(doc)))
    assert back == algebra
    assert dump_json(algebra_to_document(back)) == dump_json(doc)


def test_document_roundtrip_rational_entries():
    a = MatSubalgebra.from_matrices(
        QQ, 2, [Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [["1/3", 0], [0, "1/3"]])],
        check=True)
    doc = algebra_to_document(a)
    assert document_to_algebra(doc) == a


def test_document_closure_violation():
    doc = {
        "field": {"kind": "rational"},
        "n": 3,
        "basis": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        ],
    }
    with pytest.raises(ClosureViolation):
        document_to_algebra(doc)


def test_matrix_document_roundtrip():
    m = Matrix.from_rows(GF(11), [[1, 4], [0, 10]])
    assert document_to_matrix(matrix_to_document(m)) == m


def test_cli_construct_analyze(tmp_path, capsys):
    out = tmp_path / "a.json"
    code, _ = run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,1",
                      "--field", "rational", "-o", str(out))
    assert code == 0
    code, report = run_cli(capsys, "analyze", str(out))
    assert code == 0
    assert report["dim"] == 11
    assert report["min_q"] == 2
    assert report["type"] == [2, 3]
    assert report["maximal"] is True
    assert report["block_ids"] == [[2, 1], [3, 1]]
    assert report["field_caveat"] is True


def test_cli_construct_single_block(tmp_path, capsys):
    out = tmp_path / "k.json"
    code, _ = run_cli(capsys, "construct", "--type", "1", "--blocks", "1", "-o", str(out))
    assert code == 0
    code, report = run_cli(capsys, "analyze", str(out))
    assert code == 0
    assert report["min_q"] == 1 and report["dim"] == 1


def test_cli_construct_block_from_document(tmp_path, capsys):
    # --blocks mixes canonical k-indices with paths to algebra documents
    from dqmat.algebra import conjugate_algebra

    scrambled = conjugate_algebra(canonical_commutative(QQ, (2, 1)),
                                  Matrix.from_rows(QQ, [[1, 2], [0, 1]]))
    block_path = tmp_path / "b.json"
    block_path.write_text(dump_json(algebra_to_document(scrambled)))
    out = tmp_path / "mixed.json"
    code, _ = run_cli(capsys, "construct", "--type", "1,2", "--blocks",
                      f"1,{block_path}", "-o", str(out))
    assert code == 0
    a = document_to_algebra(json.loads(out.read_text()))
    assert a.n == 3 and a.dim == 1 + 2 + 2


def test_cli_enumerate_count_classes(capsys):
    code, doc = run_cli(capsys, "enumerate", "--n", "5", "--q", "2", "--count-classes")
    assert code == 0
    assert doc["classes"] == 20
    assert doc["sorted_tuples"] == [[2, 3]]
    code, doc = run_cli(capsys, "enumerate", "--n", "6", "--q", "2", "--ordered")
    assert code == 0
    assert doc["ordered_tuples"] == [[3, 3], [2, 4], [4, 2]]


def test_cli_enumerate_ordered_budget(capsys, monkeypatch):
    # 1,787,607 ordered tuples exceed the default budget of 10^6
    code, doc = run_cli(capsys, "enumerate", "--n", "45", "--q", "15", "--ordered")
    assert code == 1
    assert doc["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("DQMAT_BRUTE_BUDGET", "2")
    code, doc = run_cli(capsys, "enumerate", "--n", "6", "--q", "2", "--ordered")
    assert code == 1
    assert doc["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("DQMAT_BRUTE_BUDGET", "3")
    code, doc = run_cli(capsys, "enumerate", "--n", "6", "--q", "2", "--ordered")
    assert code == 0
    assert len(doc["ordered_tuples"]) == 3


def test_cli_enumerate_output_budget(capsys, monkeypatch):
    # (5999, 2000) would write 1000 types of 2000 parts, over the default budget of 10^6
    monkeypatch.delenv("DQMAT_BRUTE_BUDGET", raising=False)
    start = time.perf_counter()
    code, doc = run_cli(capsys, "enumerate", "--n", "5999", "--q", "2000")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert doc["error"]["code"] == "budget-exceeded"
    code, doc = run_cli(capsys, "enumerate", "--n", "4000", "--q", "2000")
    assert code == 0
    assert doc["sorted_tuples"] == [[2] * 2000]


def test_cli_analyze_m2_dual_numbers(tmp_path, capsys):
    out = tmp_path / "m2.json"
    code, _ = run_cli(capsys, "construct", "--example", "m2-dual-numbers", "-o", str(out))
    assert code == 0
    code, report = run_cli(capsys, "analyze", str(out))
    assert code == 0
    assert report["min_q"] == "not-Dq"
    assert report["type"] == [2, 2]
    permutation = [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                   ["0", "1", "0", "0"], ["0", "0", "0", "1"]]
    assert report["conjugator"] == permutation


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "a.json"
    run_cli(capsys, "construct", "--type", "1,1", "--blocks", "1,1", "-o", str(out))
    code, doc = run_cli(capsys, "verify", str(out), "--q", "2", "--brute-force")
    assert code == 0
    assert doc["structural"] is True and doc["brute_force"] is True
    code, doc = run_cli(capsys, "verify", str(out), "--q", "1", "--brute-force")
    assert code == 0
    assert doc["structural"] is False and doc["brute_force"] is False


@pytest.mark.parametrize("extra", [(), ("--brute-force",)], ids=["structural", "brute-force"])
def test_cli_verify_rejects_q_below_one(tmp_path, capsys, extra):
    out = tmp_path / "a.json"
    run_cli(capsys, "construct", "--type", "1,1", "--blocks", "1,1", "-o", str(out))
    for q in ("0", "-3"):
        code, doc = run_cli(capsys, "verify", str(out), "--q", q, *extra)
        assert code == 1
        assert doc["error"]["code"] == "invalid-input"


def test_cli_verify_budget(tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.json"
    run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,1", "-o", str(out))
    code, doc = run_cli(capsys, "verify", str(out), "--q", "2", "--brute-force",
                        "--budget", "10")
    assert code == 1
    assert doc["error"]["code"] == "budget-exceeded"
    monkeypatch.setenv("DQMAT_BRUTE_BUDGET", "10")
    code, doc = run_cli(capsys, "verify", str(out), "--q", "2", "--brute-force")
    assert code == 1
    assert doc["error"]["code"] == "budget-exceeded"


def test_cli_conjugate_roundtrip(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    x_path = tmp_path / "x.json"
    run_cli(capsys, "construct", "--type", "2", "--blocks", "2", "-o", str(a_path))
    x = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    x_path.write_text(dump_json(matrix_to_document(x)))
    code, doc = run_cli(capsys, "conjugate", str(a_path), "--by", str(x_path))
    assert code == 0
    conj = document_to_algebra(doc)
    expected = document_to_algebra(json.loads(a_path.read_text()))
    assert conj != expected
    assert conj.dim == expected.dim


def test_cli_classify(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    c_path = tmp_path / "c.json"
    run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,1", "-o", str(a_path))
    run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,2", "-o", str(b_path))
    run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,1", "-o", str(c_path))
    code, doc = run_cli(capsys, "classify", str(a_path), str(b_path))
    assert code == 0
    assert doc["isomorphic"] is False
    code, doc = run_cli(capsys, "classify", str(a_path), str(c_path))
    assert code == 0
    assert doc["isomorphic"] is True
    assert doc["certificate"]["block_ids"] == [[2, 1], [3, 1]]
    assert doc["certificate"]["conjugator"] is not None


# lower unitriangular: the conjugate of a block-type algebra by it is not block upper
HIDING_CONJUGATOR = [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [0, 3, 1, 0, 0], [1, 0, 1, 1, 0],
                     [0, 1, 0, 2, 1]]


def _rational_grid(grid):
    return [[Fraction(x) for x in row] for row in grid]


def test_cli_classify_conjugated_input(tmp_path, capsys):
    lit, hid, x = tmp_path / "lit.json", tmp_path / "hid.json", tmp_path / "x.json"
    run_cli(capsys, "construct", "--type", "2,3", "--blocks", "1,1", "-o", str(lit))
    x.write_text(json.dumps({"field": {"kind": "rational"}, "matrix": HIDING_CONJUGATOR}))
    run_cli(capsys, "conjugate", str(lit), "--by", str(x), "-o", str(hid))
    bases = {path: [_rational_grid(m) for m in json.loads(path.read_text())["basis"]]
             for path in (lit, hid)}
    for first, second in ((lit, hid), (hid, hid)):
        code, doc = run_cli(capsys, "classify", str(first), str(second))
        assert code == 0
        assert doc["isomorphic"] is True
        assert doc["certificate"]["block_ids"] == [[2, 1], [3, 1]]
        z = _rational_grid(doc["certificate"]["conjugator"])
        assert conjugates_onto(bases[first], bases[second], z)


def test_cli_classify_domain_error(tmp_path, capsys):
    m2 = tmp_path / "m2.json"
    run_cli(capsys, "construct", "--example", "m2-dual-numbers", "-o", str(m2))
    code, doc = run_cli(capsys, "classify", str(m2), str(m2))
    assert code == 1
    assert doc["error"]["code"] == "not-block-type-max-dim"


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, doc = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    code, doc = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2


VERIFY_DOC = ("verify", "{doc}", "--q", "2", "--brute-force")


@pytest.mark.parametrize("field, n, env, argv", [
    pytest.param({"kind": "rational"}, 1, "abc", VERIFY_DOC, id="field0-1-abc"),
    pytest.param({"kind": "rational"}, "x", None, VERIFY_DOC, id="field1-x-None"),
    pytest.param({"kind": "prime", "p": "abc"}, 1, None, VERIFY_DOC, id="field2-1-None"),
    pytest.param(None, None, None, ("construct", "--type", "a,b", "--blocks", "1,1"),
                 id="construct-type-a,b"),
    pytest.param(None, None, None, ("construct", "--type", "1,1", "--blocks", "1,--1"),
                 id="construct-blocks-1,--1"),
    pytest.param(None, None, None, ("construct", "--field", "prime:abc", "--type", "1",
                                    "--blocks", "1"), id="construct-field-prime:abc"),
])
def test_cli_bad_values_are_parse_errors(tmp_path, capsys, monkeypatch, field, n, env, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": field, "n": n, "basis": [[["1"]]]}))
    if env is not None:
        monkeypatch.setenv("DQMAT_BRUTE_BUDGET", env)
    code, doc = run_cli(capsys, *(arg.format(doc=path) for arg in argv))
    assert code == 2
    assert doc["error"]["code"] == "parse-error"


def test_cli_closure_violation_is_domain_error(tmp_path, capsys):
    doc = {
        "field": {"kind": "rational"},
        "n": 3,
        "basis": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        ],
    }
    bad = tmp_path / "open.json"
    bad.write_text(dump_json(doc))
    code, out = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert out["error"]["code"] == "closure-violation"


def test_cli_analyze_small_characteristic(tmp_path, capsys):
    # GF(2) with n = 2: the trace-form radical is unavailable, the rest still works
    a = block_type_algebra(BlockType((1, 1)),
                           [canonical_commutative(GF(2), (1, 1)),
                            canonical_commutative(GF(2), (1, 1))])
    path = tmp_path / "u2gf2.json"
    path.write_text(dump_json(algebra_to_document(a)))
    code, report = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert report["min_q"] == 2
    assert report["type"] == [1, 1]
    assert report["maximal"] is True
    assert report["invariants"] is None
    assert "radical_unavailable" in report


def test_shipped_document_loads():
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "data" / "m2_dual_numbers.json"
    doc = json.loads(path.read_text())
    a = document_to_algebra(doc)
    assert a.n == 4 and a.dim == 8
    assert a == named_example(QQ, "m2-dual-numbers")
