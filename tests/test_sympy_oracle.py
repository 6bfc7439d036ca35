"""Differential tests of the exact kernels over Q, with sympy as the oracle.

The kernels run on integer numerators (common-denominator products,
fraction-free elimination); sympy shares no code with them.  Every result
entry must also be a canonical rational scalar: an int, or a Fraction that is
not integral, never a float.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dqmat.errors import Singular
from dqmat.fields import QQ
from dqmat.linalg import Matrix, matrix_invert, matrix_rref, nullspace

SETTINGS = settings(max_examples=60, deadline=None)

scalars = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


def grids(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    return draw(grids(draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))))


def to_sympy(grid):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in grid])


def from_sympy(entries):
    return [Fraction(int(x.p), int(x.q)) for x in entries]


def assert_canonical(entries):
    for x in entries:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def grid_of(m: Matrix):
    return [list(m.row(i)) for i in range(m.nrows)]


def grid_of_sympy(sm):
    return [from_sympy(sm.row(i)) for i in range(sm.rows)]


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8), st.data())
def test_product_matches_sympy(n, k, m, data):
    a = data.draw(grids(n, k))
    b = data.draw(grids(k, m))
    prod = Matrix.from_rows(QQ, a) * Matrix.from_rows(QQ, b)
    assert grid_of(prod) == grid_of_sympy(to_sympy(a) * to_sympy(b))
    assert_canonical(prod.entries)


@SETTINGS
@given(matrices())
def test_rref_matches_sympy(grid):
    r, rank, pivots = matrix_rref(Matrix.from_rows(QQ, grid))
    expected, expected_pivots = to_sympy(grid).rref()
    assert grid_of(r) == grid_of_sympy(expected)
    assert pivots == list(expected_pivots)
    assert rank == len(expected_pivots)
    assert_canonical(r.entries)


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: grids(n, n)))
def test_invert_matches_sympy(grid):
    sm = to_sympy(grid)
    m = Matrix.from_rows(QQ, grid)
    if sm.det() == 0:
        with pytest.raises(Singular):
            matrix_invert(m)
        return
    inv = matrix_invert(m)
    assert grid_of(inv) == grid_of_sympy(sm.inv())
    assert_canonical(inv.entries)


@SETTINGS
@given(matrices())
def test_nullspace_matches_sympy(grid):
    ncols = len(grid[0])
    basis = nullspace(QQ, [[QQ.of(x) for x in row] for row in grid], ncols)
    expected = [from_sympy(v) for v in to_sympy(grid).nullspace()]
    assert [list(v) for v in basis] == expected
    for v in basis:
        assert_canonical(v)
