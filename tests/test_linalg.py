"""Exact linear algebra on matrices stored by their nonzeros."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtl.errors import StrandMismatchError
from vtl.linalg import DenseMatrix, invert, rank, solve_columns
from vtl.scalars import QuadScalar
from vtl.tensorrep import ptranspose_matrix


def mat(rows):
    return DenseMatrix([[QuadScalar(Fraction(e)) for e in row] for row in rows])


def test_identity_and_shape():
    i3 = DenseMatrix.identity(3)
    assert i3.rows == i3.cols == 3
    assert i3[0, 0] == QuadScalar(1)
    assert i3[0, 1] == QuadScalar(0)
    assert i3 * i3 == i3


def test_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b == mat([[1, 3], [4, 4]])
    assert a - a == DenseMatrix.zero(2, 2)
    assert (a - a).is_zero
    assert -b == b.scale(-1)
    assert a * b == mat([[2, 1], [4, 3]])
    assert b * a == mat([[3, 4], [1, 2]])
    assert a.transpose() == mat([[1, 3], [2, 4]])
    assert a.trace() == QuadScalar(5)


def test_shape_mismatch():
    with pytest.raises(StrandMismatchError):
        mat([[1, 2]]) + mat([[1], [2]])
    with pytest.raises(StrandMismatchError):
        mat([[1, 2]]) * mat([[1, 2]])
    with pytest.raises(ValueError):
        DenseMatrix([[QuadScalar(1)], [QuadScalar(1), QuadScalar(2)]])


def test_invert_rational():
    a = mat([[2, 1], [1, 1]])
    ainv = invert(a)
    assert ainv == mat([[1, -1], [-1, 2]])
    assert a * ainv == DenseMatrix.identity(2)


def test_invert_singular_returns_none():
    assert invert(mat([[1, 2], [2, 4]])) is None
    assert invert(mat([[1, 2, 3]])) is None  # not square
    # the cup-cap block is rank one, never invertible
    assert invert(ptranspose_matrix(2)) is None
    assert invert(ptranspose_matrix(3)) is None


def test_invert_over_quadratic_field():
    phi = QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
    a = DenseMatrix([[phi, QuadScalar(1)], [QuadScalar(1), QuadScalar(1)]])
    ainv = invert(a)
    assert ainv is not None
    assert a * ainv == DenseMatrix.identity(2)
    assert ainv * a == DenseMatrix.identity(2)


def test_rank():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(DenseMatrix.identity(4)) == 4
    assert rank(DenseMatrix.zero(3, 5)) == 0
    assert rank(mat([[1, 0, 1], [0, 1, 1], [1, 1, 2]])) == 2
    assert rank(ptranspose_matrix(3)) == 1


def test_solve_columns_finds_exact_combination():
    cols = [{0: QuadScalar(1), 1: QuadScalar(1)}, {1: QuadScalar(1)}]
    target = {0: QuadScalar(3), 1: QuadScalar(5)}
    coeffs = solve_columns(cols, target, 2)
    assert coeffs == [QuadScalar(3), QuadScalar(2)]


def test_solve_columns_detects_inconsistency():
    cols = [{0: QuadScalar(1)}]
    target = {1: QuadScalar(1)}
    assert solve_columns(cols, target, 2) is None


def test_solve_columns_underdetermined_still_solves():
    cols = [{0: QuadScalar(1)}, {0: QuadScalar(2)}]
    target = {0: QuadScalar(4)}
    coeffs = solve_columns(cols, target, 1)
    assert coeffs is not None
    total = coeffs[0] + coeffs[1] * QuadScalar(2)
    assert total == QuadScalar(4)


def test_to_obj_layout():
    a = DenseMatrix(
        [[QuadScalar(1), QuadScalar(0, 1, 5)], [QuadScalar(0), QuadScalar(2)]]
    )
    obj = a.to_obj()
    assert obj["rows"] == obj["cols"] == 2
    assert obj["D"] == [5, 1]
    assert obj["entries"][0] == [1, 1, 0, 1]
    assert obj["entries"][1] == [0, 1, 1, 1]
    assert len(obj["entries"]) == 4


def test_to_obj_rejects_mixed_fields():
    a = DenseMatrix([[QuadScalar(0, 1, 5), QuadScalar(0, 1, 7)]])
    with pytest.raises(ValueError):
        a.to_obj()


def test_cancellation_stores_no_zeros():
    a = mat([[1, 0, 2], [0, 0, 3]])
    diff = a - a
    assert diff == DenseMatrix.zero(2, 3)
    assert diff.is_zero
    assert diff.nnz == 0
    assert list(diff.nonzeros()) == []
    # a partial cancellation keeps exactly the surviving entries
    b = mat([[1, 0, 0], [0, 0, 5]])
    assert list((a - b).nonzeros()) == [
        (0, 2, QuadScalar(2)),
        (1, 2, QuadScalar(-2)),
    ]
    assert (a + a.scale(-1)).nnz == 0
    assert (a * mat([[0], [1], [0]])).is_zero
    # products that cancel inside one entry leave nothing stored either
    prod = mat([[1, 1], [2, 0]]) * mat([[1], [-1]])
    assert list(prod.nonzeros()) == [(1, 0, QuadScalar(2))]
    assert (mat([[1, 1]]) * mat([[1], [-1]])).is_zero
    assert a.scale(0).nnz == 0


def test_dense_constructor_agrees_with_from_entries():
    dense = mat([[0, 3], [0, 0], [Fraction(1, 2), 0]])
    sparse = DenseMatrix.from_entries(
        3, 2, {(0, 1): 3, (2, 0): Fraction(1, 2), (1, 1): 0}
    )
    assert dense == sparse
    assert sparse == dense
    assert dense.nnz == sparse.nnz == 2
    assert dense.entries == sparse.entries
    assert dense[1, 1] == QuadScalar(0)
    assert dense != DenseMatrix.from_entries(3, 2, {(0, 1): 3})
    assert dense != DenseMatrix.zero(2, 3)
    with pytest.raises(IndexError):
        DenseMatrix.from_entries(2, 2, {(2, 0): 1})
    with pytest.raises(IndexError):
        dense[3, 0]


def test_nonzeros_are_row_major():
    a = DenseMatrix.from_entries(3, 3, {(2, 0): 1, (0, 2): 2, (0, 1): 3, (1, 1): 4})
    assert [(r, c) for r, c, _ in a.nonzeros()] == [(0, 1), (0, 2), (1, 1), (2, 0)]
    assert a.transpose()[0, 2] == QuadScalar(1)
    assert a.trace() == QuadScalar(4)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# A third of the entries are zero, so products see real sparsity.
q5_entries = st.one_of(
    st.just(QuadScalar(0)),
    st.builds(lambda x, y: QuadScalar(x, y, 5), small_rationals, small_rationals),
)


def q5_matrix(rows, cols):
    return st.lists(
        st.lists(q5_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def dense_product(a, b):
    """Schoolbook product over full rows, the reference for the sparse one."""
    return [
        [
            sum((a[r][k] * b[k][c] for k in range(len(b))), QuadScalar(0))
            for c in range(len(b[0]))
        ]
        for r in range(len(a))
    ]


@st.composite
def q5_factor_pair(draw):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(q5_matrix(m, k)), draw(q5_matrix(k, n))


@settings(max_examples=60, deadline=None)
@given(q5_factor_pair())
def test_product_over_q_sqrt5_matches_dense_reference(pair):
    a, b = pair
    got = DenseMatrix(a) * DenseMatrix(b)
    want = dense_product(a, b)
    assert got.entries == want
    assert got == DenseMatrix(want)
    assert all(not e.is_zero for _, _, e in got.nonzeros())
