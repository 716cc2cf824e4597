"""Exact linear algebra: row reduction, kernels, quotients, factorization."""

from fractions import Fraction

import pytest

from bimodconn.fixtures import a2
from bimodconn.linalg import (DimensionError, SurjectivityError,
                              factor_through, identity_mat, mat, mat_vec,
                              null_space, quotient, rank, row_reduce, zero_mat,
                              zeros)

F = Fraction


def test_row_reduce_identity():
    rank, _, pivots = row_reduce(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_row_reduce_zero():
    rank, _, pivots = row_reduce(mat([[0, 0, 0, 0], [0, 0, 0, 0]]))
    assert rank == 0
    assert pivots == []


def test_row_reduce_rank_one():
    rank, reduced, pivots = row_reduce(mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]


def test_kernel_identity():
    assert null_space(identity_mat(3), 3) == []


def test_kernel_zero_map():
    assert len(null_space(zero_mat(2, 2), 2)) == 2


def test_kernel_multiplication_map():
    # For the two-point algebra, ker(mu: A(x)A -> A) is spanned by
    # e1(x)e2 and e2(x)e1 inside the 4-dimensional plain tensor square.
    ker = null_space(a2().multiplication_map(), 4)
    assert len(ker) == 2
    expected = {(F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0))}
    got = {tuple(v) for v in ker}
    assert got == expected


def test_quotient_dimensions():
    q = quotient(3, [[F(1), F(0), F(0)]])
    assert q.dim == 2
    # projection kills the subspace and splits the section exactly
    assert q.project([F(5), F(0), F(0)]) == zeros(2)
    for k in range(2):
        e = zeros(2)
        e[k] = F(1)
        assert q.project(q.lift(e)) == e


def test_quotient_by_zero_and_by_all():
    assert quotient(2, []).dim == 2
    assert quotient(2, [[F(1), F(0)], [F(0), F(1)]]).dim == 0


def test_quotient_rejects_non_subspace():
    with pytest.raises(DimensionError, match="not presented inside total"):
        quotient(2, [[F(1), F(0), F(0)]])


def test_quotient_rejects_degenerate_basis():
    with pytest.raises(DimensionError, match="degenerate"):
        quotient(2, [[F(1), F(2)], [F(2), F(4)]])


def test_factor_through_identity():
    i = identity_mat(2)
    h, wit = factor_through(i, i, 2)
    assert wit is None
    assert h == i


def test_factor_through_zero_always_factors():
    s = mat([[1, 1]])
    h, wit = factor_through(s, zero_mat(1, 2), 2)
    assert wit is None
    assert h == zero_mat(1, 1)


def test_factor_through_absent_with_witness():
    s = mat([[1, 1]])
    d = mat([[1, -1]])
    h, wit = factor_through(s, d, 2)
    assert h is None
    assert mat_vec(s, wit) == zeros(1)
    assert mat_vec(d, wit) != zeros(1)


def test_factor_through_rejects_bad_shapes_and_non_surjection():
    with pytest.raises(DimensionError, match="share a domain"):
        factor_through(mat([[1, 1]]), mat([[1, 1, 1]]), 2)
    with pytest.raises(SurjectivityError):
        factor_through(mat([[1, 1], [2, 2]]), mat([[1, 1]]), 2)


def test_rank_nullity():
    f = mat([[1, 2, 3], [2, 4, 6]])
    assert len(null_space(f, 3)) + rank(f) == 3
