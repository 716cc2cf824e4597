"""Exact linear algebra: row reduction, kernels, quotients, factorization."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _shared import a2
from bimodconn.linalg import (DimensionError, SpanBuilder, SurjectivityError,
                              factor_through, identity_mat, mat, mat_mul,
                              mat_vec, null_space, quotient, rank, row_reduce,
                              vec, vec_add, zero_mat, zeros)

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
    # The columns of mu are the structure constants e_i·e_j, index i·2 + j.
    a = a2()
    mu = [[a.structure[i][j][k] for i in range(2) for j in range(2)]
          for k in range(2)]
    ker = null_space(mu, 4)
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


def test_wrong_length_vectors_are_rejected():
    span = SpanBuilder(3)
    span.add(vec([1, 0, 0]))
    for bad in (vec([1, 0]), vec([1, 0, 0, 0])):
        with pytest.raises(DimensionError):
            span.contains(bad)
        with pytest.raises(DimensionError):
            span.coords(bad)
        with pytest.raises(DimensionError):
            mat_vec(identity_mat(3), bad)
    q = quotient(3, [vec([1, 0, 0])])
    for bad in (vec([1]), vec([1, 0, 0])):
        with pytest.raises(DimensionError):
            q.lift(bad)


# Oracle tests against sympy, on rationals that are not integral: every
# operand of the shipped models is, so the goldens never divide by a pivot
# other than 1.
ENTRIES = st.just(F(0)) | st.fractions(min_value=-3, max_value=3,
                                       max_denominator=5)


@st.composite
def matrices(draw):
    """Small matrices with negative and fractional entries, zero rows and
    rows that are combinations of others, in any order."""
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(ENTRIES), draw(ENTRIES)
        u, v = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(u, v)])
    rows += [zeros(n_cols)] * draw(st.integers(0, 1))
    return draw(st.permutations(rows))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _frac(xs):
    return [F(int(x.p), int(x.q)) for x in xs]


def _sym_rank(rows):
    return _sym(rows).rank() if rows else 0


@settings(deadline=None)
@given(matrices())
def test_row_reduce_and_null_space_match_sympy(m):
    n_cols = len(m[0])
    got_rank, rref, pivots = row_reduce(m)
    s_rref, s_pivots = _sym(m).rref()
    assert pivots == list(s_pivots)
    assert got_rank == len(s_pivots) == rank(m)
    assert rref == [_frac(s_rref.row(i)) for i in range(len(m))]
    assert null_space(m, n_cols) == [_frac(v) for v in _sym(m).nullspace()]


@settings(deadline=None)
@given(matrices(), st.data())
def test_quotient_splits_and_kills_sub(m, data):
    n = len(m[0])
    sub = []
    for v in m:
        if _sym_rank(sub + [v]) > len(sub):
            sub.append(v)
    q = quotient(n, sub)
    assert q.dim == n - len(sub)
    assert mat_mul(q.projection, q.section) == identity_mat(q.dim)
    for s in sub:
        assert q.project(s) == zeros(q.dim)
    cls = data.draw(st.lists(ENTRIES, min_size=q.dim, max_size=q.dim))
    assert q.project(q.lift(cls)) == cls
    for v in m:
        # v and lift(project(v)) differ by an element of span(sub)
        diff = vec_add(v, [-x for x in q.lift(q.project(v))])
        assert _sym_rank(sub + [diff]) == len(sub)


@settings(deadline=None)
@given(matrices(), st.data())
def test_span_builder_matches_sympy(m, data):
    n = len(m[0])
    span = SpanBuilder(n)
    added = [span.add(v) for v in m]
    assert span.dim == _sym_rank(m) == sum(added)
    probe = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    for v in m + [probe]:
        inside = _sym_rank(m + [v]) == span.dim
        assert span.contains(v) == inside
        c = span.coords(v)
        if not inside:
            assert c is None
            continue
        rebuilt = zeros(n)
        for ck, b in zip(c, span.basis, strict=True):
            rebuilt = vec_add(rebuilt, [ck * x for x in b])
        assert rebuilt == v
