"""Universal and quotient differential calculi and the partial order."""

from fractions import Fraction

import pytest

from _shared import a2, m2, model, universal
from bimodconn.algebra import Algebra
from bimodconn.calculus import (UniversalCalculus, preceq, quotient_calculus,
                                saturate_ideal)
from bimodconn.linalg import (DimensionError, LinSolver, SpanBuilder,
                              is_zero_vec, zeros)

F = Fraction


def emb_e1e2():
    v = zeros(4)
    v[0 * 2 + 1] = F(1)          # e1 (x) e2
    return v


def test_dim_omega1_two_point():
    assert universal("a2_flat").dim(1) == 2


def test_dim_omega1_matrix():
    assert universal("m2_grass").dim(1) == 12


def test_d_of_e1():
    cal = universal("a2_flat")
    d = cal.universal.d_emb(a2().basis_vec(0), 0)
    # d e1 = e2 (x) e1 - e1 (x) e2 in plain tensor-square coordinates
    assert d == [F(0), F(-1), F(1), F(0)]


def test_d_of_unit_is_zero():
    cal = universal("a2_flat")
    assert is_zero_vec(cal.universal.d_emb(a2().unit_vec(), 0))


def test_graded_dims_two_point():
    assert universal("a2_flat").dims() == [2, 2, 2, 2]


def test_graded_dims_matrix():
    assert universal("m2_grass").dims() == [4, 12, 36, 108]


def test_degree_zero_is_algebra():
    assert universal("a2_flat").dim(0) == a2().dim
    assert universal("m2_grass").dim(0) == m2().dim


def test_d_squared_zero():
    for cal in (universal("a2_flat"), model("a2_quotient").calculus):
        for r in range(cal.D - 1):
            for col in range(cal.dim(r)):
                e = zeros(cal.dim(r))
                e[col] = F(1)
                assert is_zero_vec(cal.d_apply(r + 1, cal.d_apply(r, e)))


def test_graded_leibniz_spot():
    cal = universal("a2_flat")
    for i in range(cal.dim(1)):
        for j in range(cal.dim(1)):
            u, v = zeros(cal.dim(1)), zeros(cal.dim(1))
            u[i], v[j] = F(1), F(1)
            lhs = cal.d_apply(2, cal.product(1, u, 1, v))
            rhs = [a - b for a, b in
                   zip(cal.product(2, cal.d_apply(1, u), 1, v),
                       cal.product(1, u, 2, cal.d_apply(1, v)))]
            assert lhs == rhs


def test_quotient_empty_generators_is_universal():
    cal = quotient_calculus(universal("a2_flat"), [])
    assert cal.dims() == universal("a2_flat").dims()


def test_quotient_by_e1e2():
    cal = model("a2_quotient").calculus
    assert cal.dim(1) == 1


def test_quotient_by_everything():
    base = universal("a2_flat")
    gens = []
    for k in (1, 2):             # e1 (x) e2 and e2 (x) e1 span all of degree 1
        e = zeros(base.universal.emb_dim(1))
        e[k] = F(1)
        gens.append((1, e))
    cal = quotient_calculus(base, gens)
    assert cal.dims() == [2, 0, 0, 0]


def test_quotient_idempotent():
    first = model("a2_quotient").calculus
    second = quotient_calculus(universal("a2_flat"), [(1, emb_e1e2())])
    assert first.dims() == second.dims()


@pytest.mark.parametrize("truncation, attempts", [(3, 30), (9, 114)])
def test_saturation_expands_each_ideal_vector_once(monkeypatch, truncation,
                                                   attempts):
    # one attempt per generator, then per basis vector of I^r: 2n products
    # by the algebra basis, and below the top degree d and 2 products by
    # each de_j; re-expanding a vector would add more attempts
    uni = UniversalCalculus(a2(), truncation)
    gens = [(1, uni.from_emb(1, emb_e1e2()))]
    calls = []
    add = SpanBuilder.add

    def counting_add(self, v):
        calls.append(v)
        return add(self, v)

    monkeypatch.setattr(SpanBuilder, "add", counting_add)
    spans = saturate_ideal(uni, gens)
    n, m = uni.algebra.dim, len(uni.complement)
    expected = len(gens) + sum(
        s.dim * (2 * n + (1 + 2 * m if r < uni.D else 0))
        for r, s in enumerate(spans))
    assert len(calls) == expected == attempts


def test_preceq_reflexive():
    quo = model("a2_quotient").calculus
    rho, _ = preceq(quo, quo)
    assert rho is not None
    assert rho.verify().ok


def test_preceq_quotient_below_universal():
    rho, _ = preceq(model("a2_quotient").calculus, universal("a2_flat"))
    assert rho is not None
    assert rho.verify().ok


def test_preceq_converse_fails_with_witness():
    rho, wit = preceq(universal("a2_flat"), model("a2_quotient").calculus)
    assert rho is None
    deg, bar = wit
    assert deg == 1
    # the witness lies in the quotient's defining ideal
    emb = universal("a2_flat").universal.to_emb(1, bar)
    assert is_zero_vec(model("a2_quotient").calculus.class_of_emb(1, emb))


def test_preceq_zero_calculus_below_everything():
    base = universal("a2_flat")
    gens = [(1, e) for e in ([F(0), F(1), F(0), F(0)],
                             [F(0), F(0), F(1), F(0)])]
    zero_cal = quotient_calculus(base, gens)
    assert zero_cal.dims() == [2, 0, 0, 0]
    rho, _ = preceq(zero_cal, universal("a2_flat"))
    assert rho is not None
    assert rho.verify().ok


def test_preceq_transitive_on_chain():
    quo = model("a2_quotient").calculus
    rho1, _ = preceq(quo, universal("a2_flat"))
    rho2, _ = preceq(quo, quo)
    assert rho1 is not None and rho2 is not None


def _bar_columns(uni, r):
    """e_i·de_j1⋯de_jr in tensor-power coordinates, built from d and the
    product alone, in bar-index order."""
    a = uni.algebra
    cols = []
    for i0, beta in uni.bar_index(r):
        col = a.basis_vec(i0)
        for deg, j in enumerate(beta):
            col = uni.product_emb(col, deg, uni.d_emb(a.basis_vec(j), 0), 1)
        cols.append(col)
    return cols


def test_from_emb_matches_dense_solve():
    # id ⊗ π^{⊗r} agrees with a solve against the dense bar→emb matrix on
    # d and product outputs in every degree
    for cal in (universal("a2_flat"), universal("m2_grass")):
        uni = cal.universal
        a = uni.algebra
        cols = [_bar_columns(uni, r) for r in range(uni.D + 1)]
        for r in range(uni.D + 1):
            for k, col in enumerate(cols[r]):
                unit_k = zeros(uni.bar_dim(r))
                unit_k[k] = F(1)
                assert uni.to_emb(r, unit_k) == col
            solver = LinSolver([list(row) for row in zip(*cols[r])])
            assert solver.rank == uni.bar_dim(r)
            inputs = []
            for col in cols[r]:
                for i in range(a.dim):
                    f = a.basis_vec(i)
                    inputs.append(uni.product_emb(f, 0, col, r))
                    inputs.append(uni.product_emb(col, r, f, 0))
            if r:
                inputs += [uni.d_emb(col, r - 1) for col in cols[r - 1]]
                inputs += [uni.product_emb(uni.d_emb(a.basis_vec(j), 0), 1,
                                           col, r - 1)
                           for j in uni.complement for col in cols[r - 1]]
            for x in inputs:
                assert uni.from_emb(r, x) == solver.solve(x)


def test_bar_basis_guard_rejects_one_sided_unit():
    # e1 is a left unit of A2 but not a right one (e2·e1 = 0), so
    # id ⊗ π does not invert e_i·de_j
    a = a2()
    with pytest.raises(DimensionError, match="bar basis degenerate"):
        UniversalCalculus(Algebra.from_table(a.structure, [F(1), F(0)]), 2)
