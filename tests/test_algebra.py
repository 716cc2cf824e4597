"""Algebras, bimodules and balanced tensor products."""

from fractions import Fraction

from _shared import a2, m2, model, universal
from bimodconn.algebra import (Algebra, Bimodule, check_algebra,
                               check_bimodule, tensor_over_A)
from bimodconn.linalg import zero_mat

F = Fraction


def test_check_algebra_two_point():
    assert check_algebra(a2()).status == "pass"


def test_check_algebra_matrix():
    assert check_algebra(m2()).status == "pass"


def test_check_algebra_bad_unit():
    bad = Algebra.from_table([[[F(2)]]], [F(1)])
    v = check_algebra(bad)
    assert v.status == "fail"
    assert v.witness is not None


def test_check_bimodule_regular():
    # a2_flat's M is A acting on itself by multiplication on both sides
    a, reg = a2(), model("a2_flat").modules["M"]
    for i in range(a.dim):
        for j in range(a.dim):
            ei, ej = a.basis_vec(i), a.basis_vec(j)
            assert reg.act_left(ei, ej) == a.mult(ei, ej)
            assert reg.act_right(ei, ej) == a.mult(ei, ej)
    assert check_bimodule(reg).status == "pass"


def test_check_bimodule_degree_one():
    omega1 = universal("a2_flat").degree_bimodule(1)
    assert check_bimodule(omega1).status == "pass"


def test_check_bimodule_zero_left_action():
    reg = model("a2_flat").modules["M"]
    bad = Bimodule.from_actions(a2(), [zero_mat(2, 2), zero_mat(2, 2)],
                                reg.right_matrices())
    assert check_bimodule(bad).status == "fail"


def test_tensor_unit_balancing():
    reg = model("a2_flat").modules["M"]
    assert tensor_over_A(reg, reg).dim == 2


def test_tensor_omega1_squared():
    omega1 = universal("a2_flat").degree_bimodule(1)
    t = tensor_over_A(omega1, omega1)
    assert t.plain_dim == 4
    assert t.dim == 2


def test_tensor_balancing_relation():
    x = universal("a2_flat").degree_bimodule(1)
    t = tensor_over_A(x, x)
    alg = a2()
    for i in range(x.dim):
        for k in range(alg.dim):
            for j in range(x.dim):
                xv, yv = x.basis_vec(i), x.basis_vec(j)
                fv = alg.basis_vec(k)
                lhs = t.project_pure(x.act_right(xv, fv), yv)
                rhs = t.project_pure(xv, x.act_left(fv, yv))
                assert lhs == rhs
