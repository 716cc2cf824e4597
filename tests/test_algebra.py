"""Algebras, bimodules and balanced tensor products."""

from fractions import Fraction

import pytest

import _reference
from _shared import (ALGEBRA_FAULTS, NAMES, a2, column_module,
                     faulted_algebra, forms_bimodule, m2, model, nabla,
                     skew_right_module, universal)
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


@pytest.mark.parametrize("axiom", ALGEBRA_FAULTS)
@pytest.mark.parametrize("name", ["T2", "M2"])
def test_check_algebra_gives_the_dense_loop_witness_on_each_fault(name, axiom):
    # the sparse sums over Algebra.products keep the dense loop's order,
    # so the first failure and its witness are the dense loop's
    bad = faulted_algebra(name, axiom)
    v, ref = check_algebra(bad), _reference.check_algebra(bad)
    assert (v.status, v.witness) == (ref.status, ref.witness)
    assert v.status == "fail" and v.witness["axiom"] == axiom


def test_check_bimodule_regular():
    # a2_flat's M is A acting on itself by multiplication on both sides
    a, reg = a2(), model("a2_flat").modules["M"]
    for i in range(a.dim):
        for j in range(a.dim):
            ei, ej = (_reference.basis_vec(a.dim, k) for k in (i, j))
            ij = _reference.mult(a, ei, ej)
            assert _reference.act_left(reg, ei, ej) == ij
            assert _reference.act_right(reg, ei, ej) == ij
    assert check_bimodule(reg).status == "pass"


def test_check_bimodule_degree_one():
    omega1 = universal("a2_flat").degree_bimodule(1)
    assert check_bimodule(omega1).status == "pass"


def test_check_bimodule_zero_left_action():
    reg = model("a2_flat").modules["M"]
    bad = Bimodule.from_actions(a2(), [zero_mat(2, 2), zero_mat(2, 2)],
                                _reference.actions(reg, "right"))
    assert check_bimodule(bad).status == "fail"


def _checked_bimodules():
    """Every bimodule a run checks or builds: each shipped model's modules,
    M⊗_AΩ^r and Ω^r as bimodules for r ≤ 2, and M⊗_AM, the module of ∇⊗
    on M; and N⊗_AM for the pair N ≠ M of the tensor tests."""
    for name in NAMES:
        yield from model(name).modules.values()
        for r in range(3):
            yield forms_bimodule(nabla(name).forms, r)
            yield model(name).calculus.degree_bimodule(r)
        m = nabla(name).module
        yield tensor_over_A(m, m).as_bimodule()
    yield tensor_over_A(skew_right_module(), column_module()).as_bimodule()


def test_check_bimodule_matches_the_dense_reference():
    # the axioms composed by columns against the dense matrices multiplied
    # by mat_mul (tests/_reference.py): the same verdict and witness
    for mod in _checked_bimodules():
        v = check_bimodule(mod)
        assert v.ok and v == _reference.check_bimodule(mod)


# a2_flat's M with one action replaced, one fault per axiom: each first
# fails there, in the checks' order (both units, then associativity on
# each side, then commutation)
FAULTS = {
    # e_0 acts by 2 on m_0, so e_0 + e_1 does not act as the identity
    "left-unit": ("left", [[[2, 0], [0, 0]], [[0, 0], [0, 1]]]),
    "right-unit": ("right", [[[2, 0], [0, 0]], [[0, 0], [0, 1]]]),
    # unital, but e_0·e_0 = e_0 acts by 2·E₀₀, not by its square
    "left-associativity": ("left", [[[2, 0], [0, 0]], [[-1, 0], [0, 1]]]),
    "right-associativity": ("right", [[[2, 0], [0, 0]], [[-1, 0], [0, 1]]]),
    # another pair of orthogonal idempotents: a left action that does not
    # commute with the right one
    "left-right-commutation": ("left", [[[1, 1], [0, 0]], [[0, -1], [0, 1]]]),
}


@pytest.mark.parametrize("axiom", sorted(FAULTS))
def test_check_bimodule_finds_each_fault_as_the_dense_reference(axiom):
    reg = model("a2_flat").modules["M"]
    side, matrices = FAULTS[axiom]
    acts = {s: _reference.actions(reg, s) for s in ("left", "right")}
    acts[side] = matrices
    bad = Bimodule.from_actions(a2(), acts["left"], acts["right"])
    v = check_bimodule(bad)
    assert not v.ok and v.witness["axiom"] == axiom
    assert v == _reference.check_bimodule(bad)


@pytest.mark.parametrize("side", ["left", "right"])
def test_check_bimodule_finds_a_fault_in_m2_as_the_dense_reference(side):
    # one entry of the action of e_1 = E₁₂, which the unit E₁₁ + E₂₂
    # leaves out, changed: associativity fails at a pair other than (0, 0)
    mod = model("m2_grass").modules["M"]
    acts = {s: _reference.actions(mod, s) for s in ("left", "right")}
    acts[side][1][1][0] += 1
    bad = Bimodule.from_actions(m2(), acts["left"], acts["right"])
    v = check_bimodule(bad)
    assert v.witness["axiom"] == f"{side}-associativity"
    assert v.witness["pair"] != [0, 0]
    assert v == _reference.check_bimodule(bad)


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
                xv = _reference.basis_vec(x.dim, i)
                yv = _reference.basis_vec(x.dim, j)
                fv = _reference.basis_vec(alg.dim, k)
                lhs = _reference.project_pure(
                    t, _reference.act_right(x, xv, fv), yv)
                rhs = _reference.project_pure(
                    t, xv, _reference.act_left(x, fv, yv))
                assert lhs == rhs
