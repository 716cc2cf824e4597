"""Connections, nabla-hat, the induced first-order calculus, kappa1, sigma."""

from fractions import Fraction

import pytest

import _reference
from _reference import apply, class_of_pair_bar, is_zero_vec
from _shared import (MODELS, NAMES, a2, model, nabla, regular_connection,
                     upper_triangular)
from bimodconn.connection import (Connection, DegreeRHom,
                                  _left_leibniz_failure, check_right_leibniz,
                                  induced_first_order, kappa0_op, kappa1,
                                  nabla_hat, sigma_exists)
from bimodconn.forms import Forms
from bimodconn.linalg import _col_sum, _to_mat, mat_vec, zeros
from bimodconn.model import parse_model

F = Fraction


def emb_e1e2():
    v = zeros(4)
    v[0 * 2 + 1] = F(1)          # e1 (x) e2
    return v


def test_right_leibniz_flat():
    for name in ("a2_flat", "a2_quotient"):
        assert check_right_leibniz(nabla(name)).status == "pass"


def test_right_leibniz_zero_map_fails():
    c0 = nabla("a2_flat")
    bad = Connection(c0.forms, [[], []])
    v = check_right_leibniz(bad)
    assert v.status == "fail"
    assert v.witness is not None


def test_connection_refuses_nabla_of_the_wrong_shape():
    # one column per basis vector of M, each row in range(dim M⊗_AΩ¹)
    c = nabla("a2_flat")
    n_rows = c.forms.dim(1)
    assert len(c.nabla) == c.module.dim == 2
    for bad in (c.nabla[:1], c.nabla + [[]], [[(n_rows, 1)], c.nabla[1]],
                [[(-1, 1)], c.nabla[1]]):
        with pytest.raises(ValueError, match="one column per basis vector"):
            Connection(c.forms, bad)
    assert Connection(c.forms, [[(n_rows - 1, 1)], []]).nabla == \
        [[(n_rows - 1, 1)], []]


def test_right_leibniz_twist():
    assert check_right_leibniz(nabla("a2_twist")).status == "pass"


def test_nabla_hat_of_identity_vanishes():
    c = nabla("a2_flat")
    one_hat = kappa0_op(c, a2().unit_vec())
    assert nabla_hat(c, one_hat).is_zero()


def test_nabla_hat_of_e1_on_e2():
    c = nabla("a2_flat")
    nh = nabla_hat(c, kappa0_op(c, a2().basis_vec(0)))
    bar = c.calculus.universal.from_emb(1, [-x for x in emb_e1e2()])
    expected = class_of_pair_bar(c.forms, 1, a2().unit_vec(), bar)
    assert apply(nh, a2().basis_vec(1)) == expected


def test_nabla_hat_of_e1_is_left_mult_by_de1():
    # with nabla = d, (nabla-hat e1-hat)(a) = (d e1)·a for every basis a
    c = nabla("a2_flat")
    uni = c.calculus.universal
    nh = nabla_hat(c, kappa0_op(c, a2().basis_vec(0)))
    de1 = uni.d(0, a2().basis_vec(0))
    for i in range(2):
        prod = _reference.product(uni, 1, de1, 0, a2().basis_vec(i))
        expected = class_of_pair_bar(c.forms, 1, a2().unit_vec(), prod)
        assert apply(nh, a2().basis_vec(i)) == expected


def test_compose_past_the_truncation_raises():
    # a2_flat has D = 3, and ∇̂∇̂ê₁ has degree 2, so the product would have
    # degree 4; it used to end in an IndexError
    c = nabla("a2_flat")
    t2 = nabla_hat(c, nabla_hat(c, kappa0_op(c, a2().basis_vec(0))))
    assert t2.degree == 2 and c.forms.D == 3
    with pytest.raises(ValueError, match="truncation"):
        t2.compose(t2)
    with pytest.raises(ValueError, match="truncation"):
        nabla_hat(c, t2.compose(nabla_hat(c, kappa0_op(c, a2().unit_vec()))))


def test_add_across_degrees_raises():
    # it used to return a degree-0 operator, silently wrong
    c = nabla("a2_flat")
    e1 = kappa0_op(c, a2().basis_vec(0))
    with pytest.raises(ValueError, match="degree"):
        e1.add(nabla_hat(c, e1))
    assert e1.add(e1).cols == _reference.scaled(e1, 2).cols


def test_equal_operators_share_one_id_per_forms():
    # DegreeRHom.key interns the content (degree, columns) in its Forms:
    # equal columns in one degree give one id, and a composition or ∇̂
    # found in a cache is the operator itself
    c = nabla("a2_flat")
    f = Forms(c.module, c.calculus)
    conn = Connection(f, c.nabla)
    e1 = kappa0_op(conn, a2().basis_vec(0))
    twin = DegreeRHom(f, 0, [list(col) for col in e1.cols])
    content = tuple(map(tuple, e1.cols))
    assert twin is not e1 and twin.key == e1.key == f.op_ids[0, content]
    assert nabla_hat(conn, twin) is nabla_hat(conn, e1)
    assert twin.compose(e1) is e1.compose(twin)
    # the same columns one degree up extend differently: another id
    assert f.dim(1) == f.dim(0)
    up = DegreeRHom(f, 1, e1.cols)
    assert up.key != e1.key and up.key == f.op_ids[1, content]


def test_induced_first_order_dim():
    ifo = induced_first_order(nabla("a2_flat"))
    assert ifo.dim == 2
    assert all(v.ok for v in ifo.verdicts)


def test_d_nabla_of_unit_is_zero():
    ifo = induced_first_order(nabla("a2_flat"))
    assert ifo.d_nabla(a2().unit_vec()).is_zero()


def test_induced_derivation_law_on_twist():
    ifo = induced_first_order(nabla("a2_twist"))
    assert all(v.ok for v in ifo.verdicts)


def test_kappa1_on_e1_tensor_e2():
    c = nabla("a2_flat")
    k1 = kappa1(c)
    bar = c.calculus.universal.from_emb(1, emb_e1e2())
    op = k1.op(bar)
    assert is_zero_vec(apply(op, a2().basis_vec(0)))
    expected = class_of_pair_bar(c.forms, 1, a2().unit_vec(), bar)
    assert apply(op, a2().basis_vec(1)) == expected


def test_kappa1_injective_on_flat():
    k1 = kappa1(nabla("a2_flat"))
    assert k1.rank() == 2
    assert k1.injective
    assert all(v.ok for v in k1.verdicts)


def test_kappa1_of_d_unit_is_zero():
    c = nabla("a2_flat")
    k1 = kappa1(c)
    d_unit = c.calculus.universal.d(0, a2().unit_vec())
    assert is_zero_vec(d_unit)
    assert k1.op(d_unit).is_zero()


def test_sigma_exists_universal():
    res = sigma_exists(nabla("a2_flat"))
    assert res.exists
    assert res.sigma.level == "universal"
    assert all(v.ok for v in res.verdicts)


def test_sigma_exists_on_quotient():
    res = sigma_exists(nabla("a2_quotient"))
    assert res.exists
    assert res.sigma.level == "projected"
    assert all(v.ok for v in res.verdicts)
    ids = {v.check_id for v in res.verdicts}
    assert "sigma-left-leibniz" in ids


def test_sigma_absent_on_twist():
    c = nabla("a2_twist")
    k1 = kappa1(c)
    res = sigma_exists(c, k1)
    assert not res.exists
    wit = res.witness_bar
    assert wit is not None and not is_zero_vec(wit)
    # the witness lies in the defining kernel K of the quotient calculus...
    cal = c.calculus
    assert is_zero_vec(cal.class_of_bar(1, wit))
    # ...and has nonzero kappa1-image, so sigma cannot factor through
    assert not k1.op(wit).is_zero()


def _linearity_witness(k1):
    """The witness of κ₁'s ``kappa1-bimodule-linear`` verdict."""
    (v,) = [v for v in k1.verdicts if v.check_id == "kappa1-bimodule-linear"]
    assert v.ok == (v.witness is None)
    return v.witness


@pytest.mark.parametrize("name", NAMES)
def test_kappa1_linearity_matches_the_per_triple_reference(name):
    k1 = kappa1(nabla(name))
    assert _linearity_witness(k1) is None
    assert _reference.kappa1_bimodule_linear(k1) is None


@pytest.mark.parametrize("name, g, entry, triple", [
    ("m2_grass", 2, (11, 10), [1, 2, 10]),
    ("a2_quotient", 1, (1, 0), [1, 1, 0])])
def test_a_wrong_right_multiplication_fails_kappa1_like_the_reference(
        name, g, entry, triple):
    # a fresh parse: the fault must not reach the shared cached models; one
    # entry of the column table of u ↦ u·e_g on Ω¹ off by one, in a new
    # column that replaces column col
    m = parse_model(str(MODELS / f"{name}.model"))
    row, col = entry
    table = m.calculus.universal.right_cols(1, g)
    entries = dict(table[col])
    entries[row] = entries.get(row, 0) + 1
    table[col] = sorted((k, x) for k, x in entries.items() if x)
    k1 = kappa1(m.connections["nabla"])
    assert _linearity_witness(k1) == {"triple": triple}
    assert _reference.kappa1_bimodule_linear(k1) == {"triple": triple}


# σ and κ₁'s rank against the route they took before κ₁ was kept as its
# operators (tests/_reference.py): κ₁ as coordinates in the accepted basis
# of Ω¹_∇, σ from factor_through on the densified P₁ and that matrix
SIGMA_CASES = {
    **{name: (lambda name=name: nabla(name)) for name in NAMES},
    **{f"{name}-D9": (lambda name=name: model(name, 9).connections["nabla"])
       for name in ("a2_flat", "a2_quotient")},
    "T3-D2": lambda: regular_connection(upper_triangular(3), 2, 0),
}


def _assert_sigma_matches_the_reference(c, k1):
    res = sigma_exists(c, k1)
    exists, witness, matrix = _reference.sigma(k1)
    assert (res.exists, res.witness_bar) == (exists, witness)
    assert (_to_mat(res.sigma.cols, c.forms.dim(1)) if res.exists
            else None) == matrix
    return res


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_sigma_and_kappa1_rank_match_the_coordinate_reference(case):
    c = SIGMA_CASES[case]()
    k1 = kappa1(c)
    _assert_sigma_matches_the_reference(c, k1)
    coords = _reference.kappa1_coords(k1)[0]
    dense_rank = _reference.rref(coords)[0] if coords else 0
    assert k1.rank() == dense_rank
    assert k1.injective == (dense_rank == c.calculus.universal.bar_dim(1))


@pytest.mark.parametrize("name, exists", [("a2_flat", True),
                                          ("a2_quotient", False)])
def test_sigma_of_a_perturbed_kappa1_matches_the_reference(name, exists):
    # κ₁(e_0·de) replaced by κ₁(e_0·de) + κ₁(e_1·de), still in Ω¹_∇.  On
    # a2_quotient I¹ is spanned by e_0·de, which κ₁ killed, so σ is then
    # absent; a2_flat's calculus is universal (I¹ = 0), so σ still exists
    # there, but is no longer well defined on balanced classes
    c = nabla(name)
    k1 = kappa1(c)
    assert all(v.ok for v in sigma_exists(c, k1).verdicts)
    k1.ops[0] = k1.ops[0].add(k1.ops[1])
    res = _assert_sigma_matches_the_reference(c, k1)
    assert res.exists == exists
    failing = [v.check_id for v in res.verdicts if not v.ok]
    assert failing == ["sigma-well-defined" if exists else "sigma-exists"]


def _d_nabla_cols(c: Connection):
    """d_∇e_f = ∇̂ê_f by columns, per basis element f of A."""
    a = c.module.algebra
    return [nabla_hat(c, kappa0_op(c, a.basis_vec(f))).cols
            for f in range(a.dim)]


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_the_left_leibniz_rule_by_columns_matches_the_per_pair_reference(case):
    # ∇∘L_f = X_f + L_f∘∇ decided by columns, against the dense per-pair
    # route of tests/_reference.py, for X_f = d_∇e_f and, where σ exists,
    # X_f = σ(de_f⊗·) by σ's columns and by σ's matrix
    c = SIGMA_CASES[case]()
    assert _left_leibniz_failure(c, _d_nabla_cols(c)) is None
    assert _reference.left_leibniz(c, _reference.d_nabla_x(c)) is None
    res = sigma_exists(c)
    if res.exists:
        a = c.module.algebra
        xs = [res.sigma.on(c.calculus.d_of_algebra(a.basis_vec(f)))
              for f in range(a.dim)]
        assert _left_leibniz_failure(c, xs) is None
        assert _reference.left_leibniz(
            c, _reference.sigma_x(c, res.sigma)) is None


@pytest.mark.parametrize("name", ["a2_flat", "a2_twist", "m2_grass"])
def test_a_failing_left_leibniz_rule_gives_the_per_pair_witness(name):
    # X_f taken as d_∇ of the next basis element, then d_∇e_f with one
    # entry raised by one at (f, a_i) in its first and last row: each rule
    # fails, and the first failing pair by columns is the reference's
    c = nabla(name)
    t1 = c.forms.dim(1)
    xs = _d_nabla_cols(c)
    cases = [xs[1:] + xs[:1]]
    for f, x in enumerate(xs):
        for i, col in enumerate(x):
            for row in {0, t1 - 1}:
                bad = list(xs)
                bad[f] = list(x)
                bad[f][i] = _col_sum([(col, 1), ([(row, 1)], 1)])
                cases.append(bad)
    found = []
    for bad in cases:
        w = _left_leibniz_failure(c, bad)
        assert w == _reference.left_leibniz(
            c, lambda f, av, bad=bad: mat_vec(_to_mat(bad[f], t1), av))
        found.append(w)
    assert None not in found
    assert found[1:] == [[f, i] for f, x in enumerate(xs)
                         for i in range(len(x)) for _ in {0, t1 - 1}]


def _raised(op: DegreeRHom, i: int, row: int) -> DegreeRHom:
    """op with its entry at (row, module basis i) raised by one."""
    col = dict(op.cols[i])
    col[row] = col.get(row, 0) + 1
    cols = list(op.cols)
    cols[i] = sorted((r, x) for r, x in col.items() if x)
    return DegreeRHom(op.forms, op.degree, cols)


@pytest.mark.parametrize("name", ["m2_grass", "a2_twist"])
def test_a_perturbed_operator_gives_the_dense_right_linearity_witness(name):
    # each ∇̂ê_g and the curvature operator, then each with one entry
    # raised by one: the witness read off columns is the dense route's
    # (tests/_reference.py); the perturbations fail at more than one pair,
    # or some pass
    c = nabla(name)
    a = c.module.algebra
    ops = [nabla_hat(c, kappa0_op(c, a.basis_vec(g))) for g in range(a.dim)]
    ops.append(DegreeRHom(c.forms, 2, c.curvature_cols(0)))
    found = []
    for op in ops:
        assert op.right_linearity_witness() is None
        assert _reference.right_linearity_witness(op) is None
        for i in range(c.module.dim):
            for row in range(c.forms.dim(op.degree)):
                bad = _raised(op, i, row)
                w = bad.right_linearity_witness()
                assert w == _reference.right_linearity_witness(bad)
                found.append(w)
    assert len(set(found)) > 1 and any(found)
