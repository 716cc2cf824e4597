"""Connections, nabla-hat, the induced first-order calculus, kappa1, sigma."""

from fractions import Fraction

import pytest

import _reference
from _reference import (apply, class_of_pair_bar, d_bar, d_of_algebra,
                        is_zero_vec, project, sparse_class)
from _shared import (MODELS, NAMES, a2, model, nabla, pipeline,
                     regular_connection, upper_triangular, whole_basis)
import bimodconn.connection as connection_module
from bimodconn import Pipeline
from bimodconn.connection import (Connection, Kappa1, _left_leibniz_failure,
                                  check_right_leibniz, induced_first_order,
                                  kappa0_op, nabla_hat, sigma_exists)
from bimodconn.forms import DegreeRHom, Forms
from bimodconn.linalg import (_col_sum, _col_vec, _sparse, _to_mat, mat_vec,
                              zeros)
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
    bad = Connection(c0.forms, [{}, {}])
    v = check_right_leibniz(bad)
    assert v.status == "fail"
    assert v.witness is not None


def test_connection_refuses_nabla_of_the_wrong_shape():
    # one column per basis vector of M, each row in range(dim M⊗_AΩ¹)
    c = nabla("a2_flat")
    n_rows = c.forms.dim(1)
    assert len(c.nabla) == c.module.dim == 2
    for bad in (c.nabla[:1], c.nabla + [{}], [{n_rows: 1}, c.nabla[1]],
                [{-1: 1}, c.nabla[1]]):
        with pytest.raises(ValueError, match="one column per basis vector"):
            Connection(c.forms, bad)
    assert Connection(c.forms, [{n_rows - 1: 1}, {}]).nabla == \
        [{n_rows - 1: 1}, {}]


def test_right_leibniz_twist():
    assert check_right_leibniz(nabla("a2_twist")).status == "pass"


def test_nabla_hat_of_identity_vanishes():
    c = nabla("a2_flat")
    one_hat = kappa0_op(c, a2().one)
    assert nabla_hat(c, one_hat).is_zero()


def test_nabla_hat_of_e1_on_e2():
    c = nabla("a2_flat")
    nh = nabla_hat(c, kappa0_op(c, {0: 1}))
    bar = _col_vec(c.calculus.universal.from_emb(
        1, [-x for x in emb_e1e2()]), c.calculus.universal.bar_dim(1))
    expected = class_of_pair_bar(c.forms, 1, list(a2().unit), bar)
    assert apply(nh, _reference.basis_vec(a2().dim, 1)) == expected


def test_nabla_hat_of_e1_is_left_mult_by_de1():
    # with nabla = d, (nabla-hat e1-hat)(a) = (d e1)·a for every basis a
    c = nabla("a2_flat")
    uni = c.calculus.universal
    nh = nabla_hat(c, kappa0_op(c, {0: 1}))
    de1 = d_bar(uni, 0, _reference.basis_vec(a2().dim, 0))
    for i in range(2):
        prod = _reference.product(uni, 1, de1, 0,
                                  _reference.basis_vec(a2().dim, i))
        expected = class_of_pair_bar(c.forms, 1, list(a2().unit), prod)
        assert apply(nh, _reference.basis_vec(a2().dim, i)) == expected


def test_compose_past_the_truncation_raises():
    # a2_flat has D = 3, and ∇̂∇̂ê₁ has degree 2, so the product would have
    # degree 4; it used to end in an IndexError
    c = nabla("a2_flat")
    t2 = nabla_hat(c, nabla_hat(c, kappa0_op(c, {0: 1})))
    assert t2.degree == 2 and c.forms.D == 3
    with pytest.raises(ValueError, match="truncation"):
        t2.compose(t2)
    with pytest.raises(ValueError, match="truncation"):
        nabla_hat(c, t2.compose(nabla_hat(c, kappa0_op(c, a2().one))))


def test_add_across_degrees_raises():
    # it used to return a degree-0 operator, silently wrong
    c = nabla("a2_flat")
    e1 = kappa0_op(c, {0: 1})
    with pytest.raises(ValueError, match="degree"):
        e1.add(nabla_hat(c, e1))
    assert e1.add(e1).cols == _reference.scaled(e1, 2).cols


def test_equal_operators_share_one_id_per_forms():
    # DegreeRHom.key interns the content (degree, entries) in its Forms:
    # equal columns in one degree give one id, whatever the order of their
    # keys, and a composition or ∇̂ found in a cache is the operator itself
    c = nabla("a2_flat")
    f = Forms(c.module, c.calculus)
    conn = Connection(f, c.nabla)
    e1 = kappa0_op(conn, {0: 1})
    twin = DegreeRHom(f, 0, [dict(reversed(col.items())) for col in e1.cols])
    content = tuple(sorted((i, row, x) for i, col in enumerate(e1.cols)
                           for row, x in col.items()))
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
    # d_∇1 = ∇̂ê₁ + ∇̂ê₂, the unit of ℂ² being e₁ + e₂
    c = nabla("a2_flat")
    assert a2().unit == (1, 1)
    assert c.d_hats[0].add(c.d_hats[1]).is_zero()


def test_induced_derivation_law_on_twist():
    ifo = induced_first_order(nabla("a2_twist"))
    assert all(v.ok for v in ifo.verdicts)


# Faults that break an identity for all f in A first at a basis element
# that is not a generator: the check, decided on the generators first, must
# fail with the witness of the plain basis scan (``whole_basis``).  Each
# fault keeps the set of good f a unital subalgebra, so a generator fails
# too.

def _faulted_connection(name: str) -> Connection:
    """A fresh ∇, so a fault reaches no cached one: m2_grass's, or
    ∇ = d + Γ· on T₂ at D=3."""
    if name == "m2_grass":
        return parse_model(
            str(MODELS / "m2_grass.model")).connections["nabla"]
    return regular_connection(upper_triangular(2), 3, 0)


@pytest.mark.parametrize("name, k, entry, pair", [
    ("m2_grass", 0, (2, 0), [0, 2]), ("t2", 0, (1, 2), [0, 1])])
def test_a_wrong_nabla_hat_fails_the_derivation_law_as_the_basis_scan(
        monkeypatch, name, k, entry, pair):
    # ∇̂ on degree-0 operators off by λ(Φ)·∇̂ê_k, λ(Φ) the entry of Φ at
    # (row, column) = ``entry``: linear and zero at the identity, but no
    # derivation, so the law fails; the f for which it holds for every g
    # still form a unital subalgebra
    real = connection_module.nabla_hat
    row, col = entry

    def wrong(c, phi):
        out = real(c, phi)
        lam = phi.cols[col].get(row, 0) if phi.degree == 0 else 0
        if not lam:
            return out
        psi = real(c, kappa0_op(c, {k: 1}))
        return DegreeRHom(out.forms, 1, [
            _col_sum([(x, 1), (y, lam)]) if x or y else {}
            for x, y in zip(out.cols, psi.cols)])

    monkeypatch.setattr(connection_module, "nabla_hat", wrong)
    verdicts = []
    for scan in (lambda a: a, whole_basis):
        c = _faulted_connection(name)
        scan(c.module.algebra)
        verdicts.append(induced_first_order(c).verdicts)
    got, plain = verdicts
    assert got == plain
    assert (got[-1].check_id, got[-1].status, got[-1].witness) == \
        ("d-nabla-derivation", "fail", {"pair": pair})
    assert pair[0] not in _faulted_connection(name).module.algebra.generators


def test_kappa1_on_e1_tensor_e2():
    c = nabla("a2_flat")
    k1 = pipeline("a2_flat").kappa1
    bar = c.calculus.universal.from_emb(1, emb_e1e2())
    op = k1.op(bar)
    assert is_zero_vec(apply(op, _reference.basis_vec(a2().dim, 0)))
    expected = class_of_pair_bar(c.forms, 1, list(a2().unit), _col_vec(
        bar, c.calculus.universal.bar_dim(1)))
    assert apply(op, _reference.basis_vec(a2().dim, 1)) == expected


def test_kappa1_injective_on_flat():
    k1 = pipeline("a2_flat").kappa1
    assert k1.rank() == 2
    assert k1.injective
    assert all(v.ok for v in k1.verdicts)


def test_kappa1_of_d_unit_is_zero():
    c = nabla("a2_flat")
    k1 = pipeline("a2_flat").kappa1
    d_unit = d_bar(c.calculus.universal, 0, list(a2().unit))
    assert is_zero_vec(d_unit)
    assert k1.op(_sparse(d_unit)).is_zero()


def test_sigma_exists_universal():
    res = pipeline("a2_flat").sigma
    assert res.exists
    assert res.sigma.level == "universal"
    assert all(v.ok for v in res.verdicts)


def test_sigma_exists_on_quotient():
    res = pipeline("a2_quotient").sigma
    assert res.exists
    assert res.sigma.level == "projected"
    assert all(v.ok for v in res.verdicts)
    ids = {v.check_id for v in res.verdicts}
    assert "sigma-left-leibniz" in ids


def test_sigma_absent_on_twist():
    p = pipeline("a2_twist")
    c, k1, res = p.conn, p.kappa1, p.sigma
    assert not res.exists
    wit = res.witness_bar
    assert wit is not None and not is_zero_vec(wit)
    # the witness lies in the defining kernel K of the quotient calculus...
    cal = c.calculus
    assert is_zero_vec(project(cal.quotients[1], wit))
    # ...and has nonzero kappa1-image, so sigma cannot factor through
    assert not k1.op(_sparse(wit)).is_zero()


def _linearity_witness(k1):
    """The witness of κ₁'s ``kappa1-bimodule-linear`` verdict."""
    (v,) = [v for v in k1.verdicts if v.check_id == "kappa1-bimodule-linear"]
    assert v.ok == (v.witness is None)
    return v.witness


@pytest.mark.parametrize("name", NAMES)
def test_kappa1_linearity_matches_the_per_triple_reference(name):
    k1 = pipeline(name).kappa1
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
    table[col] = {k: x for k, x in entries.items() if x}
    k1 = Pipeline(m.connections["nabla"]).kappa1
    assert _linearity_witness(k1) == {"triple": triple}
    assert _reference.kappa1_bimodule_linear(k1) == {"triple": triple}


def _inner_automorphism(a, n: int) -> list[list]:
    """φ(e_f) = (1 + e_n)·e_f·(1 − e_n) per f, an automorphism of A for
    e_n with e_n² = 0, as coordinate vectors."""
    one, e = list(a.unit), _reference.basis_vec(a.dim, n)
    p, q = [x + y for x, y in zip(one, e)], [x - y for x, y in zip(one, e)]
    return [_reference.mult(
        a, _reference.mult(a, p, _reference.basis_vec(a.dim, f)), q)
        for f in range(a.dim)]


@pytest.mark.parametrize("name, triple", [
    ("m2_grass", [0, 0, 2]), ("t2", [0, 0, 1])])
def test_a_twisted_right_action_fails_kappa1_linearity_as_the_basis_scan(
        name, triple):
    # u ↦ u·e_g on Ω¹_u replaced by u ↦ u·φ(e_g), φ conjugation by 1 + e12:
    # still a right action, so the g on which κ₁ is right linear form a
    # unital subalgebra, which e11 (index 0) and e21 or e22 leave; the
    # triple is the basis scan's and the reference's, at f = g = e11
    witnesses = []
    for scan in (lambda a: a, whole_basis):
        c = _faulted_connection(name)
        a = scan(c.module.algebra)
        uni = c.calculus.universal
        table, phi = uni._right_cols[1], _inner_automorphism(a, 1)
        uni._right_cols[1] = [
            [_col_sum(t) if (t := [(table[k][col], x)
                                   for k, x in enumerate(phi[g])
                                   if x and table[k][col]]) else {}
             for col in range(len(table[g]))] for g in range(a.dim)]
        k1 = Pipeline(c).kappa1
        witnesses.append(_linearity_witness(k1))
        assert _reference.kappa1_bimodule_linear(k1) == {"triple": triple}
    assert witnesses == [{"triple": triple}] * 2
    assert triple[0] not in _faulted_connection(name).module.algebra.generators


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
    k1 = Pipeline(c).kappa1
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
    # a new list of operators: κ₁'s own is the connection's kappa_ops(1),
    # and the perturbation must not reach it
    p = Pipeline(nabla(name))
    c = p.conn
    assert all(v.ok for v in p.sigma.verdicts)
    ops = list(p.kappa1.ops)
    ops[0] = ops[0].add(ops[1])
    k1 = Kappa1(c, ops)
    res = _assert_sigma_matches_the_reference(c, k1)
    assert res.exists == exists
    failing = [v.check_id for v in res.verdicts if not v.ok]
    assert failing == ["sigma-well-defined" if exists else "sigma-exists"]


def _d_nabla_cols(c: Connection):
    """d_∇e_f = ∇̂ê_f by columns, per basis element f of A."""
    a = c.module.algebra
    return [nabla_hat(c, kappa0_op(c, {f: 1})).cols
            for f in range(a.dim)]


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_the_left_leibniz_rule_by_columns_matches_the_per_pair_reference(case):
    # ∇∘L_f = X_f + L_f∘∇ decided by columns, against the dense per-pair
    # route of tests/_reference.py, for X_f = d_∇e_f and, where σ exists,
    # X_f = σ(de_f⊗·) by σ's columns and by σ's matrix
    c = SIGMA_CASES[case]()
    assert _left_leibniz_failure(c, _d_nabla_cols(c)) is None
    assert _reference.left_leibniz(c, _reference.d_nabla_x(c)) is None
    res = Pipeline(c).sigma
    if res.exists:
        a = c.module.algebra
        xs = [res.sigma.on(sparse_class(d_of_algebra(
            c.calculus, _reference.basis_vec(a.dim, f)))) for f in range(a.dim)]
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
                bad[f][i] = _col_sum([(col, 1), ({row: 1}, 1)])
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
    cols[i] = {r: x for r, x in col.items() if x}
    return DegreeRHom(op.forms, op.degree, cols)


@pytest.mark.parametrize("name", ["m2_grass", "a2_twist"])
def test_a_perturbed_operator_gives_the_dense_right_linearity_witness(name):
    # each ∇̂ê_g and the curvature operator, then each with one entry
    # raised by one: the witness read off columns is the dense route's
    # (tests/_reference.py); the perturbations fail at more than one pair,
    # or some pass
    c = nabla(name)
    a = c.module.algebra
    ops = [nabla_hat(c, kappa0_op(c, {g: 1})) for g in range(a.dim)]
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
