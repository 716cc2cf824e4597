"""Curvature, Omega-hat, the submodule J, Omega(M), and the full induced
calculus with its all-degree sigma."""

from fractions import Fraction

import pytest

from _shared import MODELS, NAMES, a2, induced, model, pipeline
from bimodconn import cli
from bimodconn.connection import (Connection, DegreeRHom, check_right_leibniz,
                                  kappa0_op)
from bimodconn.curvature import curvature, extend_connection, nabla_hat, \
    sigma_full
from bimodconn.forms import Forms
from bimodconn.linalg import is_zero_vec, mat_mul, mat_vec
from bimodconn.model import ModelFile

F = Fraction


def test_extension_well_defined_everywhere():
    for which in NAMES:
        conn = pipeline(which)[0]
        assert all(v.ok for v in extend_connection(conn))


def test_extension_failure_names_a_vector_of_the_generator_span(
        monkeypatch, capsys):
    # A connection that obeys the right Leibniz rule always extends, and
    # parse_model rejects any other, so this ∇ is built directly: m2_grass's
    # ∇ with one entry changed.  (On the a2 models I = 0 or Ω² = 0, where
    # the check cannot fail.)
    m2 = model("m2_grass")
    good = m2.connections["nabla"]
    f = good.forms
    bad = [row[:] for row in good.nabla]
    bad[0][0] += 1
    conn = Connection(f, bad)
    assert not check_right_leibniz(conn).ok
    (v,) = extend_connection(conn)
    assert v.check_id == "nabla-extension-well-defined" and not v.ok
    r, k = v.witness["degree"], v.witness["sub_basis"]
    sub = f.quotient_space(r).sub
    assert k < len(sub)
    # the witness is the first vector of M⊗I^r, as spanned from the module
    # generators, that ∇ does not send to zero
    plain = conn.nabla_ext_plain(r)
    assert any(mat_vec(plain, sub[k]))
    assert not any(any(mat_vec(plain, w)) for w in sub[:k])
    monkeypatch.setattr(cli, "parse_model", lambda path, truncation=None:
                        ModelFile(m2.name, m2.algebra, m2.truncation,
                                  m2.calculus, m2.modules, {"nabla": conn}))
    code = cli.main(["curvature", "--model", str(MODELS / "m2_grass.model")])
    assert code == 1
    assert f'[   FAIL    ] nabla-extension-well-defined (Extending ∇ to)  ' \
        f'witness={{"degree": {r}, "sub_basis": {k}}}' in capsys.readouterr().out


@pytest.mark.parametrize("name", ["a2_flat", "a2_twist"])
def test_cached_operators_match_a_cold_computation(name):
    # compose, ext_matrix and nabla_hat read shared matrices out of the
    # caches of Forms and Connection; recompute each on fresh ones
    conn, oh, _, _ = pipeline(name)
    f = conn.forms

    def cold(op):
        forms = Forms(f.module, f.calculus)
        return (Connection(forms, conn.nabla),
                DegreeRHom(forms, op.degree, op.matrix))

    ops = [op for r in range(f.D + 1) for op in oh.ops(r)]
    # the same matrices one degree up extend differently
    ops += [DegreeRHom(f, op.degree + 1, op.matrix) for op in ops
            if op.degree < f.D and f.dim(op.degree + 1) == f.dim(op.degree)]
    for phi in ops:
        for s in range(f.D + 1 - phi.degree):
            assert phi.ext_matrix(s) == cold(phi)[1].ext_matrix(s)
        if phi.degree < f.D:
            assert nabla_hat(conn, phi).matrix == \
                nabla_hat(*cold(phi)).matrix
        for psi in ops:
            if phi.degree + psi.degree <= f.D:
                assert phi.compose(psi).matrix == \
                    mat_mul(phi.ext_matrix(psi.degree), psi.matrix) == \
                    cold(phi)[1].compose(psi).matrix


def test_flat_curvature_vanishes():
    for which in ("a2_flat", "a2_quotient"):
        conn = pipeline(which)[0]
        res = curvature(conn)
        assert res.operator.is_zero()
        assert res.left_linear


def test_curvature_right_omega_linear_everywhere():
    for which in NAMES:
        res = curvature(pipeline(which)[0])
        assert any(v.check_id == "curvature-right-omega-linear" and v.ok
                   for v in res.verdicts)


def test_curvature_not_left_linear_on_gauge_fixture():
    res = curvature(pipeline("m2_grass")[0])
    assert not res.operator.is_zero()
    assert not res.left_linear
    assert res.witness is not None
    assert any(res.witness["difference"])


def test_omega_hat_contains_kappa0_and_degree_one():
    conn, oh, _, _ = pipeline("a2_flat")
    assert oh.dim(0) >= 2
    assert oh.dim(1) == 2
    assert all(v.ok for v in oh.verdicts)


def test_omega_hat_second_derivative_vanishes_flat():
    conn, oh, _, _ = pipeline("a2_flat")
    for i in range(2):
        f_hat = kappa0_op(conn, a2().basis_vec(i))
        assert nabla_hat(conn, nabla_hat(conn, f_hat)).is_zero()


def test_j_degrees_zero_one_vanish_everywhere():
    for which in NAMES:
        j = pipeline(which)[2]
        assert j.dims()[0] == 0
        assert j.dims()[1] == 0
        assert all(v.ok for v in j.verdicts)


def test_j_vanishes_for_flat():
    for which in ("a2_flat", "a2_quotient"):
        assert all(d == 0 for d in pipeline(which)[2].dims())


def test_j_nonzero_for_gauge_fixture():
    j = pipeline("m2_grass")[2]
    assert j.dims()[2] > 0


def test_omega_m_equals_forms_when_j_zero():
    conn, _, _, om = pipeline("a2_flat")
    assert om.dims() == conn.forms.dims()


def test_omega_m_verdicts_everywhere():
    for which in NAMES:
        om = pipeline(which)[3]
        assert all(v.ok for v in om.verdicts)


def test_factored_curvature_left_linear_on_gauge_fixture():
    # upstairs the curvature is not left-linear; on Omega(M) it must be
    conn, _, _, om = pipeline("m2_grass")
    ids = {v.check_id: v for v in om.verdicts}
    assert ids["curvature-left-linear-on-omega-m"].ok
    assert ids["curvature-right-omega-on-omega-m"].ok


def test_induced_calculus_flat():
    ic = induced("a2_flat")
    assert all(v.ok for v in ic.verdicts)
    assert ic.calculus.dims() == [2, 2, 2, 2]


def test_induced_calculus_degree_zero_is_algebra():
    for which in NAMES:
        ic = induced(which)
        assert ic.calculus.dim(0) == ic.connection.module.algebra.dim


def test_d_nabla_squared_zero_everywhere():
    # includes the gauge model, where nabla-hat squared is nonzero upstairs
    for which in NAMES:
        ic = induced(which)
        assert any(v.check_id == "d-nabla-squared-zero" and v.ok
                   for v in ic.verdicts)


def test_sigma_full_flat():
    sf = sigma_full(induced("a2_flat"))
    assert sf.exists
    ids = {v.check_id: v for v in sf.verdicts}
    assert ids["sigma-u-multiplicative"].ok
    assert ids["sigma-u-derivation"].ok
    assert ids["sigma-all-degrees"].ok


def test_sigma_full_absent_on_twist():
    sf = sigma_full(induced("a2_twist"))
    assert not sf.exists
    assert sf.witnesses
    deg, bar = sf.witnesses[0]
    assert deg == 1
    assert not is_zero_vec(bar)


def test_compare_flat_mutually_below():
    v = induced("a2_flat").compare()
    assert v.dims["induced_preceq_calculus"]
    assert v.dims["calculus_preceq_induced"]


def test_compare_twist_not_below():
    v = induced("a2_twist").compare()
    assert not v.dims["calculus_preceq_induced"]
