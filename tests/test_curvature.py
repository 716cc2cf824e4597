"""Curvature, Omega-hat, the submodule J, Omega(M), and the full induced
calculus with its all-degree sigma."""

from fractions import Fraction

from _shared import NAMES, a2, induced, pipeline
from bimodconn.connection import kappa0_op
from bimodconn.curvature import curvature, extend_connection, nabla_hat, \
    sigma_full
from bimodconn.linalg import is_zero_vec

F = Fraction


def test_extension_well_defined_everywhere():
    for which in NAMES:
        conn = pipeline(which)[0]
        assert all(v.ok for v in extend_connection(conn))


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
