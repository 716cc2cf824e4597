"""Connections, nabla-hat, the induced first-order calculus, kappa1, sigma."""

from fractions import Fraction

from bimodconn.connection import (Connection, check_right_leibniz,
                                  induced_first_order, kappa0_op, kappa1,
                                  nabla_hat, sigma_exists)
from bimodconn.fixtures import a2, conn_d, twist
from bimodconn.linalg import is_zero_vec, zero_mat, zeros

F = Fraction


def emb_e1e2():
    v = zeros(4)
    v[0 * 2 + 1] = F(1)          # e1 (x) e2
    return v


def test_right_leibniz_flat():
    for level in ("universal", "quotient"):
        assert check_right_leibniz(conn_d(level)).status == "pass"


def test_right_leibniz_zero_map_fails():
    c0 = conn_d("universal")
    forms_dim = c0.forms.dim(1)
    bad = Connection(c0.forms, zero_mat(forms_dim, 2))
    v = check_right_leibniz(bad)
    assert v.status == "fail"
    assert v.witness is not None


def test_right_leibniz_twist():
    assert check_right_leibniz(twist()).status == "pass"


def test_nabla_hat_of_identity_vanishes():
    c = conn_d("universal")
    one_hat = kappa0_op(c, a2().unit_vec())
    assert nabla_hat(c, one_hat).is_zero()


def test_nabla_hat_of_e1_on_e2():
    c = conn_d("universal")
    nh = nabla_hat(c, kappa0_op(c, a2().basis_vec(0)))
    expected = c.forms.class_of_pair_emb(1, a2().unit_vec(),
                                         [-x for x in emb_e1e2()])
    assert nh.apply(a2().basis_vec(1)) == expected


def test_nabla_hat_of_e1_is_left_mult_by_de1():
    # with nabla = d, (nabla-hat e1-hat)(a) = (d e1)·a for every basis a
    c = conn_d("universal")
    uni = c.calculus.universal
    nh = nabla_hat(c, kappa0_op(c, a2().basis_vec(0)))
    de1 = uni.d_emb(a2().basis_vec(0), 0)
    for i in range(2):
        prod = uni.product_emb(de1, 1, a2().basis_vec(i), 0)
        expected = c.forms.class_of_pair_emb(1, a2().unit_vec(), prod)
        assert nh.apply(a2().basis_vec(i)) == expected


def test_induced_first_order_dim():
    ifo = induced_first_order(conn_d("universal"))
    assert ifo.dim == 2
    assert all(v.ok for v in ifo.verdicts)


def test_d_nabla_of_unit_is_zero():
    ifo = induced_first_order(conn_d("universal"))
    assert ifo.d_nabla(a2().unit_vec()).is_zero()


def test_induced_derivation_law_on_twist():
    ifo = induced_first_order(twist())
    assert all(v.ok for v in ifo.verdicts)


def test_kappa1_on_e1_tensor_e2():
    c = conn_d("universal")
    k1 = kappa1(c)
    op = k1.op(c.calculus.universal.from_emb(1, emb_e1e2()))
    assert is_zero_vec(op.apply(a2().basis_vec(0)))
    expected = c.forms.class_of_pair_emb(1, a2().unit_vec(), emb_e1e2())
    assert op.apply(a2().basis_vec(1)) == expected


def test_kappa1_injective_on_flat():
    k1 = kappa1(conn_d("universal"))
    assert k1.rank() == 2
    assert k1.injective
    assert all(v.ok for v in k1.verdicts)


def test_kappa1_of_d_unit_is_zero():
    c = conn_d("universal")
    k1 = kappa1(c)
    d_unit = c.calculus.universal.d_emb(a2().unit_vec(), 0)
    assert is_zero_vec(d_unit)
    assert k1.op(c.calculus.universal.from_emb(1, d_unit)).is_zero()


def test_sigma_exists_universal():
    res = sigma_exists(conn_d("universal"))
    assert res.exists
    assert res.sigma.level == "universal"
    assert all(v.ok for v in res.verdicts)


def test_sigma_exists_on_quotient():
    res = sigma_exists(conn_d("quotient"))
    assert res.exists
    assert res.sigma.level == "projected"
    assert all(v.ok for v in res.verdicts)
    ids = {v.check_id for v in res.verdicts}
    assert "sigma-left-leibniz" in ids


def test_sigma_absent_on_twist():
    c = twist()
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
