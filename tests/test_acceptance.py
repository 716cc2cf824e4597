"""Acceptance gate: the ten headline properties of the analysis engine,
checked end to end on the shipped model files."""

import json
from fractions import Fraction
from pathlib import Path

from _shared import MODELS, NAMES, pipeline, universal
from bimodconn import cli
from bimodconn.connection import Connection, check_right_leibniz, nabla_hat
from bimodconn.linalg import _sparse
from bimodconn.model import parse_model
from bimodconn.tensorconn import (associated_connection, degeneracy_brute,
                                  degeneracy_submodules, nu_hat,
                                  tensor_connection_induced,
                                  tensor_connection_original)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"


def test_01_universal_dimension_law():
    # dim of the degree-one universal calculus is n^2 - n
    assert universal("a2_flat").dim(1) == 2
    assert universal("m2_grass").dim(1) == 12


def test_02_right_leibniz_and_derivation_law():
    for which in NAMES:
        p = pipeline(which)
        assert check_right_leibniz(p.conn).ok
        ifo = p.induced_first_order
        ids = {v.check_id: v for v in ifo.verdicts}
        assert ids["d-nabla-derivation"].ok
        assert ids["left-leibniz-induced"].ok


def test_03_kappa1_diagram_commutes():
    for which in NAMES:
        k1 = pipeline(which).kappa1
        ids = {v.check_id: v for v in k1.verdicts}
        assert ids["kappa1-diagram"].ok
        assert ids["kappa1-bimodule-linear"].ok


def test_04_sigma_dichotomy():
    for name in ("a2_flat", "a2_quotient"):
        res = pipeline(name).sigma
        assert res.exists
        ids = {v.check_id: v for v in res.verdicts}
        assert ids["sigma-left-leibniz"].ok
    k1, res = pipeline("a2_twist").kappa1, pipeline("a2_twist").sigma
    assert not res.exists
    assert res.witness_bar is not None
    assert not k1.op(_sparse(res.witness_bar)).is_zero()


def test_05_curvature_linearity_report():
    for which in NAMES:
        res = pipeline(which).curvature
        assert any(v.check_id == "curvature-right-omega-linear" and v.ok
                   for v in res.verdicts)
        ids = {v.check_id: v for v in pipeline(which).omega_m.verdicts}
        assert ids["curvature-left-linear-on-omega-m"].ok
    grass_res = pipeline("m2_grass").curvature
    assert not grass_res.left_linear
    assert grass_res.witness is not None


def test_06_j_closure():
    for which in NAMES:
        j = pipeline(which).j_ideal
        assert j.dims()[0] == 0 and j.dims()[1] == 0
        ids = {v.check_id: v for v in j.verdicts}
        assert ids["j-degrees-0-1-vanish"].ok
        assert ids["j-closure"].ok


def test_07_d_nabla_squared_zero():
    for which in NAMES:
        ic = pipeline(which).induced_calculus
        assert any(v.check_id == "d-nabla-squared-zero" and v.ok
                   for v in ic.verdicts)
    # on the gauge model the unfactored nabla-hat square is nonzero
    conn = pipeline("m2_grass").conn
    squares = []
    for f_hat in conn.forms.hats:
        squares.append(nabla_hat(conn, nabla_hat(conn, f_hat)))
    assert any(not s.is_zero() for s in squares)


def test_08_sigma_u_full_degree_identities():
    for which in ("a2_flat", "a2_quotient"):
        sf = pipeline(which).sigma_full
        ids = {v.check_id: v for v in sf.verdicts}
        assert ids["sigma-u-multiplicative"].ok
        assert ids["sigma-u-derivation"].ok
        assert ids["sigma-all-degrees"].ok


def test_09_tensor_product_routes():
    for which in NAMES:
        conn = pipeline(which).conn
        pair = degeneracy_submodules(conn.module, conn.module)
        assert degeneracy_brute(pair).ok
    for which in ("a2_flat", "a2_quotient"):
        p = pipeline(which)
        conn, ic = p.conn, p.induced_calculus
        rc = Connection(conn.forms, conn.nabla)
        nu = nu_hat(rc, p.kappa_hat)
        tco = tensor_connection_original(rc, conn, nu, p.sigma)
        assert all(v.ok for v in tco.verdicts)
        assert any(v.check_id == "tensor-route-agreement"
                   for v in tco.verdicts)
        assoc = associated_connection(rc, nu)
        assert assoc.exists
        assert any(v.check_id == "associated-square" and v.ok
                   for v in assoc.verdicts)
        tci = tensor_connection_induced(assoc.connection, conn, ic)
        assert all(v.ok for v in tci.verdicts)
        assert tci.connection.nabla == tco.connection.nabla


def test_10_deterministic_reports():
    first = cli.run("all", parse_model(str(MODELS / "a2_flat.model")))
    second = cli.run("all", parse_model(str(MODELS / "a2_flat.model")))
    assert first.to_json().encode() == second.to_json().encode()
    assert first.summary == "pass"


def test_11_reports_match_golden():
    # the checked-in reports of every model, reproduced byte for byte, at
    # the truncation the model states and, for the a2 models, at D=9
    cases = [("a2_trio", name, None)
             for name in ("a2_flat", "a2_quotient", "a2_twist")]
    cases += [("a2_deep", name, 9) for name in ("a2_flat", "a2_quotient")]
    cases += [("m2_grass", "m2_grass", None)]
    for golden, name, truncation in cases:
        report = cli.run("all", parse_model(str(MODELS / f"{name}.model"),
                                            truncation=truncation))
        for ext, text in (("json", report.to_json()),
                          ("txt", report.to_text())):
            with open(GOLDEN / golden / f"{name}.{ext}", encoding="utf-8",
                      newline="") as fh:
                assert text == fh.read(), f"{golden}/{name}.{ext}"


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _rebased_twist(tmp_path, p) -> str:
    """a2_twist in the module basis m'_k = Σ_j P_jk m_j, written to a file:
    the actions become P⁻¹·L·P, and so does the connection matrix, whose
    rows are module indices because a2 has one degree-one tail."""
    doc = json.loads((MODELS / "a2_twist.model").read_text())
    p = [[Fraction(x) for x in row] for row in p]
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    p_inv = [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]
    assert _mul(p, p_inv) == [[1, 0], [0, 1]]

    def rebased(m):
        m = [[Fraction(x) for x in row] for row in m]
        assert len(m) == len(p)
        return [[str(x) for x in row] for row in _mul(p_inv, _mul(m, p))]

    module = doc["modules"]["M"]
    for side in ("left", "right"):
        module[side] = [rebased(m) for m in module[side]]
    nabla = doc["connections"]["nabla"]
    nabla["nabla"] = rebased(nabla["nabla"])
    path = tmp_path / "a2_twist_rebased.model"
    path.write_text(json.dumps(doc))
    return str(path)


def test_12_module_basis_change_keeps_every_verdict(tmp_path):
    # P has non-integral entries, so the Fraction arithmetic runs end to
    # end, which no shipped model reaches.
    p = [[1, Fraction(2, 3)], [Fraction(1, 2), 2]]
    model = parse_model(_rebased_twist(tmp_path, p))
    assert any(x.denominator != 1
               for col in model.connections["nabla"].nabla
               for x in col.values())
    got = cli.run("all", model)
    want = cli.run("all", parse_model(str(MODELS / "a2_twist.model")))
    assert [(v.check_id, v.status, v.dims) for v in got.records] == \
        [(v.check_id, v.status, v.dims) for v in want.records]


def test_12_integral_connection_entries_parse_to_ints(tmp_path):
    # the rebased data hold non-integral entries, the projected ∇ does not
    p = [[1, Fraction(1, 2)], [-1, 3]]
    nabla = parse_model(_rebased_twist(tmp_path, p)).connections["nabla"].nabla
    assert nabla == [{0: -4}, {0: 5}]
    assert all(type(x) is int for col in nabla for x in col.values())
