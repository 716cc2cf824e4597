"""Tensor-product connections: degeneracy submodules, nu-hat, both routes,
and the associated connection."""

import hashlib

import pytest

import _reference
from _reference import (basis_vec, class_of_pair_bar, class_product, combine,
                        d_bar, d_of_algebra, dense_vecs, identity_mat,
                        is_zero_vec, lift, nabla_apply, project,
                        sparse_class)
from _shared import (MODELS, NAMES, a2, column_connection, column_module,
                     forms_bimodule, nabla, pipeline, regular_connection,
                     skew_connection, skew_right_module, upper_triangular,
                     whole_basis)
from bimodconn import Pipeline, algebra, cli, connection, forms, tensorconn
from bimodconn.algebra import BalancedTensor, balancing_relations
from bimodconn.calculus import GradedCalculus, preceq
from bimodconn.connection import Connection
from bimodconn.linalg import (DimensionError, _col_sum, _col_vec, _to_mat,
                              kernel_quotient, zeros)
from bimodconn.model import ModelFile, TensorRequest, parse_model
from bimodconn.report import rationals
from bimodconn.tensorconn import (associated_connection, check_compatibility,
                                  degeneracy_brute, degeneracy_submodules,
                                  nu_hat, tensor_connection_induced,
                                  tensor_connection_original)


def rc_of(which: str) -> Connection:
    conn = pipeline(which).conn
    return Connection(conn.forms, conn.nabla)


# ---------------------------------------------------------------------------
# degeneracy submodules
# ---------------------------------------------------------------------------

def test_regular_pairing_is_faithful():
    conn = nabla("a2_flat")
    pair = degeneracy_submodules(conn.module, conn.module)
    assert pair.n0 == []
    assert pair.m0 == []
    assert all(v.ok for v in pair.verdicts)


def test_degeneracy_brute_oracle_everywhere():
    for which in NAMES:
        conn = pipeline(which).conn
        pair = degeneracy_submodules(conn.module, conn.module)
        assert degeneracy_brute(pair).ok


def test_nonzero_degeneracy_kernel():
    pair = degeneracy_submodules(skew_right_module(), column_module())
    assert pair.tensor.dim == 1
    assert len(pair.n0) == 1
    assert pair.n0[0] == {0: 1}                     # N0 = span(x)
    assert pair.m0 == []
    assert all(v.ok for v in pair.verdicts)
    assert degeneracy_brute(pair).ok


def test_compatibility_pass_and_fail():
    pair = degeneracy_submodules(skew_right_module(), column_module())
    c = column_connection()
    assert check_compatibility(c, skew_connection(), pair).ok
    # a right-linear perturbation pushes ∇′x out of N0⊗Ω¹
    v = check_compatibility(c, skew_connection(perturbed=True), pair)
    assert v.status == "fail"
    assert v.witness is not None


# ---------------------------------------------------------------------------
# nu-hat and the two tensor-connection routes
# ---------------------------------------------------------------------------

def test_nu_hat_iso_in_degree_one_flat():
    nu = nu_hat(rc_of("a2_flat"), pipeline("a2_flat").kappa_hat)
    assert nu.available
    assert all(v.ok for v in nu.verdicts)
    assert nu.rank(1) == nu.source.dim(1) == 2


def test_nu_hat_unavailable_without_kappa_hat():
    assert pipeline("a2_twist").kappa_hat is None
    nu = nu_hat(rc_of("a2_twist"), None)
    assert not nu.available
    assert any(v.status == "unavailable" for v in nu.verdicts)


def test_nu_hat_rejects_connection_over_another_calculus():
    with pytest.raises(DimensionError):
        nu_hat(rc_of("a2_quotient"), pipeline("a2_flat").kappa_hat)


def test_both_routes_flat():
    for which in ("a2_flat", "a2_quotient"):
        p = pipeline(which)
        conn, ic = p.conn, p.induced_calculus
        rc = rc_of(which)
        nu = nu_hat(rc, p.kappa_hat)
        tco = tensor_connection_original(rc, conn, nu, p.sigma)
        assert tco.available
        assert all(v.ok for v in tco.verdicts)
        ids = {v.check_id for v in tco.verdicts}
        assert "tensor-right-leibniz" in ids
        assert "tensor-route-agreement" in ids
        assoc = associated_connection(rc, nu)
        assert assoc.exists
        assert all(v.ok for v in assoc.verdicts)
        tci = tensor_connection_induced(assoc.connection, conn, ic)
        assert all(v.ok for v in tci.verdicts)
        # the two routes build the same connection on N⊗_AM, one Connection
        # each on the one Forms of N⊗_AM
        assert tci.connection.forms is tco.connection.forms is \
            conn.forms.tensor_forms(rc.module)[0]
        assert tci.connection.nabla == tco.connection.nabla


def test_a_wrong_de_class_fails_nu_hat_right_linearity_at_the_first_column():
    # a fresh pipeline, so the fault does not reach the cached models.  On
    # a2_flat Ω_∇ is Ω's own object, where the fault would reach both sides
    # of the square; the target is a distinct calculus built from the same
    # kernel quotients, so ν̂'s target is a Forms of its own
    conn = parse_model(str(MODELS / "a2_flat.model")).connections["nabla"]
    ic = Pipeline(conn).induced_calculus
    assert ic.calculus is conn.calculus
    uni = conn.calculus.universal
    target = GradedCalculus(uni, [conn.calculus.quotients[0]] + [
        kernel_quotient(ic._columns[r]) for r in range(1, uni.D + 1)])
    a = conn.module.algebra
    # the target's class of de_j, column j of d on Ω⁰, replaced by that of
    # e_0·de_j
    target._d_cols[0] = [sparse_class(class_product(
        target, 0, basis_vec(a.dim, 0), 1, _col_vec(col, target.dim(1))))
        for col in target.d_cols(0)]
    nu = nu_hat(Connection(conn.forms, conn.nabla),
                preceq(target, conn.calculus)[0])
    (v,) = [v for v in nu.verdicts if v.check_id == "nu-hat-right-linear"]
    # ν̂(q)·de_j against ν̂(q·de_j), column by column, by representatives
    src, tgt = nu.source, nu.target
    assert tgt is not src and tgt.calculus is target
    differ = []
    for r in range(src.D):
        for j in src.uni.complement:
            de_src = d_of_algebra(conn.calculus, basis_vec(a.dim, j))
            de_tgt = _col_vec(target.d_cols(0)[j], target.dim(1))
            for c, q in enumerate(identity_mat(src.dim(r))):
                lhs = _reference.mult_class(
                    tgt, r, combine(nu.maps[r], q, tgt.dim(r)), 1, de_tgt)
                rhs = combine(nu.maps[r + 1], _reference.mult_class(
                    src, r, q, 1, de_src), tgt.dim(r + 1))
                if lhs != rhs:
                    differ.append({"degree": r, "tail": j, "basis": c})
    assert differ
    assert v.witness == differ[0]
    assert v.witness["basis"] > 0


def test_associated_connection_of_d_is_d_nabla():
    # ∇′ = d on N = A: the associated connection is d against (Ω_∇, d_∇)
    rc = rc_of("a2_flat")
    nu = nu_hat(rc, pipeline("a2_flat").kappa_hat)
    assoc = associated_connection(rc, nu)
    assert assoc.exists
    am = assoc.connection
    uni = am.calculus.universal
    unit = list(a2().unit)
    for i in range(a2().dim):
        bar = d_bar(uni, 0, basis_vec(a2().dim, i))
        expected = class_of_pair_bar(am.forms, 1, unit, bar)
        assert nabla_apply(am, basis_vec(rc.module.dim, i)) == expected
    assert is_zero_vec(nabla_apply(am, unit))


def test_a_perturbed_sigma_fails_route_agreement_at_the_first_differing_pair():
    p = pipeline("a2_flat")
    conn, rc = p.conn, rc_of("a2_flat")
    nu = nu_hat(rc, p.kappa_hat)
    # a fresh σ: the perturbation must not reach the cached pipeline
    sig = Pipeline(conn).sigma
    # σ's columns are κ₁'s operator columns, shared: column 0 is replaced
    # by a new one with its entry in row 1 raised by one, never edited
    sig.sigma.cols = list(sig.sigma.cols)
    sig.sigma.cols[0] = _bumped(sig.sigma.cols[0], 1)
    tco = tensor_connection_original(rc, conn, nu, sig)
    (v,) = [v for v in tco.verdicts if v.check_id == "tensor-route-agreement"]
    assert not v.ok
    # per pure pair (b_j, a_i): (id_N⊗σ)(∇′b_j)⊗a_i + b_j⊗∇a_i against the
    # ν̂ route, with σ applied to each term b_k⊗(1·de_β) of ∇′b_j, in
    # N ⊗ (M⊗_AΩ¹) and then in (N⊗_AM)⊗_AΩ¹
    n, m = rc.module, conn.module
    tn, tforms = tco.domain, tco.connection.forms
    uni = conn.calculus.universal
    nt, t1 = rc.forms.n_tails(1), conn.forms.dim(1)
    unit = list(uni.algebra.unit)
    tails = []
    for bidx in range(nt):
        bar = zeros(uni.bar_dim(1))
        for t, ct in enumerate(unit):
            bar[t * nt + bidx] = ct
        tails.append(project(conn.calculus.quotients[1], bar))
    differ = []
    for j in range(n.dim):
        xi = lift(rc.forms.quotient_space(1),
                  nabla_apply(rc, basis_vec(n.dim, j)))
        for i in range(m.dim):
            av = basis_vec(m.dim, i)
            out = zeros(n.dim * t1)
            for flat, cc in enumerate(xi):
                k, bidx = divmod(flat, nt)
                val = _reference.sigma_apply(conn, sig.sigma,
                                             _reference.project_pure(
                                                 sig.sigma.tensor,
                                                 tails[bidx], av))
                for l, x in enumerate(val):
                    out[k * t1 + l] += cc * x
            for l, x in enumerate(nabla_apply(conn, av)):
                out[j * t1 + l] += x
            via_nu = combine(tco.connection.nabla, _reference.project_pure(
                tn, basis_vec(n.dim, j), av), tforms.dim(1))
            if _reference.tensor_class(conn.forms, tn, tforms, out) != via_nu:
                differ.append([j, i])
    assert differ
    assert v.witness == {"pair": differ[0]}


# ---------------------------------------------------------------------------
# the column routes against the dense references
# ---------------------------------------------------------------------------

def _fresh(name: str) -> Pipeline:
    """A pipeline built afresh, so a fault reaches no cached one: of a
    shipped model's ∇, or of ∇ = d + Γ· on T₃ at D=2 ("t3")."""
    if name == "t3":
        return Pipeline(regular_connection(upper_triangular(3), 2, 0))
    return Pipeline(
        parse_model(str(MODELS / f"{name}.model")).connections["nabla"])


def _routes(p: Pipeline):
    """ν̂, the ν̂ route, the associated connection and the induced route for
    ∇′ = ∇ (N = M), as ``cli.run`` builds them for a "both" request."""
    c, ic = p.conn, p.induced_calculus
    nu = nu_hat(c, p.kappa_hat)
    tco = tensor_connection_original(c, c, nu, p.sigma)
    assoc = associated_connection(c, nu)
    tci = tensor_connection_induced(assoc.connection, c, ic)
    return nu, tco, assoc, tci


def _witness(verdicts, check_id: str):
    (v,) = [v for v in verdicts if v.check_id == check_id]
    return v.witness


TENSOR_CASES = ["a2_flat", "a2_quotient", "t3"]


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_the_tensor_checks_by_columns_match_the_dense_references(name):
    p = _fresh(name)
    c = p.conn
    nu, tco, assoc, tci = _routes(p)
    assert nu.available and assoc.exists
    _assert_routes_match_references(p, c, nu, tco, assoc, tci)
    n = c.module
    for x, y in ((n, n), (n, forms_bimodule(c.forms, 1))):
        rels = balancing_relations(x, y)
        assert [_col_vec(rel, x.dim * y.dim) for rel in rels] == \
            _reference.balancing_relations(x, y)
        assert all(rel and all(rel.values()) for rel in rels)


def _assert_routes_match_references(p: Pipeline, rc: Connection, nu, tco,
                                    assoc, tci) -> None:
    """ν̂'s right linearity, ∇⊗ on both routes with its checks, ∇′_M with
    its checks and the σ-route agreement of a "both" request, for ∇′ =
    ``rc`` on N and ∇ = ``p.conn`` on M, as the dense references give
    them."""
    c = p.conn
    n = rc.module
    assert _witness(nu.verdicts, "nu-hat-right-linear") == \
        _reference.nu_hat_right_linear(nu)
    tail_ops = [c.d_hats[j].cols for j in c.calculus.universal.complement]
    am = assoc.connection
    for tc, xi_forms, xi in (
            (tco, nu.target, [combine(nu.maps[1], nabla_apply(
                rc, basis_vec(n.dim, j)), nu.target.dim(1))
                for j in range(n.dim)]),
            (tci, am.forms, [nabla_apply(am, basis_vec(n.dim, j))
                             for j in range(n.dim)])):
        assert _to_mat(tc.connection.nabla, tc.connection.forms.dim(1)) == \
            _reference.tensor_matrix(c, tc, xi_forms, xi, tail_ops)
        assert _witness(tc.verdicts, "tensor-right-leibniz") == \
            _tensor_leibniz(tc)
        assert _witness(tc.verdicts, "tensor-connection-well-defined") == \
            _reference.tensor_well_defined(c, tc.domain, tc.connection.forms,
                                           xi_forms, xi, tail_ops)
    assert [_to_mat(cols, nu.target.dim(r + 1))
            for r, cols in enumerate(assoc.ext_cols)] == \
        [h for h, _ in _reference.associated_factors(rc, nu)]
    assert _witness(assoc.verdicts, "associated-square") == \
        _reference.associated_square(rc, nu, assoc.ext_cols)
    assert _witness(assoc.verdicts, "right-leibniz") == \
        _reference.right_leibniz(am)
    assert _witness(tco.verdicts, "tensor-route-agreement") == \
        _reference.sigma_route(tco, rc, c, p.sigma)


def _skew_model(perturbed: bool) -> ModelFile:
    """An in-memory model with N ≠ M: ``skew_connection`` (N₀ = span(x))
    as "nabla_n", ``column_connection`` as "nabla_m", and one "both"
    request for the two."""
    c, rc = column_connection(), skew_connection(perturbed)
    mf = ModelFile("skew", a2(), c.forms.D, c.calculus,
                   {"N": rc.module, "M": c.module},
                   {"nabla_n": rc, "nabla_m": c})
    mf.tensor_requests.append(TensorRequest("nabla_n", "nabla_m", "both"))
    return mf


# the tensor report of ``_skew_model``, plain and with ∇′ perturbed
SKEW_PINS = {
    False: "320212aa128bab30438f31fc8b2f07b645b073d5e0f7d4db8315632c2dc25012",
    True: "739fa8b2c30123eb7d30d56f8cb4650e77510223cbd904d8c420c69379e481a9"}


@pytest.mark.parametrize("perturbed", [False, True])
def test_an_n_other_than_m_runs_end_to_end_as_the_references_say(perturbed):
    # N ≠ M and N₀ ≠ 0 through cli.run: the report is pinned, its records
    # are the stages' verdicts in the order cli builds them, and each
    # tensor verdict is the dense reference's.  The perturbation pushes
    # ∇′x out of N₀⊗Ω¹, which fails tensor-compatibility only
    mf = _skew_model(perturbed)
    report = cli.run("tensor", mf)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        SKEW_PINS[perturbed]
    failing = [(v.check_id, v.witness) for v in report.records
               if v.status == "fail"]
    assert failing == ([("tensor-compatibility",
                         {"side": "N0", "vector": [1, 0]})]
                       if perturbed else [])
    rc, c = mf.connections["nabla_n"], mf.connections["nabla_m"]
    n, m = rc.module, c.module
    p = Pipeline(c)
    pair = degeneracy_submodules(n, m, tensor=c.forms.tensors(n))
    ref = _reference.degeneracy_submodules(n, m)
    assert (dense_vecs(pair.n0, n.dim), dense_vecs(pair.m0, m.dim),
            pair.verdicts) == (ref.n0, ref.m0, ref.verdicts) == \
        ([[1, 0]], [], pair.verdicts)
    brute = degeneracy_brute(pair)
    assert brute == _reference.degeneracy_brute(ref)
    compat = check_compatibility(c, rc, pair)
    assert compat.witness == _reference.compatibility(c, rc, ref)
    nu = nu_hat(rc, p.kappa_hat)
    tco = tensor_connection_original(rc, c, nu, p.sigma)
    assoc = associated_connection(rc, nu)
    tci = tensor_connection_induced(assoc.connection, c, p.induced_calculus)
    assert report.records[1:] == [*pair.verdicts, brute, compat,
                                  *nu.verdicts, *tco.verdicts,
                                  *assoc.verdicts, *tci.verdicts]
    _assert_routes_match_references(p, rc, nu, tco, assoc, tci)


def _bumped(col, row: int = 0):
    """A sparse column with 1 added at the given row, as a new dict."""
    return _col_sum([(col, 1), ({row: 1}, 1)])


def _tensor_leibniz(tc):
    """The witness of ``tensor-right-leibniz``: ``_reference.right_leibniz``
    on ∇⊗, under the tensor check's witness keys."""
    w = _reference.right_leibniz(tc.connection)
    return w and {"basis": w["module_basis"],
                  "algebra_basis": w["algebra_basis"]}


def _perturbed_routes(monkeypatch, p: Pipeline, col: int, row: int):
    """``_routes`` with one entry of ∇⊗, (row, col), off by one on both
    routes, as its columns are handed to Connection."""
    real = tensorconn.Connection
    c = p.conn
    tensor_forms = c.forms.tensor_forms(c.module)[0]

    def perturbed(forms, nabla):
        if forms is tensor_forms:
            nabla[col] = _bumped(nabla[col], row)
        return real(forms, nabla)

    monkeypatch.setattr(tensorconn, "Connection", perturbed)
    routes = _routes(p)
    monkeypatch.undo()
    return routes


def _pure_pair_case(name: str):
    """(the pipeline of ∇ on M, ∇′ on N): N = M for a shipped model or T₃
    at D=2, as a "both" request builds them, or the N and M of
    test_nonzero_degeneracy_kernel ("skew", where N₀ ≠ 0)."""
    if name == "skew":
        return Pipeline(column_connection()), skew_connection()
    p = _fresh(name)
    return p, p.conn


@pytest.mark.parametrize("name", [*NAMES, "t3", "skew"])
def test_pure_pairs_off_the_projection_match_the_project_pure_route(name):
    # the class of b_j⊗a_i is read as a column of the tensor's projection;
    # N₀, M₀, both degeneracy verdicts and the σ-route agreement must be
    # those of tests/_reference.py, which projects dense unit vectors
    p, rc = _pure_pair_case(name)
    c = p.conn
    n, m = rc.module, c.module
    ref = _reference.degeneracy_submodules(n, m)
    for pair in (degeneracy_submodules(n, m),
                 degeneracy_submodules(n, m, tensor=c.forms.tensors(n))):
        assert (dense_vecs(pair.n0, n.dim), dense_vecs(pair.m0, m.dim),
                pair.verdicts) == (ref.n0, ref.m0, ref.verdicts)
        assert degeneracy_brute(pair) == _reference.degeneracy_brute(ref)
    sig = p.sigma
    tco = tensor_connection_original(rc, c, nu_hat(rc, p.kappa_hat), sig)
    if name in ("a2_twist", "m2_grass"):
        assert not sig.exists         # so no ν̂ and no σ route
        return
    assert _witness(tco.verdicts, "tensor-route-agreement") is None
    assert _reference.sigma_route(tco, rc, c, sig) is None
    # one entry of ∇⊗ off by one: the routes disagree at the same pair
    nabla_t = tco.connection.nabla
    tco.connection = Connection(tco.connection.forms,
                                [_bumped(nabla_t[0])] + nabla_t[1:])
    tco.verdicts = []
    tensorconn._check_sigma_route(tco, rc, c, sig)
    witness = _witness(tco.verdicts, "tensor-route-agreement")
    assert witness is not None
    assert witness == _reference.sigma_route(tco, rc, c, sig)


def test_a_tensor_request_builds_its_balanced_tensors_once(monkeypatch):
    # both routes of a "both" request read N⊗_AM and its Forms, the
    # codomain of ∇⊗: N⊗_AM is built once, over M, and made a bimodule
    # once; no balanced tensor is built over M⊗_AΩ¹
    built, bimodules = [], []

    def counting(x, y, tensor_over_A=algebra.tensor_over_A):
        built.append((x, y))
        return tensor_over_A(x, y)

    as_bimodule = BalancedTensor.as_bimodule

    def counting_bimodule(self):
        bimodules.append(self)
        return as_bimodule(self)

    for module in (connection, forms, tensorconn):
        monkeypatch.setattr(module, "tensor_over_A", counting)
    monkeypatch.setattr(BalancedTensor, "as_bimodule", counting_bimodule)
    m = parse_model(str(MODELS / "a2_flat.model"))
    cli.run("tensor", m)
    c = m.connections["nabla"]
    assert [y for x, y in built if x is c.module] == [c.module]
    assert all(y is c.module for _, y in built)
    tn = c.forms.tensors(c.module)
    assert bimodules == [tn]
    assert c.forms.tensor_forms(c.module)[0].module.dim == tn.dim


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_nu_hat_column_fails_as_the_dense_squares_do(name):
    p = _fresh(name)
    # the last column of ν̂ in degree 1 off by one in row 0
    nu = nu_hat(p.conn, p.kappa_hat)
    assert nu.verdicts[-1].ok
    nu.maps[1] = nu.maps[1][:]
    nu.maps[1][-1] = _bumped(nu.maps[1][-1])
    v = tensorconn._nu_right_linear(nu)
    assert not v.ok
    assert v.witness == _reference.nu_hat_right_linear(nu)


@pytest.mark.parametrize("name, col, row",
                         [("a2_flat", 0, 0), ("a2_quotient", 1, 0),
                          ("t3", 0, 5)])
def test_a_perturbed_tensor_column_fails_right_leibniz_as_the_dense_route(
        monkeypatch, name, col, row):
    # one entry of ∇⊗ off by one, where that change is not itself right
    # linear
    p = _fresh(name)
    for tc in _perturbed_routes(monkeypatch, p, col, row)[1::2]:
        v = next(v for v in tc.verdicts
                 if v.check_id == "tensor-right-leibniz")
        assert not v.ok
        assert v.witness == _tensor_leibniz(tc)


# Faults that break an identity for all f in A first at a basis element
# that is not a generator (index 0: e1 of ℂ², e11 of T₃ and of M₂): the
# check, decided on the generators first, must fail with the witness of the
# plain basis scan (``whole_basis``), and of the dense reference where one
# exists.  Each fault keeps the set of good f a unital subalgebra: the
# perturbed map is still linear, and a subspace added to N₀ is one.

def _first_failures(name: str, check) -> list:
    """``check`` on a fresh pipeline, then on one whose algebra scans its
    whole basis."""
    assert 0 not in _fresh(name).conn.module.algebra.generators
    found = []
    for scan in (lambda a: a, whole_basis):
        p = _fresh(name)
        scan(p.conn.module.algebra)
        found.append(check(p))
    return found


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_nu_hat_fails_a_square_by_e_f_as_the_basis_scan(name):
    # ν̂ in degree 0 off by one at row 1 of column 0
    def check(p):
        nu = nu_hat(p.conn, p.kappa_hat)
        nu.maps[0] = nu.maps[0][:]
        nu.maps[0][0] = _bumped(nu.maps[0][0], 1)
        v = tensorconn._nu_right_linear(nu)
        assert v.witness == _reference.nu_hat_right_linear(nu)
        return v
    got, plain = _first_failures(name, check)
    assert got == plain
    assert (got.status, got.witness) == \
        ("fail", {"degree": 0, "algebra_basis": 0})


@pytest.mark.parametrize("name, col, row", [("a2_flat", 0, 0),
                                            ("a2_quotient", 1, 0)])
def test_a_perturbed_tensor_column_fails_right_leibniz_as_the_basis_scan(
        monkeypatch, name, col, row):
    def check(p):
        found = []
        for tc in _perturbed_routes(monkeypatch, p, col, row)[1::2]:
            v = next(v for v in tc.verdicts
                     if v.check_id == "tensor-right-leibniz")
            assert v.witness == _tensor_leibniz(tc)
            found.append(v)
        return found
    got, plain = _first_failures(name, check)
    assert got == plain
    assert [(v.status, v.witness) for v in got] == \
        [("fail", {"basis": col, "algebra_basis": 0})] * 2


@pytest.mark.parametrize("name", ["a2_flat", "m2_grass", "t3"])
def test_a_vector_added_to_n0_fails_its_closure_as_the_basis_scan(
        monkeypatch, name):
    # b₀ + b₁ put first in the basis of N₀ that the first null space
    # degeneracy_submodules computes hands it (N₀ is 0 on these models)
    real = tensorconn.null_space

    def check(p):
        calls = []

        def with_x(cols):
            calls.append(cols)
            found = real(cols)
            if len(calls) > 1:
                return found
            return [{0: 1, 1: 1}] + found
        monkeypatch.setattr(tensorconn, "null_space", with_x)
        (v,) = degeneracy_submodules(p.conn.module, p.conn.module).verdicts
        monkeypatch.undo()
        return v
    got, plain = _first_failures(name, check)
    assert got == plain
    assert (got.status, got.witness["side"], got.witness["algebra_basis"]) \
        == ("fail", "N0", 0)


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_associated_entry_fails_the_square_as_the_dense_route(
        monkeypatch, name):
    # ∇′_M in degree 0, read off ν̂∘∇′'s columns at the target's free
    # columns, off by one at (0, 0) as it is handed to Connection
    p = _fresh(name)
    c = p.conn
    nu = nu_hat(c, p.kappa_hat)

    calls = []

    def perturbed(forms, nabla):
        calls.append(forms)
        nabla[0] = _bumped(nabla[0])
        return Connection(forms, nabla)

    monkeypatch.setattr(tensorconn, "Connection", perturbed)
    assoc = associated_connection(c, nu)
    assert calls == [nu.target]
    witness = _witness(assoc.verdicts, "associated-square")
    assert witness == {"degree": 0}
    assert witness == _reference.associated_square(c, nu, assoc.ext_cols)


def test_a_kernel_vector_of_nu_hat_that_nabla_moves_is_the_absent_witness():
    # T₃ at D=2: ν̂₁ takes N⊗Ω¹ (30 dims) onto N⊗Ω¹_∇ (27 dims).  Its three
    # columns off the target's free columns are zero, so their unit vectors
    # span ker ν̂₁, and ν̂∘∇′ kills them.  With the first of them set to e_0,
    # ν̂₁'s column at the representative of target class 0, ker ν̂₁ holds
    # a difference of two unit vectors instead, which ν̂∘∇′ does not kill
    p = _fresh("t3")
    c = p.conn
    nu = nu_hat(c, p.kappa_hat)
    src, tgt = nu.source.quotient_space(1), nu.target.quotient_space(1)
    assert (src.dim, tgt.dim) == (30, 27)
    off = [k for k, fc in enumerate(src.free) if fc not in tgt.free]
    assert len(off) == 3 and all(nu.maps[1][k] == {} for k in off)
    nu.maps[1][off[0]] = {0: 1}
    assoc = associated_connection(c, nu)
    (v,) = [v for v in assoc.verdicts if v.check_id == "associated-connection"]
    assert v.status == "absent" and not assoc.exists
    assert assoc.connection is None and assoc.ext_cols == []
    factors = _reference.associated_factors(c, nu)
    assert [h is None for h, _ in factors] == [False, True]
    assert v.witness == {"degree": 1,
                         "kernel_element": rationals(factors[1][1])}
