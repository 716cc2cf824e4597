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
from bimodconn import (Pipeline, algebra, anchors, cli, connection, forms,
                       tensorconn)
from bimodconn.algebra import (BalancedTensor, balancing_relations,
                               tensor_over_A)
from bimodconn.calculus import GradedCalculus, preceq
from bimodconn.connection import Connection
from bimodconn.linalg import (DimensionError, _col_sum, _col_vec, _compose,
                              _to_mat, kernel_quotient, zeros)
from bimodconn.model import ModelFile, TensorRequest, parse_model
from bimodconn.report import rationals
from bimodconn.tensorconn import (TensorConnection, associated_connection,
                                  check_compatibility, degeneracy_brute,
                                  degeneracy_submodules, nu_hat,
                                  tensor_connection_induced,
                                  tensor_connection_original)


def rc_of(which: str) -> Connection:
    conn = pipeline(which).conn
    return Connection(conn.forms, conn.nabla)


def tensor_of(rc: Connection, c: Connection, nu) -> TensorConnection:
    """The one ∇⊗ of ∇′ = ``rc`` and ∇ = ``c``, as cli.run makes it for a
    tensor request: from ν̂∘∇′ (``nu.pushed``), on N⊗_AM, not yet built."""
    return TensorConnection(c.forms.tensors(rc.module), nu.pushed, c)


# ---------------------------------------------------------------------------
# degeneracy submodules
# ---------------------------------------------------------------------------

def test_regular_pairing_is_faithful():
    conn = nabla("a2_flat")
    pair = degeneracy_submodules(conn.module, conn.module,
                                 conn.forms.tensors(conn.module))
    assert pair.n0 == []
    assert pair.m0 == []
    assert all(v.ok for v in pair.verdicts)


def test_degeneracy_brute_oracle_everywhere():
    for which in NAMES:
        conn = pipeline(which).conn
        pair = degeneracy_submodules(conn.module, conn.module,
                                     conn.forms.tensors(conn.module))
        assert degeneracy_brute(pair).ok


def test_nonzero_degeneracy_kernel():
    n, m = skew_right_module(), column_module()
    pair = degeneracy_submodules(n, m, tensor_over_A(n, m))
    assert pair.tensor.dim == 1
    assert len(pair.n0) == 1
    assert pair.n0[0] == {0: 1}                     # N0 = span(x)
    assert pair.m0 == []
    assert all(v.ok for v in pair.verdicts)
    assert degeneracy_brute(pair).ok


def test_compatibility_pass_and_fail():
    n, m = skew_right_module(), column_module()
    pair = degeneracy_submodules(n, m, tensor_over_A(n, m))
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
        conn = p.conn
        rc = rc_of(which)
        nu = nu_hat(rc, p.kappa_hat)
        tc = tensor_of(rc, conn, nu)
        original = tensor_connection_original(tc, rc, p.sigma)
        assert tc.built[1] is not None
        assert all(v.ok for v in original)
        ids = [v.check_id for v in original]
        assert ids == ["tensor-connection-well-defined",
                       "tensor-right-leibniz", "tensor-route-agreement"]
        assoc = associated_connection(rc, nu)
        assert assoc.exists
        assert all(v.ok for v in assoc.verdicts)
        induced = tensor_connection_induced(tc)
        assert all(v.ok for v in induced)
        assert [v.check_id for v in induced] == ids[:2]
        # ∇′_M is ν̂∘∇′, the ξ of the one ∇⊗ both routes report, a
        # Connection on the one Forms of N⊗_AM
        assert assoc.connection is nu.pushed is tc.xi
        assert tc.built[1].forms is conn.forms.tensor_forms(rc.module)[0]


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
    tc = tensor_of(rc, conn, nu)
    (v,) = [v for v in tensor_connection_original(tc, rc, sig)
            if v.check_id == "tensor-route-agreement"]
    assert not v.ok
    # per pure pair (b_j, a_i): (id_N⊗σ)(∇′b_j)⊗a_i + b_j⊗∇a_i against the
    # ν̂ route, with σ applied to each term b_k⊗(1·de_β) of ∇′b_j, in
    # N ⊗ (M⊗_AΩ¹) and then in (N⊗_AM)⊗_AΩ¹
    n, m = rc.module, conn.module
    tn, tforms = tc.domain, tc.built[1].forms
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
            via_nu = combine(tc.built[1].nabla, _reference.project_pure(
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
    """ν̂, the one ∇⊗, the ν̂ route's report, the associated connection and
    the induced route's report for ∇′ = ∇ (N = M), as ``cli.run`` builds
    them for a "both" request."""
    c = p.conn
    nu = nu_hat(c, p.kappa_hat)
    tc = tensor_of(c, c, nu)
    original = tensor_connection_original(tc, c, p.sigma)
    assoc = associated_connection(c, nu)
    return nu, tc, original, assoc, tensor_connection_induced(tc)


def _witness(verdicts, check_id: str):
    (v,) = [v for v in verdicts if v.check_id == check_id]
    return v.witness


TENSOR_CASES = ["a2_flat", "a2_quotient", "t3"]


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_the_tensor_checks_by_columns_match_the_dense_references(name):
    p = _fresh(name)
    c = p.conn
    nu, tc, original, assoc, induced = _routes(p)
    assert nu.available and assoc.exists
    _assert_routes_match_references(p, c, nu, tc, original, assoc, induced)
    n = c.module
    for x, y in ((n, n), (n, forms_bimodule(c.forms, 1))):
        rels = balancing_relations(x, y)
        assert [_col_vec(rel, x.dim * y.dim) for rel in rels] == \
            _reference.balancing_relations(x, y)
        assert all(rel and all(rel.values()) for rel in rels)


def _assert_routes_match_references(p: Pipeline, rc: Connection, nu, tc,
                                    original, assoc, induced) -> None:
    """ν̂'s right linearity, ∇⊗ with its checks on both routes' reports,
    ∇′_M with its checks and the σ-route agreement of a "both" request, for
    ∇′ = ``rc`` on N and ∇ = ``p.conn`` on M, as the dense references give
    them: ∇⊗ off the dense ν̂∘∇′ and off the dense ∇′_M alike."""
    c = p.conn
    n = rc.module
    assert _witness(nu.verdicts, "nu-hat-right-linear") == \
        _reference.nu_hat_right_linear(nu)
    tail_ops = [c.d_hats[j].cols for j in c.calculus.universal.complement]
    am = assoc.connection
    conn = tc.built[1]
    for report, xi_forms, xi in (
            (original, nu.target, [combine(nu.maps[1], nabla_apply(
                rc, basis_vec(n.dim, j)), nu.target.dim(1))
                for j in range(n.dim)]),
            (induced, am.forms, [nabla_apply(am, basis_vec(n.dim, j))
                                 for j in range(n.dim)])):
        assert _to_mat(conn.nabla, conn.forms.dim(1)) == \
            _reference.tensor_matrix(c, tc, xi_forms, xi, tail_ops)
        assert _witness(report, "tensor-right-leibniz") == \
            _tensor_leibniz(tc)
        assert _witness(report, "tensor-connection-well-defined") == \
            _reference.tensor_well_defined(c, tc.domain, conn.forms,
                                           xi_forms, xi, tail_ops)
    assert [_to_mat(cols, nu.target.dim(r + 1))
            for r, cols in enumerate(assoc.ext_cols)] == \
        [h for h, _ in _reference.associated_factors(rc, nu)]
    assert _witness(assoc.verdicts, "associated-square") == \
        _reference.associated_square(rc, nu, assoc.ext_cols)
    assert _witness(assoc.verdicts, "right-leibniz") == \
        _reference.right_leibniz(am)
    assert _witness(original, "tensor-route-agreement") == \
        _reference.sigma_route(tc, rc, c, p.sigma)
    # the two routes report one ∇⊗, read off ξ = ν̂∘∇′, which is ∇′_M
    assert am is nu.pushed is tc.xi


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
    tc = tensor_of(rc, c, nu)
    original = tensor_connection_original(tc, rc, p.sigma)
    assoc = associated_connection(rc, nu)
    induced = tensor_connection_induced(tc)
    assert report.records[1:] == [*pair.verdicts, brute, compat,
                                  *nu.verdicts, *original,
                                  *assoc.verdicts, *induced]
    _assert_routes_match_references(p, rc, nu, tc, original, assoc, induced)


# ∇′ = ∇ with one entry (row, col) raised by one, for which ∇⊗ kills not
# every balancing relation; the parser rejects such a ∇′, so only an
# in-memory model reaches the tensor routes with it
ILL_DEFINED = [("a2_flat", 0, 0), ("a2_flat", 1, 1), ("a2_quotient", 0, 1)]


@pytest.mark.parametrize("name, row, col", ILL_DEFINED)
def test_an_ill_defined_tensor_connection_is_reported_not_raised(
        name, row, col):
    # both routes report the relation witness of the dense reference, and
    # neither decides the right Leibniz rule or the σ-route agreement of a
    # ∇⊗ that is not defined
    mf = parse_model(str(MODELS / f"{name}.model"))
    c = mf.connections["nabla"]
    rc = Connection(c.forms, c.nabla[:col] + [_bumped(c.nabla[col], row)]
                    + c.nabla[col + 1:])
    mf.connections["bad"] = rc
    mf.tensor_requests[:] = [TensorRequest("bad", "nabla", "both")]
    report = cli.run("tensor", mf)
    assert report.summary == "fail"
    p = Pipeline(c)
    assert p.sigma.exists
    nu = nu_hat(rc, p.kappa_hat)
    n = rc.module
    xi = [combine(nu.maps[1], nabla_apply(rc, basis_vec(n.dim, j)),
                  nu.target.dim(1)) for j in range(n.dim)]
    tail_ops = [c.d_hats[j].cols for j in c.calculus.universal.complement]
    witness = _reference.tensor_well_defined(
        c, c.forms.tensors(n), c.forms.tensor_forms(n)[0], nu.target, xi,
        tail_ops)
    assert witness is not None
    tensor = [(v.check_id, v.anchor, v.status, v.witness)
              for v in report.records if v.check_id in (
                  "tensor-connection-well-defined", "tensor-right-leibniz",
                  "tensor-route-agreement")]
    assert tensor == [
        ("tensor-connection-well-defined", anchors.ORIGINAL_ROUTE, "fail",
         witness),
        ("tensor-connection-well-defined", anchors.INTERPRETED, "fail",
         witness)]


@pytest.mark.parametrize("name", ["a2_flat", "a2_quotient", "skew"])
def test_a_both_request_builds_one_tensor_connection(monkeypatch, name):
    # ν̂∘∇′ is composed once, as ν̂'s connection ∇′_M, and both routes
    # report the one ∇⊗ built from it: one Connection on the Forms of
    # N⊗_AM, whose right Leibniz rule is decided once
    mf = _skew_model(False) if name == "skew" else \
        parse_model(str(MODELS / f"{name}.model"))
    (req,) = mf.tensor_requests
    assert req.route == "both"
    rc, c = mf.connections[req.left], mf.connections[req.right]
    composed, built, decided = [], [], []

    def compose(x, y, real=tensorconn._compose):
        composed.append(y)
        return real(x, y)

    def construct(forms, nabla, real=tensorconn.Connection):
        built.append(forms)
        return real(forms, nabla)

    def leibniz(conn, real=connection.right_leibniz_failure):
        decided.append(conn.forms)
        return real(conn)

    monkeypatch.setattr(tensorconn, "_compose", compose)
    monkeypatch.setattr(tensorconn, "Connection", construct)
    for module in (tensorconn, connection):
        monkeypatch.setattr(module, "right_leibniz_failure", leibniz)
    report = cli.run("tensor", mf)
    assert report.summary == "pass"
    tensor_forms = c.forms.tensor_forms(rc.module)[0]
    assert [f for f in built if f is tensor_forms] == [tensor_forms]
    assert [f for f in decided if f is tensor_forms] == [tensor_forms]
    assert [y for y in composed if y is rc.nabla] == [rc.nabla]


def _bumped(col, row: int = 0):
    """A sparse column with 1 added at the given row, as a new dict."""
    return _col_sum([(col, 1), ({row: 1}, 1)])


def _tensor_leibniz(tc):
    """The witness of ``tensor-right-leibniz``: ``_reference.right_leibniz``
    on ∇⊗, under the tensor check's witness keys."""
    w = _reference.right_leibniz(tc.built[1])
    return w and {"basis": w["module_basis"],
                  "algebra_basis": w["algebra_basis"]}


def _perturbed_routes(monkeypatch, p: Pipeline, col: int, row: int):
    """``_routes`` with one entry of the one ∇⊗ both routes report, (row,
    col), off by one, as its columns are handed to Connection: ∇⊗, the ν̂
    route's report and the induced route's."""
    real = tensorconn.Connection
    c = p.conn
    tensor_forms = c.forms.tensor_forms(c.module)[0]
    built = []

    def perturbed(forms, nabla):
        if forms is tensor_forms:
            built.append(forms)
            nabla[col] = _bumped(nabla[col], row)
        return real(forms, nabla)

    monkeypatch.setattr(tensorconn, "Connection", perturbed)
    _, tc, original, _, induced = _routes(p)
    monkeypatch.undo()
    assert built == [tensor_forms]
    return tc, original, induced


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
    pair = degeneracy_submodules(n, m, tensor=c.forms.tensors(n))
    assert (dense_vecs(pair.n0, n.dim), dense_vecs(pair.m0, m.dim),
            pair.verdicts) == (ref.n0, ref.m0, ref.verdicts)
    assert degeneracy_brute(pair) == _reference.degeneracy_brute(ref)
    sig = p.sigma
    tc = tensor_of(rc, c, nu_hat(rc, p.kappa_hat))
    original = tensor_connection_original(tc, rc, sig)
    if name in ("a2_twist", "m2_grass"):
        assert not sig.exists         # so no ν̂ and no σ route
        return
    assert _witness(original, "tensor-route-agreement") is None
    assert _reference.sigma_route(tc, rc, c, sig) is None
    # one entry of ∇⊗ off by one: the routes disagree at the same pair
    conn = tc.built[1]
    tc.built = (None, Connection(conn.forms, [_bumped(conn.nabla[0])]
                                 + conn.nabla[1:]), None)
    v = tensorconn._check_sigma_route(tc, rc, sig)
    assert not v.ok and v.witness is not None
    assert v.witness == _reference.sigma_route(tc, rc, c, sig)


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

    for module in (connection, forms):
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


@pytest.mark.parametrize("name", ["a2_flat", "a2_quotient"])
def test_an_all_run_builds_the_balancing_relations_of_each_pair_once(
        monkeypatch, name):
    # Ω¹⊗_AM for σ and N⊗_AM for the tensor request: both routes of ∇⊗
    # check well-definedness on the relations N⊗_AM keeps
    calls = []

    def counting(x, y, balancing_relations=algebra.balancing_relations):
        calls.append((x, y))
        return balancing_relations(x, y)

    monkeypatch.setattr(algebra, "balancing_relations", counting)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    assert len(calls) == len({(id(x), id(y)) for x, y in calls}) == 2


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
    tc, *reports = _perturbed_routes(monkeypatch, p, col, row)
    for report in reports:
        v = next(v for v in report if v.check_id == "tensor-right-leibniz")
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
        tc, *reports = _perturbed_routes(monkeypatch, p, col, row)
        for report in reports:
            v = next(v for v in report
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
        (v,) = degeneracy_submodules(
            p.conn.module, p.conn.module,
            p.conn.forms.tensors(p.conn.module)).verdicts
        monkeypatch.undo()
        return v
    got, plain = _first_failures(name, check)
    assert got == plain
    assert (got.status, got.witness["side"], got.witness["algebra_basis"]) \
        == ("fail", "N0", 0)


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_associated_entry_fails_the_square_as_the_dense_route(
        name):
    # ∇′_M is read off ν̂∘∇′ at the target's free columns, where ν̂ takes
    # the source class to e_k.  ν̂₀ is the identity, so ∇′_M = ν̂∘∇′ holds
    # in degree 0 by construction; in degree 1 the square fails once ν̂₁,
    # the map ∇′_M is read through, takes the source class at the target's
    # first free column to 2·e_0, with ξ = ν̂∘∇′ composed from it as nu_hat
    # composes it
    p = _fresh(name)
    c = p.conn
    nu = nu_hat(c, p.kappa_hat)
    k = nu.source.quotient_space(1).free.index(
        nu.target.quotient_space(1).free[0])
    assert nu.maps[1][k] == {0: 1}
    nu.maps[1] = nu.maps[1][:]
    nu.maps[1][k] = _bumped(nu.maps[1][k])
    nu.pushed = Connection(nu.target, _compose(nu.maps[1], c.nabla))
    assoc = associated_connection(c, nu)
    assert assoc.exists and assoc.connection is nu.pushed
    witness = _witness(assoc.verdicts, "associated-square")
    # on a2_quotient T₂ = 0, so ∇′ vanishes from degree 1 on and no degree
    # is left where the square can fail: it passes, as the reference says
    assert witness == (None if name == "a2_quotient" else {"degree": 1})
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
