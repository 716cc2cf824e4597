"""Tensor-product connections: degeneracy submodules, nu-hat, both routes,
and the associated connection."""

from fractions import Fraction

import pytest

import _reference
from _reference import class_of_pair_bar, class_product, is_zero_vec
from _shared import (MODELS, NAMES, a2, induced, nabla, pipeline,
                     regular_connection, universal, upper_triangular)
from bimodconn import algebra, cli, connection, tensorconn
from bimodconn.algebra import Bimodule, balancing_relations, check_bimodule
from bimodconn.calculus import preceq
from bimodconn.connection import Connection, check_right_leibniz, sigma_exists
from bimodconn.curvature import InducedCalculus, OmegaHat, OmegaM, j_ideal
from bimodconn.forms import Forms
from bimodconn.linalg import (DimensionError, _col_sum, _col_vec, _combine,
                              _to_cols, _to_mat, identity_mat, zeros)
from bimodconn.model import parse_model
from bimodconn.report import rationals
from bimodconn.tensorconn import (associated_connection, check_compatibility,
                                  degeneracy_brute, degeneracy_submodules,
                                  nu_hat, tensor_connection_induced,
                                  tensor_connection_original)

F = Fraction


def kappa_hat(which: str):
    conn = pipeline(which)[0]
    return preceq(induced(which).calculus, conn.calculus)[0]


def rc_of(which: str) -> Connection:
    conn = pipeline(which)[0]
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
        conn = pipeline(which)[0]
        pair = degeneracy_submodules(conn.module, conn.module)
        assert degeneracy_brute(pair).ok


# A right module N = x ⊕ y with x·e1 = 0, x·e2 = x, y·e1 = y, y·e2 = 0,
# paired with the one-dimensional e1-column bimodule M: then x⊗m = 0 for
# every m, so N0 = span(x) while y⊗m stays nonzero and M0 = 0.

def column_module() -> Bimodule:
    left = [[[1]], [[0]]]
    right = [[[1]], [[0]]]
    m = Bimodule.from_actions(a2(), left, right)
    assert check_bimodule(m).ok
    return m


def skew_right_module() -> Bimodule:
    # only the right action of N is read; ℂ² is commutative, so the same
    # matrices as the left action make N a bimodule
    right = [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]
    n = Bimodule.from_actions(a2(), right, right)
    assert check_bimodule(n).ok
    return n


def column_connection() -> Connection:
    m = column_module()
    cal = universal("a2_flat")
    forms = Forms(m, cal)
    emb = zeros(4)
    emb[0 * 2 + 1] = F(1)                           # e1 (x) e2
    bar = cal.universal.from_emb(1, emb)
    col = [-x for x in class_of_pair_bar(forms, 1, [F(1)], bar)]
    c = Connection(forms, _to_cols([[x] for x in col], 1))
    assert check_right_leibniz(c).ok
    return c


def skew_connection(perturbed: bool = False) -> Connection:
    n = skew_right_module()
    cal = universal("a2_flat")
    forms = Forms(n, cal)
    uni = cal.universal
    cols = []
    for i, j in ((0, 1), (1, 0)):                   # x⊗de2, y⊗de1
        bar = uni.d(0, a2().basis_vec(j))
        cols.append(class_of_pair_bar(forms, 1, n.basis_vec(i), bar))
    if perturbed:
        emb = zeros(4)
        emb[0 * 2 + 1] = F(1)                       # add y⊗(e1⊗e2) to ∇′x
        cols[0] = _reference.vec_add(cols[0], class_of_pair_bar(
            forms, 1, n.basis_vec(1), uni.from_emb(1, emb)))
    matrix = [[cols[c][r] for c in range(2)] for r in range(forms.dim(1))]
    rc = Connection(forms, _to_cols(matrix, 2))
    assert check_right_leibniz(rc).ok
    return rc


def test_nonzero_degeneracy_kernel():
    pair = degeneracy_submodules(skew_right_module(), column_module())
    assert pair.tensor.dim == 1
    assert len(pair.n0) == 1
    assert pair.n0[0] == [F(1), F(0)]               # N0 = span(x)
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
    nu = nu_hat(rc_of("a2_flat"), kappa_hat("a2_flat"))
    assert nu.available
    assert all(v.ok for v in nu.verdicts)
    assert nu.rank(1) == nu.source.dim(1) == 2


def test_nu_hat_unavailable_without_kappa_hat():
    assert kappa_hat("a2_twist") is None
    nu = nu_hat(rc_of("a2_twist"), None)
    assert not nu.available
    assert any(v.status == "unavailable" for v in nu.verdicts)


def test_nu_hat_rejects_connection_over_another_calculus():
    with pytest.raises(DimensionError):
        nu_hat(rc_of("a2_quotient"), kappa_hat("a2_flat"))


def test_both_routes_flat():
    for which in ("a2_flat", "a2_quotient"):
        conn = pipeline(which)[0]
        ic = induced(which)
        rc = rc_of(which)
        nu = nu_hat(rc, kappa_hat(which))
        sig = sigma_exists(conn)
        tco = tensor_connection_original(rc, conn, ic, nu, sig)
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
        # the two routes build the same connection matrix on N⊗M
        assert tci.cols == tco.cols


def test_a_wrong_de_class_fails_nu_hat_right_linearity_at_the_first_column():
    # a fresh pipeline, so the fault does not reach the cached models
    conn = parse_model(str(MODELS / "a2_flat.model")).connections["nabla"]
    target = InducedCalculus(
        conn, OmegaM(conn, j_ideal(conn, OmegaHat(conn)))).calculus
    a = conn.module.algebra
    # the target's class of de_j replaced by that of e_0·de_j
    d_of_algebra = target.d_of_algebra
    target.d_of_algebra = lambda f: class_product(
        target, 0, a.basis_vec(0), 1, d_of_algebra(f))
    nu = nu_hat(Connection(conn.forms, conn.nabla),
                preceq(target, conn.calculus)[0])
    (v,) = [v for v in nu.verdicts if v.check_id == "nu-hat-right-linear"]
    # ν̂(q)·de_j against ν̂(q·de_j), column by column, by representatives
    src, tgt = nu.source, nu.target
    differ = []
    for r in range(src.D):
        for j in src.uni.complement:
            de_src = conn.calculus.d_of_algebra(a.basis_vec(j))
            de_tgt = target.d_of_algebra(a.basis_vec(j))
            for c, q in enumerate(identity_mat(src.dim(r))):
                lhs = _reference.mult_class(
                    tgt, r, _combine(nu.maps[r], q, tgt.dim(r)), 1, de_tgt)
                rhs = _combine(nu.maps[r + 1], _reference.mult_class(
                    src, r, q, 1, de_src), tgt.dim(r + 1))
                if lhs != rhs:
                    differ.append({"degree": r, "tail": j, "basis": c})
    assert differ
    assert v.witness == differ[0]
    assert v.witness["basis"] > 0


def test_associated_connection_of_d_is_d_nabla():
    # ∇′ = d on N = A: the associated connection is d against (Ω_∇, d_∇)
    rc = rc_of("a2_flat")
    nu = nu_hat(rc, kappa_hat("a2_flat"))
    assoc = associated_connection(rc, nu)
    assert assoc.exists
    am = assoc.connection
    uni = am.calculus.universal
    unit = a2().unit_vec()
    for i in range(a2().dim):
        bar = uni.d(0, a2().basis_vec(i))
        expected = class_of_pair_bar(am.forms, 1, unit, bar)
        assert am.nabla_apply(rc.module.basis_vec(i)) == expected
    assert is_zero_vec(am.nabla_apply(unit))


def test_a_perturbed_sigma_fails_route_agreement_at_the_first_differing_pair():
    conn = pipeline("a2_flat")[0]
    rc = rc_of("a2_flat")
    nu = nu_hat(rc, kappa_hat("a2_flat"))
    sig = sigma_exists(conn)
    # σ's columns are κ₁'s operator columns, shared: column 0 is replaced
    # by a new one with its entry in row 1 raised by one, never edited
    sig.sigma.cols = list(sig.sigma.cols)
    sig.sigma.cols[0] = _bumped(sig.sigma.cols[0], 1)
    tco = tensor_connection_original(rc, conn, induced("a2_flat"), nu, sig)
    (v,) = [v for v in tco.verdicts if v.check_id == "tensor-route-agreement"]
    assert not v.ok
    # per pure pair (b_j, a_i): (id_N⊗σ)(∇′b_j)⊗a_i + b_j⊗∇a_i against the
    # ν̂ route, with σ applied to each term b_k⊗(1·de_β) of ∇′b_j
    n, m, w = rc.module, conn.module, tco.codomain
    uni = conn.calculus.universal
    nt, t1 = rc.forms.n_tails(1), conn.forms.dim(1)
    unit = uni.algebra.unit_vec()
    tails = []
    for bidx in range(nt):
        bar = zeros(uni.bar_dim(1))
        for t, ct in enumerate(unit):
            bar[t * nt + bidx] = ct
        tails.append(conn.calculus.class_of_bar(1, bar))
    differ = []
    for j in range(n.dim):
        xi = rc.forms.quotient_space(1).lift(rc.nabla_apply(n.basis_vec(j)))
        for i in range(m.dim):
            av = m.basis_vec(i)
            out = zeros(w.plain_dim)
            for flat, cc in enumerate(xi):
                k, bidx = divmod(flat, nt)
                val = _reference.sigma_apply(conn, sig.sigma,
                                             _reference.project_pure(
                                                 sig.sigma.tensor,
                                                 tails[bidx], av))
                for l, x in enumerate(val):
                    out[k * t1 + l] += cc * x
            out = _reference.vec_add(out, _reference.pure(
                w, n.basis_vec(j), conn.nabla_apply(av)))
            via_nu = _combine(tco.cols, _reference.project_pure(
                tco.domain, n.basis_vec(j), av), w.dim)
            if w.quotient.project(out) != via_nu:
                differ.append([j, i])
    assert differ
    assert v.witness == {"pair": differ[0]}


# ---------------------------------------------------------------------------
# the column routes against the dense references
# ---------------------------------------------------------------------------

def _fresh(name: str):
    """(∇, Ω_∇) built afresh, so a fault reaches no cached pipeline: a
    shipped model's ∇, or ∇ = d + Γ· on T₃ at D=2 ("t3")."""
    if name == "t3":
        c = regular_connection(upper_triangular(3), 2, 0)
    else:
        c = parse_model(str(MODELS / f"{name}.model")).connections["nabla"]
    return c, InducedCalculus(c, OmegaM(c, j_ideal(c, OmegaHat(c))))


def _routes(c: Connection, ic: InducedCalculus):
    """ν̂, the ν̂ route, the associated connection and the induced route for
    ∇′ = ∇ (N = M), as ``cli.run`` builds them for a "both" request."""
    nu = nu_hat(c, ic.below[0])
    tco = tensor_connection_original(c, c, ic, nu, sigma_exists(c))
    assoc = associated_connection(c, nu)
    tci = tensor_connection_induced(assoc.connection, c, ic)
    return nu, tco, assoc, tci


def _witness(verdicts, check_id: str):
    (v,) = [v for v in verdicts if v.check_id == check_id]
    return v.witness


TENSOR_CASES = ["a2_flat", "a2_quotient", "t3"]


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_the_tensor_checks_by_columns_match_the_dense_references(name):
    c, ic = _fresh(name)
    nu, tco, assoc, tci = _routes(c, ic)
    assert nu.available and assoc.exists
    assert _witness(nu.verdicts, "nu-hat-right-linear") == \
        _reference.nu_hat_right_linear(nu)
    n = c.module
    tail_ops = [ic.d_ops[j].cols for j in c.calculus.universal.complement]
    rc = assoc.connection
    for tc, xi_forms, xi in (
            (tco, nu.target, [_combine(nu.maps[1], c.nabla_apply(
                n.basis_vec(j)), nu.target.dim(1)) for j in range(n.dim)]),
            (tci, rc.forms, [rc.nabla_apply(n.basis_vec(j))
                             for j in range(n.dim)])):
        assert _to_mat(tc.cols, tc.codomain.dim) == \
            _reference.tensor_matrix(c, tc, xi_forms, xi, tail_ops)
        assert _witness(tc.verdicts, "tensor-right-leibniz") == \
            _reference.tensor_right_leibniz(tc, c)
        assert _witness(tc.verdicts, "tensor-connection-well-defined") is None
    for x, y in ((n, n), (n, c.forms.as_bimodule(1))):
        rels = balancing_relations(x, y)
        assert [_col_vec(rel.items(), x.dim * y.dim) for rel in rels] == \
            _reference.balancing_relations(x, y)
        assert all(rel and all(rel.values()) for rel in rels)
    assert [_to_mat(cols, nu.target.dim(r + 1))
            for r, cols in enumerate(assoc.ext_cols)] == \
        [h for h, _ in _reference.associated_factors(c, nu)]
    assert _witness(assoc.verdicts, "associated-square") == \
        _reference.associated_square(c, nu, assoc.ext_cols)


def _bumped(col, row: int = 0):
    """A sparse column with 1 added at the given row, as a new list."""
    return _col_sum([(col, 1), ([(row, 1)], 1)])


def _pure_pair_case(name: str):
    """(∇ on M, ∇′ on N, Ω_∇ of ∇): N = M for a shipped model or T₃ at
    D=2, as a "both" request builds them, or the N and M of
    test_nonzero_degeneracy_kernel ("skew", where N₀ ≠ 0)."""
    if name == "skew":
        c = column_connection()
        return c, skew_connection(), InducedCalculus(
            c, OmegaM(c, j_ideal(c, OmegaHat(c))))
    c, ic = _fresh(name)
    return c, c, ic


@pytest.mark.parametrize("name", [*NAMES, "t3", "skew"])
def test_pure_pairs_off_the_projection_match_the_project_pure_route(name):
    # the class of b_j⊗a_i is read as a column of the tensor's projection;
    # N₀, M₀, both degeneracy verdicts and the σ-route agreement must be
    # those of tests/_reference.py, which projects dense unit vectors
    c, rc, ic = _pure_pair_case(name)
    n, m = rc.module, c.module
    ref = _reference.degeneracy_submodules(n, m)
    for pair in (degeneracy_submodules(n, m),
                 degeneracy_submodules(n, m, tensor=c.tensors(n)[0])):
        assert (pair.n0, pair.m0, pair.verdicts) == \
            (ref.n0, ref.m0, ref.verdicts)
        assert degeneracy_brute(pair) == _reference.degeneracy_brute(ref)
    sig = sigma_exists(c)
    tco = tensor_connection_original(rc, c, ic, nu_hat(rc, ic.below[0]), sig)
    if name in ("a2_twist", "m2_grass"):
        assert not sig.exists         # so no ν̂ and no σ route
        return
    assert _witness(tco.verdicts, "tensor-route-agreement") is None
    assert _reference.sigma_route(tco, rc, c, sig) is None
    # one entry of ∇⊗ off by one: the routes disagree at the same pair
    tco.cols[0] = _bumped(tco.cols[0])
    tco.verdicts = []
    tensorconn._check_sigma_route(tco, rc, c, sig)
    witness = _witness(tco.verdicts, "tensor-route-agreement")
    assert witness is not None
    assert witness == _reference.sigma_route(tco, rc, c, sig)


def test_a_tensor_request_builds_its_balanced_tensors_once(monkeypatch):
    # both routes of a "both" request read N⊗_AM and N⊗_A(M⊗_AΩ¹), and
    # each is built once, over the one bimodule M⊗_AΩ¹ of ∇'s Forms
    built = []

    def counting(x, y, tensor_over_A=algebra.tensor_over_A):
        built.append((id(x), id(y)))
        return tensor_over_A(x, y)

    monkeypatch.setattr(connection, "tensor_over_A", counting)
    monkeypatch.setattr(tensorconn, "tensor_over_A", counting)
    m = parse_model(str(MODELS / "a2_flat.model"))
    cli.run("tensor", m)
    c = m.connections["nabla"]
    assert c.forms.as_bimodule(1) is c.forms.as_bimodule(1)
    n, t1 = id(c.module), id(c.forms.as_bimodule(1))
    assert [(x, y) for x, y in built if x == n] == [(n, n), (n, t1)]


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_nu_hat_column_fails_as_the_dense_squares_do(name):
    c, ic = _fresh(name)
    # the last column of ν̂ in degree 1 off by one in row 0
    nu = nu_hat(c, ic.below[0])
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
        name, col, row):
    # one entry of ∇⊗ off by one, where that change is not itself right
    # linear
    c, ic = _fresh(name)
    for tc in _routes(c, ic)[1::2]:
        tc.cols[col] = _bumped(tc.cols[col], row)
        tc.verdicts = []
        tensorconn._check_tensor_leibniz(tc, c)
        (v,) = tc.verdicts
        assert not v.ok
        assert v.witness == _reference.tensor_right_leibniz(tc, c)


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_a_perturbed_associated_entry_fails_the_square_as_the_dense_route(
        monkeypatch, name):
    # ∇′_M in degree 0, read off ν̂∘∇′'s columns at the target's free
    # columns, off by one at (0, 0) as it is handed to Connection
    c, ic = _fresh(name)
    nu = nu_hat(c, ic.below[0])

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
    c, ic = _fresh("t3")
    nu = nu_hat(c, ic.below[0])
    src, tgt = nu.source.quotient_space(1), nu.target.quotient_space(1)
    assert (src.dim, tgt.dim) == (30, 27)
    off = [k for k, fc in enumerate(src.free) if fc not in tgt.free]
    assert len(off) == 3 and all(nu.maps[1][k] == [] for k in off)
    nu.maps[1][off[0]] = [(0, 1)]
    assoc = associated_connection(c, nu)
    (v,) = [v for v in assoc.verdicts if v.check_id == "associated-connection"]
    assert v.status == "absent" and not assoc.exists
    assert assoc.connection is None and assoc.ext_cols == []
    factors = _reference.associated_factors(c, nu)
    assert [h is None for h, _ in factors] == [False, True]
    assert v.witness == {"degree": 1,
                         "kernel_element": rationals(factors[1][1])}
