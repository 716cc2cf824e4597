"""Curvature, Omega-hat, the submodule J, Omega(M), and the full induced
calculus with its all-degree sigma."""

from fractions import Fraction

import pytest

import _reference
from _reference import combine, dense_vecs, is_zero_vec
from _shared import (MODELS, NAMES, a2, cyclic_group_algebra, m2, model,
                     model_file, pipeline, regular_connection,
                     upper_triangular, whole_basis)
import bimodconn.curvature as curvature_module
from bimodconn import Pipeline, cli
from bimodconn.connection import (Connection, check_right_leibniz,
                                  kappa0_op, leibniz_failure)
from bimodconn.curvature import (InducedCalculus, JIdeal, OmegaHat, OmegaM,
                                 extend_connection, j_ideal, nabla_hat,
                                 sigma_full)
from bimodconn.forms import DegreeRHom, Forms
from bimodconn.linalg import (SpanBuilder, _col_vec, _to_cols,
                              _to_mat, kernel_quotient, mat_vec)
from bimodconn.model import ModelFile, parse_model

F = Fraction


def test_extension_well_defined_everywhere():
    for which in NAMES:
        assert all(v.ok for v in pipeline(which).extension)


def test_extension_failure_names_a_vector_of_the_generator_span(
        monkeypatch, capsys):
    # A connection that obeys the right Leibniz rule always extends, and
    # parse_model rejects any other, so this ∇ is built directly: m2_grass's
    # ∇ with one entry changed.  (On the a2 models I = 0 or Ω² = 0, where
    # the check cannot fail.)
    m2 = model("m2_grass")
    good = m2.connections["nabla"]
    f = good.forms
    bad = _reference.nabla_matrix(good)
    bad[0][0] += 1
    conn = Connection(f, _to_cols(bad, good.module.dim))
    assert not check_right_leibniz(conn).ok
    (v,) = extend_connection(conn)
    assert v.check_id == "nabla-extension-well-defined" and not v.ok
    r, k = v.witness["degree"], v.witness["sub_basis"]
    sub = dense_vecs(f.quotient_space(r).sub, f.tu_dim(r))
    assert k < len(sub)
    # the witness is the first vector of M⊗I^r, as spanned from the module
    # generators, that ∇ does not send to zero
    plain = conn.nabla_ext_plain(r)
    assert any(combine(plain, sub[k], f.dim(r + 1)))
    assert not any(any(combine(plain, w, f.dim(r + 1))) for w in sub[:k])
    monkeypatch.setattr(cli, "parse_model", lambda path, truncation=None:
                        ModelFile(m2.name, m2.algebra, m2.truncation,
                                  m2.calculus, m2.modules, {"nabla": conn}))
    code = cli.main(["curvature", "--model", str(MODELS / "m2_grass.model")])
    assert code == 1
    assert f'[   FAIL    ] nabla-extension-well-defined (Extending ∇ to)  ' \
        f'witness={{"degree": {r}, "sub_basis": {k}}}' in capsys.readouterr().out


@pytest.mark.parametrize("name", ["a2_flat", "a2_twist"])
def test_cached_operators_match_a_cold_computation(name):
    # compose, ext_cols and nabla_hat read shared sparse columns out of the
    # caches of Forms and Connection; recompute each on fresh ones, and
    # compare them densified
    conn, oh = pipeline(name).conn, pipeline(name).omega_hat
    f = conn.forms
    dense, ext_matrix = _reference.dense, _reference.ext_matrix

    def cold(op):
        forms = Forms(f.module, f.calculus)
        return (Connection(forms, conn.nabla),
                DegreeRHom(forms, op.degree, op.cols))

    # Ω̂'s basis stops at degree D−1; T_D stands in for degree D
    ops = [op for r in range(f.D) for op in oh.ops(r)] + oh.gen_ops(f.D)
    # the same columns one degree up extend differently
    ops += [DegreeRHom(f, op.degree + 1, op.cols) for op in ops
            if op.degree < f.D and f.dim(op.degree + 1) == f.dim(op.degree)]
    for phi in ops:
        for s in range(f.D + 1 - phi.degree):
            assert ext_matrix(phi, s) == ext_matrix(cold(phi)[1], s)
        if phi.degree < f.D:
            assert dense(nabla_hat(conn, phi)) == \
                dense(nabla_hat(*cold(phi)))
        for psi in ops:
            if phi.degree + psi.degree <= f.D:
                assert dense(phi.compose(psi)) == \
                    _reference.mat_mul(ext_matrix(phi, psi.degree),
                                       dense(psi)) == \
                    dense(cold(phi)[1].compose(psi))


def test_flat_curvature_vanishes():
    for which in ("a2_flat", "a2_quotient"):
        res = pipeline(which).curvature
        assert res.operator.is_zero()
        assert res.left_linear


def test_curvature_right_omega_linear_everywhere():
    for which in NAMES:
        res = pipeline(which).curvature
        assert any(v.check_id == "curvature-right-omega-linear" and v.ok
                   for v in res.verdicts)


def test_curvature_not_left_linear_on_gauge_fixture():
    res = pipeline("m2_grass").curvature
    assert not res.operator.is_zero()
    assert not res.left_linear
    assert res.witness is not None
    assert any(res.witness["difference"])


def test_omega_hat_contains_kappa0_and_degree_one():
    oh = pipeline("a2_flat").omega_hat
    assert oh.spans[0].dim >= 2
    assert oh.spans[1].dim == 2
    assert all(v.ok for v in oh.verdicts)


def test_omega_hat_second_derivative_vanishes_flat():
    conn = pipeline("a2_flat").conn
    for i in range(2):
        f_hat = kappa0_op(conn, {i: 1})
        assert nabla_hat(conn, nabla_hat(conn, f_hat)).is_zero()


def test_omega_hat_adds_each_operator_it_meets_once(monkeypatch):
    # the worklist tries T₀ and t∘w for each kept w and each t in T with
    # deg t + deg w ≤ D−1; many candidates repeat an operator already tried,
    # and OmegaHat skips an id it has met, so its spans see one add per
    # distinct id: 41 on m2_grass (60 while Ω̂_D was built too)
    conn = pipeline("m2_grass").conn
    adds = []
    add = SpanBuilder.add

    def counting_add(self, v):
        adds.append(self)
        return add(self, v)

    monkeypatch.setattr(SpanBuilder, "add", counting_add)
    oh = OmegaHat(conn)
    D = conn.forms.D
    tried = list(oh.gen_ops(0)) + [
        t.compose(w) for s in range(D) for w in oh.ops(s)
        for r in range(D - s) for t in oh.gen_ops(r)]
    assert sum(any(span is x for x in oh.spans) for span in adds) == \
        len({op.key for op in tried}) == 41 < len(tried)


def test_j_degrees_zero_one_vanish_everywhere():
    for which in NAMES:
        j = pipeline(which).j_ideal
        assert j.dims()[0] == 0
        assert j.dims()[1] == 0
        assert all(v.ok for v in j.verdicts)


def test_j_vanishes_for_flat():
    for which in ("a2_flat", "a2_quotient"):
        assert all(d == 0 for d in pipeline(which).j_ideal.dims())


def test_j_nonzero_for_gauge_fixture():
    j = pipeline("m2_grass").j_ideal
    assert j.dims()[2] > 0


def test_omega_m_equals_forms_when_j_zero():
    p = pipeline("a2_flat")
    assert p.omega_m.dims() == p.conn.forms.dims()


def test_omega_m_verdicts_everywhere():
    for which in NAMES:
        om = pipeline(which).omega_m
        assert all(v.ok for v in om.verdicts)


def test_factored_curvature_left_linear_on_gauge_fixture():
    # upstairs the curvature is not left-linear; on Omega(M) it must be
    ids = {v.check_id: v for v in pipeline("m2_grass").omega_m.verdicts}
    assert ids["curvature-left-linear-on-omega-m"].ok
    assert ids["curvature-right-omega-on-omega-m"].ok


# Faults that break an identity for all f in A first at e11 (index 0),
# which is not one of M₂'s generators e12 and e21: the check, decided on
# the generators first, must fail with the witness of the plain basis scan
# (``whole_basis``).  Each fault keeps the set of good f a unital
# subalgebra, so a generator fails too.

def _m2_pipeline(scan) -> Pipeline:
    """A fresh pipeline of m2_grass's ∇, so a fault reaches no cached one,
    its algebra passed through ``scan``."""
    conn = parse_model(str(MODELS / "m2_grass.model")).connections["nabla"]
    scan(conn.module.algebra)
    return Pipeline(conn)


def test_omega_m_with_j2_zero_fails_left_linearity_as_the_basis_scan():
    # J₂ taken as 0, a left-A-stable subspace: modulo it the curvature is
    # left linear exactly where it is upstairs, which fails at e11
    found = []
    for scan in (lambda a: a, whole_basis):
        p = _m2_pipeline(scan)
        j, f = p.j_ideal, p.conn.forms
        small = JIdeal([[] if r == 2 else s for r, s in enumerate(j.spans)],
                       [SpanBuilder(f.dim(2)).quotient() if r == 2 else q
                        for r, q in enumerate(j.quotients)])
        found.append(OmegaM(p.conn, small).verdicts)
    got, plain = found
    assert got == plain
    assert (got[-1].check_id, got[-1].status, got[-1].witness) == \
        ("curvature-left-linear-on-omega-m", "fail", {"algebra_basis": 0})
    assert 0 not in m2().generators


def test_a_vector_added_to_j3_fails_its_left_closure_as_the_basis_scan(
        monkeypatch):
    # the class x of T₃ at indices 4 and 6 added to J₃, through one more
    # column of ∇̂²Φ for the first Φ of Ω̂₁: J₃ is the top degree, where
    # j-closure reads the left action only, and f·J ⊆ J holds on a unital
    # subalgebra for any subspace J; e11·x leaves J₃ + span{x} first
    square_hat = curvature_module._square_hat
    found = []
    for scan in (lambda a: a, whole_basis):
        p = _m2_pipeline(scan)
        oh = p.omega_hat
        first = oh.ops(1)[0]
        monkeypatch.setattr(
            curvature_module, "_square_hat",
            lambda c, phi: square_hat(c, phi) + [{4: 1, 6: 1}]
            if phi is first else square_hat(c, phi))
        found.append([v for v in j_ideal(p.conn, oh).verdicts
                      if v.check_id == "j-closure"])
        monkeypatch.undo()
    got, plain = found
    assert got == plain
    assert (got[0].status, got[0].witness) == \
        ("fail", {"op": "left", "degree": 3, "basis": 4, "algebra_basis": 0})


def test_induced_calculus_flat():
    ic = pipeline("a2_flat").induced_calculus
    assert all(v.ok for v in ic.verdicts)
    assert ic.calculus.dims() == [2, 2, 2, 2]


def test_induced_calculus_degree_zero_is_algebra():
    for which in NAMES:
        ic = pipeline(which).induced_calculus
        assert ic.calculus.dim(0) == ic.connection.module.algebra.dim


def test_d_nabla_squared_zero_everywhere():
    # includes the gauge model, where nabla-hat squared is nonzero upstairs
    for which in NAMES:
        ic = pipeline(which).induced_calculus
        assert any(v.check_id == "d-nabla-squared-zero" and v.ok
                   for v in ic.verdicts)


def test_sigma_full_flat():
    sf = pipeline("a2_flat").sigma_full
    assert sf.exists
    ids = {v.check_id: v for v in sf.verdicts}
    assert ids["sigma-u-multiplicative"].ok
    assert ids["sigma-u-derivation"].ok
    assert ids["sigma-all-degrees"].ok


def test_sigma_full_absent_on_twist():
    sf = pipeline("a2_twist").sigma_full
    assert not sf.exists
    assert sf.witnesses
    deg, bar = sf.witnesses[0]
    assert deg == 1
    assert not is_zero_vec(bar)


def test_compare_flat_mutually_below():
    v = pipeline("a2_flat").induced_calculus.compare()
    assert v.dims["induced_preceq_calculus"]
    assert v.dims["calculus_preceq_induced"]


def test_compare_twist_not_below():
    v = pipeline("a2_twist").induced_calculus.compare()
    assert not v.dims["calculus_preceq_induced"]


# κ's identities and the σ_u identities that restate them, with the
# per-pair reference that decides each one on its own
REFERENCE = {"kappa-multiplicative": _reference.kappa_multiplicative,
             "kappa-d-diagram": _reference.kappa_d_diagram,
             "sigma-u-multiplicative": _reference.sigma_u_multiplicative,
             "sigma-u-derivation": _reference.sigma_u_derivation}


def _kappa_and_sigma_u_verdicts(ic: InducedCalculus) -> dict:
    found = {v.check_id: v for v in ic.verdicts + sigma_full(ic).verdicts
             if v.check_id in REFERENCE}
    assert found.keys() == REFERENCE.keys()
    return found


@pytest.mark.parametrize("name, truncation",
                         [(n, None) for n in NAMES] + [("a2_flat", 9)])
def test_kappa_and_sigma_u_checks_match_the_per_pair_reference(name,
                                                                truncation):
    _assert_matches_the_per_pair_reference(pipeline(name, truncation).induced_calculus)


def _induced_calculus(conn: Connection) -> InducedCalculus:
    """A fresh Ω_∇ of ``conn``, built through Ω̂, J and Ω(M)."""
    return Pipeline(conn).induced_calculus


def _t2_weighted():
    """T₂ at D=3 with Γ = 2·e11·de11 + e12·de11: J ≠ 0, and unlike on every
    shipped model the projections to Ω(M) hold entries other than 0 and
    1."""
    return _induced_calculus(
        regular_connection(upper_triangular(2), 3, [2, 0, 1, 0, 0, 0]))


def test_kappa_and_sigma_u_checks_match_the_per_pair_reference_on_t2():
    _assert_matches_the_per_pair_reference(_t2_weighted())


def _assert_matches_the_per_pair_reference(ic: InducedCalculus) -> None:
    for check_id, v in _kappa_and_sigma_u_verdicts(ic).items():
        want = REFERENCE[check_id](ic)
        assert v.witness == want
        assert v.ok == (want is None)


def _kappa_column_failure(ic: InducedCalculus) -> tuple[int, int] | None:
    """The first (degree, bar basis vector) whose κ̄ column is not a dict,
    holds a zero entry or, densified, differs from the reference's column
    (the raw operator projected by the projection matrix)."""
    width = ic.connection.module.dim
    for r, want in enumerate(_reference.kappa_matrices(ic)):
        for u, col in enumerate(ic._columns[r]):
            if type(col) is not dict or not all(col.values()) or \
                    _col_vec(col, ic.omega_m.dim(r) * width) != \
                    [line[u] for line in want]:
                return r, u
    return None


@pytest.mark.parametrize("make", [
    *[lambda n=n: pipeline(n).induced_calculus for n in NAMES],
    lambda: pipeline("a2_flat", 9).induced_calculus, _t2_weighted,
    lambda: _induced_calculus(regular_connection(upper_triangular(3), 2, 0))],
    ids=[*NAMES, "a2_flat-D9", "t2-D3", "t3-D2"])
def test_kappa_columns_are_sparse_and_match_the_dense_reference(make):
    assert _kappa_column_failure(make()) is None


@pytest.mark.parametrize("make", [
    *[lambda n=n: pipeline(n).induced_calculus for n in NAMES],
    lambda: _induced_calculus(regular_connection(upper_triangular(3), 2, 0)),
    lambda: _induced_calculus(
        regular_connection(cyclic_group_algebra(4), 2, 0)),
    lambda: _induced_calculus(regular_connection(
        upper_triangular(2), 2, 0, [(1, {0: 1, 1: 1})]))],
    ids=[*NAMES, "t3-D2", "cz4-D2", "t2-D2-same-pivots"])
def test_omega_nabla_is_read_off_one_elimination_of_kappa_bar(make):
    # each degree of Ω_∇ is kernel_quotient of κ̄'s columns, and that is
    # the quotient by the null space of κ̄ densified, with the kernel's RREF
    # as its sub; κ₀ is injective exactly when κ̄ has full rank in degree 0.
    # Ω_∇ is Ω's own object exactly when every degree's (free, proj_cols)
    # is Ω's: then its sub is Ω's ideal basis, which spans the same kernel.
    # On T₂ modulo the ideal of e11·(de11 + de12), Ω_∇ has Ω's dimensions
    # and free columns in every degree but another ideal, so it is not Ω
    ic = make()
    own = ic.connection.calculus
    width = ic.connection.module.dim
    same = True
    for r, cols in enumerate(ic._columns):
        q = kernel_quotient(cols)
        want = _reference.kernel_quotient(cols, ic.omega_m.dim(r) * width)
        assert (q.free, q.proj_cols) == (want.free, want.proj_cols)
        rref = _reference.rref(want.sub)[1] if want.sub else []
        assert dense_vecs(q.sub, len(cols)) == rref
        if r:
            got = ic.calculus.quotients[r]
            assert (got.free, got.proj_cols) == (q.free, q.proj_cols)
            if ic.calculus is not own:
                assert got.sub == q.sub
            same &= (q.free, q.proj_cols) == \
                (own.quotients[r].free, own.quotients[r].proj_cols)
    assert (ic.calculus is own) == same
    assert ic.kappa0_injective == (
        _rank(_to_mat(ic._columns[0], ic.omega_m.dim(0) * width))
        == ic.connection.module.algebra.dim)


@pytest.mark.parametrize("fault", [
    lambda col: {k: 2 * x if k == min(col) else x for k, x in col.items()},
    lambda col: {**col, max(col) + 1: 0},
    lambda col: sorted(col.items())], ids=["entry", "zero", "pairs"])
def test_a_perturbed_kappa_column_fails_the_dense_reference(fault):
    ic = _t2_weighted()
    r, u = next((r, u) for r, cols in enumerate(ic._columns)
                for u, col in enumerate(cols) if len(col) > 1)
    ic._columns[r][u] = fault(ic._columns[r][u])
    assert _kappa_column_failure(ic) == (r, u)


def _wrong_tail_coefficient(r, k, b):
    """The first coefficient of de_β·e_k, β the b-th tail of degree r, off
    by one, and the column table of R_{e_k} rebuilt from it."""
    def fault(uni):
        table = uni.tail_times(r, k)
        k0, g, c = table[b][0]
        table[b][0] = (k0, g, c + 1)
        uni._right_cols[r][k] = uni._right_columns(r, k)
    return fault


def _wrong_d_entry(uni):
    """Entry (0, 1) of d: Ω² → Ω³ in bar coordinates off by one, in the
    column table that d and its matrix are read off."""
    col = dict(uni._d_cols[2][1])
    col[0] = col.get(0, 0) + 1
    uni._d_cols[2][1] = {row: c for row, c in col.items() if c}


def _wrong_tail_product(ki):
    """One entry of the sparse u·v, for u the ki-th degree-one bar basis
    vector and v of degree one, off by one: only σ_u's products by de_j
    read it."""
    def fault(uni):
        product = uni.product

        def wrong(r, u, s, v):
            out = product(r, u, s, v)
            if (r, s) == (1, 1) and (x := out.pop(20, 0) + u.get(ki, 0)):
                out[20] = x
            return out
        uni.product = wrong
    return fault


def _witness(r, *basis):
    """The witness {"degree": r, "basis": …} of a failing pair or element."""
    return {"degree": r, "basis": basis[0] if len(basis) == 1 else list(basis)}


@pytest.mark.parametrize("name, faults, witnesses", [
    ("m2_grass", [_wrong_tail_coefficient(1, 2, 2)],
     {"kappa-multiplicative": _witness(1, 5, 2),
      "sigma-u-multiplicative": _witness(1, 5, 2)}),
    # in the top degree, where κ fails at (u, k) = (1, 0) and (0, 1): the
    # first is the smaller u
    ("a2_flat", [_wrong_tail_coefficient(3, 0, 0),
                 _wrong_tail_coefficient(3, 1, 0)],
     {"kappa-multiplicative": _witness(3, 0, 1),
      "sigma-u-multiplicative": _witness(3, 0, 1)}),
    ("a2_flat", [_wrong_d_entry],
     {"kappa-d-diagram": _witness(2, 1),
      "sigma-u-derivation": _witness(2, 1)}),
    # a product by de_j (index 4 = dim A + 0) fails alone, before the
    # contraction at an earlier u, and after it at the same u
    ("m2_grass", [_wrong_tail_product(3)],
     {"sigma-u-multiplicative": _witness(1, 3, 4)}),
    ("m2_grass", [_wrong_tail_coefficient(1, 2, 2), _wrong_tail_product(3)],
     {"kappa-multiplicative": _witness(1, 5, 2),
      "sigma-u-multiplicative": _witness(1, 3, 4)}),
    ("m2_grass", [_wrong_tail_coefficient(1, 2, 2), _wrong_tail_product(5)],
     {"kappa-multiplicative": _witness(1, 5, 2),
      "sigma-u-multiplicative": _witness(1, 5, 2)})])
def test_a_fault_upstream_of_kappa_fails_like_the_reference(
        name, faults, witnesses):
    # a fresh parse: the faults must not reach the shared cached models
    m = parse_model(str(MODELS / f"{name}.model"))
    for fault in faults:
        fault(m.calculus.universal)
    ic = Pipeline(m.connections["nabla"]).induced_calculus
    verdicts = _kappa_and_sigma_u_verdicts(ic)
    assert all(v.ok == (v.witness is None) for v in verdicts.values())
    got = {k: v.witness for k, v in verdicts.items()}
    assert got == {k: ref(ic) for k, ref in REFERENCE.items()}
    assert got == {k: witnesses.get(k) for k in REFERENCE}


# Ω̂, J and the ∇-extension, decided on the generators T of Ω̂ and on Ω¹,
# against the reference that decides them on whole spans
SPAN_CHECKS = {"nabla-extension-graded-leibniz": _reference.graded_leibniz,
               "nabla-hat-graded-derivation": _reference.graded_derivation,
               "nabla-hat-squared-identity": _reference.squared_identity,
               "j-degrees-0-1-vanish": _reference.j_degrees_01,
               "j-closure": _reference.j_closure}


def _t2_connection():
    """∇ = d + Γ· on T₂ at D=3, Γ = e11·de11: not flat, J ≠ 0, and Ω̂_r is
    more than the span of T_r for r ≥ 1."""
    return regular_connection(upper_triangular(2), 3, 0)


def _span_verdicts(conn):
    """(OmegaHat, JIdeal, the five verdicts by check id) for ``conn``."""
    oh = OmegaHat(conn)
    j = j_ideal(conn, oh)
    found = {v.check_id: v for v in extend_connection(conn) + oh.verdicts
             + j.verdicts if v.check_id in SPAN_CHECKS}
    assert found.keys() == SPAN_CHECKS.keys()
    return oh, j, found


def _span_reference(conn):
    """(a basis of Ω̂_r per r, the reference witness by check id)."""
    ops = _reference.omega_hat_ops(conn)
    want = {k: ref(conn) if k == "nabla-extension-graded-leibniz"
            else ref(conn, ops) for k, ref in SPAN_CHECKS.items()}
    return ops, want


def _flat(op):
    return [x for row in _reference.dense(op) for x in row]


@pytest.mark.parametrize("make", [
    *[lambda n=n: model(n).connections["nabla"] for n in NAMES],
    lambda: model("a2_flat", 9).connections["nabla"],
    _t2_connection],
    ids=[*NAMES, "a2_flat-D9", "t2-D3"])
def test_omega_hat_and_span_checks_match_the_whole_span_reference(make):
    conn = make()
    oh, j, got = _span_verdicts(conn)
    ops, want = _span_reference(conn)
    # J from ∇²∘Φ − Φ∘∇² spans what ∇̂(∇̂Φ) spans over the reference's Ω̂
    j_ref = _reference.j_spans(conn, ops)
    D = conn.forms.D
    # Ω̂ is built through degree D−1, the last degree a check reads
    assert len(oh.spans) == D
    # the ranks by _reference.rref, which shares no eliminator with linalg
    for r in range(D):
        new = [_flat(op) for op in oh.ops(r)]
        old = [_flat(op) for op in ops[r]]
        assert len(new) == oh.spans[r].dim == len(old) == \
            _reference.rref(new + old)[0]
    for r in range(D + 1):
        new = dense_vecs(j.spans[r], conn.forms.dim(r))
        old = j_ref[r].basis
        assert len(new) == len(old) == _reference.rref(new + old)[0]
    assert {k: v.ok for k, v in got.items()} == \
        {k: w is None for k, w in want.items()}


def test_generated_non_flat_model_passes_every_check_but_left_linearity():
    # a non-semisimple algebra and a non-flat ∇, where Ω̂ is more than the
    # span of its generators in every degree above 0 (the Ω̂ and verdicts of
    # the reference are compared above, as "t2-D3")
    conn = _t2_connection()
    oh = OmegaHat(conn)
    D = conn.forms.D
    assert [len(oh.gen_ops(r)) for r in range(D + 1)] == [3, 2, 1, 1]
    assert [oh.spans[r].dim for r in range(D)] == [3, 5, 9]
    assert j_ideal(conn, oh).dims() == [0, 0, 1, 5]
    rep = cli.run("all", model_file(conn, "t2"))
    # curvature is not left-linear, as the paper predicts for a non-flat Γ
    assert {v.check_id for v in rep.records if not v.ok} == \
        {"curvature-left-linear"}


def _flipped_nabla_hat(degree):
    """∇̂ with its sign flipped on the operators of one degree, on the
    sparse route and on the dense route of tests/_reference.py alike."""
    def fault(monkeypatch, conn):
        def wrong(c, phi):
            out = nabla_hat(c, phi)
            return _reference.scaled(out, -1) if phi.degree == degree else out
        dense_hat = _reference.DenseRoute.nabla_hat

        def dense_wrong(route, phi):
            out = dense_hat(route, phi)
            return out.scale(-1) if phi.degree == degree else out
        monkeypatch.setattr(curvature_module, "nabla_hat", wrong)
        monkeypatch.setattr(_reference, "nabla_hat", wrong)
        monkeypatch.setattr(_reference.DenseRoute, "nabla_hat", dense_wrong)
    return fault


def _wrong_ext_entry(row, col, degree=2):
    """Entry (row, col) of ∇: T_degree → T_{degree+1} off by one, before
    any use: a new sparse column replaces column col of the cached
    extension (the old one may be shared with the plain extension)."""
    def fault(monkeypatch, conn):
        cols = conn.nabla_ext_cols(degree)
        entries = dict(cols[col])
        entries[row] = entries.get(row, 0) + 1
        cols[col] = {k: x for k, x in entries.items() if x}
    return fault


def _rank(m):
    """The rank of a dense matrix, by sympy (tests/_reference.py)."""
    return _reference.rref(m)[0] if m else 0


def _in_span(basis, v):
    return _rank(basis + [v]) == len(basis)


def _fails_at(check_id, conn, oh, j, w):
    """Whether the identity of ``check_id`` fails at witness ``w`` of the
    generator route, recomputed on its own."""
    if check_id == "nabla-extension-graded-leibniz":
        (r, s), (qi, wi) = w["degrees"], w["basis"]
        return s == 1 and not _reference.leibniz_holds(conn, r, qi, s, wi)
    if check_id == "nabla-hat-graded-derivation":
        (r, s), (ki, kj) = w["degrees"], w["basis"]
        return not _reference.derivation_holds(conn, oh.gen_ops(r)[ki],
                                               oh.ops(s)[kj])
    if check_id == "nabla-hat-squared-identity":
        return not _reference.square_holds(
            conn, oh.gen_ops(w["degree"])[w["basis"]])
    # j-closure: the witness names an operator, a degree r and the k-th
    # basis vector of J_r, whose image must leave J
    if w["op"] == "omega-hat":
        (p, r), (kp, k) = w["degrees"], w["basis"]
        op, target = _reference.ext_matrix(oh.gen_ops(p)[kp], r), r + p
    elif w["op"] == "left":
        r, k = w["degree"], w["basis"]
        op = _to_mat(conn.forms.hats[w["algebra_basis"]].ext_cols(r),
                     conn.forms.dim(r))
        target = r
    else:
        r, k = w["degree"], w["basis"]
        op, target = _reference.nabla_ext(conn, r), r + 1
    f = conn.forms
    return not _in_span(dense_vecs(j.spans[target], f.dim(target)),
                        mat_vec(op, dense_vecs(j.spans[r], f.dim(r))[k]))


@pytest.mark.parametrize("name, fault, failing", [
    ("m2_grass", _flipped_nabla_hat(1),
     {"nabla-hat-graded-derivation", "nabla-hat-squared-identity"}),
    # flat: ∇̂² = 0, so only the derivation identity sees the sign
    ("a2_flat", _flipped_nabla_hat(2), {"nabla-hat-graded-derivation"}),
    ("m2_grass", _wrong_ext_entry(5, 7),
     {"nabla-extension-graded-leibniz", "nabla-hat-graded-derivation",
      "nabla-hat-squared-identity", "j-closure"})])
def test_a_fault_fails_the_span_checks_like_the_reference(
        monkeypatch, name, fault, failing):
    # a fresh parse: the faults must not reach the shared cached models
    conn = parse_model(str(MODELS / f"{name}.model")).connections["nabla"]
    fault(monkeypatch, conn)
    oh, j, got = _span_verdicts(conn)
    _, want = _span_reference(conn)
    assert {k for k, v in got.items() if not v.ok} == \
        {k for k, w in want.items() if w is not None} == failing
    # the first failing case may differ from the reference's by design;
    # the identity must really fail at the generator route's own witness
    for check_id in failing:
        assert _fails_at(check_id, conn, oh, j, got[check_id].witness)


# Ω̂ and the raw κ operators on sparse columns against the dense operator
# route of tests/_reference.py: the shipped models, and ∇ = d + Γ· on
# generated algebras (Γ the bar basis 1-form 0)
GENERATED = {"M2-D3": lambda: regular_connection(m2(), 3, 0),
             "CZ3-D3": lambda: regular_connection(cyclic_group_algebra(3), 3,
                                                  0),
             "T2-D3": _t2_connection,
             "T3-D2": lambda: regular_connection(upper_triangular(3), 2, 0)}


def _omega_hat_witnesses(oh):
    return {v.check_id: v.witness for v in oh.verdicts}


def _assert_omega_hat_matches_the_dense_route(conn, oh):
    """Every operator of Ω̂ and of T equals the dense route's, in order,
    and the two routes give the same witnesses; returns the dense route
    and its Ω̂ basis."""
    route = _reference.DenseRoute(conn)
    gens, ops, derivation, square = _reference.omega_hat(route)
    dense = _reference.dense
    D = conn.forms.D
    for r in range(D + 1):
        assert [dense(t) for t in oh.gen_ops(r)] == [t.matrix for t in gens[r]]
    # Ω̂ stops at degree D−1; the route's Ω̂_D is not built
    assert len(oh.spans) == D
    for r in range(D):
        assert [dense(w) for w in oh.ops(r)] == [w.matrix for w in ops[r]]
    assert _omega_hat_witnesses(oh) == {
        "nabla-hat-graded-derivation": derivation,
        "nabla-hat-squared-identity": square}
    return route, ops


@pytest.mark.parametrize("make", [
    *[lambda n=n: model(n).connections["nabla"] for n in NAMES],
    *GENERATED.values()], ids=[*NAMES, *GENERATED])
def test_sparse_operators_match_the_dense_route(make):
    p = Pipeline(make())
    conn, oh = p.conn, p.omega_hat
    f = conn.forms
    route, ops = _assert_omega_hat_matches_the_dense_route(conn, oh)
    # every extension and every ∇̂ of Ω̂'s basis
    for r in range(f.D):
        for op, want in zip(oh.ops(r), ops[r]):
            for s in range(f.D + 1 - r):
                assert _reference.ext_matrix(op, s) == want.ext_matrix(s)
            assert _reference.dense(nabla_hat(conn, op)) == \
                route.nabla_hat(want).matrix
    assert [[_reference.dense(op) for op in conn.kappa_ops(r)]
            for r in range(f.D + 1)] == \
        [[op.matrix for op in ops] for ops in _reference.raw_ops(route)]


@pytest.mark.parametrize("make, degree", [
    (lambda: parse_model(str(MODELS / "m2_grass.model")).connections["nabla"],
     1),
    (lambda: parse_model(str(MODELS / "a2_flat.model")).connections["nabla"],
     2),
    (_t2_connection, 1)], ids=["m2_grass-1", "a2_flat-2", "T2-D3-1"])
def test_a_flipped_nabla_hat_gives_the_dense_route_the_same_witnesses(
        monkeypatch, make, degree):
    conn = make()
    _flipped_nabla_hat(degree)(monkeypatch, conn)
    oh = OmegaHat(conn)
    _assert_omega_hat_matches_the_dense_route(conn, oh)
    assert not all(v.ok for v in oh.verdicts)


# the three right Leibniz checks, each decided on the columns of ∇'s
# extensions and of the right multiplications by
# ``connection.leibniz_failure``, against the per-pair reference
LEIBNIZ = {"right-leibniz": lambda conn, om: _reference.right_leibniz(conn),
           "nabla-extension-graded-leibniz":
               lambda conn, om: _reference.graded_leibniz_degree_one(conn),
           "omega-m-right-leibniz": _reference.omega_m_right_leibniz}


def _leibniz_verdicts_match_the_reference(conn) -> dict:
    """The Leibniz verdicts of ``conn`` that ran, by check id, after
    asserting that each has the reference's status and witness."""
    p = Pipeline(conn)
    om = p.omega_m
    got = {v.check_id: v for v in [check_right_leibniz(conn)]
           + p.extension + om.verdicts if v.check_id in LEIBNIZ}
    for check_id, v in got.items():
        want = LEIBNIZ[check_id](conn, om)
        assert v.witness == want, check_id
        assert v.ok == (want is None), check_id
    return got


@pytest.mark.parametrize("make", [
    *[lambda n=n: model(n).connections["nabla"] for n in NAMES],
    lambda: model("a2_flat", 9).connections["nabla"],
    _t2_connection, GENERATED["T3-D2"], GENERATED["M2-D3"]],
    ids=[*NAMES, "a2_flat-D9", "t2-D3", "T3-D2", "M2-D3"])
def test_leibniz_checks_match_the_per_pair_reference(make):
    got = _leibniz_verdicts_match_the_reference(make())
    assert got.keys() == LEIBNIZ.keys()
    assert all(v.ok for v in got.values())


def _with_nabla(name, change):
    """A fresh parse's ∇, with ``change`` applied to its dense matrix."""
    conn = parse_model(str(MODELS / f"{name}.model")).connections["nabla"]
    matrix = _reference.nabla_matrix(conn)
    change(matrix)
    return Connection(conn.forms, _to_cols(matrix, conn.module.dim))


def _zero(matrix):
    for row in matrix:
        row[:] = [0] * len(row)


def _plus_one_at(row, col):
    def change(matrix):
        matrix[row][col] += 1
    return change


def _with_wrong_ext_entry(name, row, col, degree):
    conn = parse_model(str(MODELS / f"{name}.model")).connections["nabla"]
    _wrong_ext_entry(row, col, degree)(None, conn)
    return conn


@pytest.mark.parametrize("make, failing", [
    (lambda: _with_nabla("a2_flat", _zero),
     {"right-leibniz", "nabla-extension-graded-leibniz",
      "omega-m-right-leibniz"}),
    # the extension is not well defined, so its Leibniz rule is not decided
    (lambda: _with_nabla("m2_grass", _plus_one_at(3, 5)),
     {"right-leibniz", "omega-m-right-leibniz"}),
    # fails at (module basis, algebra basis) = (2, 1) and (3, 0): the first
    # is the smaller module basis vector
    (lambda: _with_nabla("m2_grass", _plus_one_at(0, 3)),
     {"right-leibniz", "omega-m-right-leibniz"}),
    (lambda: _with_wrong_ext_entry("m2_grass", 5, 7, 2),
     {"nabla-extension-graded-leibniz", "omega-m-right-leibniz"}),
    (lambda: _with_wrong_ext_entry("m2_grass", 5, 7, 1),
     {"nabla-extension-graded-leibniz", "omega-m-right-leibniz"})],
    ids=["a2_flat-zero", "m2_grass-nabla-3-5", "m2_grass-nabla-0-3",
         "m2_grass-ext2-5-7", "m2_grass-ext1-5-7"])
def test_a_fault_fails_the_leibniz_checks_like_the_reference(make, failing):
    got = _leibniz_verdicts_match_the_reference(make())
    assert {k for k, v in got.items() if not v.ok} == failing


# J and Ω(M)'s right-Ω curvature check multiply no zero column: against the
# loops that built every right multiplication
CURVATURE_RIGHT_OMEGA = "curvature-right-omega-on-omega-m"


@pytest.mark.parametrize("make", [
    *[lambda n=n: model(n).connections["nabla"] for n in NAMES],
    lambda: model("a2_flat", 9).connections["nabla"],
    GENERATED["T3-D2"], GENERATED["M2-D3"]],
    ids=[*NAMES, "a2_flat-D9", "T3-D2", "M2-D3"])
def test_j_and_omega_m_match_the_loops_over_every_product(make):
    conn = make()
    oh = OmegaHat(conn)
    j = j_ideal(conn, oh)
    ref = _reference.j_ideal_spans(conn, oh)
    # the same vectors in the same order, so the same quotients, the
    # reference's taken by _reference.quotient on sympy's RREF
    dims = [conn.forms.dim(r) for r in range(len(ref))]
    assert [dense_vecs(sub, n) for sub, n in zip(j.spans, dims)] == \
        [b.basis for b in ref]
    assert [(dense_vecs(q.sub, n), q.free, q.proj_cols)
            for q, n in zip(j.quotients, dims)] == \
        [(q.sub, q.free, q.proj_cols)
         for q in (_reference.quotient(n, b.basis) for b, n in zip(ref, dims))]
    om = OmegaM(conn, j)
    (got,) = [v for v in om.verdicts if v.check_id == CURVATURE_RIGHT_OMEGA]
    assert got.ok and _reference.curvature_right_omega(conn, om) is None


def test_a_flat_connection_multiplies_no_zero_map():
    # a2_flat at D=9: every curvature column is zero, so j_ideal builds no
    # right multiplication and Ω(M)'s right-Ω check none (building every
    # product, they built 56 and 28, 14 of them the same); the Leibniz
    # check's own are built first
    conn = parse_model(str(MODELS / "a2_flat.model"),
                       truncation=9).connections["nabla"]
    f = conn.forms
    oh = OmegaHat(conn)
    before = len(f._right_cols)
    j = j_ideal(conn, oh)
    assert len(f._right_cols) == before
    for r in range(f.D):
        leibniz_failure(conn, r, 0, range(f.algebra.dim), j.quotients[r].free,
                        j.quotients[r + 1])
    before = len(f._right_cols)
    om = OmegaM(conn, j)
    assert len(f._right_cols) == before
    assert all(v.ok for v in om.verdicts)


@pytest.mark.parametrize("degree, column", [(1, 0), (1, 1), (3, 1)])
def test_a_nonzero_curvature_column_gives_the_witness_of_every_product(
        degree, column):
    # one curvature column of a flat ∇ made nonzero: the side it composes
    # with is built, the other stays skipped, and the witness is the one of
    # the loop that builds both
    conn = parse_model(str(MODELS / "a2_flat.model"),
                       truncation=5).connections["nabla"]
    j = j_ideal(conn, OmegaHat(conn))
    curv = conn.curvature_cols(degree)
    assert not any(curv) and not any(conn.curvature_cols(0))
    curv[column] = {0: 1}
    om = OmegaM(conn, j)
    (got,) = [v for v in om.verdicts if v.check_id == CURVATURE_RIGHT_OMEGA]
    want = _reference.curvature_right_omega(conn, om)
    assert want is not None and not got.ok and got.witness == want
