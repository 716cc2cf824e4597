"""Universal and quotient differential calculi and the partial order."""

import dataclasses
import itertools
import json
from fractions import Fraction
from functools import cache, cached_property, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _reference import (class_product, d_bar, d_class, dense_vecs,
                        identity_mat, is_zero_vec, mat_mul, project, vec_add)
from _embedding import (bar_columns, d_emb, d_ref, product_emb,
                        product_ref, to_emb)
from _shared import (MODELS, NAMES, a2, cyclic_group_algebra, m2, model,
                     pipeline, regular_connection, universal,
                     upper_triangular)
from bimodconn import Pipeline, cli
from bimodconn.algebra import Algebra, check_algebra
from bimodconn.calculus import (GradedCalculus, UniversalCalculus, preceq,
                                quotient_calculus, saturate_ideal,
                                universal_graded)
from bimodconn.linalg import (DimensionError, LinSolver, SpanBuilder, _sparse,
                              _to_mat, frac, mat_vec, zeros)
from bimodconn.model import parse_model

F = Fraction


def emb_e1e2():
    v = zeros(4)
    v[0 * 2 + 1] = F(1)          # e1 (x) e2
    return v


def test_dim_omega1_two_point():
    assert universal("a2_flat").dim(1) == 2


def test_dim_omega1_matrix():
    assert universal("m2_grass").dim(1) == 12


def test_d_of_e1():
    uni = universal("a2_flat").universal
    d = d_emb(a2(), _reference.basis_vec(a2().dim, 0), 0)
    # d e1 = e2 (x) e1 - e1 (x) e2 in plain tensor-square coordinates
    assert d == [F(0), F(-1), F(1), F(0)]
    assert _sparse(d_bar(uni, 0, _reference.basis_vec(a2().dim, 0))) == \
        uni.from_emb(1, d)


def test_d_of_unit_is_zero():
    uni = universal("a2_flat").universal
    assert is_zero_vec(d_emb(a2(), list(a2().unit), 0))
    assert is_zero_vec(d_bar(uni, 0, list(a2().unit)))


def test_graded_dims_two_point():
    assert universal("a2_flat").dims() == [2, 2, 2, 2]


def test_graded_dims_matrix():
    assert universal("m2_grass").dims() == [4, 12, 36, 108]


def test_degree_zero_is_algebra():
    assert universal("a2_flat").dim(0) == a2().dim
    assert universal("m2_grass").dim(0) == m2().dim


def test_d_squared_zero():
    for cal in (universal("a2_flat"), model("a2_quotient").calculus):
        for r in range(cal.D - 1):
            for col in range(cal.dim(r)):
                e = zeros(cal.dim(r))
                e[col] = F(1)
                assert is_zero_vec(d_class(cal, r + 1, d_class(cal, r, e)))


def test_graded_leibniz_spot():
    cal = universal("a2_flat")
    for i in range(cal.dim(1)):
        for j in range(cal.dim(1)):
            u, v = zeros(cal.dim(1)), zeros(cal.dim(1))
            u[i], v[j] = F(1), F(1)
            lhs = d_class(cal, 2, class_product(cal, 1, u, 1, v))
            rhs = [a - b for a, b in
                   zip(class_product(cal, 2, d_class(cal, 1, u), 1, v),
                       class_product(cal, 1, u, 2, d_class(cal, 1, v)))]
            assert lhs == rhs


def test_quotient_empty_generators_is_universal():
    cal = quotient_calculus(universal("a2_flat"), [])
    assert cal.dims() == universal("a2_flat").dims()


def test_quotient_by_e1e2():
    cal = model("a2_quotient").calculus
    assert cal.dim(1) == 1


def test_quotient_by_everything():
    base = universal("a2_flat")
    gens = []
    for k in (1, 2):             # e1 (x) e2 and e2 (x) e1 span all of degree 1
        e = zeros(base.universal.emb_dim(1))
        e[k] = F(1)
        gens.append((1, base.universal.from_emb(1, e)))
    cal = quotient_calculus(base, gens)
    assert cal.dims() == [2, 0, 0, 0]


def test_quotient_idempotent():
    first = model("a2_quotient").calculus
    base = universal("a2_flat")
    second = quotient_calculus(
        base, [(1, base.universal.from_emb(1, emb_e1e2()))])
    assert first.dims() == second.dims()


# Span adds of the saturation per degree, and of each W_r = (π⊗id)(I^r).
# Degree 1 tries each generator, then 2n products by the algebra basis per
# basis vector of I¹ (each expanded once).  Each higher degree, with no
# generator of its own, tries m = len(complement) rows of I^r·Ω¹ per
# reduced row of I^r (all accepted: I^r's RREF with a tail slot appended)
# and n vectors e_i ⊗ w per reduced row w of W_r; W_r tries one (π⊗id)(v)
# per reduced row v of I^r.  a2 (n = 2, m = 1): I¹ = span{e1·de2} gives
# 1 + 4 = 5, then 1 + 2·1 = 3 in degree 2 and 2 + 2·1 = 4 in every degree
# above; m2_grass (n = 4, m = 3): I¹ has dimension 8, so 1 + 8·8 = 65,
# then 3·8 + 4·7 = 52 and 3·32 + 4·25 = 196 with W_1 and W_2 of dimension
# 7 and 25 (8 and 32 adds).
@pytest.mark.parametrize("name, truncation, adds, w_adds", [
    ("a2_quotient", 3, [0, 5, 3, 4], [1, 2]),
    ("a2_quotient", 9, [0, 5, 3] + [4] * 7, [1] + [2] * 7),
    ("m2_grass", 3, [0, 65, 52, 196], [8, 32])],
    ids=["a2-D3", "a2-D9", "m2_grass-D3"])
def test_saturation_span_adds_follow_the_closed_form(
        monkeypatch, name, truncation, adds, w_adds):
    # a fresh copy of the algebra, whose generating set nothing has read
    uni = UniversalCalculus(dataclasses.replace(model(name).algebra),
                            truncation)
    gens = _model_generators(name, uni)
    calls = []
    add = SpanBuilder.add

    def counting_add(self, v):
        calls.append(self)
        return add(self, v)

    monkeypatch.setattr(SpanBuilder, "add", counting_add)
    spans = saturate_ideal(uni, gens)
    assert [sum(c is s for c in calls) for s in spans] == adds
    w_spans = [c for k, c in enumerate(calls)
               if all(c is not s for s in spans + calls[:k])]
    assert [sum(c is w for c in calls) for w in w_spans] == w_adds
    n, m = uni.algebra.dim, len(uni.complement)
    assert adds == [0, len(gens) + 2 * n * spans[1].dim] + [
        m * s.dim + n * w.dim for s, w in zip(spans[1:], w_spans)]
    assert w_adds == [s.dim for s in spans[1:-1]]
    # degree 1 alone closes by products; no generator lies above it
    assert "generators" not in vars(uni.algebra)


def _model_generators(name, uni):
    """A shipped model's ideal generators in bar coordinates of ``uni``."""
    doc = json.loads((MODELS / f"{name}.model").read_text(encoding="utf-8"))
    return [(g["degree"], uni.from_emb(g["degree"],
                                       [frac(x) for x in g["element"]]))
            for g in doc["calculus"].get("ideal_generators", [])]


def _assert_saturation_matches_reference(uni, gens, ref=None):
    # the same span in every degree, and the same basis of I¹, which
    # sigma-all-degrees reads its witness off; both sides are compared by
    # sympy's RREF (tests/_reference.py), not by linalg's eliminator.  A
    # fault injected into ``uni`` after ``ref`` was computed reaches only
    # the saturation
    spans = saturate_ideal(uni, gens)
    if ref is None:
        ref = _reference.saturate_ideal(uni, gens)
    for r, (s, t) in enumerate(zip(spans, ref)):
        assert s.dim == t.dim, r
        assert _reference.rref(dense_vecs(s.quotient().sub, s.ambient_dim)) \
            == _reference.rref(t.basis), r
    assert dense_vecs(spans[1].quotient().sub, uni.bar_dim(1)) == \
        ref[1].basis


@pytest.mark.parametrize("name, truncation",
                         [(n, None) for n in NAMES] + [("a2_quotient", 9)])
def test_saturation_matches_the_worklist_reference(name, truncation):
    uni = model(name, truncation).calculus.universal
    _assert_saturation_matches_reference(uni, _model_generators(name, uni))


def test_saturation_matches_the_worklist_reference_on_t2():
    uni = UniversalCalculus(upper_triangular(2), 3)
    e12_de11 = [0] * uni.bar_dim(1)
    e12_de11[2] = 1                      # e12·de11, a radical element
    _assert_saturation_matches_reference(uni, [(1, _sparse(e12_de11))])
    # d(e11)·d(e12), and a combination in degree 3
    dd = _reference.product(uni, 1, d_bar(uni, 0, [1, 0, 0]), 1,
                            d_bar(uni, 0, [0, 1, 0]))
    top = [F(1, 2) * (k % 3) for k in range(uni.bar_dim(3))]
    _assert_saturation_matches_reference(
        uni, [(2, _sparse(dd)), (3, _sparse(top))])


_ALGEBRAS = {"a2": a2, "T2": lambda: upper_triangular(2),
             "CZ3": lambda: cyclic_group_algebra(3), "M2": m2}


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(sorted(_ALGEBRAS)), st.integers(1, 3), st.data())
def test_saturation_matches_the_worklist_reference_on_drawn_generators(
        name, truncation, data):
    uni = UniversalCalculus(_ALGEBRAS[name](), truncation)
    gens = []
    for _ in range(data.draw(st.integers(1, 2))):
        r = data.draw(st.integers(1, truncation))
        gens.append((r, _sparse(data.draw(bar_elements(uni, r)))))
    _assert_saturation_matches_reference(uni, gens)


# M₂ at D=3 costs the reference up to 0.8 s a draw; the m2_grass cases
# cover it at D=3 and D=4
_MIXED = [(n, d) for n in sorted(_ALGEBRAS) for d in (2, 3)
          if (n, d) != ("M2", 3)]


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(_MIXED), st.data())
def test_saturation_recursion_matches_the_reference_on_mixed_degrees(
        case, data):
    # a generator of degree 1, whose ideal the recursion carries upwards,
    # and one of degree 2..D, closed in a degree the recursion also fills
    name, truncation = case
    uni = UniversalCalculus(_ALGEBRAS[name](), truncation)
    r = data.draw(st.integers(2, truncation))
    gens = [(1, _sparse(data.draw(bar_elements(uni, 1)))),
            (r, _sparse(data.draw(bar_elements(uni, r))))]
    _assert_saturation_matches_reference(uni, gens)


def test_saturation_recursion_matches_the_reference_on_m2_grass_at_d4():
    uni = UniversalCalculus(m2(), 4)
    _assert_saturation_matches_reference(
        uni, _model_generators("m2_grass", uni))


def test_a_wrong_column_table_entry_fails_the_saturation_reference():
    # the reference forms e_i·v in tensor-power coordinates, which read no
    # table of L_{e_i}
    uni = UniversalCalculus(m2(), 3)
    gens = _model_generators("m2_grass", uni)
    _assert_saturation_matches_reference(uni, gens)
    col = uni._left_cols[1][0][0]       # e11·(e11·de_c0) = e11·de_c0
    col[min(col)] *= 2
    with pytest.raises(AssertionError):
        _assert_saturation_matches_reference(uni, gens)


def test_a_wrong_projection_entry_fails_the_reference_on_m2():
    # above degree 1 the saturation reads no column table: A·d(I^r) is
    # A ⊗ (π⊗id)(I^r), read off ``_pi``.  A wrong entry of π(e22) =
    # −π(e11) (e22 is M₂'s unit index u) reaches I² and I³.  The reference
    # is computed first, since ``from_emb`` reads π too
    uni = UniversalCalculus(m2(), 3)
    gens = _model_generators("m2_grass", uni)
    ref = _reference.saturate_ideal(uni, gens)
    _assert_saturation_matches_reference(uni, gens, ref)
    assert uni._pi[3] == {0: -1}
    uni._pi[3][0] = -2
    with pytest.raises(AssertionError):
        _assert_saturation_matches_reference(uni, gens, ref)


def test_a_wrong_generator_table_entry_above_degree_one_fails_the_reference():
    # a generator above degree 1 is closed by e_s· and ·e_s for the algebra
    # generators s only (T₂'s are e12 and e22), and the reference by every
    # e_i and de_j in tensor-power coordinates: a wrong entry in the table
    # of R_{e22} on Ω² at the generator e11·de12·de11 is caught.  A
    # degree-1 generator would not reach that table: I² is then read off
    # I¹'s rows and π
    uni = UniversalCalculus(upper_triangular(2), 3)
    assert uni.algebra.generators == [1, 2]
    e11_de12_de11 = [0] * uni.bar_dim(2)
    e11_de12_de11[2] = 1
    gens = [(2, _sparse(e11_de12_de11))]
    _assert_saturation_matches_reference(uni, gens)
    col = uni._right_cols[2][2][2]      # (e11·de12·de11)·e22
    assert col == {4: -1}
    del col[4]                          # that entry read as 0
    with pytest.raises(AssertionError):
        _assert_saturation_matches_reference(uni, gens)


def _direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """A ⊕ B on the basis of A followed by that of B."""
    n = a.dim + b.dim
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for alg, off in ((a, 0), (b, a.dim)):
        for i, row in enumerate(alg.structure):
            for j, cell in enumerate(row):
                for k, c in enumerate(cell):
                    table[off + i][off + j][off + k] = c
    return Algebra.from_table(table, list(a.unit) + list(b.unit))


def _generated_dim(a: Algebra, gens: list[int]) -> int:
    """The dimension of the unital subalgebra the basis vectors e_s, s in
    gens, generate: span{1} closed under left multiplication by each e_s,
    by the dense product ``_reference.mult``."""
    span = SpanBuilder(a.dim)
    queue = [list(a.unit)]
    span.add(_sparse(queue[0]))
    while queue:
        v = queue.pop()
        for s in gens:
            w = _reference.mult(a, _reference.basis_vec(a.dim, s), v)
            if span.add(_sparse(w)):
                queue.append(w)
    return span.dim


_GENERATED_BY = {**_ALGEBRAS,
                 "T2+a2": lambda: _direct_sum(upper_triangular(2), a2())}


@pytest.mark.parametrize("name", sorted(_GENERATED_BY))
def test_algebra_generators_generate_and_each_is_needed(name):
    a = _GENERATED_BY[name]()
    gens = a.generators
    assert gens == sorted(gens)
    assert _generated_dim(a, gens) == a.dim
    for s in gens:
        assert _generated_dim(a, [t for t in gens if t != s]) < a.dim, s
    # deterministic: a second copy of the algebra finds the same set
    assert dataclasses.replace(a).generators == gens


def test_algebra_generators_of_m2_and_a2():
    # M₂: e12 and e21 (e11 = e12·e21, e22 = e21·e12); ℂ²: e2 (e1 = 1 − e2)
    assert m2().generators == [1, 2]
    assert a2().generators == [1]


def test_the_generating_set_is_computed_once_per_algebra_and_shared(
        monkeypatch, tmp_path):
    # Algebra.generators is the one generating set: the saturation closes
    # a generator above degree 1 under it, and every check of an identity
    # that holds for all f in A runs on it first (Algebra.first_failure).
    # A parse and `all` compute it once per algebra, and every such check
    # reads that algebra's set
    computed, scanned = [], []
    generators = Algebra.__dict__["generators"].func
    first_failure = Algebra.first_failure

    def counting(a):
        computed.append(a)
        return generators(a)

    def spying(a, scan):
        scanned.append(a)
        return first_failure(a, scan)

    counted = cached_property(counting)
    counted.__set_name__(Algebra, "generators")
    monkeypatch.setattr(Algebra, "generators", counted)
    monkeypatch.setattr(Algebra, "first_failure", spying)
    # the saturation reads it only to close a generator of degree ≥ 2:
    # a2_flat with the degree-2 generator e2·de1·de1 (in tensor-power
    # coordinates) closes it under e2· and ·e2, e2 its algebra generator
    alg = dataclasses.replace(a2())
    uni = UniversalCalculus(alg, 3)
    e2_de1_de1 = to_emb(uni, 2, [0, 1])
    saturate_ideal(uni, [(2, uni.from_emb(2, e2_de1_de1))])
    assert computed == [alg] and vars(alg)["generators"] == [1]
    # m2_grass's generator has degree 1 (I¹ is closed by the whole basis,
    # and the higher degrees are read off the one below)
    alg = dataclasses.replace(m2())
    uni = UniversalCalculus(alg, 3)
    saturate_ideal(uni, _model_generators("m2_grass", uni))
    assert len(computed) == 1 and "generators" not in vars(alg)
    doc = json.loads((MODELS / "a2_flat.model").read_text(encoding="utf-8"))
    doc["calculus"]["ideal_generators"] = [
        {"degree": 2, "element": [str(x) for x in e2_de1_de1]}]
    path = tmp_path / "a2_degree_two.model"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for path, dims in ((path, [2, 2, 1, 0]),
                       (MODELS / "m2_grass.model", [4, 4, 4, 4])):
        computed.clear()
        scanned.clear()
        m = parse_model(str(path))
        assert m.calculus.dims() == dims
        cli.run("all", m)
        assert computed == [m.algebra], path.name
        assert scanned and {id(a) for a in scanned} == {id(m.algebra)}


@settings(deadline=None, max_examples=20)
@given(st.sampled_from(sorted(_ALGEBRAS)), st.integers(2, 3), st.data())
def test_sigma_witness_degree_matches_the_reference_saturation(
        name, truncation, data):
    # sigma-all-degrees reads its witness off the saturation's basis, whose
    # order above degree 1 follows the algebra generators; its degree is
    # the first in which κ̄ does not kill the ideal, whatever its basis.
    # Generators above degree 1 give such a witness on about 40% of draws
    a = _ALGEBRAS[name]()
    uni = UniversalCalculus(a, truncation)
    gens = [(r, _sparse(data.draw(bar_elements(uni, r))))
            for r in data.draw(st.lists(st.integers(2, truncation),
                                        min_size=1, max_size=2))]
    gamma = data.draw(st.integers(0, uni.bar_dim(1) - 1))
    conn = regular_connection(a, truncation, gamma, gens)
    p = Pipeline(conn)
    ic, witnesses = p.induced_calculus, p.sigma_full.witnesses
    ref = _reference.saturate_ideal(uni, gens)
    want = next((r for r in range(1, truncation + 1)
                 for v in ref[r].basis
                 if ic.image(r, _sparse(v))),
                None)
    assert (witnesses[0][0] if witnesses else None) == want


def assert_calculus_morphism(rho):
    """ρ intertwines the differentials and the products on every basis
    pair within the truncation."""
    src, tgt = rho.source, rho.target
    maps = [_to_mat(h, tgt.dim(r)) for r, h in enumerate(rho.maps)]
    for r in range(src.D):
        assert mat_mul(maps[r + 1],
                       _to_mat(src.d_cols(r), src.dim(r + 1))) == \
            mat_mul(_to_mat(tgt.d_cols(r), tgt.dim(r + 1)),
                    maps[r]), ("d", r)
    for r in range(src.D + 1):
        for s in range(src.D + 1 - r):
            for ci in range(src.dim(r)):
                u = identity_mat(src.dim(r))[ci]
                for cj in range(src.dim(s)):
                    v = identity_mat(src.dim(s))[cj]
                    lhs = mat_vec(maps[r + s], class_product(src, r, u, s, v))
                    rhs = class_product(tgt, r, mat_vec(maps[r], u),
                                        s, mat_vec(maps[s], v))
                    assert lhs == rhs, ("product", r, s, ci, cj)


def test_preceq_reflexive():
    quo = model("a2_quotient").calculus
    rho, _ = preceq(quo, quo)
    assert rho is not None
    assert_calculus_morphism(rho)


def test_preceq_quotient_below_universal():
    rho, _ = preceq(model("a2_quotient").calculus, universal("a2_flat"))
    assert rho is not None
    assert_calculus_morphism(rho)


def test_preceq_converse_fails_with_witness():
    rho, wit = preceq(universal("a2_flat"), model("a2_quotient").calculus)
    assert rho is None
    deg, bar = wit
    assert deg == 1
    # the witness lies in the quotient's defining ideal
    assert is_zero_vec(project(model("a2_quotient").calculus.quotients[1],
                               bar))


def test_preceq_zero_calculus_below_everything():
    base = universal("a2_flat")
    gens = [(1, base.universal.from_emb(1, e))
            for e in ([F(0), F(1), F(0), F(0)], [F(0), F(0), F(1), F(0)])]
    zero_cal = quotient_calculus(base, gens)
    assert zero_cal.dims() == [2, 0, 0, 0]
    rho, _ = preceq(zero_cal, universal("a2_flat"))
    assert rho is not None
    assert_calculus_morphism(rho)


def test_preceq_transitive_on_chain():
    quo = model("a2_quotient").calculus
    rho1, _ = preceq(quo, universal("a2_flat"))
    rho2, _ = preceq(quo, quo)
    assert rho1 is not None and rho2 is not None


# ⪯ decided by P₁ on I₂'s basis with ρ = P₁·lift₂, against the reference
# that eliminates I₁ afresh and solves h·P₂ = P₁ with factor_through

@cache
def _order_calculi(name):
    """(the model's calculus, the universal calculus, Ω_∇) of a shipped
    model, or of ∇ = d + Γ· on T₂ at D=3 ("t2") or T₃ at D=2 ("t3"), whose
    calculus is the universal one."""
    if name in NAMES:
        return (model(name).calculus, universal(name),
                pipeline(name).induced_calculus.calculus)
    n, truncation = {"t2": (2, 3), "t3": (3, 2)}[name]
    conn = regular_connection(upper_triangular(n), truncation, 0)
    return (conn.calculus, universal_graded(conn.calculus.algebra, truncation),
            Pipeline(conn).induced_calculus.calculus)


def _assert_preceq_matches_reference(c1, c2):
    rho, wit = preceq(c1, c2)
    ref_rho, ref_wit = _reference.preceq(c1, c2)
    assert wit == ref_wit
    assert (rho is None) == (ref_rho is None)
    if rho is not None:
        assert rho.source is c2 and rho.target is c1
        maps = [_to_mat(h, c1.dim(r)) for r, h in enumerate(rho.maps)]
        assert maps == ref_rho.maps
        # ρ_r·P₂ = P₁, the factoring that ideal inclusion guarantees
        for r, h in enumerate(maps):
            assert mat_mul(h, _reference.projection(c2.quotients[r])) == \
                _reference.projection(c1.quotients[r]), r


@pytest.mark.parametrize("name", NAMES + ("t2", "t3"))
def test_preceq_matches_the_reference_on_every_ordered_pair(name):
    for c1, c2 in itertools.product(_order_calculi(name), repeat=2):
        _assert_preceq_matches_reference(c1, c2)


def test_a_wrong_projection_column_fails_the_preceq_reference():
    # inclusion is read off P₁'s sparse columns, which the reference does
    # not read: one wrong entry there keeps P₁ from killing I₂ ⊆ I₁
    cal = model("a2_quotient").calculus
    _assert_preceq_matches_reference(cal, cal)
    q = cal.quotients[1]
    x = min(cal.ideal[1][0])
    col = dict(q.proj_cols[x])
    col[0] = col.get(0, 0) + 1
    cols = q.proj_cols[:x] + [col] + q.proj_cols[x + 1:]
    bad = GradedCalculus(cal.universal, [
        dataclasses.replace(q, proj_cols=cols) if r == 1 else cal.quotients[r]
        for r in range(cal.D + 1)])
    with pytest.raises(AssertionError):
        _assert_preceq_matches_reference(bad, cal)


def test_from_emb_matches_dense_solve():
    # id ⊗ π^{⊗r} agrees with a solve against the dense bar→emb matrix of
    # the reference columns on d and product outputs in every degree; the
    # round trip of each column back to its unit vector shows that the
    # intake columns equal the reference ones
    for cal in (universal("a2_flat"), universal("m2_grass")):
        uni = cal.universal
        a = uni.algebra
        cols = [bar_columns(uni, r) for r in range(uni.D + 1)]
        for r in range(uni.D + 1):
            for unit_k, col in zip(identity_mat(uni.bar_dim(r)), cols[r]):
                assert uni.from_emb(r, col) == _sparse(unit_k)
            solver = LinSolver([list(row) for row in zip(*cols[r])])
            assert solver.rank == uni.bar_dim(r)
            inputs = []
            for col in cols[r]:
                for i in range(a.dim):
                    f = _reference.basis_vec(a.dim, i)
                    inputs.append(product_emb(a, f, 0, col, r))
                    inputs.append(product_emb(a, col, r, f, 0))
            if r:
                inputs += [d_emb(a, col, r - 1) for col in cols[r - 1]]
                inputs += [
                    product_emb(a, d_emb(a, _reference.basis_vec(a.dim, j), 0),
                                1, col, r - 1)
                    for j in uni.complement for col in cols[r - 1]]
            for x in inputs:
                assert uni.from_emb(r, x) == _sparse(solver.solve(x))


def test_bar_native_maps_match_embedding():
    # d, left and right multiplication by the algebra basis and the product
    # of every pair of bar basis vectors, against the embedding route
    for cal in (universal("a2_flat"), universal("m2_grass")):
        uni = cal.universal
        a = uni.algebra
        for r in range(uni.D + 1):
            algebra_basis = identity_mat(a.dim)
            n = uni.bar_dim(r)
            lefts = [_to_mat(uni.left_cols(r, k), n) for k in range(a.dim)]
            rights = [_to_mat(uni.right_cols(r, k), n) for k in range(a.dim)]
            dm = _to_mat(uni.d_cols(r), uni.bar_dim(r + 1)) \
                if r < uni.D else None
            for k, u in enumerate(identity_mat(uni.bar_dim(r))):
                if dm is not None:
                    assert [row[k] for row in dm] == d_ref(uni, r, u)
                for i, (f, lm, rm) in enumerate(zip(algebra_basis, lefts,
                                                    rights)):
                    left = product_ref(uni, 0, f, r, u)
                    right = product_ref(uni, r, u, 0, f)
                    assert uni.product(0, {i: 1}, r, {k: 1}) == _sparse(left)
                    assert uni.product(r, {k: 1}, 0, {i: 1}) == _sparse(right)
                    assert [row[k] for row in lm] == left
                    assert [row[k] for row in rm] == right
                for s in range(1, uni.D + 1 - r):
                    for kv, v in enumerate(identity_mat(uni.bar_dim(s))):
                        assert uni.product(r, {k: 1}, s, {kv: 1}) == \
                            _sparse(product_ref(uni, r, u, s, v))
            # on combinations, where the terms of one product meet
            for s in range(uni.D + 1 - r):
                u = [F(k % 3 - 1, 2) for k in range(n)]
                v = [k % 4 for k in range(uni.bar_dim(s))]
                assert uni.product(r, _sparse(u), s, _sparse(v)) == \
                    _sparse(product_ref(uni, r, u, s, v))


@pytest.mark.parametrize("make", [
    lambda: universal("a2_flat"), lambda: universal("m2_grass"),
    lambda: universal_graded(upper_triangular(2), 3)],
    ids=["a2", "m2", "T2"])
def test_right_mult_bar_matrix_is_the_product_on_unit_columns(make):
    # built from tail_times and the structure constants; for each e_k and
    # for a combination with a non-integral coefficient, Σ f_k·R_{e_k} read
    # off the densified column tables against the product in tensor-power
    # coordinates, which reads no column table
    uni = make().universal
    a = uni.algebra
    combo = [F(1, 2)] + [0] * (a.dim - 2) + [-3]
    for r in range(uni.D + 1):
        n = uni.bar_dim(r)
        tables = [_to_mat(uni.right_cols(r, k), n) for k in range(a.dim)]
        for f in identity_mat(a.dim) + [combo]:
            rm = [[sum(c * m[i][j] for c, m in zip(f, tables) if c)
                   for j in range(n)] for i in range(n)]
            for k, u in enumerate(identity_mat(uni.bar_dim(r))):
                assert [row[k] for row in rm] == product_ref(uni, r, u, 0, f)


@st.composite
def bar_elements(draw, uni, r):
    """An element of Ω^r_u in dense bar coordinates, with few nonzeros."""
    v = zeros(uni.bar_dim(r))
    terms = draw(st.dictionaries(
        st.integers(0, uni.bar_dim(r) - 1),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=1, max_size=4))
    for k, c in terms.items():
        v[k] = F(c)
    return v


@settings(deadline=None)
@given(st.sampled_from(("a2_flat", "m2_grass")), st.data())
def test_universal_laws_on_random_elements(name, data):
    # the product is associative, d is a graded derivation and d² = 0
    uni = universal(name).universal
    r = data.draw(st.integers(0, uni.D))
    s = data.draw(st.integers(0, uni.D - r))
    t = data.draw(st.integers(0, uni.D - r - s))
    u, v, w = (data.draw(bar_elements(uni, k)) for k in (r, s, t))
    prod, d = partial(_reference.product, uni), partial(d_bar, uni)
    assert prod(r + s, prod(r, u, s, v), t, w) == \
        prod(r, u, s + t, prod(s, v, t, w))
    if r + s < uni.D:
        sign = 1 if r % 2 == 0 else -1
        rhs = vec_add(prod(r + 1, d(r, u), s, v),
                      [sign * x for x in prod(r, u, s + 1, d(s, v))])
        assert d(r + s, prod(r, u, s, v)) == rhs
    if r + 2 <= uni.D:
        assert is_zero_vec(d(r + 1, d(r, u)))


def _rebased(a: Algebra, p) -> Algebra:
    """A on the basis f_i = Σ_j p[j][i]·e_j, p invertible: each f_i·f_j and
    the unit solved for in f-coordinates."""
    solver = LinSolver(p)
    fs = [[row[i] for row in p] for i in range(a.dim)]
    return Algebra.from_table(
        [[solver.solve(_reference.mult(a, u, v)) for v in fs] for u in fs],
        solver.solve(list(a.unit)))


def _m2_rebased() -> Algebra:
    """M₂ on e11, e12, e21 and (3/2)(e22 − e12), whose unit is
    f0 + f1 + (2/3)·f3: its last nonzero coefficient is not integral."""
    p = identity_mat(4)
    p[1][3], p[3][3] = F(-3, 2), F(3, 2)
    a = _rebased(m2(), p)
    assert check_algebra(a).ok and a.unit == (1, 1, 0, F(2, 3))
    return a


@pytest.mark.parametrize("make", [a2, lambda: upper_triangular(2), m2,
                                  _m2_rebased],
                         ids=["C2", "T2", "M2", "M2-rebased"])
def test_the_unit_complement_matches_the_span_reference(make):
    # the closed form (every index but the unit's last nonzero one, u, and
    # π(e_u) = −Σ_{t<u} (1_t/1_u)·π(e_t)) against the unit followed by each
    # basis vector that enlarges the span, π read off its coordinates
    a = make()
    uni = UniversalCalculus(a, 1)
    assert (uni.complement, uni._pi) == _reference.unit_complement(a)
    # π kills the unit
    pi_unit = [0] * len(uni.complement)
    for k, c in enumerate(a.unit):
        for p, x in uni._pi[k].items():
            pi_unit[p] += c * x
    assert not any(pi_unit)


def test_bar_basis_guard_rejects_one_sided_unit():
    # e1 is a left unit of A2 but not a right one (e2·e1 = 0), so
    # id ⊗ π does not invert e_i·de_j
    a = a2()
    with pytest.raises(DimensionError, match="bar basis degenerate"):
        UniversalCalculus(Algebra.from_table(a.structure, [F(1), F(0)]), 2)


def test_tensor_power_coordinates_only_at_intake(monkeypatch):
    # a model's run converts each ideal generator once and reaches no other
    # tensor-power vector
    assert not hasattr(UniversalCalculus, "product_emb")
    assert not hasattr(UniversalCalculus, "d_emb")
    calls = []
    from_emb = UniversalCalculus.from_emb

    def counting_from_emb(self, r, emb):
        calls.append(r)
        return from_emb(self, r, emb)

    monkeypatch.setattr(UniversalCalculus, "from_emb", counting_from_emb)
    counts = {}
    for name in NAMES:
        calls.clear()
        cli.run("all", parse_model(str(MODELS / f"{name}.model")))
        counts[name] = len(calls)
    assert counts == {"a2_flat": 0, "a2_quotient": 1, "a2_twist": 1,
                      "m2_grass": 1}
