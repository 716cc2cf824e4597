"""Connections on tensor products N⊗_AM and the associated connection.

Degree-one elements of the induced calculus act on the second factor as
operators (the interpretation (b⊗Φ̂)a := b⊗Φ̂(a)), which makes the sum
(∇′_M b)·a + b⊗∇a a well-defined connection on the balanced tensor product.
The same connection arises from a connection ∇′ against the original
calculus by first pushing ∇′b down with ν̂ = id⊗κ̂; both routes are built
and compared here, together with the degeneracy submodules N₀, M₀ they
assume stable.  The N-side ∇′, the associated connection ∇′_M and ∇⊗
itself, on the bimodule N⊗_AM, are plain :class:`Connection` objects, and
one function decides the right Leibniz rule of each
(``right_leibniz_failure``).

N⊗_AΩ_∇ is ``Forms.of(N, Ω_∇)``.  When Ω_∇ has Ω's ideal it is Ω's own
object (``InducedCalculus``), so that is the N-side ∇′'s own Forms: ν̂ is
the identity, and its checks, ∇′_M and the induced route reuse the
quotients, right multiplications and extensions built for ∇′.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from . import anchors
from .algebra import (BalancedTensor, Bimodule, balancing_relations,
                      tensor_over_A)
from .calculus import CalculusMorphism
from .connection import (Connection, check_right_leibniz,
                         right_leibniz_failure)
from .curvature import InducedCalculus
from .forms import Forms
from .linalg import (Cols, DimensionError, SpanBuilder, SparseVec, _apply,
                     _col_sum, _col_vec, _compose, kernel_quotient,
                     null_space)
from .report import Verdict, failed, passed, rationals


# ---------------------------------------------------------------------------
# degeneracy submodules
# ---------------------------------------------------------------------------

@dataclass
class DegeneracyPair:
    """N₀ = {b : b⊗_Aa = 0 ∀a}, M₀ = {a : b⊗_Aa = 0 ∀b}."""

    left: object                 # N, a right module
    right: Bimodule              # M
    tensor: BalancedTensor       # N ⊗_A M
    n0: list[SparseVec]          # basis of N₀
    m0: list[SparseVec]          # basis of M₀
    verdicts: list[Verdict] = field(default_factory=list)


def degeneracy_submodules(n, m: Bimodule,
                          tensor: BalancedTensor | None = None) \
        -> DegeneracyPair:
    """Kernels of the two partial pairing maps, verified to be submodules.

    The class of the basis pair b_j⊗a_i is column ``pure_index(j, i)`` of
    the tensor's projection, so each pairing map is stacked from those
    columns.  N₀·f ⊆ N₀, M₀·f ⊆ M₀ and f·M₀ ⊆ M₀ are decided on A's
    generators first (``Algebra.first_failure``): the f for which each
    holds form a unital subalgebra, as each is linear in f, holds at f = 1,
    and N₀·fg = (N₀·f)·g ⊆ N₀·g ⊆ N₀, and likewise on M₀."""
    if tensor is None:
        tensor = tensor_over_A(n, m)
    t = tensor
    proj = t.quotient.proj_cols
    # b ↦ (class of b⊗a_i)_i, stacked over the M basis
    n0 = null_space([{i * t.dim + k: x for i in range(m.dim)
                      for k, x in proj[t.pure_index(j, i)].items()}
                     for j in range(n.dim)])
    # a ↦ (class of b_j⊗a)_j, stacked over the N basis
    m0 = null_space([{j * t.dim + k: x for j in range(n.dim)
                      for k, x in proj[t.pure_index(j, i)].items()}
                     for i in range(m.dim)])
    pair = DegeneracyPair(n, m, t, n0, m0)
    a = m.algebra
    span_n = SpanBuilder(n.dim)
    for v in n0:
        span_n.add(v)
    span_m = SpanBuilder(m.dim)
    for v in m0:
        span_m.add(v)

    def scan(fis):
        for v in n0:
            for fi in fis:
                if not span_n.contains(_apply(n.right_action[fi], v)):
                    return {"side": "N0", "algebra_basis": fi,
                            "vector": rationals(_col_vec(v, n.dim))}
        for v in m0:
            for fi in fis:
                for cols, side in ((m.right_action[fi], "M0-right"),
                                   (m.left_action[fi], "M0-left")):
                    if not span_m.contains(_apply(cols, v)):
                        return {"side": side, "algebra_basis": fi,
                                "vector": rationals(_col_vec(v, m.dim))}
        return None

    fail = a.first_failure(scan)
    if fail is not None:
        pair.verdicts.append(failed("degeneracy-submodules",
                                    anchors.ASSUME_DEGENERACY, fail))
        return pair
    pair.verdicts.append(passed("degeneracy-submodules",
                                anchors.ASSUME_DEGENERACY,
                                {"dim_n0": len(n0), "dim_m0": len(m0)}))
    return pair


def degeneracy_brute(pair: DegeneracyPair) -> Verdict:
    """Cross-check N₀/M₀ against testing b⊗a = 0 on every basis pair.

    The per-basis test recovers the coordinate-aligned part of each kernel;
    agreement is asserted as a small-instance oracle, not proved in general.
    """
    n, m, t = pair.left, pair.right, pair.tensor
    # the class of b_j⊗a_i is column pure_index(j, i) of the projection
    proj = t.quotient.proj_cols
    n0_b = [j for j in range(n.dim)
            if not any(proj[t.pure_index(j, i)] for i in range(m.dim))]
    m0_b = [i for i in range(m.dim)
            if not any(proj[t.pure_index(j, i)] for j in range(n.dim))]
    span_n = SpanBuilder(n.dim)
    for j in n0_b:
        span_n.add({j: 1})
    span_m = SpanBuilder(m.dim)
    for i in m0_b:
        span_m.add({i: 1})
    ok = (span_n.dim == len(pair.n0)
          and all(span_n.contains(v) for v in pair.n0)
          and span_m.dim == len(pair.m0)
          and all(span_m.contains(v) for v in pair.m0))
    if not ok:
        return failed("degeneracy-brute-oracle", anchors.ASSUME_DEGENERACY,
                      {"kernel_dims": [len(pair.n0), len(pair.m0)],
                       "brute_dims": [span_n.dim, span_m.dim]})
    return passed("degeneracy-brute-oracle", anchors.ASSUME_DEGENERACY,
                  {"dim_n0": len(pair.n0), "dim_m0": len(pair.m0)})


def check_compatibility(c: Connection, rc: Connection,
                        pair: DegeneracyPair) -> Verdict:
    """∇M₀ ⊆ M₀⊗_AΩ¹ and ∇′N₀ ⊆ N₀⊗_AΩ¹ (each against its own calculus).

    M₀⊗_AΩ¹ is spanned by v⊗ω over a basis v of M₀ and the basis classes ω
    of Ω¹, and v⊗ω combines the columns of ``right_mult_cols(0, 1, ω)``,
    the classes m_i⊗ω, at v's nonzeros; ∇v combines ∇'s columns there."""
    for sub, conn, side in ((pair.m0, c, "M0"), (pair.n0, rc, "N0")):
        if not sub:
            continue
        forms = conn.forms
        span = SpanBuilder(forms.dim(1))
        for k in range(forms.calculus.dim(1)):
            rm = forms.right_mult_cols(0, 1, {k: 1})
            for v in sub:
                span.add(_apply(rm, v))
        for v in sub:
            if not span.contains(_apply(conn.nabla, v)):
                return failed("tensor-compatibility",
                              anchors.ASSUME_DEGENERACY,
                              {"side": side, "vector": rationals(
                                  _col_vec(v, conn.module.dim))})
    return passed("tensor-compatibility", anchors.ASSUME_DEGENERACY,
                  {"dim_n0": len(pair.n0), "dim_m0": len(pair.m0)})


# ---------------------------------------------------------------------------
# ν̂ = id ⊗ κ̂
# ---------------------------------------------------------------------------

@dataclass
class NuHat:
    """Per-degree maps N⊗_AΩ^r → N⊗_AΩ_∇^r, b⊗ω ↦ b⊗κ̂(ω), by columns."""

    available: bool
    source: Forms | None = None          # N ⊗ Ω
    target: Forms | None = None          # N ⊗ Ω_∇
    maps: list[Cols] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)

    def rank(self, r: int) -> int:
        return kernel_quotient(self.maps[r]).dim


def nu_hat(rc: Connection, kappa_hat: CalculusMorphism | None) -> NuHat:
    """Build ν̂ on the module of ∇′ from κ̂, or report it unavailable when κ̂
    does not exist.

    Both N⊗Ω^r and N⊗Ω_∇^r are quotients of the same free coordinate space
    N ⊗ (degree-r tails); since κ̂ is the canonical factoring of the two
    ideal quotients, ν̂ is lift-then-reproject between them: the target's
    projection columns at the source's ``free`` columns, held as they are.
    Its right linearity is decided by composing those columns with the
    right multiplications of ``Forms``.  The source is ``rc.forms``; only
    the target N⊗Ω_∇ is built here, through ``Forms.of``.  When κ̂'s
    target is ``rc.calculus`` (Ω_∇ = Ω), that is the parser's
    ``rc.forms``, ν̂ the identity, and nothing is built; every check below
    still runs.
    """
    if kappa_hat is None:
        nu = NuHat(False)
        nu.verdicts.append(Verdict("nu-hat", anchors.NU_HAT, "unavailable"))
        return nu
    if rc.calculus is not kappa_hat.source:
        raise DimensionError(
            "the N-side connection must live over the source of κ̂")
    src = rc.forms
    tgt = Forms.of(rc.module, kappa_hat.target)
    nu = NuHat(True, src, tgt)
    for r in range(src.D + 1):
        proj = tgt.quotient_space(r).proj_cols
        nu.maps.append([proj[fc] for fc in src.quotient_space(r).free])
    # well defined: the source relations are killed in the target
    for r in range(src.D + 1):
        proj = tgt.quotient_space(r).proj_cols
        for v in src.quotient_space(r).sub:
            if _apply(proj, v):
                nu.verdicts.append(failed(
                    "nu-hat-well-defined", anchors.NU_HAT,
                    {"degree": r,
                     "vector": rationals(_col_vec(v, len(proj)))}))
                return nu
    nu.verdicts.append(passed("nu-hat-well-defined", anchors.NU_HAT))
    nu.verdicts.append(_nu_right_linear(nu))
    return nu


def _nu_right_linear(nu: NuHat) -> Verdict:
    """ν̂ is right linear over the calculi: it commutes with ·f and with
    ·de_j, as the squares ν_r·R^src(r, 0, e_i) = R^tgt(r, 0, e_i)·ν_r and
    ν_{r+1}·R^src(r, 1, [de_j]) = R^tgt(r, 1, [de_j])·ν_r, composed by
    columns; the witness is the first failing square, and for ·de_j its
    first differing column.

    The ·f squares are decided on A's generators first
    (``Algebra.first_failure``), the ·de_j squares unchanged: the f whose
    square commutes form a unital subalgebra, as it is linear in f, R(1) is
    the identity, and R(fg) = R(g)∘R(f) on both sides, so
    ν∘R^src(fg) = ν∘R^src(g)∘R^src(f) = R^tgt(g)∘ν∘R^src(f) =
    R^tgt(g)∘R^tgt(f)∘ν = R^tgt(fg)∘ν."""
    src, tgt = nu.source, nu.target
    uni = src.uni
    a = uni.algebra
    tails = [(j, src.calculus.d_cols(0)[j], tgt.calculus.d_cols(0)[j])
             for j in uni.complement]

    def scan(fis):
        for r in range(src.D + 1):
            for fi in fis:
                e_i = {fi: 1}
                if _compose(nu.maps[r], src.right_mult_cols(r, 0, e_i)) != \
                        _compose(tgt.right_mult_cols(r, 0, e_i), nu.maps[r]):
                    return {"degree": r, "algebra_basis": fi}
            if r + 1 > src.D:
                continue
            for j, de_src, de_tgt in tails:
                lhs = _compose(tgt.right_mult_cols(r, 1, de_tgt), nu.maps[r])
                rhs = _compose(nu.maps[r + 1],
                               src.right_mult_cols(r, 1, de_src))
                for col, (x, y) in enumerate(zip(lhs, rhs)):
                    if x != y:
                        return {"degree": r, "tail": j, "basis": col}
        return None

    fail = a.first_failure(scan)
    if fail is not None:
        return failed("nu-hat-right-linear", anchors.NU_HAT, fail)
    return passed("nu-hat-right-linear", anchors.NU_HAT)


# ---------------------------------------------------------------------------
# tensor-product connections
# ---------------------------------------------------------------------------

@dataclass
class TensorConnection:
    """∇⊗ on N⊗_AM by either route: once it is built, ``connection``, a
    :class:`Connection` on the Forms of N⊗_AM (``Forms.tensor_forms``),
    whose T₁ is (N⊗_AM)⊗_AΩ¹ ≅ N⊗_A(M⊗_AΩ¹)."""

    route: str                       # "induced" or "nu-hat"
    domain: BalancedTensor           # N ⊗_A M
    connection: Connection | None = None
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def available(self) -> bool:
        return self.connection is not None


def _pure_pair_columns(c: Connection, n, xi_forms: Forms, xi: Cols,
                       tail_ops: list[Cols]) -> Cols:
    """∇⊗ on the plain N⊗M by columns, into (N⊗_AM)⊗_AΩ¹: column (j, i) is
    the class of ξ_j·a_i + b_j⊗∇a_i, the sum of the columns b_k⊗q of
    ``Forms.tensor_forms`` at its terms.

    ξ_j = ``xi[j]`` is a degree-one N-form of ``xi_forms``, by its sparse
    column.  A term x·b_k⊗de_β of its representative acts on a_i through
    its tail: it gives x·b_k⊗(T_β·a_i) for the M → M⊗_AΩ¹ map
    T_β = ``tail_ops[β]``, by sparse columns.
    """
    nt = xi_forms.n_tails(1)
    t1 = c.forms.dim(1)
    free = xi_forms.quotient_space(1).free
    pairs = c.forms.tensor_forms(n)[1]
    cols = []
    for j, xi_j in enumerate(xi):
        terms = [(divmod(free[k], nt), x) for k, x in xi_j.items()]
        for i, nabla_i in enumerate(c.nabla):
            cols.append(_col_sum(
                [(pairs[k * t1 + l], x * y) for (k, bidx), x in terms
                 for l, y in tail_ops[bidx][i].items()]
                + [(pairs[j * t1 + l], y) for l, y in nabla_i.items()]))
    return cols


def _tensor_from_xi(route: str, n, c: Connection, xi_forms: Forms, xi: Cols,
                    well_defined_anchor: str) -> TensorConnection:
    """Assemble ∇⊗ from the degree-one N-forms ξ_j = "(∇ of b_j) downstairs".

    Each ξ_j lives in N⊗_AΩ¹_∇; its tail de_j acts on M through
    κ(1·de_j) = ∇̂ê_j (``Connection.d_hats``; 1 acts as the identity
    because M is unital), which is the interpretation rule
    (b⊗Φ̂)a := b⊗Φ̂(a).  Its right Leibniz rule is that of any connection
    (``right_leibniz_failure``), reported with the class of N⊗_AM at
    ``basis``.
    """
    m = c.module
    tn, forms = c.forms.tensors(n), c.forms.tensor_forms(n)[0]
    tail_ops = [c.d_hats[j].cols for j in c.calculus.universal.complement]
    plain = _pure_pair_columns(c, n, xi_forms, xi, tail_ops)
    tc = TensorConnection(route, tn)
    # well defined on balanced classes
    for rel in balancing_relations(n, m):
        if _apply(plain, rel):
            tc.verdicts.append(failed(
                "tensor-connection-well-defined", well_defined_anchor,
                {"relation": rationals(_col_vec(rel, tn.plain_dim))}))
            return tc
    tc.verdicts.append(passed("tensor-connection-well-defined",
                              well_defined_anchor))
    tc.connection = Connection(forms, [plain[fc] for fc in tn.quotient.free])
    fail = right_leibniz_failure(tc.connection)
    tc.verdicts.append(
        passed("tensor-right-leibniz", anchors.TENSOR_CONNECTION)
        if fail is None else
        failed("tensor-right-leibniz", anchors.TENSOR_CONNECTION,
               {"basis": fail[0], "algebra_basis": fail[1]}))
    return tc


def tensor_connection_induced(rc: Connection, c: Connection,
                              induced: InducedCalculus) -> TensorConnection:
    """∇⊗(b⊗a) := (∇′_M b)·a + b⊗∇a with ∇′_M against (Ω¹_∇, d_∇)."""
    if rc.calculus is not induced.calculus:
        raise DimensionError(
            "the N-side connection must live over the induced calculus")
    return _tensor_from_xi("induced", rc.module, c, rc.forms, rc.nabla,
                           anchors.INTERPRETED)


def tensor_connection_original(rc: Connection, c: Connection, nu: NuHat,
                               sigma) -> TensorConnection:
    """∇⊗(b⊗a) := ν̂(∇′b)·a + b⊗∇a, with the σ-route agreement check."""
    if not nu.available:
        tc = TensorConnection("nu-hat", c.forms.tensors(rc.module))
        tc.verdicts.append(Verdict("tensor-connection-original",
                                   anchors.ORIGINAL_ROUTE, "unavailable"))
        return tc
    tc = _tensor_from_xi("nu-hat", rc.module, c, nu.target,
                         _compose(nu.maps[1], rc.nabla),
                         anchors.ORIGINAL_ROUTE)
    if sigma.exists:
        _check_sigma_route(tc, rc, c, sigma)
    return tc


def _check_sigma_route(tc: TensorConnection, rc: Connection,
                       c: Connection, sigma) -> None:
    """(id_N⊗σ)(∇′b)⊗a + b⊗∇a equals the ν̂-route value on all pure pairs:
    the pure-pair columns with the tail de_j acting as a ↦ σ(1·de_j ⊗ a),
    whose class is that of d(e_j)."""
    n, m = rc.module, c.module
    s = sigma.sigma
    cal = c.calculus
    tail_ops = [s.on(cal.d_cols(0)[j]) for j in cal.universal.complement]
    plain = _pure_pair_columns(c, n, rc.forms, rc.nabla, tail_ops)
    # the pure pair (j, i) is column pure_index(j, i) of both the plain
    # columns and the domain's projection, which holds its class
    proj = tc.domain.quotient.proj_cols
    for j in range(n.dim):
        for i in range(m.dim):
            at = tc.domain.pure_index(j, i)
            if plain[at] != _apply(tc.connection.nabla, proj[at]):
                tc.verdicts.append(failed("tensor-route-agreement",
                                          anchors.NEC_SUFF,
                                          {"pair": [j, i]}))
                return
    tc.verdicts.append(passed("tensor-route-agreement", anchors.NEC_SUFF))


# ---------------------------------------------------------------------------
# the associated connection
# ---------------------------------------------------------------------------

@dataclass
class AssociatedResult:
    """∇′_M with ν̂∘∇′ = ∇′_M∘ν̂, degree by degree (``ext_cols``, by sparse
    columns, the degree-0 ones ``connection.nabla``), or the obstruction to
    it: a vector of ker ν̂ that ν̂∘∇′ does not kill."""

    exists: bool
    connection: Connection | None = None
    ext_cols: list[Cols] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)


def associated_connection(rc: Connection, nu: NuHat) -> AssociatedResult:
    """Push ∇′ through ν̂ degree-wise; absent when ker ν̂ is not preserved.

    ker ν̂_r ⊆ ker(ν̂∘∇′)_r is decided on the canonical basis of
    ``null_space(ν̂_r)``, the witness the first kernel vector ν̂∘∇′ does not
    kill, as ``sigma_exists`` decides σ.  ∇′_M is then read off ν̂∘∇′'s
    columns, as ``preceq`` reads ρ: ν̂'s target ideal contains its
    source's, so the target's ``free`` columns are among the source's, and
    ν̂ takes the source class at the target's k-th free column to e_k.
    ∇′_M lives on ν̂'s target, which is ``rc.forms`` when Ω_∇ = Ω: ∇′_M is
    then a second connection on ∇′'s own Forms, and its right Leibniz rule
    reads the right multiplications ∇′'s checks built.
    """
    if not nu.available:
        res = AssociatedResult(False)
        res.verdicts.append(Verdict("associated-connection",
                                    anchors.ASSOCIATED, "unavailable"))
        return res
    src, tgt = nu.source, nu.target
    res = AssociatedResult(True)
    # ν̂∘∇′ per degree, by columns
    pushed = [_compose(nu.maps[r + 1], rc.nabla_ext_cols(r))
              for r in range(src.D)]
    for r in range(src.D):
        wit = next((v for v in null_space(nu.maps[r])
                    if _apply(pushed[r], v)), None)
        if wit is not None:
            res.exists = False
            res.ext_cols = []
            res.verdicts.append(Verdict("associated-connection",
                                        anchors.ASSOCIATED, "absent",
                                        {"degree": r,
                                         "kernel_element": rationals(
                                             _col_vec(wit, src.dim(r)))}))
            return res
        pos = {fc: k for k, fc in enumerate(src.quotient_space(r).free)}
        res.ext_cols.append(
            [pushed[r][pos[fc]] for fc in tgt.quotient_space(r).free])
    res.connection = Connection(tgt, res.ext_cols[0])
    res.verdicts.append(passed("associated-connection", anchors.ASSOCIATED))
    # the square ν̂∘∇′ = ∇′_M∘ν̂, re-checked by columns
    for r in range(src.D):
        if pushed[r] != _compose(res.ext_cols[r], nu.maps[r]):
            res.verdicts.append(failed("associated-square", anchors.ASSOCIATED,
                                       {"degree": r}))
            return res
    res.verdicts.append(passed("associated-square", anchors.ASSOCIATED))
    res.verdicts.append(check_right_leibniz(res.connection))
    return res
