"""Connections: ∇̂, the induced first-order calculus, κ₁ and σ.

One :class:`Connection` type covers every module a connection acts on: a
bimodule M, a module N on the tensor side, or N⊗_AM for ∇⊗, against Ω or
Ω_∇.  It is stored as the exact map ∇: M → M⊗_AΩ¹, by sparse columns, in
quotient class coordinates of its :class:`Forms`.  A ``Connection`` holds only ∇
and what is built from it: ∇'s extensions, the curvature ∇∘∇, ∇̂ and κ.
Every map on M⊗_AΩ that ∇ does not enter (the actions, the right
multiplications, the right-Ω operators ``DegreeRHom`` with their
extensions and compositions, κ₀ and N⊗_AM) is held by the Forms.

Every map on M⊗_AΩ is stored by sparse columns (``linalg.Cols``: per basis
vector, its image as a ``SparseVec``), because these maps are almost all
zeros.  A composition, a sum, ∇̂ or a Leibniz identity combines the
columns of one factor at the nonzeros of the other (``linalg._compose``,
``_commutator``, ``leibniz_failure``), so its cost is the number of
nonzeros met, not the size of the matrices.
A basis element of A, of M or of Ω^s enters an action, a product or an
operator as its index or as its sparse class ({k: 1} for e_k), never as
a dense unit vector.  κ's operators are built once and read by index:
``Forms.hats`` holds κ₀(e_i) = ê_i, ``Connection.d_hats`` holds
∇̂ê_i = d_∇e_i, and ``kappa_ops(r)`` holds κ on the degree-r bar basis,
each the composition of its prefix's operator with one ∇̂ê_j.  κ₁ is
``kappa_ops(1)``, and σ is held by κ₁'s columns at the representatives of
Ω¹'s classes; only the report densifies it.  The left Leibniz rule, for
d_∇ and σ alike, is an identity of maps decided by columns
(``_left_leibniz_failure``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import anchors
from .algebra import BalancedTensor, tensor_over_A
from .forms import DegreeRHom, Forms
from .linalg import (Cols, QuotientSpace, SpanBuilder, SparseVec, Vec,
                     _apply, _col_sum, _col_vec, _compose, kernel_quotient,
                     null_space)
from .report import Verdict, failed, passed, rationals


class Connection:
    """∇: M → M⊗_AΩ¹ with the right Leibniz rule as its defining contract.

    M is ``forms.module`` (a bimodule or a right module) and Ω is
    ``forms.calculus``; only the right action of M is used.  ``nabla`` is ∇
    by sparse columns, one per basis vector of M, with no zero entry and
    its rows in range(dim M⊗_AΩ¹); it is shared, so no caller may change
    it.
    """

    def __init__(self, forms: Forms, nabla: Cols):
        self.forms = forms
        self.module = forms.module
        self.calculus = forms.calculus
        n_rows = forms.dim(1)
        if len(nabla) != self.module.dim or \
                any(not 0 <= row < n_rows for col in nabla for row in col):
            raise ValueError("nabla must have one column per basis vector "
                             "of M, its rows in range(dim(M⊗Ω¹))")
        self.nabla = nabla
        # ∇'s extensions by sparse columns, by (degree, kind)
        self._ext_cols: dict[tuple[int, str], Cols] = {(0, "ext"): nabla}
        # ∇̂Φ by the id of Φ (DegreeRHom.key)
        self.nabla_hats: dict[int, DegreeRHom] = {}
        # κ on the bar basis, by degree (``kappa_ops``)
        self._kappa: list[list[DegreeRHom]] = []

    @cached_property
    def d_hats(self) -> list[DegreeRHom]:
        """d_∇e_i = ∇̂ê_i per basis index i, ê_i = ``Forms.hats[i]``."""
        return [nabla_hat(self, hat) for hat in self.forms.hats]

    def kappa_ops(self, r: int) -> list[DegreeRHom]:
        """κ on the degree-r bar basis: the operator at bar index x of
        e_i0·de_j1⋯de_jr is ê_i0∘∇̂ê_j1∘⋯∘∇̂ê_jr.  Built once, degree from
        degree: x = x′·m + t for the index x′ of the prefix
        e_i0·de_j1⋯de_j(r−1) and c_t = j_r, the t-th of the m unit
        complement indices, so κ(x) = κ(x′)∘∇̂ê_{c_t} and the prefix's
        extensions are reused."""
        tails = [self.d_hats[j] for j in self.calculus.universal.complement]
        while len(self._kappa) <= r:
            self._kappa.append(
                [prefix.compose(d) for prefix in self._kappa[-1]
                 for d in tails] if self._kappa else self.forms.hats)
        return self._kappa[r]

    def nabla_ext_plain(self, r: int) -> Cols:
        """Extension on free coordinates: T^u_r → T_{r+1} classes, every
        column of ``Forms.extension_columns`` for ∇."""
        key = (r, "plain")
        if key not in self._ext_cols:
            self._ext_cols[key] = self.forms.extension_columns(
                1, self._ext_cols[0, "ext"], r, range(self.forms.tu_dim(r)))
        return self._ext_cols[key]

    def nabla_ext_cols(self, r: int) -> Cols:
        """Extension ∇: T_r → T_{r+1} on quotient class coordinates, by
        sparse columns: the plain extension's columns at ``free``."""
        key = (r, "ext")
        if key not in self._ext_cols:
            plain = self.nabla_ext_plain(r)
            self._ext_cols[key] = [
                plain[fc] for fc in self.forms.quotient_space(r).free]
        return self._ext_cols[key]

    def curvature_cols(self, r: int) -> Cols:
        """∇∘∇: T_r → T_{r+2} by sparse columns, computed once per degree:
        column j combines ∇'s columns in degree r+1 at the nonzeros of its
        column j in degree r."""
        key = (r, "curvature")
        if key not in self._ext_cols:
            self._ext_cols[key] = _compose(self.nabla_ext_cols(r + 1),
                                           self.nabla_ext_cols(r))
        return self._ext_cols[key]


def leibniz_failure(c: Connection, r: int, s: int,
                    omegas: list[int] | range, cols: list[int] | range,
                    proj: QuotientSpace | None = None) \
        -> tuple[int, int] | None:
    """The graded right Leibniz rule ∇(q·ω) = (∇q)·ω + (−1)^r q·dω for q in
    T_r and each basis class ω of Ω^s at the indices ``omegas``, dω its
    column of ``d_cols(s)``, decided as the identity of maps

        N_{r+s}·R(r, s, ω) − R(r+1, s, ω)·N_r − (−1)^r R(r, s+1, dω) = 0,

    N ∇'s extension and R ``Forms.right_mult_cols``, on the columns ``cols``
    of T_r and after projecting by ``proj`` when given.  The column of the
    left side is one ``_col_sum``: N_{r+s}'s columns at the nonzeros of
    R's column, R(r+1, s, ω)'s columns at the nonzeros of N_r's column and
    R(r, s+1, dω)'s column.  Returns the first failing (k, i), column
    cols[k] and ω = omegas[i], by k and then i; None when the rule holds.
    """
    f = c.forms
    sign = 1 if r % 2 == 0 else -1
    n_r, n_rs = c.nabla_ext_cols(r), c.nabla_ext_cols(r + s)
    d = c.calculus.d_cols(s)
    maps = [(f.right_mult_cols(r, s, {k: 1}),
             f.right_mult_cols(r + 1, s, {k: 1}),
             f.right_mult_cols(r, s + 1, d[k])) for k in omegas]
    for k, col in enumerate(cols):
        for i, (rm, rm_next, rm_dw) in enumerate(maps):
            diff = _col_sum([(n_rs[row], x) for row, x in rm[col].items()]
                            + [(rm_next[row], -x)
                               for row, x in n_r[col].items()]
                            + [(rm_dw[col], -sign)])
            if proj is not None:
                diff = _apply(proj.proj_cols, diff)
            if diff:
                return k, i
    return None


def right_leibniz_failure(c: Connection) -> tuple[int, int] | None:
    """The first (module basis, algebra basis) pair at which
    ∇(a·f) = (∇a)·f + a⊗df fails, by a and then f, or None, decided exactly
    on A's generators first (``Algebra.first_failure``).  The f on which it
    holds for every a form a unital subalgebra: the rule is linear in f,
    holds at f = 1 (a·1 = a, d1 = 0), and for two such f and g,
    ∇(a·fg) = (∇(a·f))·g + a·f⊗dg = ∇a·fg + a⊗(df·g + f·dg)
    = ∇a·fg + a⊗d(fg)."""

    def scan(fs):
        fail = leibniz_failure(c, 0, 0, fs, range(c.module.dim))
        return None if fail is None else (fail[0], fs[fail[1]])

    return c.module.algebra.first_failure(scan)


def check_right_leibniz(c: Connection) -> Verdict:
    """The right Leibniz rule of ∇ on M, by ``right_leibniz_failure``."""
    fail = right_leibniz_failure(c)
    if fail is not None:
        return failed("right-leibniz", anchors.RIGHT_LEIBNIZ,
                      {"module_basis": fail[0], "algebra_basis": fail[1]})
    return passed("right-leibniz", anchors.RIGHT_LEIBNIZ)


def _commutator(x_ext: Cols, x_cols: Cols, s: int, phi: DegreeRHom,
                sign: int) -> Cols:
    """The columns of X∘Φ + sign·Φ∘X on M, for a map X of degree s given by
    its extension ``x_ext`` to T_r (r the degree of Φ) and its restriction
    ``x_cols`` to M: column i combines x_ext at the nonzeros of Φ's column
    i and Φ's extension to T_s at the nonzeros of X's column i; a column
    empty in both is {}."""
    ext = phi.ext_cols(s)
    return [_col_sum([(x_ext[k], c) for k, c in col.items()]
                     + [(ext[k], sign * c) for k, c in x_col.items()])
            if col or x_col else {}
            for col, x_col in zip(phi.cols, x_cols)]


def kappa0_op(c: Connection, f: SparseVec) -> DegreeRHom:
    """The left-multiplication operator f̂ as a degree-0 right-Ω operator,
    f in A sparse; κ₀ of a basis element is
    ``Forms.hats``."""
    return DegreeRHom(c.forms, 0, c.module.left_cols(f))


def nabla_hat(c: Connection, phi: DegreeRHom) -> DegreeRHom:
    """∇̂Φ = ∇∘Φ − (−1)^r Φ∘∇, a degree r+1 right-Ω operator: ∇'s extension
    columns at Φ's nonzeros, less (−1)^r Φ's extension columns at ∇'s.

    Computed once per operator id; the result is shared.
    """
    r = phi.degree
    if r + 1 > c.calculus.D:
        raise ValueError("degree overflow past truncation")
    hats = c.nabla_hats
    if phi.key not in hats:
        hats[phi.key] = DegreeRHom(c.forms, r + 1, _commutator(
            c.nabla_ext_cols(r), c.nabla_ext_cols(0), 1, phi,
            -1 if r % 2 == 0 else 1))
    return hats[phi.key]


def _left_leibniz_failure(c: Connection, xs: list[Cols]) \
        -> list[int] | None:
    """The first basis pair [f, ai], by f and then ai, at which the left
    Leibniz rule ∇(f·a) = X_f(a) + f·∇a fails, X_f = ``xs[f]`` a map
    M → M⊗_AΩ¹ by columns; None when it holds on every pair.  Per f it is
    the identity of maps ∇∘L_f = X_f + L_f∘∇, L_f the left action of e_f
    on M and on M⊗_AΩ¹ (κ₀(e_f) and its extension), composed by columns
    and compared column by column; a column empty on all three sides is {}
    without a call."""
    hats = c.forms.hats
    for f, x in enumerate(xs):
        lhs = _compose(c.nabla, hats[f].cols)
        rhs = _compose(hats[f].ext_cols(1), c.nabla)
        for ai, (col, x_col, r_col) in enumerate(zip(lhs, x, rhs)):
            if (col or x_col or r_col) and \
                    _col_sum([(col, 1), (x_col, -1), (r_col, -1)]):
                return [f, ai]
    return None


@dataclass
class InducedFirstOrder:
    """Ω¹_∇ ⊆ Hom^A(M, M⊗_AΩ¹) with d_∇ = ∇̂∘κ₀ and actions f·Φ·g = f̂∘Φ∘ĝ."""

    connection: Connection
    span: SpanBuilder                      # vectorized operator matrices
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.span.dim


def induced_first_order(c: Connection) -> InducedFirstOrder:
    """Span of {f̂∘∇̂(ĝ)∘ĥ} with the derivation-law and left-Leibniz checks.

    The derivation law ∇̂(fg)^ = (∇̂f̂)∘ĝ + f̂∘(∇̂ĝ) is decided for f on A's
    generators first (``Algebra.first_failure``) and g on the basis.  The
    f for which it holds for every g form a unital subalgebra: it is linear
    in f, holds at f = 1 (∇̂1̂ = 0), and for two such f₁, f₂ and any g, with
    κ₀ multiplicative (the module's left action is associative), the law
    for (f₁, f₂g), then for (f₂, g) and for (f₁, f₂) gives
    ∇̂(f₁f₂g)^ = (∇̂f̂₁)∘f̂₂∘ĝ + f̂₁∘((∇̂f̂₂)∘ĝ + f̂₂∘∇̂ĝ)
    = (∇̂(f₁f₂)^)∘ĝ + (f₁f₂)^∘∇̂ĝ.
    """
    a = c.module.algebra
    m = c.module
    span = SpanBuilder(c.forms.dim(1) * m.dim)
    hats, d_ops = c.forms.hats, c.d_hats
    ifo = InducedFirstOrder(c, span)
    for g in range(a.dim):
        w = d_ops[g].right_linearity_witness()
        if w is not None:
            ifo.verdicts.append(failed("nabla-hat-right-linear",
                                       anchors.NABLA_HAT,
                                       {"algebra_basis": g, "witness": w}))
            return ifo
    for f in range(a.dim):
        for g in range(a.dim):
            for h in range(a.dim):
                span.add(hats[f].compose(d_ops[g].compose(hats[h])).flat())
    # derivation law: ∇̂(f̂∘ĝ) = (∇̂f̂)∘ĝ + f̂∘(∇̂ĝ), f on A's generators
    # first and g on the basis; e_f·e_g read off A's products
    def derivation_failure(fs):
        for f in fs:
            for g in range(a.dim):
                prod = kappa0_op(c, a.products[f][g])
                rhs = d_ops[f].compose(hats[g]).add(hats[f].compose(d_ops[g]))
                if nabla_hat(c, prod).cols != rhs.cols:
                    return [f, g]
        return None

    pair = a.first_failure(derivation_failure)
    if pair is not None:
        ifo.verdicts.append(failed("d-nabla-derivation",
                                   anchors.DERIVATION_SINCE, {"pair": pair}))
        return ifo
    ifo.verdicts.append(passed("d-nabla-derivation", anchors.DERIVATION_SINCE))
    # left Leibniz in the induced calculus: ∇(fa) = (d_∇f)(a) + f∇a
    pair = _left_leibniz_failure(c, [op.cols for op in d_ops])
    if pair is not None:
        ifo.verdicts.append(failed("left-leibniz-induced",
                                   anchors.INDUCED_SUBGROUP, {"pair": pair}))
    else:
        ifo.verdicts.append(passed("left-leibniz-induced",
                                   anchors.INDUCED_SUBGROUP,
                                   {"dim_omega1_nabla": span.dim}))
    return ifo


@dataclass
class Kappa1:
    """κ₁: Ω¹_u → Ω¹_∇ with κ₁∘d_u = d_∇, held as its operators: ``ops[u]``
    is κ₁ of the bar basis vector u, ``Connection.kappa_ops(1)``."""

    connection: Connection
    ops: list[DegreeRHom]
    verdicts: list[Verdict] = field(default_factory=list)

    def op(self, alpha: SparseVec) -> DegreeRHom:
        """κ₁(α), α sparse in bar coordinates: column i is the operators'
        columns i applied to α."""
        by_column = zip(*(op.cols for op in self.ops))
        return DegreeRHom(self.connection.forms, 1,
                          [_apply(at_i, alpha) for at_i in by_column])

    def rank(self) -> int:
        """The rank of κ₁: the dimension of Ω¹_u modulo its kernel, the map
        given by the operators' flattenings as columns."""
        return kernel_quotient([op.flat() for op in self.ops]).dim

    @property
    def injective(self) -> bool:
        return self.rank() == len(self.ops)


def kappa1(c: Connection, induced: InducedFirstOrder) -> Kappa1:
    """Basis element f·dg ↦ f̂∘∇̂(ĝ), with linearity and diagram checks;
    ``induced`` is Ω¹_∇ of the same connection.

    Bimodule linearity κ₁(f·α·g) = f̂∘κ₁(α)∘ĝ holds iff κ₁ is left linear,
    κ₁(f·α) = f̂∘κ₁(α), and right linear, κ₁(α·g) = κ₁(α)∘ĝ (take g = 1,
    then f = 1; conversely compose the two).  Each is decided on A's
    generators: the f on which one holds for every α form a unital
    subalgebra, as it is linear in f, holds at f = 1, and with κ₀
    multiplicative κ₁(fg·α) = f̂∘κ₁(g·α) = (fg)^∘κ₁(α) and
    κ₁(α·fg) = κ₁(α·f)∘ĝ = κ₁(α)∘(fg)^.  Only when one fails on a
    generator is the (f, g, α) triple scan run, for its first failing
    triple.
    """
    uni = c.calculus.universal
    a = c.module.algebra
    hats, ops = c.forms.hats, c.kappa_ops(1)
    assert all(induced.span.contains(op.flat()) for op in ops), \
        "kappa1 image must lie in omega1_nabla"
    k = Kappa1(c, ops)
    # diagram: κ₁ ∘ d_u = d_∇ on all algebra basis elements
    for f in range(a.dim):
        if k.op(uni.d_cols(0)[f]).cols != c.d_hats[f].cols:
            k.verdicts.append(failed("kappa1-diagram", anchors.DIAGRAM_COMMUTES,
                                     {"algebra_basis": f}))
            return k
    k.verdicts.append(passed("kappa1-diagram", anchors.DIAGRAM_COMMUTES))
    # bimodule linearity: f·α, α·g and f·α·g for every α at once are L_{e_f},
    # R_{e_g} and L_{e_f}∘R_{e_g} by columns, and κ₁ is linear, so the left
    # side is the combination of the flattened κ₁(α'), each one sparse
    # column, at the nonzeros α' of that column; where it is empty and
    # κ₁(α) is zero, both sides are zero
    alpha_flat = [op.flat() for op in ops]

    def one_sided_failure(fs):
        for side, f_cols, compose in (
                ("left", uni.left_cols, lambda op, f: hats[f].compose(op)),
                ("right", uni.right_cols, lambda op, f: op.compose(hats[f]))):
            for f in fs:
                for bi, col in enumerate(f_cols(1, f)):
                    if (col or not ops[bi].is_zero()) and \
                            _apply(alpha_flat, col) != \
                            compose(ops[bi], f).flat():
                        return side, f, bi
        return None

    if one_sided_failure(a.generators) is None:
        k.verdicts.append(passed("kappa1-bimodule-linear",
                                 anchors.DIAGRAM_COMMUTES))
        return k
    # κ₁(α)∘ĝ per g and α, shared by every f
    alpha_g = [[op.compose(g_hat) for op in ops] for g_hat in hats]
    triple = next([f, g, bi]
                  for f in range(a.dim) for g in range(a.dim)
                  for bi, col in enumerate(_compose(uni.left_cols(1, f),
                                                    uni.right_cols(1, g)))
                  if (col or not alpha_g[g][bi].is_zero()) and
                  _apply(alpha_flat, col) !=
                  hats[f].compose(alpha_g[g][bi]).flat())
    k.verdicts.append(failed("kappa1-bimodule-linear",
                             anchors.DIAGRAM_COMMUTES, {"triple": triple}))
    return k


@dataclass
class SigmaMap:
    """σ: Ω¹⊗_AM → M⊗_AΩ¹ (level 'projected') or σ_u (level 'universal'),
    by columns, one per class of ``tensor``: κ₁'s operator columns, shared,
    so no caller may change one in place."""

    level: str
    tensor: BalancedTensor               # Ω¹ ⊗_A M
    cols: Cols
    verdicts: list[Verdict] = field(default_factory=list)

    def on(self, w: SparseVec) -> Cols:
        """a ↦ σ(w⊗a) for the class w of Ω¹, sparse, by columns: column i
        is σ's columns at the class of w⊗a_i, the tensor's projection
        columns at the pure pairs (k, i) over w's nonzeros k."""
        t = self.tensor
        pure = [{t.pure_index(k, i): x for k, x in w.items()}
                for i in range(t.right_factor.dim)]
        return _compose(self.cols, _compose(t.quotient.proj_cols, pure))


@dataclass
class SigmaResult:
    exists: bool
    sigma: SigmaMap | None
    witness_bar: Vec | None              # element of K with κ₁-image ≠ 0
    verdicts: list[Verdict] = field(default_factory=list)


def sigma_exists(c: Connection, k1: Kappa1) -> SigmaResult:
    """σ exists iff κ₁ annihilates the defining kernel K = I¹ of the calculus.

    K is the kernel of Ω¹'s projection P₁, spanned by its ``sub``, so the
    inclusion K ⊆ ker κ₁ is decided on that basis, as ``preceq`` decides
    its ideal inclusions.  On success σ(α⊗a) = κ̂₁(α)(a), with κ₁ taken at
    the representatives of Ω¹'s classes: κ₁'s operators at P₁'s ``free``
    columns, the unique h with h·P₁ = κ₁.  The left Leibniz rule
    ∇(fa) = σ(df⊗a) + f∇a is then verified exactly on all basis pairs.  On
    failure the witness is the first vector of P₁'s null space (the
    canonical basis of ``null_space``, read off P₁'s columns) with nonzero
    κ₁-image.  ``k1`` is κ₁ of the same connection.
    """
    cal = c.calculus
    q1 = cal.quotients[1]
    absent = any(not k1.op(b).is_zero() for b in q1.sub)
    res = SigmaResult(not absent, None, None)
    if absent:
        kernel = next(v for v in null_space(q1.proj_cols)
                      if not k1.op(v).is_zero())
        wit = _col_vec(kernel, len(q1.proj_cols))
        res.witness_bar = wit
        res.verdicts.append(Verdict("sigma-exists", anchors.FACTOR_UNIQUELY,
                                    "absent",
                                    {"kernel_element_bar": rationals(wit)}))
        return res
    res.verdicts.append(passed("sigma-exists", anchors.FACTOR_UNIQUELY))
    # realize σ on Ω¹ ⊗_A M: column (wi, mj) of the plain tensor is
    # κ̂₁(class wi)(a_mj), so σ is read off the columns at the tensor's free
    omega1_bimod = cal.degree_bimodule(1)
    tens = tensor_over_A(omega1_bimod, c.module)
    ops = [k1.ops[fc] for fc in q1.free]
    plain = [col for op in ops for col in op.cols]
    sigma = SigmaMap("projected" if cal.ideal[1] else "universal", tens,
                     [plain[fc] for fc in tens.quotient.free])
    res.sigma = sigma
    # well-definedness on balanced classes: w ↦ σ(w⊗·) against κ̂₁(w) on
    # each basis class w of Ω¹
    for wi, op in enumerate(ops):
        via = sigma.on({wi: 1})
        mj = next((mj for mj, (x, y) in enumerate(zip(op.cols, via))
                   if x != y), None)
        if mj is not None:
            res.verdicts.append(failed("sigma-well-defined",
                                       anchors.GENERALIZED_PERMUTATION,
                                       {"pair": [wi, mj]}))
            return res
    res.verdicts.append(passed("sigma-well-defined",
                               anchors.GENERALIZED_PERMUTATION))
    # left Leibniz rule: ∇(fa) = σ(df ⊗ a) + f ∇a
    pair = _left_leibniz_failure(c, [sigma.on(df) for df in cal.d_cols(0)])
    if pair is not None:
        res.verdicts.append(failed("sigma-left-leibniz", anchors.LEFT_LEIBNIZ,
                                   {"pair": pair}))
    else:
        res.verdicts.append(passed("sigma-left-leibniz", anchors.LEFT_LEIBNIZ))
    return res
