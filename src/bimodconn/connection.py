"""Connections: ∇̂, the induced first-order calculus, κ₁ and σ.

One :class:`Connection` type covers every module a connection acts on: a
bimodule M, or a right module N on the tensor side, against Ω or Ω_∇.  It
is stored as the exact map ∇: M → M⊗_AΩ¹, by sparse columns, in quotient
class coordinates of its :class:`Forms`.  Right-Ω-linear operators of
degree r are stored by their restriction to M (a right-A-linear map
M → M⊗_AΩ^r) and extended on demand; this is faithful because M generates
M⊗_AΩ as a right Ω-module.

Every map on M⊗_AΩ is stored by sparse columns (``linalg.Cols``: per basis
vector, its nonzero (row, coeff) pairs), because these maps are almost all
zeros: ∇ itself, the module's actions, operators, their extensions, ∇'s
extensions, the curvature and the actions and right multiplications of
``Forms``.  A composition, a sum, ∇̂ or a Leibniz identity combines the
columns of one factor at the nonzeros of the other (``linalg._compose``,
``_commutator``, ``leibniz_failure``), so its cost is the number of
nonzeros met, not the size of the matrices.
κ₁ is kept as its operators, one per bar basis vector of Ω¹_u, and σ is
held by κ₁'s columns at the representatives of Ω¹'s classes; only the
report densifies it.  The left Leibniz rule, for d_∇ and σ alike, is an
identity of maps decided by columns (``_left_leibniz_failure``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import anchors
from .algebra import BalancedTensor, tensor_over_A
from .forms import Forms
from .linalg import (Cols, QuotientSpace, SpanBuilder, SparseVec, Vec,
                     _col_sum, _combine, _compose, _sparse, identity_mat,
                     kernel_quotient, null_space)
from .report import Verdict, failed, passed, rationals


class Connection:
    """∇: M → M⊗_AΩ¹ with the right Leibniz rule as its defining contract.

    M is ``forms.module`` (a bimodule or a right module) and Ω is
    ``forms.calculus``; only the right action of M is used.  ``nabla`` is ∇
    by sparse columns, one per basis vector of M, each sorted by row with
    its rows in range(dim M⊗_AΩ¹); it is shared, so no caller may change
    it.
    """

    def __init__(self, forms: Forms, nabla: Cols):
        self.forms = forms
        self.module = forms.module
        self.calculus = forms.calculus
        n_rows = forms.dim(1)
        if len(nabla) != self.module.dim or \
                any(not 0 <= row < n_rows for col in nabla for row, _ in col):
            raise ValueError("nabla must have one column per basis vector "
                             "of M, its rows in range(dim(M⊗Ω¹))")
        self.nabla = nabla
        # ∇'s extensions by sparse columns, by (degree, kind)
        self._ext_cols: dict[tuple[int, str], Cols] = {(0, "ext"): nabla}
        # ∇̂Φ by the id of Φ (DegreeRHom.key)
        self.nabla_hats: dict[int, DegreeRHom] = {}
        # by the id of a right module N: (N, N⊗_AM, N⊗_A(M⊗_AΩ¹)); the
        # entry holds N, so the id stays N's
        self._tensors: dict[int, tuple] = {}

    def nabla_apply(self, m_vec: Vec) -> Vec:
        return _combine(self.nabla, m_vec, self.forms.dim(1))

    def tensors(self, n) -> tuple[BalancedTensor, BalancedTensor]:
        """N⊗_AM and N⊗_A(M⊗_AΩ¹) for a right module N, the domain and
        codomain of a tensor-product connection, built once per N."""
        if id(n) not in self._tensors:
            t1 = self.forms.as_bimodule(1)
            self._tensors[id(n)] = (n, tensor_over_A(n, self.module),
                                    tensor_over_A(n, t1))
        return self._tensors[id(n)][1:]

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


def leibniz_failure(c: Connection, r: int, s: int, omegas: list[Vec],
                    cols: list[int] | range,
                    proj: QuotientSpace | None = None) \
        -> tuple[int, int] | None:
    """The graded right Leibniz rule ∇(q·ω) = (∇q)·ω + (−1)^r q·dω for q in
    T_r and each ω of Ω^s in ``omegas``, decided as the identity of maps

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
    maps = [(f.right_mult_cols(r, s, w), f.right_mult_cols(r + 1, s, w),
             f.right_mult_cols(r, s + 1, c.calculus.d_apply(s, w)))
            for w in omegas]
    for k, col in enumerate(cols):
        for i, (rm, rm_next, rm_dw) in enumerate(maps):
            diff = _col_sum([(n_rs[row], x) for row, x in rm[col]]
                            + [(rm_next[row], -x) for row, x in n_r[col]]
                            + [(rm_dw[col], -sign)])
            if proj is not None:
                diff = _compose(proj.proj_cols, [diff])[0]
            if diff:
                return k, i
    return None


def check_right_leibniz(c: Connection) -> Verdict:
    """∇(a·f) = (∇a)·f + a⊗df on all basis pairs, exactly."""
    a = c.module.algebra
    fail = leibniz_failure(c, 0, 0, [a.basis_vec(i) for i in range(a.dim)],
                           range(c.module.dim))
    if fail is not None:
        return failed("right-leibniz", anchors.RIGHT_LEIBNIZ,
                      {"module_basis": fail[0], "algebra_basis": fail[1]})
    return passed("right-leibniz", anchors.RIGHT_LEIBNIZ)


@dataclass
class DegreeRHom:
    """Degree-r right-Ω-linear operator, stored by its restriction to M as
    sparse columns: ``cols[i]`` holds the nonzero (row, coeff) pairs of
    Φ(m_i) in T_r, sorted by row, so equal operators have equal columns.

    ``key`` is the operator's id in the intern table ``forms.op_ids``: equal
    operators of one ``Forms`` get one id, and each instance tuples and
    hashes its content once.  Extensions and compositions are computed once
    per operand ids and kept in ``forms.op_cache``, ∇̂ in
    ``Connection.nabla_hats``; a composition or ∇̂ found there is the
    operator itself, whose id is already known.  Only operators of one
    ``Forms`` are combined.  Columns and operators are shared, so no caller
    may change ``cols`` or an extension in place.
    """

    forms: Forms
    degree: int
    cols: Cols               # per basis vector of M, its rows in T_degree

    @cached_property
    def key(self) -> int:
        """The id of the content, the degree and the columns as tuples."""
        ids = self.forms.op_ids
        return ids.setdefault((self.degree, tuple(map(tuple, self.cols))),
                              len(ids))

    def flat(self, at: list[int] | range | None = None) -> SparseVec:
        """The matrix T_degree × M row by row, at the module basis indices
        ``at`` (every one by default), as a sparse vector: entry (row, x)
        at row·len(at) + x."""
        at = range(len(self.cols)) if at is None else at
        return {row * len(at) + x: c
                for x, i in enumerate(at) for row, c in self.cols[i]}

    def ext_cols(self, s: int) -> Cols:
        """Right-Ω-linear extension T_s → T_{degree+s}, Φ(a⊗ω) = Φ(a)·ω,
        by sparse columns; a zero operator's is zero, and not cached."""
        if s == 0:
            return self.cols
        if self.is_zero():
            return [[] for _ in range(self.forms.dim(s))]
        cache = self.forms.op_cache
        key = ("ext", self.key, s)
        if key not in cache:
            f = self.forms
            cache[key] = f.extension_columns(self.degree, self.cols, s,
                                             f.quotient_space(s).free)
        return cache[key]

    def compose(self, other: "DegreeRHom") -> "DegreeRHom":
        """self ∘ other (other applied first): column i combines this
        operator's extension columns at the nonzeros of other's column i.
        With a zero operand it is the zero operator, and nothing is
        extended or cached."""
        degree = self.degree + other.degree
        if degree > self.forms.D:
            raise ValueError("degree overflow past truncation")
        if self.is_zero() or other.is_zero():
            return DegreeRHom(self.forms, degree, [[] for _ in other.cols])
        cache = self.forms.op_cache
        key = ("compose", self.key, other.key)
        if key not in cache:
            cache[key] = DegreeRHom(self.forms, degree, _compose(
                self.ext_cols(other.degree), other.cols))
        return cache[key]

    def add(self, other: "DegreeRHom") -> "DegreeRHom":
        if other.degree != self.degree:
            raise ValueError("operators of different degrees")
        return DegreeRHom(self.forms, self.degree,
                          [_col_sum([(a, 1), (b, 1)])
                           for a, b in zip(self.cols, other.cols)])

    def is_zero(self) -> bool:
        return not any(self.cols)

    def right_linearity_witness(self) -> tuple[int, int] | None:
        """(module_basis, algebra_basis) violating Φ(a·f) = Φ(a)·f, or None,
        the first in a, then f.  Both sides are sparse columns: Φ's columns
        combined at the nonzeros of m_a·e_f (column a of the stored right
        action of e_f), and the columns of ·e_f on T_degree combined at Φ's
        column a; an empty side is [] without a call."""
        f = self.forms
        right = [f.right_mult_cols(self.degree, 0, f.algebra.basis_vec(fi))
                 for fi in range(f.algebra.dim)]
        for ai, col in enumerate(self.cols):
            for fi, by_f in enumerate(right):
                moved = f.module.right_action[fi][ai]
                lhs = (_col_sum([(self.cols[b], x) for b, x in moved])
                       if moved else [])
                rhs = _col_sum([(by_f[k], c) for k, c in col]) if col else []
                if lhs != rhs:
                    return (ai, fi)
        return None


def _commutator(x_ext: Cols, x_cols: Cols, s: int, phi: DegreeRHom,
                sign: int) -> Cols:
    """The columns of X∘Φ + sign·Φ∘X on M, for a map X of degree s given by
    its extension ``x_ext`` to T_r (r the degree of Φ) and its restriction
    ``x_cols`` to M: column i combines x_ext at the nonzeros of Φ's column
    i and Φ's extension to T_s at the nonzeros of X's column i; a column
    empty in both is []."""
    ext = phi.ext_cols(s)
    return [_col_sum([(x_ext[k], c) for k, c in col]
                     + [(ext[k], sign * c) for k, c in x_col])
            if col or x_col else []
            for col, x_col in zip(phi.cols, x_cols)]


def kappa0_op(c: Connection, f_vec: Vec) -> DegreeRHom:
    """The left-multiplication operator f̂ as a degree-0 right-Ω operator."""
    return DegreeRHom(c.forms, 0, c.module.left_cols(f_vec))


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
    on M and on M⊗_AΩ¹, composed by columns and compared column by column;
    a column empty on all three sides is [] without a call."""
    m = c.module
    for f, x in enumerate(xs):
        fv = m.algebra.basis_vec(f)
        lhs = _compose(c.nabla, m.left_cols(fv))
        rhs = _compose(c.forms.left_action_cols(1, fv), c.nabla)
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

    def d_nabla(self, f_vec: Vec) -> DegreeRHom:
        return nabla_hat(self.connection, kappa0_op(self.connection, f_vec))


def induced_first_order(c: Connection) -> InducedFirstOrder:
    """Span of {f̂∘∇̂(ĝ)∘ĥ} with the derivation-law and left-Leibniz checks."""
    a = c.module.algebra
    m = c.module
    span = SpanBuilder(c.forms.dim(1) * m.dim)
    d_ops = [nabla_hat(c, kappa0_op(c, a.basis_vec(g))) for g in range(a.dim)]
    ifo = InducedFirstOrder(c, span)
    for g in range(a.dim):
        w = d_ops[g].right_linearity_witness()
        if w is not None:
            ifo.verdicts.append(failed("nabla-hat-right-linear",
                                       anchors.NABLA_HAT,
                                       {"algebra_basis": g, "witness": w}))
            return ifo
    hats = [kappa0_op(c, a.basis_vec(f)) for f in range(a.dim)]
    for f in range(a.dim):
        for g in range(a.dim):
            for h in range(a.dim):
                span.add(hats[f].compose(d_ops[g].compose(hats[h])).flat())
    # derivation law: ∇̂(f̂∘ĝ) = (∇̂f̂)∘ĝ + f̂∘(∇̂ĝ)
    for f in range(a.dim):
        for g in range(a.dim):
            prod = kappa0_op(c, a.mult(a.basis_vec(f), a.basis_vec(g)))
            rhs = d_ops[f].compose(hats[g]).add(hats[f].compose(d_ops[g]))
            if nabla_hat(c, prod).cols != rhs.cols:
                ifo.verdicts.append(failed("d-nabla-derivation",
                                           anchors.DERIVATION_SINCE,
                                           {"pair": [f, g]}))
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
    is κ₁ of the bar basis vector u."""

    connection: Connection
    ops: list[DegreeRHom]
    verdicts: list[Verdict] = field(default_factory=list)

    def op(self, alpha: Vec | SparseVec) -> DegreeRHom:
        """κ₁(α), α dense or sparse in bar coordinates: per column of M,
        ``ops``' columns combined at α's nonzeros, [] without a call where
        every one is empty."""
        nz = alpha if type(alpha) is dict else _sparse(alpha)
        terms = [(self.ops[u], x) for u, x in nz.items()]
        return DegreeRHom(self.connection.forms, 1, [
            _col_sum(t) if (t := [(col, x) for op, x in terms
                                  if (col := op.cols[i])]) else []
            for i in range(self.connection.module.dim)])

    def rank(self) -> int:
        """The rank of κ₁: the dimension of Ω¹_u modulo its kernel, the map
        given by the operators' flattenings as columns."""
        return kernel_quotient([list(op.flat().items())
                                for op in self.ops]).dim

    @property
    def injective(self) -> bool:
        return self.rank() == len(self.ops)


def kappa1(c: Connection, induced: InducedFirstOrder | None = None) -> Kappa1:
    """Basis element f·dg ↦ f̂∘∇̂(ĝ), with linearity and diagram checks."""
    if induced is None:
        induced = induced_first_order(c)
    uni = c.calculus.universal
    a = c.module.algebra
    hats = [kappa0_op(c, fv) for fv in identity_mat(a.dim)]
    ops = [hats[i0].compose(induced.d_nabla(a.basis_vec(beta[0])))
           for i0, beta in uni.bar_index(1)]
    assert all(induced.span.contains(op.flat()) for op in ops), \
        "kappa1 image must lie in omega1_nabla"
    k = Kappa1(c, ops)
    # diagram: κ₁ ∘ d_u = d_∇ on all algebra basis elements
    for f in range(a.dim):
        fv = a.basis_vec(f)
        alpha = uni.d(0, fv)
        if k.op(alpha).cols != induced.d_nabla(fv).cols:
            k.verdicts.append(failed("kappa1-diagram", anchors.DIAGRAM_COMMUTES,
                                     {"algebra_basis": f}))
            return k
    k.verdicts.append(passed("kappa1-diagram", anchors.DIAGRAM_COMMUTES))
    # bimodule linearity: κ₁(f·α·g) = f̂∘κ₁(α)∘ĝ on basis triples (f, g, α);
    # f·α·g for every α at once is L_{e_f}∘R_{e_g} by columns, and κ₁ is
    # linear, so the left side is the combination of the flattened κ₁(α'),
    # each one sparse column, at the nonzeros α' of f·α·g
    alpha_flat = [list(op.flat().items()) for op in ops]
    # κ₁(α)∘ĝ per g and α, shared by every f
    alpha_g = [[op.compose(g_hat) for op in ops] for g_hat in hats]
    for f in range(a.dim):
        for g in range(a.dim):
            moved = _compose(uni.left_cols(1, f), uni.right_cols(1, g))
            for bi, col in enumerate(moved):
                if not col and alpha_g[g][bi].is_zero():
                    continue        # both sides are zero
                lhs = _col_sum([(alpha_flat[x], y) for x, y in col]) \
                    if col else []
                rhs = hats[f].compose(alpha_g[g][bi]).flat()
                if dict(lhs) != rhs:
                    k.verdicts.append(failed("kappa1-bimodule-linear",
                                             anchors.DIAGRAM_COMMUTES,
                                             {"triple": [f, g, bi]}))
                    return k
    k.verdicts.append(passed("kappa1-bimodule-linear", anchors.DIAGRAM_COMMUTES))
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

    def on(self, w: Vec) -> Cols:
        """a ↦ σ(w⊗a) for a class w of Ω¹, by columns: column i is σ's
        columns at the class of w⊗a_i, the tensor's projection columns at
        the pure pairs (k, i) over w's nonzeros k."""
        t = self.tensor
        pure = [[(t.pure_index(k, i), x) for k, x in enumerate(w) if x]
                for i in range(t.right_factor.dim)]
        return _compose(self.cols, _compose(t.quotient.proj_cols, pure))


@dataclass
class SigmaResult:
    exists: bool
    sigma: SigmaMap | None
    witness_bar: Vec | None              # element of K with κ₁-image ≠ 0
    verdicts: list[Verdict] = field(default_factory=list)


def sigma_exists(c: Connection, k1: Kappa1 | None = None) -> SigmaResult:
    """σ exists iff κ₁ annihilates the defining kernel K = I¹ of the calculus.

    K is the kernel of Ω¹'s projection P₁, spanned by its ``sub``, so the
    inclusion K ⊆ ker κ₁ is decided on that basis, as ``preceq`` decides
    its ideal inclusions.  On success σ(α⊗a) = κ̂₁(α)(a), with κ₁ taken at
    the representatives of Ω¹'s classes: κ₁'s operators at P₁'s ``free``
    columns, the unique h with h·P₁ = κ₁.  The left Leibniz rule
    ∇(fa) = σ(df⊗a) + f∇a is then verified exactly on all basis pairs.  On
    failure the witness is the first vector of P₁'s null space (the
    canonical basis of ``null_space``, read off P₁'s columns) with nonzero
    κ₁-image.
    """
    if k1 is None:
        k1 = kappa1(c)
    cal = c.calculus
    q1 = cal.quotients[1]
    absent = any(not k1.op(b).is_zero() for b in q1.sub)
    res = SigmaResult(not absent, None, None)
    if absent:
        wit = next(v for v in null_space(q1.proj_cols)
                   if not k1.op(v).is_zero())
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
        via = sigma.on(omega1_bimod.basis_vec(wi))
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
    dfs = [cal.d_of_algebra(fv) for fv in identity_mat(c.module.algebra.dim)]
    pair = _left_leibniz_failure(c, [sigma.on(df) for df in dfs])
    if pair is not None:
        res.verdicts.append(failed("sigma-left-leibniz", anchors.LEFT_LEIBNIZ,
                                   {"pair": pair}))
    else:
        res.verdicts.append(passed("sigma-left-leibniz", anchors.LEFT_LEIBNIZ))
    return res
