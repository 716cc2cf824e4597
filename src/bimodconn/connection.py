"""Connections: ∇̂, the induced first-order calculus, κ₁ and σ.

One :class:`Connection` type covers every module a connection acts on: a
bimodule M, or a right module N on the tensor side, against Ω or Ω_∇.  It
is stored as the exact matrix of ∇: M → M⊗_AΩ¹ in quotient class
coordinates of its :class:`Forms`.  Right-Ω-linear operators of degree r
are stored by their restriction to M (a right-A-linear map M → M⊗_AΩ^r)
and extended on demand; this is faithful because M generates M⊗_AΩ as a
right Ω-module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import anchors
from .algebra import BalancedTensor, tensor_over_A
from .forms import Forms
from .linalg import (Mat, QuotientSpace, SpanBuilder, Vec, _cols_to_mat,
                     _combination, _sparse, factor_through, identity_mat,
                     mat_mul, mat_vec, rank, vec_add, zeros)
from .report import Verdict, failed, passed, rationals


class Connection:
    """∇: M → M⊗_AΩ¹ with the right Leibniz rule as its defining contract.

    M is ``forms.module`` (a bimodule or a right module) and Ω is
    ``forms.calculus``; only the right action of M is used.
    """

    def __init__(self, forms: Forms, nabla: Mat):
        self.forms = forms
        self.module = forms.module
        self.calculus = forms.calculus
        if len(nabla) != forms.dim(1) or \
                (nabla and len(nabla[0]) != self.module.dim):
            raise ValueError("nabla matrix must be dim(M⊗Ω¹) x dim(M)")
        self.nabla = [row[:] for row in nabla]
        self._ext_mats: dict[int | tuple[int, str], Mat] = {}
        # ∇̂Φ matrices by DegreeRHom.key of Φ
        self.nabla_hats: dict[tuple, Mat] = {}

    def nabla_apply(self, m_vec: Vec) -> Vec:
        return mat_vec(self.nabla, m_vec)

    def nabla_ext_plain(self, r: int) -> Mat:
        """Extension on free coordinates: T^u_r → T_{r+1} classes, every
        column of ``Forms.extension_columns`` for ∇."""
        key = (r, "plain")
        if key not in self._ext_mats:
            self._ext_mats[key] = self.forms.extension_columns(
                1, self.nabla, r, range(self.forms.tu_dim(r)))
        return self._ext_mats[key]

    def nabla_ext_matrix(self, r: int) -> Mat:
        """Extension ∇: T_r → T_{r+1} on quotient class coordinates."""
        if r == 0:
            return self.nabla
        if r not in self._ext_mats:
            self._ext_mats[r] = self.forms.quotient_space(r).columns(
                self.nabla_ext_plain(r))
        return self._ext_mats[r]

    def curvature_matrix(self, r: int) -> Mat:
        """∇∘∇: T_r → T_{r+2}, computed once per degree; the matrix is
        shared, so no caller may change it in place."""
        key = (r, "curvature")
        if key not in self._ext_mats:
            self._ext_mats[key] = mat_mul(self.nabla_ext_matrix(r + 1),
                                          self.nabla_ext_matrix(r))
        return self._ext_mats[key]


def leibniz_failure(c: Connection, r: int, s: int, omegas: list[Vec],
                    cols: list[int] | range,
                    proj: QuotientSpace | None = None) \
        -> tuple[int, int] | None:
    """The graded right Leibniz rule ∇(q·ω) = (∇q)·ω + (−1)^r q·dω for q in
    T_r and each ω of Ω^s in ``omegas``, decided as the matrix identity

        N_{r+s}·R(r, s, ω) − R(r+1, s, ω)·N_r − (−1)^r R(r, s+1, dω) = 0,

    N the extension of ∇ and R ``Forms.right_mult_matrix``, on the columns
    ``cols`` of T_r and after projecting by ``proj`` when given.  Returns
    the first failing (k, i), column cols[k] and ω = omegas[i], by k and
    then i; None when the rule holds.
    """
    f = c.forms
    sign = 1 if r % 2 == 0 else -1
    n_r, n_rs = c.nabla_ext_matrix(r), c.nabla_ext_matrix(r + s)
    diffs = []
    for w in omegas:
        d_w = c.calculus.d_apply(s, w)
        diff = [[x - y - sign * z for x, y, z in zip(rx, ry, rz)]
                for rx, ry, rz in zip(
                    mat_mul(n_rs, f.right_mult_matrix(r, s, w)),
                    mat_mul(f.right_mult_matrix(r + 1, s, w), n_r),
                    f.right_mult_matrix(r, s + 1, d_w))]
        diffs.append(mat_mul(proj.projection, diff)
                     if proj is not None and proj.sub else diff)
    for k, col in enumerate(cols):
        for i, diff in enumerate(diffs):
            if any(row[col] for row in diff):
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
    """Degree-r right-Ω-linear operator, stored by its restriction to M.

    Extensions and compositions are computed once per operator content and
    kept in ``forms.op_cache``; the matrices found there are shared, so no
    caller may change ``matrix`` or an extension in place.
    """

    forms: Forms
    degree: int
    matrix: Mat              # dim T_degree x dim M

    @cached_property
    def key(self) -> tuple:
        """Content key: the degree and the matrix as a tuple of rows."""
        return (self.degree, tuple(map(tuple, self.matrix)))

    def apply(self, m_vec: Vec) -> Vec:
        return mat_vec(self.matrix, m_vec)

    def ext_matrix(self, s: int) -> Mat:
        """Right-Ω-linear extension T_s → T_{degree+s}, Φ(a⊗ω) = Φ(a)·ω."""
        if s == 0:
            return self.matrix
        cache = self.forms.op_cache
        key = ("ext", self.key, s)
        if key not in cache:
            f = self.forms
            cache[key] = f.extension_columns(self.degree, self.matrix, s,
                                             f.quotient_space(s).free)
        return cache[key]

    def compose(self, other: "DegreeRHom") -> "DegreeRHom":
        """self ∘ other (other applied first)."""
        cache = self.forms.op_cache
        key = ("compose", self.key, other.key)
        if key not in cache:
            cache[key] = mat_mul(self.ext_matrix(other.degree), other.matrix)
        return DegreeRHom(self.forms, self.degree + other.degree, cache[key])

    def add(self, other: "DegreeRHom") -> "DegreeRHom":
        return DegreeRHom(self.forms, self.degree,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.matrix, other.matrix)])

    def scale(self, c: int | Fraction) -> "DegreeRHom":
        return DegreeRHom(self.forms, self.degree,
                          [[c * x for x in row] for row in self.matrix])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def right_linearity_witness(self) -> tuple[int, int] | None:
        """(module_basis, algebra_basis) violating Φ(a·f) = Φ(a)·f, or None."""
        f = self.forms
        m, a = f.module, f.algebra
        for ai in range(m.dim):
            av = m.basis_vec(ai)
            img = self.apply(av)
            for fi in range(a.dim):
                fv = a.basis_vec(fi)
                lhs = self.apply(m.act_right(av, fv))
                rhs = f.act_right(self.degree, img, fv)
                if lhs != rhs:
                    return (ai, fi)
        return None


def kappa0_op(c: Connection, f_vec: Vec) -> DegreeRHom:
    """The left-multiplication operator f̂ as a degree-0 right-Ω operator."""
    return DegreeRHom(c.forms, 0, c.module.left_matrix(f_vec))


def nabla_hat(c: Connection, phi: DegreeRHom) -> DegreeRHom:
    """∇̂Φ = ∇∘Φ − (−1)^r Φ∘∇, a degree r+1 right-Ω operator.

    Computed once per operator content; the result matrix is shared.
    """
    r = phi.degree
    if r + 1 > c.calculus.D:
        raise ValueError("degree overflow past truncation")
    if phi.key not in c.nabla_hats:
        first = mat_mul(c.nabla_ext_matrix(r), phi.matrix)
        second = mat_mul(phi.ext_matrix(1), c.nabla)
        sign = -1 if r % 2 == 0 else 1
        # ∇∘Φ + (−(−1)^r)·Φ∘∇
        c.nabla_hats[phi.key] = [[a + sign * b for a, b in zip(ra, rb)]
                                 for ra, rb in zip(first, second)]
    return DegreeRHom(c.forms, r + 1, c.nabla_hats[phi.key])


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

    def op_from_coords(self, coords: Vec) -> DegreeRHom:
        c = self.connection
        m = c.module.dim
        t1 = c.forms.dim(1)
        acc = zeros(t1 * m)
        for k, cc in enumerate(coords):
            if cc:
                acc = [a + cc * b for a, b in zip(acc, self.span.basis[k])]
        return DegreeRHom(c.forms, 1,
                          [[acc[r * m + s] for s in range(m)] for r in range(t1)])


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
    for f in range(a.dim):
        lf = c.forms.left_matrix(1, a.basis_vec(f))
        for g in range(a.dim):
            for h in range(a.dim):
                op = mat_mul(lf, mat_mul(d_ops[g].matrix,
                                         m.left_matrix(a.basis_vec(h))))
                span.add([x for row in op for x in row])
    # derivation law: ∇̂(f̂∘ĝ) = (∇̂f̂)∘ĝ + f̂∘(∇̂ĝ)
    for f in range(a.dim):
        for g in range(a.dim):
            prod = kappa0_op(c, a.mult(a.basis_vec(f), a.basis_vec(g)))
            lhs = nabla_hat(c, prod).matrix
            rhs1 = mat_mul(d_ops[f].matrix, m.left_matrix(a.basis_vec(g)))
            rhs2 = mat_mul(c.forms.left_matrix(1, a.basis_vec(f)),
                           d_ops[g].matrix)
            rhs = [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(rhs1, rhs2)]
            if lhs != rhs:
                ifo.verdicts.append(failed("d-nabla-derivation",
                                           anchors.DERIVATION_SINCE,
                                           {"pair": [f, g]}))
                return ifo
    ifo.verdicts.append(passed("d-nabla-derivation", anchors.DERIVATION_SINCE))
    # left Leibniz in the induced calculus: ∇(fa) = (d_∇f)(a) + f∇a
    ok = True
    for f in range(a.dim):
        fv = a.basis_vec(f)
        for ai in range(m.dim):
            av = m.basis_vec(ai)
            lhs = c.nabla_apply(m.act_left(fv, av))
            rhs = vec_add(d_ops[f].apply(av),
                          c.forms.act_left(1, fv, c.nabla_apply(av)))
            if lhs != rhs:
                ifo.verdicts.append(failed("left-leibniz-induced",
                                           anchors.INDUCED_SUBGROUP,
                                           {"pair": [f, ai]}))
                ok = False
                break
        if not ok:
            break
    if ok:
        ifo.verdicts.append(passed("left-leibniz-induced",
                                   anchors.INDUCED_SUBGROUP,
                                   {"dim_omega1_nabla": span.dim}))
    return ifo


@dataclass
class Kappa1:
    """κ₁: Ω¹_u → Ω¹_∇ with κ₁∘d_u = d_∇, as an exact matrix on bar coords."""

    connection: Connection
    induced: InducedFirstOrder
    matrix: Mat                          # bar Ω¹_u → span coords of Ω¹_∇
    verdicts: list[Verdict] = field(default_factory=list)

    def op(self, alpha_bar: Vec) -> DegreeRHom:
        return self.induced.op_from_coords(mat_vec(self.matrix, alpha_bar))

    def rank(self) -> int:
        return rank(self.matrix)

    @property
    def injective(self) -> bool:
        return self.rank() == self.connection.calculus.universal.bar_dim(1)


def kappa1(c: Connection, induced: InducedFirstOrder | None = None) -> Kappa1:
    """Basis element f·dg ↦ f̂∘∇̂(ĝ), with linearity and diagram checks."""
    if induced is None:
        induced = induced_first_order(c)
    uni = c.calculus.universal
    a = c.module.algebra
    nt = len(uni.tails(1))
    cols = []
    for i0 in range(a.dim):
        lm = c.forms.left_matrix(1, a.basis_vec(i0))
        for j in [b[0] for b in uni.tails(1)]:
            op = mat_mul(lm, induced.d_nabla(a.basis_vec(j)).matrix)
            coords = induced.span.coords([x for row in op for x in row])
            assert coords is not None, "kappa1 image must lie in omega1_nabla"
            cols.append(coords)
    k = Kappa1(c, induced, _cols_to_mat(cols, induced.dim))
    # diagram: κ₁ ∘ d_u = d_∇ on all algebra basis elements
    for f in range(a.dim):
        fv = a.basis_vec(f)
        alpha = uni.d(0, fv)
        if k.op(alpha).matrix != induced.d_nabla(fv).matrix:
            k.verdicts.append(failed("kappa1-diagram", anchors.DIAGRAM_COMMUTES,
                                     {"algebra_basis": f}))
            return k
    k.verdicts.append(passed("kappa1-diagram", anchors.DIAGRAM_COMMUTES))
    # bimodule linearity: κ₁(f·α·g) = f̂∘κ₁(α)∘ĝ on basis triples (f, g, α);
    # f·α·g for every α at once is the matrix fl·gr, read by columns, and
    # κ₁ is linear, so the left side is the combination of the flattened
    # κ₁(α') at the nonzeros α' of f·α·g
    basis = identity_mat(a.dim)
    alpha_ops = [k.op(e).matrix for e in identity_mat(uni.bar_dim(1))]
    alpha_flat = [[x for row in op for x in row] for op in alpha_ops]
    width = c.forms.dim(1) * c.module.dim
    # κ₁(α)∘ĝ per g and α, shared by every f
    alpha_g = [[mat_mul(op, c.module.left_matrix(gv)) for op in alpha_ops]
               for gv in basis]
    for f, fv in enumerate(basis):
        fl = uni.left_mult_bar_matrix(1, fv)
        f_hat = c.forms.left_matrix(1, fv)
        for g, gv in enumerate(basis):
            moved = mat_mul(fl, uni.right_mult_bar_matrix(1, gv))
            for bi, col in enumerate(zip(*moved)):
                lhs = _combination(alpha_flat, list(_sparse(col).items()),
                                   width)
                rhs = mat_mul(f_hat, alpha_g[g][bi])
                if lhs != [x for row in rhs for x in row]:
                    k.verdicts.append(failed("kappa1-bimodule-linear",
                                             anchors.DIAGRAM_COMMUTES,
                                             {"triple": [f, g, bi]}))
                    return k
    k.verdicts.append(passed("kappa1-bimodule-linear", anchors.DIAGRAM_COMMUTES))
    return k


@dataclass
class SigmaMap:
    """σ: Ω¹⊗_AM → M⊗_AΩ¹ (level 'projected') or σ_u (level 'universal')."""

    level: str
    tensor: BalancedTensor               # Ω¹ ⊗_A M
    matrix: Mat                          # dim T_1 x tensor.dim
    verdicts: list[Verdict] = field(default_factory=list)

    def apply(self, cls: Vec) -> Vec:
        return mat_vec(self.matrix, cls)


@dataclass
class SigmaResult:
    exists: bool
    sigma: SigmaMap | None
    witness_bar: Vec | None              # element of K with κ₁-image ≠ 0
    verdicts: list[Verdict] = field(default_factory=list)


def sigma_exists(c: Connection, k1: Kappa1 | None = None) -> SigmaResult:
    """σ exists iff κ₁ annihilates the defining kernel K = I¹ of the calculus.

    On success σ(α⊗a) = κ̂₁(α)(a); the left Leibniz rule ∇(fa) = σ(df⊗a)+f∇a
    is then verified exactly on all basis pairs.  On failure the witness is
    an element of K with nonzero κ₁-image.
    """
    if k1 is None:
        k1 = kappa1(c)
    cal = c.calculus
    h, wit = factor_through(cal.quotients[1].projection, k1.matrix,
                            cal.universal.bar_dim(1))
    res = SigmaResult(h is not None, None, None)
    if h is None:
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
    ops = [k1.induced.op_from_coords([row[wi] for row in h]).matrix
           for wi in range(omega1_bimod.dim)]
    plain = [[x for op in ops for x in op[row]]
             for row in range(c.forms.dim(1))]
    sigma = SigmaMap("projected" if cal.ideal[1] else "universal",
                     tens, tens.quotient.columns(plain))
    res.sigma = sigma
    # well-definedness on balanced classes
    for wi, op in enumerate(ops):
        wq = omega1_bimod.basis_vec(wi)
        for mj in range(c.module.dim):
            direct = [row[mj] for row in op]
            via = sigma.apply(tens.project_pure(wq, c.module.basis_vec(mj)))
            if direct != via:
                res.verdicts.append(failed("sigma-well-defined",
                                           anchors.GENERALIZED_PERMUTATION,
                                           {"pair": [wi, mj]}))
                return res
    res.verdicts.append(passed("sigma-well-defined",
                               anchors.GENERALIZED_PERMUTATION))
    # left Leibniz rule: ∇(fa) = σ(df ⊗ a) + f ∇a
    a = c.module.algebra
    for f in range(a.dim):
        fv = a.basis_vec(f)
        df_q = cal.d_of_algebra(fv)
        for ai in range(c.module.dim):
            av = c.module.basis_vec(ai)
            lhs = c.nabla_apply(c.module.act_left(fv, av))
            rhs = vec_add(sigma.apply(tens.project_pure(df_q, av)),
                          c.forms.act_left(1, fv, c.nabla_apply(av)))
            if lhs != rhs:
                res.verdicts.append(failed("sigma-left-leibniz",
                                           anchors.LEFT_LEIBNIZ,
                                           {"pair": [f, ai]}))
                return res
    res.verdicts.append(passed("sigma-left-leibniz", anchors.LEFT_LEIBNIZ))
    return res
