"""The spaces M⊗_AΩ^r a connection acts on, in bar coordinates, and every
map on them that ∇ does not enter.

Because the universal calculus is left-free on its bar basis, M⊗_AΩ^r for
the universal calculus is literally the coordinate space M ⊗ (tails of
degree r); for a quotient calculus it is that space modulo the image of
M ⊗ I^r.  Right multiplication by a tail is index concatenation, which is
what keeps desk-scale computations fast and exact.

``Forms`` holds every map on M⊗_AΩ that ∇ does not enter, each built once
per ``Forms``; ``connection.Connection`` holds only ∇ and what is built
from it.  Here are the right-Ω operators (``DegreeRHom``), stored by their
restriction to M and extended on demand, which is faithful because M
generates M⊗_AΩ as a right Ω-module; their intern table ``op_ids`` and
the cache ``op_cache`` of their extensions and compositions;
κ₀(e_i) = ê_i (``hats``); the right multiplications; and N⊗_AM
(``tensors``) with its own Forms (``tensor_forms``).  Every map is stored by sparse columns
(``linalg.Cols``), as the module's own actions are.

``extension_columns`` is the one extension of a map on M to M⊗_AΩ^s: the
column of m⊗de_β is Φ(m) with the tail β concatenated, read as a sum of
the projection's sparse columns (see ``linalg.QuotientSpace``) at the
concatenated indices of Φ(m)'s representative.  The left action of e_i
on T_r is the extension of κ₀(e_i), ``hats[i].ext_cols(r)``, kept in
``op_cache`` with every other operator's extension.

``right_mult_cols(r, s, ω)`` is the one right multiplication on classes:
q ↦ q·ω, T_r → T_{r+s}, for an Ω^s class ω, given sparse ({k: 1} for
basis class k, column k of ``GradedCalculus.d_cols(0)`` for de_k).  Its
column k is the product of class k's representative (a basis tensor) by
ω's representative, read off Ω^s's ``free``, as the terms of
``_product_terms``, each read as the projection's sparse column at its
index.  The right action of e_i is its s = 0 case, ω = {i: 1}.  Both
are computed once per argument.  I⁰ = 0, so T₀ is M and column i of
``right_mult_cols(0, s, ω)`` is the class of m_i⊗ω.

``right_rule_failure`` is the one right rule on those products: the graded
right Leibniz rule of ∇, and right linearity, which is that rule without
its dω term, of an operator and of ∇².
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (BalancedTensor, Bimodule, right_module_generators,
                      tensor_over_A)
from .calculus import GradedCalculus
from .linalg import (Cols, DimensionError, SpanBuilder, SparseVec,
                     _apply, _col_sum, _compose, QuotientSpace)


class Forms:
    """M⊗_AΩ^r for r = 0..D, with actions, products and lifts.

    Built once per (module, calculus) through ``Forms.of``, so every
    connection on M against Ω, and ν̂'s target when Ω_∇ is Ω, share its
    quotients, right multiplications, κ₀, extensions, operator intern
    table and balanced tensors.
    """

    @classmethod
    def of(cls, module: Bimodule, calculus: GradedCalculus) -> "Forms":
        """M⊗_AΩ for this module and calculus, built on the first call and
        kept in ``calculus.forms_by_module``."""
        memo = calculus.forms_by_module
        if id(module) not in memo:
            memo[id(module)] = (module, cls(module, calculus))
        return memo[id(module)][1]

    def __init__(self, module: Bimodule, calculus: GradedCalculus):
        self.module = module
        self.calculus = calculus
        self.uni = calculus.universal
        self.algebra = calculus.algebra
        self.D = calculus.D
        if module.algebra != self.algebra:
            raise DimensionError("module and calculus algebras differ")
        self._tails = [self.uni.tails(r) for r in range(self.D + 1)]
        self._tail_pos = [
            {beta: k for k, beta in enumerate(ts)} for ts in self._tails]
        # M generates M⊗_AΩ as a right Ω-module, and so do these basis indices
        self.generators = right_module_generators(module)
        self._quotients: list[QuotientSpace] = []
        self._build_quotients()
        # the right multiplications on T_r by columns, by (r, s, ω)
        self._right_cols: dict[tuple, Cols] = {}
        # by the id of a bimodule N: [N, N⊗_AM, (its Forms, b_k⊗q) or
        # None until a ∇⊗ needs them]; the entry holds N, so the id stays
        # N's
        self._tensors: dict[int, list] = {}
        # the intern table of right-Ω operators on these spaces: the id of
        # each content, (degree, sorted entries); see DegreeRHom.key
        self.op_ids: dict[tuple, int] = {}
        # by operand ids: ("ext", id, s) the extension to T_s, by columns;
        # ("compose", id, id) the composition, an operator
        self.op_cache: dict[tuple, Cols | DegreeRHom] = {}

    # -- spaces -----------------------------------------------------------
    def n_tails(self, r: int) -> int:
        return len(self._tails[r])

    def tu_dim(self, r: int) -> int:
        return self.module.dim * self.n_tails(r)

    def dim(self, r: int) -> int:
        return self._quotients[r].dim

    def dims(self) -> list[int]:
        return [self.dim(r) for r in range(self.D + 1)]

    def _build_quotients(self) -> None:
        """T_r = T^u_r / (M⊗I^r), M⊗I^r spanned by ``_ideal_tensors(r)``."""
        for r in range(self.D + 1):
            span = SpanBuilder(self.tu_dim(r))
            for tu in self._ideal_tensors(r):
                span.add(tu)
            self._quotients.append(span.quotient())

    def _ideal_tensors(self, r: int) -> list[SparseVec]:
        """g⊗ι for each module generator g and each ι in the basis of I^r,
        sparse.  These span M⊗I^r: m = g·a gives m⊗ι = g⊗a·ι, and I is a
        left ideal.  g⊗(e_i0·de_β) = (g·e_i0)⊗de_β, and g·e_i0 is column g
        of the stored right action of e_i0, so g⊗ι is read off those
        columns at ι's nonzeros.  Each ι, sparse, is decoded once, into its
        ((i0, β), coeff) terms, for every generator."""
        nt = self.n_tails(r)
        moved = self.module.right_action
        terms = [[(divmod(flat, nt), c) for flat, c in iota.items()]
                 for iota in self.calculus.ideal[r]]
        out = []
        for g in self.generators:
            for iota in terms:
                tu: SparseVec = {}
                for (i0, bidx), c in iota:
                    for a, x in moved[i0][g].items():
                        at, y = a * nt + bidx, c * x
                        tu[at] = tu[at] + y if at in tu else y
                out.append({at: y for at, y in tu.items() if y})
        return out

    def quotient_space(self, r: int) -> QuotientSpace:
        return self._quotients[r]

    # -- tail right multiplication ----------------------------------------
    def _product_terms(self, r: int, flat: int, s: int,
                       omega_bar: SparseVec) \
            -> list[tuple[int, int | Fraction]]:
        """The (index, coeff) terms in T^u_{r+s} of the basis tensor
        m_i⊗de_β at ``flat`` of T^u_r times the degree-s universal element
        ``omega_bar``, sparse in bar coordinates; an index may repeat.
        (m_i⊗de_β)·(e_i0·de_σ) is Σ d·(m_i·e_k0)⊗de_γσ over the
        ``tail_times`` terms (k0, γ, d) of β, and m_i·e_k0 is column m_i of
        the stored right action of e_k0."""
        nt_r, nt_s = self.n_tails(r), self.n_tails(s)
        tails_r, tails_s = self._tails[r], self._tails[s]
        pos = self._tail_pos[r + s]
        nt_out = self.n_tails(r + s)
        moved = self.module.right_action
        m_i, bidx = divmod(flat, nt_r)
        out = []
        for oflat, oc in omega_bar.items():
            i0, sidx = divmod(oflat, nt_s)
            beta_s = tails_s[sidx]
            for k0, gidx, d in self.uni.tail_times(r, i0)[bidx]:
                gpos = pos[tails_r[gidx] + beta_s]
                coeff = oc * d
                out.extend((a * nt_out + gpos, coeff * x)
                           for a, x in moved[k0][m_i].items())
        return out

    # -- right-Ω extensions ----------------------------------------------
    def extension_columns(self, r: int, phi: Cols, s: int,
                          indices: range | list[int]) -> Cols:
        """Sparse columns of the extension of a degree-r map Φ: M → T_r,
        given by its sparse columns, to T^u_s → T_{r+s}, at the given T^u_s
        indices, in class coordinates.

        The column of m_i⊗de_β is the class of Φ(m_i)·de_β, the tail
        concatenated to a representative of Φ(m_i).  For a right-Ω-linear Φ
        that is Φ(m_i⊗de_β) by definition.  ∇ is not right-Ω-linear, but the
        same formula holds for it on this free basis: the graded Leibniz rule
        gives ∇(m_i⊗de_β) = (∇m_i)·de_β + m_i⊗d(de_β), and d(de_β) = 0.

        Φ(m_i) is Σ_k Φ[k][m_i] times class k of T_r, whose representative
        is the basis tensor m_a⊗de_γ at free_r[k]; concatenating β gives
        the basis tensor m_a⊗de_γβ, at index m_a·N_{r+s} + γ·N_s + β for
        N_t tails of degree t (the first tail slot is the most
        significant).  So the column is the sum of Φ[k][m_i] times the
        projection's sparse column at that index, over Φ's nonzeros in
        column m_i: nothing is lifted, concatenated or projected densely.
        """
        nt_r, nt_s = self.n_tails(r), self.n_tails(s)
        nt = nt_r * nt_s
        proj = self._quotients[r + s].proj_cols
        # per class k of T_r: the index of its representative, β = ()
        heads = [m_a * nt + g * nt_s for m_a, g in
                 (divmod(fc, nt_r) for fc in self._quotients[r].free)]
        out = []
        for flat in indices:
            m_i, bidx = divmod(flat, nt_s)
            out.append(_col_sum([(proj[heads[k] + bidx], c)
                                 for k, c in col.items()])
                       if (col := phi[m_i]) else {})
        return out

    # -- actions on quotient coordinates ----------------------------------
    # The columns are shared: no caller may change them.
    @cached_property
    def hats(self) -> list[DegreeRHom]:
        """κ₀(e_i) = ê_i, m ↦ e_i·m as a degree-0 operator, per basis index
        i; its columns are the module's stored left action of e_i, and its
        extension to T_r, ``hats[i].ext_cols(r)``, is the left action
        q ↦ e_i·q on T_r, which commutes with the right action."""
        return [DegreeRHom(self, 0, cols) for cols in self.module.left_action]

    def right_mult_cols(self, r: int, s: int, omega: SparseVec) -> Cols:
        """Right multiplication q ↦ q·ω by the Ω^s class ω, sparse,
        T_r → T_{r+s}, by columns: column k sums the projection's sparse
        columns at the ``_product_terms`` of class k's representative, the
        basis tensor at free[k], by ω's, the basis tensors at Ω^s's
        ``free``, and is {} without a call when that product has no term.
        Kept by (r, s, ω's items sorted), so equal classes share one map."""
        if r + s > self.D:
            raise DimensionError("product degree past the truncation")
        key = (r, s, tuple(sorted(omega.items())))
        if key not in self._right_cols:
            free = self.calculus.quotients[s].free
            omega_bar = {free[k]: c for k, c in omega.items()}
            proj = self._quotients[r + s].proj_cols
            self._right_cols[key] = [
                _col_sum(t) if (t := [(proj[at], x) for at, x in
                                      self._product_terms(r, fc, s,
                                                          omega_bar)])
                else {} for fc in self._quotients[r].free]
        return self._right_cols[key]

    def right_rule_failure(self, ext: Callable[[int], Cols], t: int, w: int,
                           r: int, s: int, omegas: list[int] | range,
                           cols: list[int] | range,
                           proj: QuotientSpace | None = None) \
            -> tuple[int, int] | None:
        """The right rule X(q·ω) = X(q)·ω + w·(−1)^r q·dω of a degree-t map
        X, for q in T_r and each basis class ω of Ω^s at the indices
        ``omegas``, dω its column of ``d_cols(s)``, decided as the identity
        of maps

            X_{r+s}·R(r, s, ω) − R(r+t, s, ω)·X_r − w·(−1)^r R(r, s+1, dω) = 0,

        X_p = ``ext(p)`` X's columns on T_p and R ``right_mult_cols``, on
        the columns ``cols`` of T_r and after projecting by ``proj`` when
        given.  With w = 1 it is the graded right Leibniz rule of ∇ (t = 1);
        with w = 0 it is right linearity, of a right-Ω operator or of ∇²,
        the same rule without its dω term.

        The column of the left side is one ``_col_sum``: X_{r+s}'s columns
        at the nonzeros of R's column, R(r+t, s, ω)'s columns at the
        nonzeros of X_r's column and R(r, s+1, dω)'s column, the empty ones
        left out, and {} without a call when none is left.  No R is built
        for an X factor that is zero everywhere, whose terms are all zero,
        and none for dω when w = 0.  Returns the first failing (k, i), column cols[k] and
        ω = omegas[i], by k and then i; None when the rule holds.
        """
        x_r, x_rs = ext(r), ext(r + s)
        sign = -w if r % 2 == 0 else w
        d = self.calculus.d_cols(s) if w else None
        maps = [(self.right_mult_cols(r, s, {k: 1}) if any(x_rs) else None,
                 self.right_mult_cols(r + t, s, {k: 1}) if any(x_r) else None,
                 self.right_mult_cols(r, s + 1, d[k]) if w else None)
                for k in omegas]
        for k, col in enumerate(cols):
            x_col = x_r[col]
            for i, (rm, rm_t, rm_dw) in enumerate(maps):
                terms = [(v, x) for row, x in rm[col].items()
                         if (v := x_rs[row])] if rm else []
                if rm_t:
                    terms += [(v, -x) for row, x in x_col.items()
                              if (v := rm_t[row])]
                if rm_dw and (v := rm_dw[col]):
                    terms.append((v, sign))
                diff = _col_sum(terms) if terms else {}
                if proj is not None and diff:
                    diff = _apply(proj.proj_cols, diff)
                if diff:
                    return k, i
        return None

    def tensors(self, n) -> BalancedTensor:
        """N⊗_AM for a bimodule N, the domain of a tensor-product
        connection, built once per N."""
        if id(n) not in self._tensors:
            self._tensors[id(n)] = [n, tensor_over_A(n, self.module), None]
        return self._tensors[id(n)][1]

    def tensor_forms(self, n) -> tuple["Forms", Cols]:
        """The Forms of N⊗_AM against this calculus, whose T₁,
        (N⊗_AM)⊗_AΩ¹ ≅ N⊗_A(M⊗_AΩ¹), is a tensor-product connection's
        codomain, and b_k⊗q in that T₁ by columns, at k·dim T₁ + q for the
        class q of M⊗_AΩ¹ here.  With q's representative m_a⊗de_γ, b_k⊗q is
        the class of (b_k⊗m_a)⊗de_γ: the projection onto N⊗_AM extended by
        the tail γ.  Built once per N, on the first call, so a request that
        builds no ∇⊗ builds neither."""
        tn = self.tensors(n)
        entry = self._tensors[id(n)]
        if entry[2] is None:
            forms = Forms.of(tn.as_bimodule(), self.calculus)
            nt = self.n_tails(1)
            reps = [divmod(fc, nt) for fc in self._quotients[1].free]
            entry[2] = (forms, forms.extension_columns(
                0, tn.quotient.proj_cols, 1,
                [tn.pure_index(k, a) * nt + g
                 for k in range(n.dim) for a, g in reps]))
        return entry[2]


@dataclass
class DegreeRHom:
    """Degree-r right-Ω-linear operator, stored by its restriction to M as
    sparse columns: ``cols[i]`` is Φ(m_i) in T_r, with no zero entry, so
    equal operators have equal columns.

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
        """The id of the content: the degree and the nonzero entries as
        (column, row, entry) triples, sorted, so equal operators get one id
        whatever the order of their columns' keys."""
        ids = self.forms.op_ids
        content = tuple(sorted([(i, row, x) for i, col in enumerate(self.cols)
                                for row, x in col.items()]))
        return ids.setdefault((self.degree, content), len(ids))

    def flat(self, at: list[int] | range | None = None) -> SparseVec:
        """The matrix T_degree × M row by row, at the module basis indices
        ``at`` (every one by default), as a sparse vector: entry (row, x)
        at row·len(at) + x."""
        at = range(len(self.cols)) if at is None else at
        return {row * len(at) + x: c
                for x, i in enumerate(at) for row, c in self.cols[i].items()}

    def ext_cols(self, s: int) -> Cols:
        """Right-Ω-linear extension T_s → T_{degree+s}, Φ(a⊗ω) = Φ(a)·ω,
        by sparse columns; a zero operator's is zero, and not cached."""
        if s == 0:
            return self.cols
        if self.is_zero():
            return [{} for _ in range(self.forms.dim(s))]
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
            return DegreeRHom(self.forms, degree, [{} for _ in other.cols])
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
        the first in a, then f: ``Forms.right_rule_failure`` with w = 0 on
        M, decided on A's generators first (``Algebra.first_failure``).
        The f on which it holds for every a form a unital subalgebra: it is
        linear in f, holds at f = 1, and Φ(a·fg) = Φ((a·f)·g) = Φ(a·f)·g =
        Φ(a)·fg."""
        f = self.forms

        def scan(fis):
            fail = f.right_rule_failure(self.ext_cols, self.degree, 0, 0, 0,
                                        fis, range(len(self.cols)))
            return None if fail is None else (fail[0], fis[fail[1]])

        return f.algebra.first_failure(scan)
