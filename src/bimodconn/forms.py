"""The spaces M⊗_AΩ^r a connection acts on, in bar coordinates.

Because the universal calculus is left-free on its bar basis, M⊗_AΩ^r for
the universal calculus is literally the coordinate space M ⊗ (tails of
degree r); for a quotient calculus it is that space modulo the image of
M ⊗ I^r.  Right multiplication by a tail is index concatenation, which is
what keeps desk-scale computations fast and exact.

Every map on these spaces is stored by sparse columns (``linalg.Cols``),
as the module's own actions are: ``as_bimodule`` hands a ``Bimodule`` the
action columns this class already holds (built once per degree).

``extension_columns`` is the one extension of a map on M to M⊗_AΩ^s: the
column of m⊗de_β is Φ(m) with the tail β concatenated, read as a sum of
the projection's sparse columns (see ``linalg.QuotientSpace``) at the
concatenated indices of Φ(m)'s representative.  The left action of f in A
on T_r is the extension of m ↦ f·m (``left_action_cols``).

``right_mult_cols(r, s, ω)`` is the one right multiplication on classes:
q ↦ q·ω, T_r → T_{r+s}, for an Ω^s class ω.  Its column k is the product
of class k's representative (a basis tensor) by a representative of ω, as
the terms of ``_product_terms``, each read as the projection's sparse
column at its index.  The right A-action is its s = 0 case.  Both are
computed once per argument.  I⁰ = 0, so T₀ is M and column i of
``right_mult_cols(0, s, ω)`` is the class of m_i⊗ω.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING

from .algebra import Bimodule, right_module_generators
from .calculus import GradedCalculus
from .linalg import (Cols, DimensionError, SpanBuilder, SparseVec, Vec,
                     _col_sum, QuotientSpace)

if TYPE_CHECKING:
    from .connection import DegreeRHom


class Forms:
    """M⊗_AΩ^r for r = 0..D, with actions, products and lifts."""

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
        # the actions on T_r by columns, by (r, f) and by (r, s, ω)
        self._left_cols: dict[tuple, Cols] = {}
        self._right_cols: dict[tuple, Cols] = {}
        # T_r as a Bimodule, by r
        self._bimodules: dict[int, Bimodule] = {}
        # the intern table of right-Ω operators on these spaces: the id of
        # each content, (degree, columns as tuples); see DegreeRHom.key
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
                    for a, x in moved[i0][g]:
                        at, y = a * nt + bidx, c * x
                        tu[at] = tu[at] + y if at in tu else y
                out.append({at: y for at, y in tu.items() if y})
        return out

    def quotient_space(self, r: int) -> QuotientSpace:
        return self._quotients[r]

    # -- tail right multiplication ----------------------------------------
    def _product_terms(self, r: int, flat: int, s: int, omega_bar: Vec) \
            -> list[tuple[int, int | Fraction]]:
        """The (index, coeff) terms in T^u_{r+s} of the basis tensor
        m_i⊗de_β at ``flat`` of T^u_r times the degree-s universal element
        ``omega_bar``; an index may repeat.  (m_i⊗de_β)·(e_i0·de_σ) is
        Σ d·(m_i·e_k0)⊗de_γσ over the ``tail_times`` terms (k0, γ, d) of β,
        and m_i·e_k0 is column m_i of the stored right action of e_k0."""
        nt_r, nt_s = self.n_tails(r), self.n_tails(s)
        tails_r, tails_s = self._tails[r], self._tails[s]
        pos = self._tail_pos[r + s]
        nt_out = self.n_tails(r + s)
        moved = self.module.right_action
        m_i, bidx = divmod(flat, nt_r)
        out = []
        for oflat in compress(range(len(omega_bar)), omega_bar):
            oc = omega_bar[oflat]
            i0, sidx = divmod(oflat, nt_s)
            beta_s = tails_s[sidx]
            for k0, gidx, d in self.uni.tail_times(r, i0)[bidx]:
                gpos = pos[tails_r[gidx] + beta_s]
                coeff = oc * d
                out.extend((a * nt_out + gpos, coeff * x)
                           for a, x in moved[k0][m_i])
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
                                 for k, c in col])
                       if (col := phi[m_i]) else [])
        return out

    # -- actions on quotient coordinates ----------------------------------
    # The columns are shared: no caller may change them.
    def left_action_cols(self, r: int, f: Vec) -> Cols:
        """Left action q ↦ f·q of f in A on T_r, by columns: the extension
        of m ↦ f·m, which commutes with the right action."""
        key = (r, tuple(f))
        if key not in self._left_cols:
            self._left_cols[key] = self.extension_columns(
                0, self.module.left_cols(f), r, self._quotients[r].free)
        return self._left_cols[key]

    def right_mult_cols(self, r: int, s: int, omega: Vec) -> Cols:
        """Right multiplication q ↦ q·ω by an Ω^s class ω, T_r → T_{r+s}, by
        columns: column k sums the projection's sparse columns at the
        ``_product_terms`` of class k's representative, the basis tensor at
        free[k], by a representative of ω, and is [] without a call when
        that product has no term."""
        if r + s > self.D:
            raise DimensionError("product degree past the truncation")
        key = (r, s, tuple(omega))
        if key not in self._right_cols:
            omega_bar = self.calculus.quotients[s].lift(omega)
            proj = self._quotients[r + s].proj_cols
            self._right_cols[key] = [
                _col_sum(t) if (t := [(proj[at], x) for at, x in
                                      self._product_terms(r, fc, s,
                                                          omega_bar)])
                else [] for fc in self._quotients[r].free]
        return self._right_cols[key]

    def as_bimodule(self, r: int) -> Bimodule:
        """T_r as an A-bimodule (left action on M, right action on Ω), its
        actions the columns ``left_action_cols`` and ``right_mult_cols``
        hold; built once per r and shared."""
        if r not in self._bimodules:
            basis = [self.algebra.basis_vec(i)
                     for i in range(self.algebra.dim)]
            self._bimodules[r] = Bimodule(
                self.dim(r), self.algebra,
                tuple(self.left_action_cols(r, f) for f in basis),
                tuple(self.right_mult_cols(r, 0, f) for f in basis))
        return self._bimodules[r]
