"""The spaces M⊗_AΩ^r a connection acts on, in bar coordinates.

Because the universal calculus is left-free on its bar basis, M⊗_AΩ^r for
the universal calculus is literally the coordinate space M ⊗ (tails of
degree r); for a quotient calculus it is that space modulo the image of
M ⊗ I^r.  Right multiplication by a tail is index concatenation, which is
what keeps desk-scale computations fast and exact.
"""

from __future__ import annotations

from .algebra import Bimodule, right_module_generators
from .calculus import GradedCalculus
from .linalg import (DimensionError, Mat, SpanBuilder, Vec, _cols_to_mat,
                     mat_vec, quotient, QuotientSpace, zero_mat, zeros)


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
        self._left_mats: dict[tuple[int, int], Mat] = {}
        self._right_mats: dict[tuple[int, int], Mat] = {}
        # right-Ω operator extensions and compositions on these spaces, by
        # operator content (see connection.DegreeRHom)
        self.op_cache: dict[tuple, Mat] = {}

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
        """T_r = T^u_r / (M⊗I^r).  M⊗I^r is spanned by g⊗ι over the module
        generators g alone: m = g·a gives m⊗ι = g⊗a·ι, and I is a left ideal."""
        m = self.module
        for r in range(self.D + 1):
            span = SpanBuilder(self.tu_dim(r))
            for g in self.generators:
                for v in self.calculus.ideal[r]:
                    span.add(self._pair_from_bar(r, m.basis_vec(g), v))
            self._quotients.append(quotient(self.tu_dim(r), span.basis))

    def quotient_space(self, r: int) -> QuotientSpace:
        return self._quotients[r]

    def project(self, r: int, tu: Vec) -> Vec:
        return self._quotients[r].project(tu)

    def lift(self, r: int, q: Vec) -> Vec:
        return self._quotients[r].lift(q)

    # -- element construction ---------------------------------------------
    def _pair_from_bar(self, r: int, m_vec: Vec, u_bar: Vec) -> Vec:
        """T^u coordinates of class(m ⊗ u) for u in degree-r bar coords."""
        nt = self.n_tails(r)
        out = zeros(self.tu_dim(r))
        for flat, c in enumerate(u_bar):
            if c == 0:
                continue
            i0, bidx = divmod(flat, nt)
            me = self.module.act_right(m_vec, self.algebra.basis_vec(i0))
            for a, ca in enumerate(me):
                if ca:
                    out[a * nt + bidx] += c * ca
        return out

    def class_of_pair_bar(self, r: int, m_vec: Vec, u_bar: Vec) -> Vec:
        return self.project(r, self._pair_from_bar(r, m_vec, u_bar))

    # -- tail right multiplication ----------------------------------------
    def mult_tu_by_bar(self, r: int, tu: Vec, s: int, omega_bar: Vec) -> Vec:
        """(element of T^u_r) · (degree-s universal element) → T^u_{r+s}."""
        nt_r, nt_s = self.n_tails(r), self.n_tails(s)
        tails_r, tails_s = self._tails[r], self._tails[s]
        out = zeros(self.tu_dim(r + s))
        pos = self._tail_pos[r + s]
        nt_out = self.n_tails(r + s)
        for flat, c in enumerate(tu):
            if c == 0:
                continue
            m_i, bidx = divmod(flat, nt_r)
            for oflat, oc in enumerate(omega_bar):
                if oc == 0:
                    continue
                i0, sidx = divmod(oflat, nt_s)
                beta_s = tails_s[sidx]
                for (k0, gidx, d) in self.uni.tail_times(r, i0)[bidx]:
                    gamma = tails_r[gidx] + beta_s
                    me = self.module.act_right(self.module.basis_vec(m_i),
                                               self.algebra.basis_vec(k0))
                    coeff = c * oc * d
                    gpos = pos[gamma]
                    for a, ca in enumerate(me):
                        if ca:
                            out[a * nt_out + gpos] += coeff * ca
        return out

    def concat_tu(self, r: int, tu: Vec, beta: tuple[int, ...]) -> Vec:
        """Right multiplication by the pure tail de_j1⋯de_js (concatenation)."""
        s = len(beta)
        nt_r = self.n_tails(r)
        nt_out = self.n_tails(r + s)
        pos = self._tail_pos[r + s]
        out = zeros(self.tu_dim(r + s))
        for flat, c in enumerate(tu):
            if c == 0:
                continue
            m_i, bidx = divmod(flat, nt_r)
            out[m_i * nt_out + pos[self._tails[r][bidx] + beta]] = c
        return out

    # -- actions on quotient coordinates ----------------------------------
    def left_action_matrix(self, r: int, i: int) -> Mat:
        """Left action of basis element e_i on T_r (quotient coordinates)."""
        key = (r, i)
        if key not in self._left_mats:
            nt = self.n_tails(r)
            lm = self.module.left_action[i]
            cols = []
            for c in range(self.dim(r)):
                q = zeros(self.dim(r))
                q[c] = 1
                tu = self.lift(r, q)
                out = zeros(self.tu_dim(r))
                for flat, cc in enumerate(tu):
                    if cc == 0:
                        continue
                    m_i, bidx = divmod(flat, nt)
                    for a in range(self.module.dim):
                        if lm[a][m_i]:
                            out[a * nt + bidx] += cc * lm[a][m_i]
                cols.append(self.project(r, out))
            self._left_mats[key] = _cols_to_mat(cols, self.dim(r))
        return self._left_mats[key]

    def right_action_matrix(self, r: int, i: int) -> Mat:
        """Right action of basis element e_i on T_r (quotient coordinates)."""
        key = (r, i)
        if key not in self._right_mats:
            f_bar = self.algebra.basis_vec(i)
            cols = []
            for c in range(self.dim(r)):
                q = zeros(self.dim(r))
                q[c] = 1
                tu = self.mult_tu_by_bar(r, self.lift(r, q), 0, f_bar)
                cols.append(self.project(r, tu))
            self._right_mats[key] = _cols_to_mat(cols, self.dim(r))
        return self._right_mats[key]

    def left_matrix(self, r: int, f: Vec) -> Mat:
        """Left action of f = Σ fᵢ·e_i on T_r: Σ fᵢ·(left action of e_i)."""
        out = zero_mat(self.dim(r), self.dim(r))
        for i, c in enumerate(f):
            if c:
                out = [[a + c * b for a, b in zip(ra, rb)]
                       for ra, rb in zip(out, self.left_action_matrix(r, i))]
        return out

    def act_left(self, r: int, f: Vec, q: Vec) -> Vec:
        out = zeros(self.dim(r))
        for i, c in enumerate(f):
            if c:
                out = [a + c * b for a, b in
                       zip(out, mat_vec(self.left_action_matrix(r, i), q))]
        return out

    def act_right(self, r: int, q: Vec, f: Vec) -> Vec:
        out = zeros(self.dim(r))
        for i, c in enumerate(f):
            if c:
                out = [a + c * b for a, b in
                       zip(out, mat_vec(self.right_action_matrix(r, i), q))]
        return out

    def mult_class(self, r: int, q: Vec, s: int, omega_q: Vec) -> Vec:
        """(T_r class) · (Ω^s class), via representatives."""
        omega_bar = self.calculus.quotients[s].lift(omega_q)
        tu = self.mult_tu_by_bar(r, self.lift(r, q), s, omega_bar)
        return self.project(r + s, tu)

    def as_bimodule(self, r: int) -> Bimodule:
        """T_r as an A-bimodule (left action on M, right action on Ω)."""
        left = [self.left_action_matrix(r, i) for i in range(self.algebra.dim)]
        right = [self.right_action_matrix(r, i) for i in range(self.algebra.dim)]
        return Bimodule.from_actions(self.algebra, left, right)
