"""Shared example inputs: small algebras, calculi, and connections.

Everything here is deterministic: every example is pinned, so repeated
runs always produce identical objects.  The builders are cached because several of them (notably the
2×2-matrix quotient calculus) take a few seconds to saturate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import Algebra, Bimodule
from .calculus import GradedCalculus, quotient_calculus, universal_graded
from .connection import (Connection, check_right_leibniz, kappa1,
                         sigma_exists)
from .forms import Forms
from .linalg import DimensionError, Vec, zeros

F = Fraction


# ---------------------------------------------------------------------------
# algebras and modules
# ---------------------------------------------------------------------------

@cache
def a2() -> Algebra:
    """Functions on a two-point set: e_i·e_j = δ_ij e_i, unit e1+e2."""
    table = [[[F(1), F(0)], [F(0), F(0)]],
             [[F(0), F(0)], [F(0), F(1)]]]
    return Algebra.from_table(table, [F(1), F(1)])


@cache
def m2() -> Algebra:
    """Full 2×2 matrix algebra, basis e11,e12,e21,e22 (row-major)."""
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = []
    for a, b in idx:
        row = []
        for c, d in idx:
            v = zeros(4)
            if b == c:
                v[idx.index((a, d))] = F(1)
            row.append(v)
        table.append(row)
    return Algebra.from_table(table, [F(1), F(0), F(0), F(1)])


def free_rank2(algebra: Algebra) -> Bimodule:
    """A ⊕ A with the diagonal (regular) actions on each summand."""
    reg = algebra.regular_bimodule()
    n = algebra.dim
    z = [[F(0)] * n for _ in range(n)]
    left, right = [], []
    for i in range(n):
        lm, rm = reg.left_matrices()[i], reg.right_matrices()[i]
        left.append([lr + zr for lr, zr in zip(lm, z)]
                    + [zr + lr for zr, lr in zip(z, lm)])
        right.append([rr + zr for rr, zr in zip(rm, z)]
                     + [zr + rr for zr, rr in zip(z, rm)])
    return Bimodule.from_actions(algebra, left, right)


# ---------------------------------------------------------------------------
# calculi
# ---------------------------------------------------------------------------

@cache
def a2_universal(truncation: int = 3) -> GradedCalculus:
    return universal_graded(a2(), truncation)


@cache
def m2_universal(truncation: int = 3) -> GradedCalculus:
    return universal_graded(m2(), truncation)


@cache
def a2_quotient(truncation: int = 3) -> GradedCalculus:
    """Ω_u(A2) modulo the differential ideal generated by e1⊗e2."""
    cal = a2_universal(truncation)
    emb = zeros(cal.universal.emb_dim(1))
    emb[0 * 2 + 1] = F(1)                        # e1 ⊗ e2
    return quotient_calculus(cal, [(1, emb)])


@cache
def m2_quotient(truncation: int = 3) -> GradedCalculus:
    """A one-dimensional-per-degree quotient calculus of Ω_u(M2).

    Generated by the degree-one element e11·de12; saturation leaves one
    dimension in every positive degree, which keeps the rank-2 module
    examples desk-sized.
    """
    cal = m2_universal(truncation)
    uni = cal.universal
    nt = len(uni.tails(1))
    bar = zeros(uni.bar_dim(1))
    bar[0 * nt + 1] = F(1)                       # e11 · de12
    return quotient_calculus(cal, [(1, uni.to_emb(1, bar))])


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

def regular_connection(calc: GradedCalculus) -> Connection:
    """∇a = class(d_u a) on M = A with its regular actions."""
    algebra = calc.algebra
    uni = calc.universal
    module = algebra.regular_bimodule()
    forms = Forms(module, calc)
    unit = algebra.unit_vec()
    cols = [forms.class_of_pair_emb(1, unit, uni.d_emb(algebra.basis_vec(i), 0))
            for i in range(algebra.dim)]
    nabla = [[cols[c][r] for c in range(len(cols))]
             for r in range(forms.dim(1))]
    return Connection(forms, nabla)


@cache
def conn_d(level: str = "universal") -> Connection:
    """The flat connection ∇ = d on M = A over the two-point algebra."""
    calc = a2_universal() if level == "universal" else a2_quotient()
    return regular_connection(calc)


@cache
def twist() -> Connection:
    """A connection on which σ is provably absent.

    No twist of the regular bimodule over the e1⊗e2-quotient calculus of the
    two-point algebra obstructs σ (every κ₁ image factors through the
    quotient there), so the fixture is the connection ∇ξ = −class(d_u ξ) on
    the bimodule M = Ω¹_u itself, whose κ₁ provably does not annihilate
    e1⊗e2.
    """
    calc = a2_quotient()
    uni = calc.universal
    base = a2_universal()
    module = base.degree_bimodule(1)             # Ω¹_u as a bimodule
    forms = Forms(module, calc)
    nt1 = len(uni.tails(1))
    nt2 = len(uni.tails(2))
    tails2 = uni.tails(2)
    pos1 = {b: k for k, b in enumerate(uni.tails(1))}
    unit = uni.algebra.unit_vec()

    def deg2_to_t1(v2: Vec) -> Vec:
        """Rewrite a degree-2 universal element as (Ω¹_u element)⊗Ω¹ class."""
        out = zeros(forms.dim(1))
        for flat, c in enumerate(v2):
            if c == 0:
                continue
            i0, bidx = divmod(flat, nt2)
            j1, j2 = tails2[bidx]
            mvec = zeros(module.dim)
            mvec[i0 * nt1 + pos1[(j1,)]] = F(1)
            b1 = zeros(uni.bar_dim(1))
            for t, ct in enumerate(unit):
                if ct:
                    b1[t * nt1 + pos1[(j2,)]] += ct
            piece = forms.class_of_pair_bar(1, mvec, b1)
            out = [a + c * b for a, b in zip(out, piece)]
        return out

    cols = []
    for i in range(module.dim):
        mbar = zeros(uni.bar_dim(1))
        mbar[i] = F(1)
        d2 = uni.from_emb(2, uni.d_emb(uni.to_emb(1, mbar), 1))
        cols.append([-x for x in deg2_to_t1(d2)])
    nabla = [[cols[c][r] for c in range(module.dim)]
             for r in range(forms.dim(1))]
    c = Connection(forms, nabla)
    if check_right_leibniz(c).status != "pass" or \
            sigma_exists(c, kappa1(c)).exists:
        raise DimensionError(
            "no σ-refuting connection found over the two-point algebra; "
            "the shipped example library requires one")
    return c


@cache
def grass() -> Connection:
    """Rank-2 free module over the 2×2 matrix algebra with a gauge potential.

    ∇ = d ⊕ d plus Γ = e11·de21 acting on the first summand.  Γ is the first
    degree-one bar basis element, in the fixed enumeration order, whose
    curvature is nonzero, right-Ω-linear, and not left-A-linear; it is
    pinned here so the builder stays fast.
    """
    calc = m2_quotient()
    algebra = m2()
    uni = calc.universal
    module = free_rank2(algebra)
    forms = Forms(module, calc)
    nt = len(uni.tails(1))
    unit = algebra.unit_vec()

    def unit_slot(k: int) -> Vec:
        v = zeros(module.dim)
        for i, c in enumerate(unit):
            v[k * algebra.dim + i] = c
        return v

    def with_gamma(gamma_bar: Vec) -> Connection:
        cols = []
        for k in range(2):
            for i in range(algebra.dim):
                db = uni.d_emb(algebra.basis_vec(i), 0)
                col = forms.class_of_pair_emb(1, unit_slot(k), db)
                if k == 0:
                    tcl = forms.class_of_pair_bar(1, unit_slot(0), gamma_bar)
                    col = [a + b for a, b in
                           zip(col, forms.act_right(1, tcl,
                                                    algebra.basis_vec(i)))]
                cols.append(col)
        nabla = [[cols[c][r] for c in range(len(cols))]
                 for r in range(forms.dim(1))]
        return Connection(forms, nabla)

    gamma = zeros(uni.bar_dim(1))
    gamma[0 * nt + 2] = F(1)                     # e11 · de21
    return with_gamma(gamma)
