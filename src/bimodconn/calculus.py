"""Universal differential calculus, quotients by differential ideals, and ⪯.

Degree r of the universal calculus is stored in the basis
{e_i · de_j1 ⋯ de_jr} where the j's range over a fixed complement of the
unit.  That basis ("bar basis") realizes Ω^r_u ≅ A ⊗ Ā^{⊗r} with
Ā = A/ℂ1 and π: A → Ā, and the structure maps are closed forms on it:
d(e_i·de_β) = de_i·de_β with de_i expanded through π; right multiplication
by e_k moves e_k left through the tail by (x·de_j)·e_k = x·d(e_j e_k) −
(x·e_j)·de_k; and u·(e_k·de_γ) is u·e_k followed by the tail γ.  Left and
right multiplication by each e_i and d are kept as sparse column tables,
built once, which every map that uses them reads: R_{e_i} and d at
construction, L_{e_i} one degree at a time, on first read.

Tensor-power coordinates (Ω^r_u inside A^{⊗(r+1)}) appear only at intake:
model files give ideal generators in them, and from_emb converts one to a
sparse bar vector by id ⊗ π^{⊗r}, checked by the round trip back to its
input.  A's product and unit are read off ``Algebra.products`` and
``Algebra.one``.

Every calculus is canonically "universal modulo a graded differential
ideal", truncated at a degree D; the partial order ⪯ then reduces to exact
ideal-inclusion tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, Bimodule
from .linalg import (Cols, DimensionError, SpanBuilder, SparseVec, Vec,
                     _apply, _col_sum, _col_vec, _div, _exact, _sparse,
                     QuotientSpace)


class UniversalCalculus:
    """Degrees 0..D of the universal calculus of an algebra, bar-realized."""

    def __init__(self, algebra: Algebra, truncation: int):
        if truncation < 1:
            raise DimensionError("truncation degree must be >= 1")
        self.algebra = algebra
        self.D = truncation
        self.complement, self._pi = self._unit_complement()
        self._tails = [list(itertools.product(self.complement, repeat=r))
                       for r in range(self.D + 1)]
        self._tail_times: dict[tuple[int, int],
                               list[list[tuple[int, int, Fraction | int]]]] = {}
        # per degree r: the sparse columns of L_{e_i} (by r, built on first
        # read) and R_{e_i} on Ω^r (per basis index i), and of d: Ω^r →
        # Ω^{r+1} below the truncation
        self._left_cols: dict[int, list[Cols]] = {}
        self._right_cols: list[list[Cols]] = []
        self._d_cols: list[Cols] = []
        self._build_structure_cols()
        # per degree, per bar basis vector: its column in tensor-power
        # coordinates, for the intake of model data; built through degree 1
        # here and further by from_emb as it needs them
        self._bar_cols: list[Cols] = []
        self._extend_bar_cols(1)

    # -- construction -----------------------------------------------------
    def _unit_complement(self) -> tuple[list[int], Cols]:
        """The basis indices completing the unit to a basis, and the
        projection π: A → A/ℂ1 by columns: column k is e_k modulo the unit,
        in complement positions.

        The complement is every index but u, the last at which the unit's
        coefficient 1_u is nonzero.  π(e_k) is the unit vector at k's
        position for k ≠ u, and 1 ≡ 0 gives π(e_u) = −Σ_{t<u} (1_t/1_u)·π(e_t).
        """
        unit = self.algebra.one
        u = max(unit)
        pi = [{k if k < u else k - 1: 1} for k in range(self.algebra.dim)]
        pi[u] = {t: _div(-c, unit[u]) for t, c in unit.items() if t != u}
        return [k for k in range(self.algebra.dim) if k != u], pi

    # -- dimensions and bases --------------------------------------------
    def bar_dim(self, r: int) -> int:
        return self.algebra.dim * len(self._tails[r])

    def tails(self, r: int) -> list[tuple[int, ...]]:
        """The de_j1⋯de_jr tail index tuples of the degree-r bar basis."""
        return self._tails[r]

    # -- structure maps in bar coordinates -------------------------------
    # A bar basis vector e_i0·de_β has index i0·m^r + (index of β), where
    # m = len(complement) and the first tail slot is the most significant,
    # so appending a tail γ of degree s to index x gives x·m^s + (index of γ).
    def tail_times(self, r: int, k: int) \
            -> list[list[tuple[int, int, Fraction | int]]]:
        """de_β·e_k = Σ c·e_k0·de_γ, per degree-r tail β: the (k0, index of
        γ, c) terms, by (x·de_j)·e_k = x·d(e_j e_k) − (x·e_j)·de_k with
        x = de_β' and β = β'j."""
        key = (r, k)
        table = self._tail_times.get(key)
        if table is not None:
            return table
        if r == 0:
            table = [[(k, 0, 1)]]
        else:
            m = len(self.complement)
            prod, unit = self.algebra.products, self.algebra.one
            table = []
            for bidx, beta in enumerate(self._tails[r]):
                head, j = bidx // m, beta[-1]
                acc: dict[tuple[int, int], Fraction | int] = {}
                for l, cl in prod[j][k].items():
                    for p, cp in self._pi[l].items():
                        for t, ct in unit.items():
                            at = (t, head * m + p)
                            acc[at] = acc.get(at, 0) + cl * cp * ct
                for k0, g, c in self.tail_times(r - 1, j)[head]:
                    for p, cp in self._pi[k].items():
                        at = (k0, g * m + p)
                        acc[at] = acc.get(at, 0) - c * cp
                table.append([(k0, g, _exact(c))
                              for (k0, g), c in sorted(acc.items()) if c])
        self._tail_times[key] = table
        return table

    def _right_columns(self, r: int, k: int) -> Cols:
        """The sparse columns of R_{e_k} on Ω^r: (e_i0·de_β)·e_k is
        Σ c·(e_i0 e_k0)·de_γ over the ``tail_times`` terms (k0, γ, c) of β."""
        nt = len(self._tails[r])
        table = self.tail_times(r, k)
        cols = []
        for by_i0 in self.algebra.products:
            for terms in table:
                acc: SparseVec = {}
                for k0, g, ct in terms:
                    for l, cl in by_i0[k0].items():
                        row = l * nt + g
                        acc[row] = acc.get(row, 0) + ct * cl
                cols.append({row: _exact(c) for row, c in acc.items() if c})
        return cols

    def _build_structure_cols(self) -> None:
        """The column tables of R_{e_i} and d, degree by degree: R_{e_k} as
        in ``_right_columns``, and d(e_i0·de_β) = Σ π(e_i0)_p·1·de_{c_p}·de_β,
        the unit 1 = Σ u_t·e_t written out."""
        n, m = self.algebra.dim, len(self.complement)
        unit = self.algebra.one
        for r in range(self.D + 1):
            nt = len(self._tails[r])
            self._right_cols.append([self._right_columns(r, k)
                                     for k in range(n)])
            if r < self.D:
                nt1 = nt * m
                self._d_cols.append([
                    {t * nt1 + p * nt + bidx: _exact(cp * ct)
                     for p, cp in self._pi[i0].items()
                     for t, ct in unit.items()}
                    for i0 in range(n) for bidx in range(nt)])

    def product(self, r: int, u: SparseVec, s: int, v: SparseVec) \
            -> SparseVec:
        """Ω^r × Ω^s → Ω^{r+s} on sparse vectors: u·(e_k·de_γ) is u·e_k,
        R_{e_k}'s columns at u's nonzeros, followed by γ, which moves row x
        to x·m^s + (index of γ)."""
        nt = len(self._tails[s])
        terms = []
        for flat, c in v.items():
            k, g = divmod(flat, nt)
            right = self._right_cols[r][k]
            terms += [({x * nt + g: w for x, w in right[y].items()}, c * cu)
                      for y, cu in u.items() if right[y]]
        return _col_sum(terms) if terms else {}

    # The column tables themselves, shared: no caller may change them.
    def left_cols(self, r: int, k: int) -> Cols:
        """L_{e_k} on Ω^r: column x holds the nonzeros of e_k·(bar basis x),
        e_k·(e_i0·de_β) = (e_k e_i0)·de_β; every L_{e_i} of degree r is
        built on the first read of one."""
        if r not in self._left_cols:
            n, nt = self.algebra.dim, len(self._tails[r])
            prod = self.algebra.products
            self._left_cols[r] = [
                [{l * nt + bidx: c for l, c in prod[i][i0].items()}
                 for i0 in range(n) for bidx in range(nt)]
                for i in range(n)]
        return self._left_cols[r][k]

    def right_cols(self, r: int, k: int) -> Cols:
        """R_{e_k} on Ω^r: column x holds the nonzeros of (bar basis x)·e_k."""
        return self._right_cols[r][k]

    def d_cols(self, r: int) -> Cols:
        """d: Ω^r → Ω^{r+1}: column x holds the nonzeros of d(bar basis x),
        d(e_i0·de_β) = de_i0·de_β with de_i0 expanded through π as
        Σ π(e_i0)_p · 1·de_{c_p}."""
        return self._d_cols[r]

    # -- intake of tensor-power coordinates -------------------------------
    # Model files give ideal generators in A^{⊗(r+1)} (flat index, first
    # slot most significant).  Nothing else uses these coordinates.
    def emb_dim(self, r: int) -> int:
        return self.algebra.dim ** (r + 1)

    def _extend_bar_cols(self, top: int) -> None:
        """e_i0·de_β in tensor-power coordinates through degree top, by
        x·de_j = (x·1)⊗e_j − (x·e_j)⊗1 on the last slot of x = e_i0·de_β'.

        The guard, the round trip id ⊗ π^{⊗r}, maps each column to its bar
        basis vector exactly when x·1 = x for every x above, as π kills 1.
        Degree 1 asks that of every e_i0: it rejects a one-sided unit, and
        once 1 is a right unit every higher degree passes too, so degree 1
        is built at construction and the rest as model data needs them."""
        n, m = self.algebra.dim, len(self.complement)
        prod, unit = self.algebra.products, self.algebra.one
        for r in range(len(self._bar_cols), top + 1):
            if r == 0:
                cols = [{i0: 1} for i0 in range(n)]
            else:
                prev = self._bar_cols[r - 1]
                nt_prev = len(self._tails[r - 1])
                cols = []
                for i0 in range(n):
                    for bidx, beta in enumerate(self._tails[r]):
                        j = beta[-1]
                        acc: SparseVec = {}
                        for flat, c in prev[i0 * nt_prev + bidx // m].items():
                            head, last = divmod(flat, n)
                            for t, ct in unit.items():
                                for l, cl in prod[last][t].items():
                                    row = (head * n + l) * n + j
                                    acc[row] = acc.get(row, 0) + c * ct * cl
                            for l, cl in prod[last][j].items():
                                for t, ct in unit.items():
                                    row = (head * n + l) * n + t
                                    acc[row] = acc.get(row, 0) - c * cl * ct
                        cols.append({row: _exact(c)
                                     for row, c in acc.items() if c})
            for k, col in enumerate(cols):
                if self._contract(r, col) != {k: 1}:
                    raise DimensionError(f"bar basis degenerate in degree {r}; "
                                         "algebra data invalid")
            self._bar_cols.append(cols)

    def _contract(self, r: int, v: SparseVec) -> SparseVec:
        """id ⊗ π^{⊗r} on a sparse tensor-power vector, in bar coordinates,
        sparse."""
        n, m = self.algebra.dim, len(self.complement)
        head, tail_dim = n ** r, m ** r
        bar: SparseVec = {}
        for flat, c in v.items():
            i0, rest = divmod(flat, head)
            acc = [(i0 * tail_dim, 1)]
            stride = 1
            for _ in range(r):
                rest, k = divmod(rest, n)
                acc = [(t + p * stride, s * cp)
                       for t, s in acc for p, cp in self._pi[k].items()]
                stride *= m
            for t, s in acc:
                bar[t] = bar.get(t, 0) + (c if s == 1 else c * s)
        return {t: x for t, x in bar.items() if x}

    def from_emb(self, r: int, emb: Vec) -> SparseVec:
        """Bar coordinates of a tensor-power vector, sparse: id ⊗ π^{⊗r},
        checked by the round trip back to ``emb`` through the bar basis
        columns."""
        if len(emb) != self.emb_dim(r):
            raise DimensionError(f"expected {self.emb_dim(r)} tensor-power "
                                 f"coordinates in degree {r}")
        self._extend_bar_cols(r)
        v = _sparse(emb)
        bar = self._contract(r, v)
        if _apply(self._bar_cols[r], bar) != v:
            raise DimensionError(
                f"vector is not in the universal calculus in degree {r}")
        return bar


class GradedCalculus:
    """A truncated calculus presented as universal modulo a graded ideal."""

    def __init__(self, universal: UniversalCalculus,
                 quotients: list[QuotientSpace]):
        """Degree r is Ω^r_u / ``quotients[r].sub``; the ideal's basis per
        degree, in bar coordinates and sparse, is ``ideal[r]``."""
        self.universal = universal
        self.algebra = universal.algebra
        self.D = universal.D
        self.quotients = quotients
        self.ideal = [q.sub for q in quotients]
        self._d_cols: dict[int, Cols] = {}
        # M⊗_AΩ over this calculus, one per module, by the id of M: (M, its
        # Forms); the entry holds M, so the id stays M's (``Forms.of``)
        self.forms_by_module: dict[int, tuple] = {}

    # -- basics -----------------------------------------------------------
    def dim(self, r: int) -> int:
        return self.quotients[r].dim

    def dims(self) -> list[int]:
        return [self.dim(r) for r in range(self.D + 1)]

    @property
    def is_universal(self) -> bool:
        return not any(self.ideal)

    # -- induced structure -------------------------------------------------
    def d_cols(self, r: int) -> Cols:
        """d: Ω^r → Ω^{r+1} in quotient coordinates, by columns, computed
        once per degree; the columns are shared.  Column k is the class of
        d of class k, so column i of ``d_cols(0)`` is the class of de_i."""
        if r not in self._d_cols:
            self._d_cols[r] = self.quotients[r].induced(
                self.universal.d_cols(r), self.quotients[r + 1])
        return self._d_cols[r]

    def degree_bimodule(self, r: int) -> Bimodule:
        """Ω^r as an A-bimodule in quotient coordinates, its actions the
        maps the universal calculus's actions induce on classes; built on
        each call."""
        q = self.quotients[r]
        uni = self.universal
        left, right = [tuple(q.induced(cols(r, i), q)
                             for i in range(self.algebra.dim))
                       for cols in (uni.left_cols, uni.right_cols)]
        return Bimodule(q.dim, self.algebra, left, right)


def universal_graded(algebra: Algebra, truncation: int) -> GradedCalculus:
    """The universal calculus truncated at the given degree."""
    uni = UniversalCalculus(algebra, truncation)
    return GradedCalculus(uni, [SpanBuilder(uni.bar_dim(r)).quotient()
                                for r in range(truncation + 1)])


def saturate_ideal(uni: UniversalCalculus,
                   generators: list[tuple[int, SparseVec]]) \
        -> list[SpanBuilder]:
    """Smallest two-sided graded ideal containing the generators, closed
    under d, degree-wise up to the truncation.

    Degree 1 is the bimodule closure of the degree-1 generators: a FIFO
    worklist expands every vector that enlarges the span exactly once,
    into e_i·v and v·e_i for ascending i, each combined sparsely from the
    column tables of L_{e_i} and R_{e_i} at v's nonzeros.  Each higher
    degree follows in closed form from the one below,

        I^{r+1} = I^r·Ω¹ + A·d(I^r) + ⟨G^{r+1}⟩,

    read in bar coordinates off the reduced rows of I^r:
    - I^r·Ω¹ = I^r·dA is spanned by each row followed by each tail slot t
      (index x to x·m + t), as v·(a·db) = (v·a)·db;
    - A·d(I^r) = A ⊗ W_r, with W_r the span of (π⊗id)(v) over the rows,
      as d(e_i0·de_β) = 1·de_{π(e_i0)}·de_β: e_i0·de_β goes to
      Σ_p π(e_i0)_p at tail index p·m^r + β, and each e_i ⊗ w, w in W_r's
      rows, sits at index i·m^{r+1} + w;
    - ⟨G^{r+1}⟩ is the degree-(r+1) generators closed by the worklist
      under e_s· and ·e_s for s in ``Algebra.generators`` only, as
      L_{ab} = L_a∘L_b and R_{ab} = R_b∘R_a.

    Call the right side J.  Each part lies in every differential ideal
    that holds the generators, so J ⊆ I^{r+1}.  Conversely the graded
    span with J in degree r+1 holds the generators and is closed under d
    (d(I^r) = 1·d(I^r)) and ·Ω¹ by construction, and, with I^r closed
    under both actions of A:
    - under Ω¹·, as de_j·x = d(e_j·x) − e_j·dx for x in I^r;
    - under a·, as a·(x·ω) = (a·x)·ω and a·(b·dx) = (ab)·dx;
    - under ·a, as (x·db)·a = x·d(ba) − (x·b)·da and
      (b·dx)·a = b·d(x·a) − (−1)^r (b·x)·da;
    and ⟨G^{r+1}⟩ is closed under both actions of A.  Ω_u is generated by
    A and the de_j, so that span is the smallest differential ideal.  The
    RREF of each degree is unique, so the quotients do not depend on the
    order in which a basis was found.
    """
    n, m = uni.algebra.dim, len(uni.complement)
    spans = [SpanBuilder(uni.bar_dim(r)) for r in range(uni.D + 1)]
    by_degree: list[list[SparseVec]] = [[] for _ in spans]
    for deg, bar in generators:
        if deg < 1 or deg > uni.D:
            raise DimensionError("ideal generators must be homogeneous of "
                                 "degree between 1 and the truncation")
        by_degree[deg].append(bar)
    for r in range(1, uni.D + 1):
        span = spans[r]
        if r > 1:
            # I^{r−1}'s row index x is i0·nt + (index of its tail)
            rows, nt = spans[r - 1].reduced_rows(), m ** (r - 1)
            for v in rows:
                for t in range(m):
                    span.add({x * m + t: c for x, c in v.items()})
            w_span = SpanBuilder(m * nt)
            for v in rows:
                w_span.add(_col_sum([
                    ({p * nt + x % nt: cp
                      for p, cp in uni._pi[x // nt].items()}, c)
                    for x, c in v.items()]))
            w_rows = w_span.reduced_rows()
            for i in range(n):
                for w in w_rows:
                    span.add({i * m * nt + y: c for y, c in w.items()})
        queue: deque[SparseVec] = deque()
        for bar in by_degree[r]:
            if span.add(bar):
                queue.append(bar)
        acts = range(n) if r == 1 else uni.algebra.generators if queue else ()
        maps = [cols for i in acts
                for cols in (uni.left_cols(r, i), uni.right_cols(r, i))]
        while queue:
            v = queue.popleft()
            for cols in maps:
                w = _apply(cols, v)
                if span.add(w):
                    queue.append(w)
    return spans


def quotient_calculus(base: GradedCalculus,
                      generators: list[tuple[int, SparseVec]]) \
        -> GradedCalculus:
    """Quotient of the universal calculus by the differential ideal the
    homogeneous generators span.  Generators are given in bar coordinates
    of their degree, sparse; each degree's quotient is read off the
    saturated span.
    """
    if not base.is_universal:
        raise DimensionError("quotient_calculus expects the universal calculus")
    spans = saturate_ideal(base.universal, generators)
    return GradedCalculus(base.universal, [s.quotient() for s in spans])


@dataclass
class CalculusMorphism:
    """Per-degree maps between calculi intertwining products and d, by
    columns, such as ``preceq``'s canonical projection ρ_r = P₁·lift₂."""

    source: GradedCalculus
    target: GradedCalculus
    maps: list[Cols]            # degree 0..D


def preceq(c1: GradedCalculus, c2: GradedCalculus) \
        -> tuple[CalculusMorphism | None, tuple[int, Vec] | None]:
    """(Ω₁,d₁) ⪯ (Ω₂,d₂): the canonical projection ρ: Ω₂ → Ω₁ exists iff the
    defining ideal of Ω₂ is contained degree-wise in that of Ω₁, the kernel
    of Ω₁'s projection P₁: b ∈ I₂ lies in I₁ iff P₁'s columns at b's
    nonzeros sum to zero.  Then ρ_r = P₁·lift₂, P₁'s columns at Ω₂'s free
    columns: P₂·lift₂ = I and ker P₂ ⊆ ker P₁ give ρ_r·P₂ = P₁.  In degree 0
    both ideals are zero, so ρ₀ is the identity.

    Returns (ρ, None) on success, (None, (degree, witness)) otherwise, the
    witness the first basis vector of I₂ \\ I₁ by degree, densified in bar
    coordinates of the shared universal calculus.
    """
    if c1.universal is not c2.universal and \
            (c1.algebra != c2.algebra or c1.D != c2.D):
        raise DimensionError("calculi must share algebra and truncation")
    for r in range(1, c1.D + 1):
        proj = c1.quotients[r].proj_cols
        for b in c2.ideal[r]:
            if _apply(proj, b):
                return None, (r, _col_vec(b, len(proj)))
    maps = [[c1.quotients[r].proj_cols[fc] for fc in c2.quotients[r].free]
            for r in range(c1.D + 1)]
    return CalculusMorphism(c2, c1, maps), None
