"""Universal differential calculus, quotients by differential ideals, and ⪯.

Degree r of the universal calculus is realized concretely inside the
(r+1)-fold tensor power of A, with the basis {e_i · de_j1 ⋯ de_jr} where the
j's range over a fixed complement of the unit.  That basis ("bar basis")
realizes Ω^r_u ≅ A ⊗ Ā^{⊗r} with Ā = A/ℂ1, so the conversions between bar
and tensor-power coordinates are closed forms: to_emb sums sparse bar
columns, and from_emb is id ⊗ π^{⊗r} with π: A → Ā, checked by the round
trip back to its input.  Products are slot-contractions, and the
differential is the alternating unit-insertion map.

Every calculus is canonically "universal modulo a graded differential
ideal", truncated at a degree D; the partial order ⪯ then reduces to exact
ideal-inclusion tests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import anchors
from .algebra import Algebra, Bimodule
from .linalg import (DimensionError, Mat, SpanBuilder, Vec, factor_through,
                     identity_mat, mat_mul, mat_vec, quotient, QuotientSpace,
                     zeros)
from .report import Verdict, failed, passed


def _exact(c: Fraction) -> Fraction | int:
    """c as an int when it is integral: the ±1 entries of π and of the bar
    columns then multiply in plain int arithmetic."""
    return c.numerator if c.denominator == 1 else c


def _flat(idx: tuple[int, ...], n: int) -> int:
    out = 0
    for i in idx:
        out = out * n + i
    return out


class UniversalCalculus:
    """Degrees 0..D of the universal calculus of an algebra, bar-realized."""

    def __init__(self, algebra: Algebra, truncation: int):
        if truncation < 1:
            raise DimensionError("truncation degree must be >= 1")
        self.algebra = algebra
        self.D = truncation
        n = algebra.dim
        self.complement, self._pi = self._unit_complement()
        # d(e_j) in A⊗A coordinates
        self.de: dict[int, Vec] = {}
        unit = algebra.unit_vec()
        for j in range(n):
            v = zeros(n * n)
            for t, c in enumerate(unit):
                if c:
                    v[t * n + j] += c          # 1 ⊗ e_j
                    v[j * n + t] -= c          # e_j ⊗ 1
            self.de[j] = v
        self._tails: list[list[tuple[int, ...]]] = []
        # per degree, per bar basis vector: its nonzero (row, coeff) entries
        # in tensor-power coordinates
        self._bar_cols: list[list[list[tuple[int, Fraction | int]]]] = []
        self._rmul_cache: dict[tuple[int, tuple[Fraction, ...]], Mat] = {}
        self._build_degrees()

    # -- construction -----------------------------------------------------
    def _unit_complement(self) \
            -> tuple[list[int], list[list[tuple[int, Fraction | int]]]]:
        """The basis indices completing the unit to a basis, and the
        projection π: A → A/ℂ1 as, per basis vector e_k, the nonzero
        (complement position, coeff) pairs of e_k modulo the unit."""
        a = self.algebra
        span = SpanBuilder(a.dim)
        span.add(a.unit_vec())
        comp = []
        for i in range(a.dim):
            if span.add(a.basis_vec(i)):
                comp.append(i)
        pi = []
        for k in range(a.dim):
            coords = span.coords(a.basis_vec(k))
            pi.append([(p, _exact(c)) for p, c in enumerate(coords[1:]) if c])
        return comp, pi

    def _build_degrees(self) -> None:
        n = self.algebra.dim
        tail_embs: list[dict[tuple[int, ...], Vec]] = []
        for r in range(self.D + 1):
            tails = list(itertools.product(self.complement, repeat=r))
            emb: dict[tuple[int, ...], Vec] = {}
            for beta in tails:
                if r == 1:
                    emb[beta] = self.de[beta[0]]
                elif r > 1:
                    emb[beta] = self.product_emb(tail_embs[r - 1][beta[:-1]],
                                                 r - 1, self.de[beta[-1]], 1)
            self._tails.append(tails)
            tail_embs.append(emb)
            cols = []
            for i0 in range(n):
                e = self.algebra.basis_vec(i0)
                for beta in tails:
                    col = e if r == 0 else self.product_emb(e, 0, emb[beta], r)
                    cols.append([(row, _exact(c))
                                 for row, c in enumerate(col) if c])
            self._bar_cols.append(cols)
            # id ⊗ π^{⊗r} inverts the bar basis exactly when it is a basis
            for k, col in enumerate(cols):
                unit_k = zeros(len(cols))
                unit_k[k] = Fraction(1)
                if self._contract(r, col) != unit_k:
                    raise DimensionError(f"bar basis degenerate in degree {r}; "
                                         "algebra data invalid")

    # -- dimensions and bases --------------------------------------------
    def bar_dim(self, r: int) -> int:
        return self.algebra.dim * len(self._tails[r])

    def emb_dim(self, r: int) -> int:
        return self.algebra.dim ** (r + 1)

    def bar_index(self, r: int) -> list[tuple[int, tuple[int, ...]]]:
        return [(i0, beta) for i0 in range(self.algebra.dim)
                for beta in self._tails[r]]

    def tails(self, r: int) -> list[tuple[int, ...]]:
        """The de_j1⋯de_jr tail index tuples of the degree-r bar basis."""
        return self._tails[r]

    # -- coordinate conversions ------------------------------------------
    def _contract(self, r: int, terms) -> Vec:
        """id ⊗ π^{⊗r} on (flat index, coeff) tensor-power terms, in bar
        coordinates."""
        n, m = self.algebra.dim, len(self.complement)
        head, tail_dim = n ** r, m ** r
        bar = zeros(self.bar_dim(r))
        for flat, c in terms:
            i0, rest = divmod(flat, head)
            acc = [(i0 * tail_dim, 1)]
            stride = 1
            for _ in range(r):
                rest, k = divmod(rest, n)
                acc = [(t + p * stride, s * cp)
                       for t, s in acc for p, cp in self._pi[k]]
                stride *= m
            for t, s in acc:
                bar[t] += c if s == 1 else c * s
        return bar

    def _emb_terms(self, r: int, bar: Vec) -> dict[int, Fraction]:
        """Nonzero tensor-power coordinates of a bar-coordinate vector."""
        out: dict[int, Fraction] = {}
        cols = self._bar_cols[r]
        for k, coeff in enumerate(bar):
            if coeff:
                for row, c in cols[k]:
                    v = coeff if c == 1 else coeff * c
                    prev = out.get(row)
                    out[row] = v if prev is None else prev + v
        return {row: c for row, c in out.items() if c}

    def to_emb(self, r: int, bar: Vec) -> Vec:
        out = zeros(self.emb_dim(r))
        for row, c in self._emb_terms(r, bar).items():
            out[row] = c
        return out

    def from_emb(self, r: int, emb: Vec) -> Vec:
        """Bar coordinates of a tensor-power vector: id ⊗ π^{⊗r}, checked by
        the round trip back to ``emb``."""
        if len(emb) != self.emb_dim(r):
            raise DimensionError(f"expected {self.emb_dim(r)} tensor-power "
                                 f"coordinates in degree {r}")
        terms = {flat: c for flat, c in enumerate(emb) if c}
        bar = self._contract(r, terms.items())
        if self._emb_terms(r, bar) != terms:
            raise DimensionError(
                f"vector is not in the universal calculus in degree {r}")
        return bar

    # -- structure maps in embedding coordinates -------------------------
    def product_emb(self, u: Vec, r: int, v: Vec, s: int) -> Vec:
        """Product Ω^r × Ω^s → Ω^{r+s} on tensor-power coordinates."""
        n = self.algebra.dim
        out = zeros(n ** (r + s + 1))
        for iu, cu in enumerate(u):
            if cu == 0:
                continue
            # decode digits of iu, length r+1
            idx_u = []
            x = iu
            for _ in range(r + 1):
                idx_u.append(x % n)
                x //= n
            idx_u.reverse()
            for iv, cv in enumerate(v):
                if cv == 0:
                    continue
                idx_v = []
                x = iv
                for _ in range(s + 1):
                    idx_v.append(x % n)
                    x //= n
                idx_v.reverse()
                c = cu * cv
                prod = self.algebra.structure[idx_u[-1]][idx_v[0]]
                head = _flat(tuple(idx_u[:-1]), n)
                for mmid, cm in enumerate(prod):
                    if cm:
                        flat = head
                        flat = flat * n + mmid
                        for d in idx_v[1:]:
                            flat = flat * n + d
                        out[flat] += c * cm
        return out

    def d_emb(self, u: Vec, r: int) -> Vec:
        """Alternating unit-insertion differential Ω^r → Ω^{r+1}."""
        n = self.algebra.dim
        unit = self.algebra.unit_vec()
        out = zeros(n ** (r + 2))
        for iu, cu in enumerate(u):
            if cu == 0:
                continue
            idx = []
            x = iu
            for _ in range(r + 1):
                idx.append(x % n)
                x //= n
            idx.reverse()
            sign = Fraction(1)
            for p in range(r + 2):
                for t, ct in enumerate(unit):
                    if ct:
                        new = tuple(idx[:p]) + (t,) + tuple(idx[p:])
                        out[_flat(new, n)] += sign * cu * ct
                sign = -sign
        return out

    # -- structure maps in bar coordinates -------------------------------
    def d_bar_matrix(self, r: int) -> Mat:
        cols = []
        for c in range(self.bar_dim(r)):
            bar = zeros(self.bar_dim(r))
            bar[c] = Fraction(1)
            cols.append(self.from_emb(r + 1, self.d_emb(self.to_emb(r, bar), r)))
        return [[cols[c][row] for c in range(len(cols))]
                for row in range(self.bar_dim(r + 1))]

    def left_mult_bar_matrix(self, r: int, f: Vec) -> Mat:
        n = self.algebra.dim
        tails = self._tails[r]
        cols = []
        for i0 in range(n):
            prod = self.algebra.mult(f, self.algebra.basis_vec(i0))
            for bi, beta in enumerate(tails):
                col = zeros(self.bar_dim(r))
                for k, ck in enumerate(prod):
                    if ck:
                        col[k * len(tails) + bi] += ck
                cols.append(col)
        return [[cols[c][row] for c in range(len(cols))]
                for row in range(self.bar_dim(r))]

    def right_mult_bar_matrix(self, r: int, f: Vec) -> Mat:
        key = (r, tuple(f))
        cached = self._rmul_cache.get(key)
        if cached is not None:
            return cached
        cols = []
        for c in range(self.bar_dim(r)):
            bar = zeros(self.bar_dim(r))
            bar[c] = Fraction(1)
            emb = self.product_emb(self.to_emb(r, bar), r, f, 0)
            cols.append(self.from_emb(r, emb))
        out = [[cols[c][row] for c in range(len(cols))]
               for row in range(self.bar_dim(r))]
        self._rmul_cache[key] = out
        return out


class GradedCalculus:
    """A truncated calculus presented as universal modulo a graded ideal."""

    def __init__(self, universal: UniversalCalculus, ideal: list[list[Vec]],
                 generators: list[tuple[int, Vec]] | None = None):
        self.universal = universal
        self.algebra = universal.algebra
        self.D = universal.D
        self.ideal = ideal              # per degree, a basis in bar coordinates
        self.generators = generators or []
        self.quotients: list[QuotientSpace] = []
        for r in range(self.D + 1):
            self.quotients.append(quotient(universal.bar_dim(r), ideal[r]))
        self._d_mats: dict[int, Mat] = {}
        self._bimods: dict[int, Bimodule] = {}

    # -- basics -----------------------------------------------------------
    def dim(self, r: int) -> int:
        return self.quotients[r].dim

    def dims(self) -> list[int]:
        return [self.dim(r) for r in range(self.D + 1)]

    @property
    def is_universal(self) -> bool:
        return not any(self.ideal)

    def lift_to_emb(self, r: int, q: Vec) -> Vec:
        return self.universal.to_emb(r, self.quotients[r].lift(q))

    def class_of_emb(self, r: int, emb: Vec) -> Vec:
        return self.quotients[r].project(self.universal.from_emb(r, emb))

    def class_of_bar(self, r: int, bar: Vec) -> Vec:
        return self.quotients[r].project(bar)

    # -- induced structure -------------------------------------------------
    def d_matrix(self, r: int) -> Mat:
        """d: Ω^r → Ω^{r+1} in quotient coordinates."""
        if r not in self._d_mats:
            cols = []
            for c in range(self.dim(r)):
                q = zeros(self.dim(r))
                q[c] = Fraction(1)
                emb = self.universal.d_emb(self.lift_to_emb(r, q), r)
                cols.append(self.class_of_emb(r + 1, emb))
            self._d_mats[r] = [[cols[c][row] for c in range(len(cols))]
                               for row in range(self.dim(r + 1))]
        return self._d_mats[r]

    def d_apply(self, r: int, q: Vec) -> Vec:
        return mat_vec(self.d_matrix(r), q)

    def product(self, r: int, u: Vec, s: int, v: Vec) -> Vec:
        """Product of quotient classes, via representatives."""
        emb = self.universal.product_emb(self.lift_to_emb(r, u), r,
                                         self.lift_to_emb(s, v), s)
        return self.class_of_emb(r + s, emb)

    def degree_bimodule(self, r: int) -> Bimodule:
        """Ω^r as an A-bimodule in quotient coordinates."""
        if r not in self._bimods:
            a = self.algebra
            p = self.quotients[r].projection
            sct = self.quotients[r].section
            left, right = [], []
            for i in range(a.dim):
                f = a.basis_vec(i)
                lm = self.universal.left_mult_bar_matrix(r, f)
                rm = self.universal.right_mult_bar_matrix(r, f)
                left.append(mat_mul(p, mat_mul(lm, sct)))
                right.append(mat_mul(p, mat_mul(rm, sct)))
            self._bimods[r] = Bimodule.from_actions(a, left, right)
        return self._bimods[r]

    def d_of_algebra(self, f: Vec) -> Vec:
        """Class of d f in Ω¹ coordinates."""
        return self.class_of_emb(1, self.universal.d_emb(f, 0))


def universal_graded(algebra: Algebra, truncation: int = 3) -> GradedCalculus:
    """The universal calculus truncated at the given degree."""
    uni = UniversalCalculus(algebra, truncation)
    return GradedCalculus(uni, [[] for _ in range(truncation + 1)])


def saturate_ideal(uni: UniversalCalculus,
                   generators: list[tuple[int, Vec]]) -> list[SpanBuilder]:
    """Smallest two-sided graded ideal containing the generators, closed
    under d, degree-wise up to the truncation.

    FIFO worklist: every vector that enlarges its degree's span is expanded
    exactly once, by left/right multiplication with the algebra basis, by
    d, and by left/right multiplication with the degree-one generators de_j
    (j in the unit complement).  The span is finite-dimensional, so the
    worklist runs dry.
    """
    spans = [SpanBuilder(uni.bar_dim(r)) for r in range(uni.D + 1)]
    queue: deque[tuple[int, Vec]] = deque()
    for deg, bar in generators:
        if deg < 1 or deg > uni.D:
            raise DimensionError("ideal generators must be homogeneous of "
                                 "degree between 1 and the truncation")
        if spans[deg].add(bar):
            queue.append((deg, bar))
    while queue:
        r, v = queue.popleft()
        emb = uni.to_emb(r, v)
        images = []
        for i in range(uni.algebra.dim):
            f = uni.algebra.basis_vec(i)
            images.append((r, uni.product_emb(f, 0, emb, r)))
            images.append((r, uni.product_emb(emb, r, f, 0)))
        if r < uni.D:
            images.append((r + 1, uni.d_emb(emb, r)))
            for j in uni.complement:
                de = uni.de[j]
                images.append((r + 1, uni.product_emb(de, 1, emb, r)))
                images.append((r + 1, uni.product_emb(emb, r, de, 1)))
        for s, img in images:
            w = uni.from_emb(s, img)
            if spans[s].add(w):
                queue.append((s, w))
    return spans


def quotient_calculus(base: GradedCalculus,
                      generators: list[tuple[int, Vec]]) -> GradedCalculus:
    """Quotient of the universal calculus by the differential ideal the
    homogeneous generators span.  Generators are given in tensor-power
    coordinates of their degree and must lie in the universal calculus.
    """
    if not base.is_universal:
        raise DimensionError("quotient_calculus expects the universal calculus")
    uni = base.universal
    gens_bar = [(deg, uni.from_emb(deg, emb)) for deg, emb in generators]
    spans = saturate_ideal(uni, gens_bar)
    return GradedCalculus(uni, [s.basis for s in spans], gens_bar)


@dataclass
class CalculusMorphism:
    """Per-degree maps between calculi intertwining products and d."""

    source: GradedCalculus
    target: GradedCalculus
    maps: list[Mat]             # degree 0..D

    def verify(self) -> Verdict:
        top = self.source.D
        # intertwines the differentials
        for r in range(top):
            lhs = mat_mul(self.maps[r + 1], self.source.d_matrix(r))
            rhs = mat_mul(self.target.d_matrix(r), self.maps[r])
            if lhs != rhs:
                return failed("calculus-morphism-d", anchors.RHO_EXISTS,
                              {"degree": r})
        # multiplicative on basis pairs within truncation
        for r in range(top + 1):
            for s in range(top + 1 - r):
                for ci in range(self.source.dim(r)):
                    u = zeros(self.source.dim(r))
                    u[ci] = Fraction(1)
                    for cj in range(self.source.dim(s)):
                        v = zeros(self.source.dim(s))
                        v[cj] = Fraction(1)
                        lhs_v = self.apply(r + s, self.source.product(r, u, s, v))
                        rhs_v = self.target.product(r, self.apply(r, u),
                                                    s, self.apply(s, v))
                        if lhs_v != rhs_v:
                            return failed("calculus-morphism-product",
                                          anchors.RHO_EXISTS,
                                          {"degrees": [r, s],
                                           "basis": [ci, cj]})
        return passed("calculus-morphism", anchors.RHO_EXISTS)

    def apply(self, r: int, v: Vec) -> Vec:
        return mat_vec(self.maps[r], v)


def preceq(c1: GradedCalculus, c2: GradedCalculus) \
        -> tuple[CalculusMorphism | None, tuple[int, Vec] | None]:
    """(Ω₁,d₁) ⪯ (Ω₂,d₂): the canonical projection ρ: Ω₂ → Ω₁ exists iff the
    defining ideal of Ω₂ is contained degree-wise in that of Ω₁.

    Returns (ρ, None) on success, (None, (degree, witness)) with a witness
    element of I₂ \\ I₁ otherwise.  Witness coordinates are degree-wise bar
    coordinates of the shared universal calculus.
    """
    if c1.universal is not c2.universal and \
            (c1.algebra != c2.algebra or c1.D != c2.D):
        raise DimensionError("calculi must share algebra and truncation")
    for r in range(1, c1.D + 1):
        i1 = SpanBuilder(c1.universal.bar_dim(r))
        for b in c1.ideal[r]:
            i1.add(b)
        for b in c2.ideal[r]:
            if not i1.contains(b):
                return None, (r, b)
    maps = [identity_mat(c1.algebra.dim)]
    for r in range(1, c1.D + 1):
        h, w = factor_through(c2.quotients[r].projection,
                              c1.quotients[r].projection,
                              c1.universal.bar_dim(r))
        assert h is not None, "ideal inclusion should guarantee factoring"
        maps.append(h)
    return CalculusMorphism(c2, c1, maps), None
