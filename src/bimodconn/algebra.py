"""Finite-dimensional algebras, bimodules and tensor products over A.

An algebra is given by structure constants on a fixed basis; a bimodule by
its left and right actions of each algebra basis element, held by sparse
columns (``linalg.Cols``) and converted from dense matrices once, at
intake.  The axiom checks compose those columns; all constructions reduce
to kernels and images of explicit rational maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from . import anchors
from .linalg import (Cols, DimensionError, Mat, SpanBuilder, SparseVec, Vec,
                     _col_sum, _combine, _compose, _to_cols, frac,
                     QuotientSpace, zeros)
from .report import Verdict, failed, passed


@dataclass(frozen=True)
class Algebra:
    """Associative unital algebra via structure constants.

    ``structure[i][j]`` holds the coordinates of e_i · e_j; ``unit`` the
    coordinates of the two-sided identity.
    """

    dim: int
    structure: tuple[tuple[tuple[int | Fraction, ...], ...], ...]
    unit: tuple[int | Fraction, ...]

    @staticmethod
    def from_table(structure, unit) -> "Algebra":
        n = len(structure)
        return Algebra(n,
                       tuple(tuple(tuple(frac(x) for x in cell)
                                   for cell in row) for row in structure),
                       tuple(frac(x) for x in unit))

    def basis_vec(self, i: int) -> Vec:
        v = zeros(self.dim)
        v[i] = 1
        return v

    def unit_vec(self) -> Vec:
        return list(self.unit)

    def mult(self, u: Vec, v: Vec) -> Vec:
        out = zeros(self.dim)
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                c = ci * cj
                for k, s in enumerate(self.structure[i][j]):
                    if s:
                        out[k] += c * s
        return out


def check_algebra(a: Algebra) -> Verdict:
    """Associativity on all basis triples, unit two-sided on all basis elements."""
    for i in range(a.dim):
        e = a.basis_vec(i)
        if a.mult(a.unit_vec(), e) != e:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "left-unit", "basis": i})
        if a.mult(e, a.unit_vec()) != e:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "right-unit", "basis": i})
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.mult(a.basis_vec(i), a.basis_vec(j))
            for k in range(a.dim):
                lhs = a.mult(ij, a.basis_vec(k))
                rhs = a.mult(a.basis_vec(i),
                             a.mult(a.basis_vec(j), a.basis_vec(k)))
                if lhs != rhs:
                    return failed("check-algebra", anchors.ALGEBRA,
                                  {"axiom": "associativity",
                                   "triple": [i, j, k]})
    return passed("check-algebra", anchors.ALGEBRA, {"dim": a.dim})


@dataclass(frozen=True)
class Bimodule:
    """Finite-dimensional A-bimodule with commuting left and right actions,
    each held by sparse columns: ``left_action[i]`` is m ↦ e_i·m and
    ``right_action[i]`` is m ↦ m·e_i, one ``Cols`` per basis element e_i.
    The columns are shared, so no caller may change them."""

    dim: int
    algebra: Algebra
    left_action: tuple[Cols, ...]
    right_action: tuple[Cols, ...]

    @staticmethod
    def from_actions(algebra: Algebra, left: list[Mat], right: list[Mat]) -> "Bimodule":
        """The bimodule of dense action matrices, one per basis element,
        their entries normalized by ``frac`` and held by columns."""
        dim = len(left[0])
        by_cols = lambda ms: tuple(_to_cols([[frac(x) for x in row]
                                             for row in m], dim) for m in ms)
        return Bimodule(dim, algebra, by_cols(left), by_cols(right))

    def _action_cols(self, actions: tuple[Cols, ...], f: Vec) -> Cols:
        """Σ fᵢ·(action of e_i) by columns, each a ``_col_sum`` of the basis
        actions' columns at f's nonzeros; a basis element with coefficient
        1 gives its stored columns, which the caller must not change."""
        terms = [(actions[i], f[i]) for i in compress(range(len(f)), f)]
        if len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]
        return [_col_sum(t) if (t := [(cols[j], c) for cols, c in terms
                                      if cols[j]]) else []
                for j in range(self.dim)]

    def left_cols(self, f: Vec) -> Cols:
        """m ↦ f·m by columns."""
        return self._action_cols(self.left_action, f)

    def right_cols(self, f: Vec) -> Cols:
        """m ↦ m·f by columns."""
        return self._action_cols(self.right_action, f)

    def act_left(self, f: Vec, m: Vec) -> Vec:
        return _combine(self.left_cols(f), m, self.dim)

    def act_right(self, m: Vec, f: Vec) -> Vec:
        return _combine(self.right_cols(f), m, self.dim)

    def basis_vec(self, i: int) -> Vec:
        v = zeros(self.dim)
        v[i] = 1
        return v


def right_module_generators(mod) -> list[int]:
    """Greedy minimal-ish generating set of basis indices over the right
    action: every basis vector lies in the right submodule the chosen
    indices generate.  Deterministic (ascending basis order)."""
    gens: list[int] = []
    reached = SpanBuilder(mod.dim)
    for i in range(mod.dim):
        v = mod.basis_vec(i)
        if reached.contains(v):
            continue
        gens.append(i)
        stack = [v]
        reached.add(v)
        while stack:
            w = stack.pop()
            for cols in mod.right_action:
                u = _combine(cols, w, mod.dim)
                if reached.add(u):
                    stack.append(u)
    return gens


def _check_one_sided(mod, side: str, check_id: str,
                     anchor: str) -> Verdict | None:
    """Unitality and associativity of one action, by columns: the action
    of e_i·e_j against the composition of the actions of e_i and e_j."""
    a = mod.algebra
    actions = mod.left_action if side == "left" else mod.right_action
    if mod._action_cols(actions, a.unit_vec()) != \
            [[(i, 1)] for i in range(mod.dim)]:
        return failed(check_id, anchor, {"axiom": f"{side}-unit"})
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mult(a.basis_vec(i), a.basis_vec(j))
            m_prod = mod._action_cols(actions, prod)
            if side == "left":
                m_comp = _compose(actions[i], actions[j])
            else:
                m_comp = _compose(actions[j], actions[i])
            if m_prod != m_comp:
                return failed(check_id, anchor,
                              {"axiom": f"{side}-associativity", "pair": [i, j]})
    return None


def check_bimodule(m: Bimodule) -> Verdict:
    """Unitality, action associativity and left/right commutation, all basis
    tuples, each an identity of maps composed by columns."""
    for side in ("left", "right"):
        bad = _check_one_sided(m, side, "check-bimodule", anchors.BIMODULE)
        if bad is not None:
            return bad
    left, right = m.left_action, m.right_action
    for i in range(m.algebra.dim):
        for j in range(m.algebra.dim):
            if _compose(right[j], left[i]) != _compose(left[i], right[j]):
                return failed("check-bimodule", anchors.BIMODULE,
                              {"axiom": "left-right-commutation", "pair": [i, j]})
    return passed("check-bimodule", anchors.BIMODULE, {"dim": m.dim})


@dataclass
class BalancedTensor:
    """X ⊗_A Y: the plain tensor product modulo balancing relations.

    Keeps the quotient, so plain (representative) coordinates project to
    classes deterministically, and maps on the plain tensor, by columns,
    induce maps on classes by ``QuotientSpace.induced``.
    """

    left_factor: Bimodule   # only its right action is read
    right_factor: Bimodule
    quotient: QuotientSpace

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def plain_dim(self) -> int:
        return self.left_factor.dim * self.right_factor.dim

    def pure_index(self, i: int, j: int) -> int:
        return i * self.right_factor.dim + j

    def induced_right_cols(self, f: Vec) -> Cols:
        """·f on classes by columns, from the plain map x_i⊗y_j ↦
        x_i⊗(y_j·f)."""
        ry = self.right_factor.right_cols(f)
        ydim = self.right_factor.dim
        plain = [[(i * ydim + l, c) for l, c in ry[j]]
                 for i in range(self.left_factor.dim) for j in range(ydim)]
        return self.quotient.induced(plain, self.quotient)


def balancing_relations(x, y: Bimodule) -> list[SparseVec]:
    """Spanning set of (x·f)⊗y − x⊗(f·y) over all basis triples, each a
    sparse plain-tensor vector; the zero ones are left out.  x_i·f and
    f·y_j are columns of the stored actions of f = e_fi."""
    yd = y.dim
    right, left = x.right_action, y.left_action
    rels = []
    for i in range(x.dim):
        for fi in range(x.algebra.dim):
            for j in range(yd):
                rel: SparseVec = {k * yd + j: c for k, c in right[fi][i]}
                for l, c in left[fi][j]:
                    at = i * yd + l
                    rel[at] = rel.get(at, 0) - c
                if rel := {at: c for at, c in rel.items() if c}:
                    rels.append(rel)
    return rels


def tensor_over_A(x, y: Bimodule) -> BalancedTensor:
    """Balanced tensor product X⊗_AY of a right module X and a bimodule Y."""
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise DimensionError("tensor factors live over different algebras")
    span = SpanBuilder(x.dim * y.dim)
    for rel in balancing_relations(x, y):
        span.add(rel)
    return BalancedTensor(x, y, span.quotient())
