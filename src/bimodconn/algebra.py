"""Finite-dimensional algebras, bimodules and tensor products over A.

An algebra is given by structure constants on a fixed basis; modules are
given by dense action matrices per algebra basis element.  All constructions
reduce to kernels and images of explicit rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import anchors
from .linalg import (Cols, DimensionError, Mat, SpanBuilder, SparseVec, Vec,
                     _to_cols, frac, identity_mat, mat_mul, mat_vec,
                     QuotientSpace, zero_mat, zeros)
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


def action_matrix(actions, f: Vec) -> Mat:
    """Σ fᵢ·(action matrix of e_i), from one square matrix per basis element."""
    out = zero_mat(len(actions[0]), len(actions[0]))
    for i, c in enumerate(f):
        if c == 0:
            continue
        m = actions[i]
        for r in range(len(out)):
            row = m[r]
            orow = out[r]
            for s in range(len(orow)):
                if row[s]:
                    orow[s] += c * row[s]
    return out


def act(actions, f: Vec, v: Vec) -> Vec:
    """(action of f)·v; a basis element f applies its stored matrix as is."""
    nz = [i for i, c in enumerate(f) if c]
    if len(nz) == 1 and f[nz[0]] == 1:
        return mat_vec(actions[nz[0]], v)
    return mat_vec(action_matrix(actions, f), v)


@dataclass(frozen=True)
class Bimodule:
    """Finite-dimensional A-bimodule with commuting left and right actions."""

    dim: int
    algebra: Algebra
    left_action: tuple[tuple[tuple[int | Fraction, ...], ...], ...]
    right_action: tuple[tuple[tuple[int | Fraction, ...], ...], ...]

    @staticmethod
    def from_actions(algebra: Algebra, left: list[Mat], right: list[Mat]) -> "Bimodule":
        freeze = lambda ms: tuple(tuple(tuple(frac(x) for x in row)
                                        for row in m) for m in ms)
        return Bimodule(len(left[0]), algebra, freeze(left), freeze(right))

    def left_matrices(self) -> list[Mat]:
        return [[list(r) for r in m] for m in self.left_action]

    def right_matrices(self) -> list[Mat]:
        return [[list(r) for r in m] for m in self.right_action]

    def left_matrix(self, f: Vec) -> Mat:
        return action_matrix(self.left_action, f)

    def right_matrix(self, f: Vec) -> Mat:
        return action_matrix(self.right_action, f)

    def act_left(self, f: Vec, m: Vec) -> Vec:
        return act(self.left_action, f, m)

    def act_right(self, m: Vec, f: Vec) -> Vec:
        return act(self.right_action, f, m)

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
    mats = mod.right_matrices()
    for i in range(mod.dim):
        v = mod.basis_vec(i)
        if reached.contains(v):
            continue
        gens.append(i)
        stack = [v]
        reached.add(v)
        while stack:
            w = stack.pop()
            for m in mats:
                u = mat_vec(m, w)
                if reached.add(u):
                    stack.append(u)
    return gens


def _check_one_sided(mod, matrices: list[Mat], side: str, check_id: str,
                     anchor: str) -> Verdict | None:
    a = mod.algebra
    unit_m = action_matrix(matrices, a.unit_vec())
    if unit_m != identity_mat(mod.dim):
        return failed(check_id, anchor, {"axiom": f"{side}-unit"})
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mult(a.basis_vec(i), a.basis_vec(j))
            m_prod = action_matrix(matrices, prod)
            if side == "left":
                m_comp = mat_mul(matrices[i], matrices[j])
            else:
                m_comp = mat_mul(matrices[j], matrices[i])
            if m_prod != m_comp:
                return failed(check_id, anchor,
                              {"axiom": f"{side}-associativity", "pair": [i, j]})
    return None


def check_bimodule(m: Bimodule) -> Verdict:
    """Unitality, action associativity and left/right commutation, all basis tuples."""
    left, right = m.left_matrices(), m.right_matrices()
    for side, mats in (("left", left), ("right", right)):
        bad = _check_one_sided(m, mats, side, "check-bimodule", anchors.BIMODULE)
        if bad is not None:
            return bad
    for i in range(m.algebra.dim):
        for j in range(m.algebra.dim):
            if mat_mul(right[j], left[i]) != mat_mul(left[i], right[j]):
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

    def pure(self, x: Vec, y: Vec) -> Vec:
        """Plain-tensor coordinates of x⊗y."""
        out = zeros(self.plain_dim)
        for i, ci in enumerate(x):
            if ci == 0:
                continue
            for j, cj in enumerate(y):
                if cj:
                    out[self.pure_index(i, j)] = ci * cj
        return out

    def project(self, plain: Vec) -> Vec:
        return self.quotient.project(plain)

    def project_pure(self, x: Vec, y: Vec) -> Vec:
        return self.project(self.pure(x, y))

    def induced_right_cols(self, f: Vec) -> Cols:
        """·f on classes by columns, from the plain map x_i⊗y_j ↦
        x_i⊗(y_j·f)."""
        ry = _to_cols(self.right_factor.right_matrix(f), self.right_factor.dim)
        ydim = self.right_factor.dim
        plain = [[(i * ydim + l, c) for l, c in ry[j]]
                 for i in range(self.left_factor.dim) for j in range(ydim)]
        return self.quotient.induced(plain, self.quotient)


def balancing_relations(x, y: Bimodule) -> list[SparseVec]:
    """Spanning set of (x·f)⊗y − x⊗(f·y) over all basis triples, each a
    sparse plain-tensor vector; the zero ones are left out.  x_i·f and
    f·y_j are columns of the stored actions of f = e_fi."""
    yd = y.dim
    right = [_to_cols(act, x.dim) for act in x.right_action]
    left = [_to_cols(act, yd) for act in y.left_action]
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
