"""Finite-dimensional algebras, bimodules and tensor products over A.

An algebra is given by structure constants on a fixed basis, and its
product is decoded from them once, into ``Algebra.products`` (e_i·e_j as
a sparse vector) and ``Algebra.one``; no other module reads the structure
constants or the unit.  A bimodule is given by its
left and right actions of each algebra basis element, held by sparse
columns (``linalg.Cols``) and converted from dense matrices once, at
intake.  The axiom checks are sparse sums over ``products`` and
compositions of those columns; all constructions reduce to kernels and
images of explicit rational maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from . import anchors
from .linalg import (Cols, DimensionError, Mat, SpanBuilder, SparseVec,
                     _apply, _compose, _exact, _to_cols, frac,
                     QuotientSpace)
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

    @cached_property
    def products(self) -> list[Cols]:
        """e_i·e_j as a sparse vector, by (i, j): A's product, decoded from
        ``structure`` once and shared, so no caller may change it."""
        return [[{k: _exact(c) for k, c in enumerate(cell) if c}
                 for cell in row] for row in self.structure]

    @cached_property
    def one(self) -> SparseVec:
        """The unit 1 of A as a sparse vector, shared likewise."""
        return {k: _exact(c) for k, c in enumerate(self.unit) if c}

    @cached_property
    def generators(self) -> list[int]:
        """Basis indices that generate A as a unital algebra: all of them,
        less each one, in ascending order, that the rest do without.  S
        generates A iff span{1} closed under ·e_s, s in S, is A; column x
        of ·e_s holds the nonzeros of e_x·e_s."""
        n, right = self.dim, list(zip(*self.products))
        gens = list(range(n))
        for i in range(n):
            rest = [s for s in gens if s != i]
            span, queue = SpanBuilder(n), [self.one]
            while queue:
                v = queue.pop()
                if span.add(v):
                    queue += [_apply(right[s], v) for s in rest]
            if span.dim == n:
                gens = rest
        return gens

    def first_failure(self, scan):
        """The first failure of an identity that must hold for every f in
        A, or None.  ``scan(indices)`` decides it on the basis elements
        e_f, f in ``indices``, and returns its first failure there, or
        None.  The f on which such an identity holds form a unital
        subalgebra (each caller's docstring says why), so it holds on A
        iff it holds on ``generators``.  The scan runs on them first, and
        on the whole basis only when one fails, so a failure is the basis
        scan's own, witness included."""
        if scan(self.generators) is None:
            return None
        return scan(range(self.dim))


def check_algebra(a: Algebra) -> Verdict:
    """Unit two-sided on all basis elements, then associativity on all
    basis triples, each product ``products`` applied by columns: the
    columns of ·e_k at the nonzeros of e_i·e_j against those of e_i· at
    the nonzeros of e_j·e_k."""
    prod, unit = a.products, a.one
    # ·e_k by columns: column x is e_x·e_k
    right = list(zip(*prod))
    for i in range(a.dim):
        if _apply(right[i], unit) != {i: 1}:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "left-unit", "basis": i})
        if _apply(prod[i], unit) != {i: 1}:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "right-unit", "basis": i})
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                lhs = _apply(right[k], prod[i][j])
                rhs = _apply(prod[i], prod[j][k])
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

    def _action_cols(self, actions: tuple[Cols, ...], f: SparseVec) -> Cols:
        """Σ fᵢ·(action of e_i) by columns, f sparse: column j is the basis
        actions' columns j applied to f.  The columns may be stored ones,
        which the caller must not change."""
        return [_apply(at_j, f) for at_j in zip(*actions)]

    def left_cols(self, f: SparseVec) -> Cols:
        """m ↦ f·m by columns, f sparse."""
        return self._action_cols(self.left_action, f)


def right_module_generators(mod) -> list[int]:
    """Greedy minimal-ish generating set of basis indices over the right
    action: every basis vector lies in the right submodule the chosen
    indices generate.  Deterministic (ascending basis order)."""
    gens: list[int] = []
    reached = SpanBuilder(mod.dim)
    for i in range(mod.dim):
        if reached.contains({i: 1}):
            continue
        gens.append(i)
        stack = [{i: 1}]
        reached.add(stack[0])
        while stack:
            w = stack.pop()
            for cols in mod.right_action:
                u = _apply(cols, w)
                if reached.add(u):
                    stack.append(u)
    return gens


def _check_one_sided(mod, side: str, check_id: str,
                     anchor: str) -> Verdict | None:
    """Unitality and associativity of one action, by columns: the action
    of e_i·e_j against the composition of the actions of e_i and e_j."""
    a = mod.algebra
    actions = mod.left_action if side == "left" else mod.right_action
    if mod._action_cols(actions, a.one) != \
            [{i: 1} for i in range(mod.dim)]:
        return failed(check_id, anchor, {"axiom": f"{side}-unit"})
    for i in range(a.dim):
        for j in range(a.dim):
            m_prod = mod._action_cols(actions, a.products[i][j])
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
    induce maps on classes by ``QuotientSpace.induced``.  Keeps the
    ``balancing_relations`` it was built from too, so a map on the plain
    tensor is checked on them without building them again.
    """

    left_factor: Bimodule   # its left action read by as_bimodule only
    right_factor: Bimodule
    quotient: QuotientSpace
    relations: list[SparseVec]

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def plain_dim(self) -> int:
        return self.left_factor.dim * self.right_factor.dim

    def pure_index(self, i: int, j: int) -> int:
        return i * self.right_factor.dim + j

    def as_bimodule(self) -> Bimodule:
        """X⊗_AY as an A-bimodule, for a bimodule X: e_i acts on classes
        by the maps that x_k⊗y_j ↦ (e_i·x_k)⊗y_j and x_k⊗y_j ↦
        x_k⊗(y_j·e_i) induce, well defined because X's left action commutes
        with its right one and Y's right action with its left one.  Built
        on each call."""
        x, y, q = self.left_factor, self.right_factor, self.quotient
        # the pure pair x_k⊗y_j at each free column, which lifts its class
        pairs = [divmod(fc, y.dim) for fc in q.free]
        left = tuple(_compose(q.proj_cols, [{l * y.dim + j: c
                                             for l, c in lx[k].items()}
                                            for k, j in pairs])
                     for lx in x.left_action)
        right = tuple(_compose(q.proj_cols, [{k * y.dim + l: c
                                              for l, c in ry[j].items()}
                                             for k, j in pairs])
                      for ry in y.right_action)
        return Bimodule(self.dim, y.algebra, left, right)


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
                rel: SparseVec = {k * yd + j: c
                                  for k, c in right[fi][i].items()}
                for l, c in left[fi][j].items():
                    at = i * yd + l
                    rel[at] = rel.get(at, 0) - c
                if rel := {at: c for at, c in rel.items() if c}:
                    rels.append(rel)
    return rels


def tensor_over_A(x, y: Bimodule) -> BalancedTensor:
    """Balanced tensor product X⊗_AY of a right module X and a bimodule Y."""
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise DimensionError("tensor factors live over different algebras")
    rels = balancing_relations(x, y)
    span = SpanBuilder(x.dim * y.dim)
    for rel in rels:
        span.add(rel)
    return BalancedTensor(x, y, span.quotient(), rels)
