"""Curvature, the operator algebra Ω̂, the ideal J, Ω(M) and Ω_∇.

The curvature ∇² is always a right-Ω-homomorphism but in general not left
A-linear.  Left linearity is restored on the quotient Ω(M) = M⊗_AΩ / J,
where J is the right Ω-ideal generated by all (∇̂²Φ)(a)·ω.  Composing the
operators f̂₀∘∇̂f̂₁∘⋯∘∇̂f̂_r with the projection onto Ω(M) yields the map κ
whose degree-wise kernels cut out the induced calculus Ω_∇.  Ω̂ itself is
built through degree D−1, the last degree a check reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import anchors
from .calculus import CalculusMorphism, GradedCalculus, preceq
from .connection import (Connection, _commutator, induced_first_order,
                         kappa1, nabla_hat, sigma_exists)
from .forms import DegreeRHom
from .linalg import (Cols, SpanBuilder, SparseVec, Vec, _apply, _col_sum,
                     _col_vec, _compose, kernel_quotient, QuotientSpace)
from .report import Verdict, failed, passed, rationals


def extend_connection(c: Connection) -> list[Verdict]:
    """Check ∇ extends to T_r for all r < D: well-defined on classes and
    satisfying the graded right Leibniz rule ∇(q·ω) = (∇q)·ω + (−1)^r q·dω.

    The Leibniz rule is decided for ω in Ω¹ and every r ≤ D−2.  Since
    Ω^s = Ω¹·Ω^{s−1}, it follows for every s by induction: for ω = ω₁·ω'
    with ω₁ in Ω¹, ∇((q·ω₁)·ω') splits at ω' by the rule in degrees
    (r+1, s−1), then ∇(q·ω₁) splits by the rule for Ω¹, and the two dω
    terms add up to (−1)^r q·d(ω₁ω').
    """
    f = c.forms
    verdicts = []
    for r in range(1, f.D):
        plain = c.nabla_ext_plain(r)
        for k, v in enumerate(f.quotient_space(r).sub):
            if _apply(plain, v):
                verdicts.append(failed("nabla-extension-well-defined",
                                       anchors.EXTENDING_NABLA,
                                       {"degree": r, "sub_basis": k}))
                return verdicts
    verdicts.append(passed("nabla-extension-well-defined",
                           anchors.EXTENDING_NABLA))
    for r in range(f.D - 1):
        fail = f.right_rule_failure(c.nabla_ext_cols, 1, 1, r, 1,
                                    range(c.calculus.dim(1)), range(f.dim(r)))
        if fail is not None:
            verdicts.append(failed("nabla-extension-graded-leibniz",
                                   anchors.EXTENDING_NABLA,
                                   {"degrees": [r, 1], "basis": list(fail)}))
            return verdicts
    verdicts.append(passed("nabla-extension-graded-leibniz",
                           anchors.EXTENDING_NABLA))
    return verdicts


@dataclass
class CurvatureResult:
    """∇² as a degree-2 right-Ω operator, with its (non-)linearity verdicts."""

    operator: DegreeRHom
    left_linear: bool
    witness: dict | None
    verdicts: list[Verdict] = field(default_factory=list)


def curvature(c: Connection) -> CurvatureResult:
    """∇²: M → M⊗_AΩ²; right-Ω-linearity must hold, left-A-linearity may not.

    Left linearity ∇²∘f̂ = f̂∘∇² is decided on A's generators first
    (``Algebra.first_failure``): the f on which it holds form a unital
    subalgebra, as it is linear in f, holds at f = 1 (1̂ = id on M and on
    M⊗_AΩ²), and ∇²∘(fg)^ = ∇²∘f̂∘ĝ = f̂∘∇²∘ĝ = f̂∘ĝ∘∇² = (fg)^∘∇², f̂ on
    M⊗_AΩ² being the extension of f̂ on M.  The difference is [∇², f̂]
    (``_square_hat``), and the witness is the basis scan's first f with a
    nonzero column, that column and its index.
    """
    if c.calculus.D < 2:
        raise ValueError("curvature needs truncation at least 2")
    f = c.forms
    op = DegreeRHom(f, 2, c.curvature_cols(0))
    verdicts = []
    ok = True
    for s in range(1, f.D - 1):
        if op.ext_cols(s) != c.curvature_cols(s):
            verdicts.append(failed("curvature-right-omega-linear",
                                   anchors.RIGHT_OMEGA_HOM, {"degree": s}))
            ok = False
            break
    w = op.right_linearity_witness()
    if w is not None:
        verdicts.append(failed("curvature-right-omega-linear",
                               anchors.RIGHT_OMEGA_HOM, {"pair": w}))
        ok = False
    if ok:
        verdicts.append(passed("curvature-right-omega-linear",
                               anchors.RIGHT_OMEGA_HOM))
    a = c.module.algebra

    def scan(fis):
        for fi in fis:
            diff = _square_hat(c, f.hats[fi])
            mi = next((i for i, col in enumerate(diff) if col), None)
            if mi is not None:
                return {"algebra_basis": fi, "module_basis": mi,
                        "difference": rationals(_col_vec(diff[mi], f.dim(2)))}
        return None

    witness = a.first_failure(scan)
    if witness is None:
        verdicts.append(passed("curvature-left-linear",
                               anchors.NOT_LEFT_LINEAR))
    else:
        verdicts.append(Verdict("curvature-left-linear",
                                anchors.NOT_LEFT_LINEAR, "fail", witness))
    return CurvatureResult(op, witness is None, witness, verdicts)


class OmegaHat:
    """Ω̂: the graded operator algebra generated by κ₀(A) under ∇̂ and
    composition, with the checks of ∇̂ on it.

    Ω̂ is built from its generators T: T₀ is a basis of κ₀(A) and T_k a
    basis of ∇̂(T_{k−1}), k = 1..D (``gen_ops``).  A worklist W is seeded
    with T₀; each operator w that enlarges its degree's span is kept, and
    t∘w, for every t in T with deg t + deg w ≤ D−1, is tried in turn.  No
    check reads Ω̂_D (the derivation identity reads Ω̂_s for s ≤ D−1, J
    reads Ω̂_p for p ≤ D−2), and a degree-D operator only feeds degree-D
    candidates, so W stops at D−1.  Then, through degree D−1:

    - W ⊆ Ω̂, since every candidate is a composition of operators of Ω̂;
    - W holds T₀ and is closed under composition on the left by T, and
      1 ∈ span T₀, so span W holds every word t₁∘⋯∘t_k in T (T included).

    The graded Leibniz rule ∇̂(t∘w) = (∇̂t)∘w + (−1)^r t∘∇̂w, with ∇̂t in
    span T, then maps span W_r into span W_{r+1} for r ≤ D−2, by induction
    on the length of w as a word.  Composition and ∇̂ never lower a degree,
    so span W_r is Ω̂_r, the closure of κ₀(A) under composition and ∇̂, in
    every degree r ≤ D−1.
    ``_check_derivation`` decides that rule on the pairs (t, w) it needs;
    if it fails, the verdict already fails.  ``ops(r)``, r < D, is a basis
    of Ω̂_r in the order W found it.
    """

    def __init__(self, connection: Connection):
        self.connection = connection
        c = connection
        f = c.forms
        D = f.D
        # a right-A-linear operator is determined by its values on a
        # generating set of M, so spans live in the smaller coordinate space
        self.generators = f.generators

        def new_span(r: int) -> SpanBuilder:
            return SpanBuilder(f.dim(r) * len(self.generators))

        self._gens: list[list[DegreeRHom]] = []
        found = f.hats
        for r in range(D + 1):
            span = new_span(r)
            self._gens.append([op for op in found
                               if span.add(op.flat(self.generators))])
            if r < D:
                found = [nabla_hat(c, t) for t in self._gens[r]]
        self.spans = [new_span(r) for r in range(D)]
        self._ops: list[list[DegreeRHom]] = [[] for _ in range(D)]
        self.verdicts: list[Verdict] = []
        queue: list[DegreeRHom] = []
        # ids already tried: their content lies in their degree's span
        seen: set[int] = set()

        def try_add(op: DegreeRHom) -> None:
            if op.key in seen:
                return
            seen.add(op.key)
            if self.spans[op.degree].add(op.flat(self.generators)):
                self._ops[op.degree].append(op)
                queue.append(op)

        for t in self._gens[0]:
            try_add(t)
        for w in queue:             # grows while it is read
            for r in range(D - w.degree):
                for t in self._gens[r]:
                    try_add(t.compose(w))
        self._check_derivation()
        self._check_square_identity()

    def ops(self, r: int) -> list[DegreeRHom]:
        """A basis of Ω̂_r, r < D."""
        return self._ops[r]

    def gen_ops(self, r: int) -> list[DegreeRHom]:
        """T_r: a basis of κ₀(A) for r = 0, of ∇̂(T_{r−1}) above."""
        return self._gens[r]

    def _check_derivation(self) -> None:
        """∇̂(t∘w) = (∇̂t)∘w + (−1)^r t∘(∇̂w) for t in T_r and w in Ω̂_s.

        This covers every pair (Φ, Ψ) of Ω̂, by induction on the length of
        Φ as a word in T: for Φ = t∘Φ', ∇̂(t∘(Φ'∘Ψ)) splits at t by the pair
        (t, Φ'∘Ψ), and ∇̂(Φ'∘Ψ) splits by induction.  Column i of the right
        side is one ``_col_sum``: (∇̂t)'s extension columns at the nonzeros
        of w's column i and (−1)^r t's at those of (∇̂w)'s, and zero where
        both of those are empty.  The witness indexes ``gen_ops(r)`` and
        ``ops(s)``.
        """
        c = self.connection
        D = c.forms.D
        for r in range(D):
            sign = 1 if r % 2 == 0 else -1
            for ki, t in enumerate(self.gen_ops(r)):
                dt = nabla_hat(c, t)
                for s in range(D - r):
                    for kj, w in enumerate(self.ops(s)):
                        lhs = nabla_hat(c, t.compose(w)).cols
                        dw = nabla_hat(c, w).cols
                        dt_ext = dt.ext_cols(s)
                        # extended only if some column of ∇̂w reads it
                        t_ext = t.ext_cols(s + 1) if any(dw) else []
                        if any(col != _col_sum(
                                [(dt_ext[k], x) for k, x in w_col.items()]
                                + [(t_ext[k], sign * x)
                                   for k, x in dw_col.items()])
                               if w_col or dw_col else col
                               for col, w_col, dw_col in zip(lhs, w.cols, dw)):
                            self.verdicts.append(failed(
                                "nabla-hat-graded-derivation",
                                anchors.GRADED_DERIVATION,
                                {"degrees": [r, s], "basis": [ki, kj]}))
                            return
        self.verdicts.append(passed("nabla-hat-graded-derivation",
                                    anchors.GRADED_DERIVATION))

    def _check_square_identity(self) -> None:
        """∇̂²t = ∇²∘t − t∘∇² on M for t in T, an independent sign cross-check.

        Both sides are linear and split over words: ∇̂² is an even
        derivation, ∇̂²(Φ∘Ψ) = (∇̂²Φ)∘Ψ + Φ∘(∇̂²Ψ), and so is [∇², ·]; so the
        identity on T holds on all of Ω̂.  The witness indexes ``gen_ops``.
        """
        c = self.connection
        D = c.forms.D
        for r in range(D - 1):
            for k, t in enumerate(self.gen_ops(r)):
                if nabla_hat(c, nabla_hat(c, t)).cols != _square_hat(c, t):
                    self.verdicts.append(failed(
                        "nabla-hat-squared-identity", anchors.CURVATURE,
                        {"degree": r, "basis": k}))
                    return
        self.verdicts.append(passed("nabla-hat-squared-identity",
                                    anchors.CURVATURE))


def _square_hat(c: Connection, phi: DegreeRHom) -> Cols:
    """∇²∘Φ − Φ∘∇² on M, by columns, from the cached curvature columns."""
    return _commutator(c.curvature_cols(phi.degree), c.curvature_cols(0), 2,
                       phi, -1)


@dataclass
class JIdeal:
    """J_r ⊆ M⊗_AΩ^r spanned by all (∇̂²Φ)(a)·ω, as sparse bases in quotient
    coordinates of M⊗_AΩ^r, and the quotients M⊗_AΩ^r / J_r."""

    spans: list[list[SparseVec]]
    quotients: list[QuotientSpace]
    verdicts: list[Verdict] = field(default_factory=list)

    def dims(self) -> list[int]:
        return [len(s) for s in self.spans]


def j_ideal(c: Connection, omega_hat: OmegaHat) -> JIdeal:
    """J spanned by (∇̂²Φ)(a)·ω over a basis of each Ω̂_p, the basis of M and
    the basis of Ω^s, with its closure checks.

    ∇̂²Φ is taken as ∇²∘Φ − Φ∘∇², from the cached curvature columns: the
    two ∇Φ∇ terms of ∇̂(∇̂Φ) cancel, and ``nabla-hat-squared-identity``
    decides that identity on Ω̂.  Each generator, its products and J's
    basis vectors stay sparse: a map is applied to one by combining its
    columns at the vector's nonzeros.

    ``j-closure`` decides f·J ⊆ J on A's generators first
    (``Algebra.first_failure``), the rest of its scan unchanged: the f with
    f·J ⊆ J form a unital subalgebra, as the condition is linear in f,
    1·J = J, and fg·J = f·(g·J) ⊆ f·J ⊆ J.
    """
    f = c.forms
    D = f.D
    builders = [SpanBuilder(f.dim(r)) for r in range(D + 1)]
    cal = c.calculus
    for p in range(D - 1):
        for phi in omega_hat.ops(p):
            for v in _square_hat(c, phi):
                if not v:           # a zero column spans nothing
                    continue
                builders[p + 2].add(v)
                for s in range(1, D - p - 2 + 1):
                    for k in range(cal.dim(s)):
                        builders[p + 2 + s].add(_apply(
                            f.right_mult_cols(p + 2, s, {k: 1}), v))
    quotients = [b.quotient() for b in builders]
    j = JIdeal([q.sub for q in quotients], quotients)
    if j.spans[0] or j.spans[1]:
        j.verdicts.append(failed("j-degrees-0-1-vanish", anchors.J_DEGREES_01,
                                 {"dims": j.dims()}))
    else:
        j.verdicts.append(passed("j-degrees-0-1-vanish", anchors.J_DEGREES_01))
    # closure: ∇J ⊆ J, f·J ⊆ J and t(J) ⊆ J for t in T of degree ≥ 1.  Every
    # Φ̂ ∈ Ω̂ is a sum of words in T, and T₀ ⊆ κ₀(A) acts as f·, so Φ̂(J) ⊆ J
    # follows; the "omega-hat" witness indexes gen_ops(p)
    a = c.module.algebra

    def closure_failure(fis):
        for r in range(2, D + 1):
            for k, v in enumerate(j.spans[r]):
                if r + 1 <= D and not builders[r + 1].contains(
                        _apply(c.nabla_ext_cols(r), v)):
                    return {"op": "nabla", "degree": r, "basis": k}
                for i in fis:
                    if not builders[r].contains(
                            _apply(f.hats[i].ext_cols(r), v)):
                        return {"op": "left", "degree": r, "basis": k,
                                "algebra_basis": i}
                for p in range(1, D - r + 1):
                    for kp, t in enumerate(omega_hat.gen_ops(p)):
                        if not builders[r + p].contains(
                                _apply(t.ext_cols(r), v)):
                            return {"op": "omega-hat", "degrees": [p, r],
                                    "basis": [kp, k]}
        return None

    fail = a.first_failure(closure_failure)
    if fail is not None:
        j.verdicts.append(failed("j-closure", anchors.J_CLOSURE, fail))
        return j
    j.verdicts.append(passed("j-closure", anchors.J_CLOSURE))
    # the earlier proposal: factor by span{∇²(fa) − f∇²a}, the nonzero
    # columns of [∇², ê_f], only; it lies in J² by construction, and
    # equality is merely reported
    sub2 = SpanBuilder(f.dim(2))
    contained = True
    for fi in range(a.dim):
        for v in _square_hat(c, f.hats[fi]):
            if v:
                sub2.add(v)
                contained &= builders[2].contains(v)
    if contained:
        j.verdicts.append(passed("early-quotient-span-in-j2",
                                 anchors.FACTORING_PROPOSED,
                                 {"span_dim": sub2.dim,
                                  "j2_dim": len(j.spans[2])}))
    else:
        j.verdicts.append(failed("early-quotient-span-in-j2",
                                 anchors.FACTORING_PROPOSED, None,
                                 {"span_dim": sub2.dim,
                                  "j2_dim": len(j.spans[2])}))
    return j


class OmegaM:
    """Ω(M) = (M⊗_AΩ)/J with the factored ∇ and the checks that ∇, the
    actions and the curvature descend to it, on maps by columns.

    Two of the checks hold for every f in A and are decided on A's
    generators first (``Algebra.first_failure``), each f's set a unital
    subalgebra:

    - ``curvature-left-linear-on-omega-m``, R̄∘f̂ = f̂∘R̄: linear in f, 1̂
      is the identity on M and on Ω(M)_2, and R̄∘(fg)^ = R̄∘f̂∘ĝ =
      f̂∘R̄∘ĝ = f̂∘ĝ∘R̄ = (fg)^∘R̄, f̂ on Ω(M)_2 induced by f̂ on M⊗_AΩ².
    - ``omega-m-right-leibniz``: E(ξ, f) = ∇(ξ·f) − (∇ξ)·f − (−1)^r ξ·df
      is bilinear, E(ξ, 1) = 0, and E(ξ, fg) = E(ξ·f, g) + E(ξ, f)·g.  J
      is a right Ω-submodule (its generators (∇̂²Φ)(a) are values of
      right-linear maps) with ∇J ⊆ J (``omega-m-nabla-descends``, decided
      first), so E(j, g) lies in J for j in J.  Writing ξ·f = ξ' + j, ξ'
      in the span of the lifts of Ω(M)'s classes, E(ξ, fg) lies in J
      when E vanishes modulo J at f and at g on the lifts.
    """

    def __init__(self, c: Connection, j: JIdeal):
        self.connection = c
        self.j = j
        self.quotients = j.quotients
        self.verdicts: list[Verdict] = []
        self._check()

    def dim(self, r: int) -> int:
        return self.quotients[r].dim

    def dims(self) -> list[int]:
        return [self.dim(r) for r in range(self.connection.forms.D + 1)]

    def nabla_cols(self, r: int) -> Cols:
        """Factored ∇: Ω(M)_r → Ω(M)_{r+1}, built on each call."""
        return self.quotients[r].induced(
            self.connection.nabla_ext_cols(r), self.quotients[r + 1])

    def _check(self) -> None:
        c = self.connection
        f = c.forms
        a = c.module.algebra
        # ∇ descends (J is ∇-stable; re-check on J's basis)
        for r in range(2, f.D):
            nx = c.nabla_ext_cols(r)
            proj = self.quotients[r + 1].proj_cols
            for k, v in enumerate(self.j.spans[r]):
                if _apply(proj, _apply(nx, v)):
                    self.verdicts.append(failed("omega-m-nabla-descends",
                                                anchors.UNIQUE_FACTORIZATIONS,
                                                {"degree": r, "basis": k}))
                    return
        self.verdicts.append(passed("omega-m-nabla-descends",
                                    anchors.UNIQUE_FACTORIZATIONS))
        # curvature is left A-linear on Ω(M): R̄∘f = f∘R̄ for R̄ = P∘∇² on M
        q2 = self.quotients[2]
        rbar = _compose(q2.proj_cols, c.curvature_cols(0))

        def left_linear_failure(fis):
            for fi in fis:
                lhs = _compose(rbar, f.hats[fi].cols)
                rhs = _compose(q2.induced(f.hats[fi].ext_cols(2), q2), rbar)
                if lhs != rhs:
                    return fi
            return None

        fi = a.first_failure(left_linear_failure)
        if fi is not None:
            self.verdicts.append(failed("curvature-left-linear-on-omega-m",
                                        anchors.J_GENERATORS,
                                        {"algebra_basis": fi}))
            return
        self.verdicts.append(passed("curvature-left-linear-on-omega-m",
                                    anchors.J_GENERATORS))
        # quotient coherence: p∘∇ = ∇̄∘p on every T_r basis element
        for r in range(f.D):
            pm = self.quotients[r]
            lhs = _compose(self.nabla_cols(r), pm.proj_cols)
            rhs = _compose(self.quotients[r + 1].proj_cols,
                           c.nabla_ext_cols(r))
            k = next((k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y),
                     None)
            if k is not None:
                self.verdicts.append(failed("omega-m-projection-coherent",
                                            anchors.CANONICAL_PROJECTION,
                                            {"degree": r, "basis": k}))
                return
        self.verdicts.append(passed("omega-m-projection-coherent",
                                    anchors.CANONICAL_PROJECTION))
        # right Leibniz of the factored ∇: ∇̄(ξ̄·f) = (∇̄ξ̄)·f + ξ̄·df, on the
        # lifts of Ω(M)'s basis classes
        def leibniz_scan(fis):
            for r in range(f.D):
                fail = f.right_rule_failure(
                    c.nabla_ext_cols, 1, 1, r, 0, fis, self.quotients[r].free,
                    self.quotients[r + 1])
                if fail is not None:
                    return {"degree": r, "basis": [fail[0], fis[fail[1]]]}
            return None

        fail = a.first_failure(leibniz_scan)
        if fail is not None:
            self.verdicts.append(failed("omega-m-right-leibniz",
                                        anchors.UNIQUE_FACTORIZATIONS, fail))
            return
        self.verdicts.append(passed("omega-m-right-leibniz",
                                    anchors.UNIQUE_FACTORIZATIONS))
        # factored curvature stays a right Ω-homomorphism: on Ω(M),
        # ∇²(m·ω) = ∇²(m)·ω for basis vectors m of M and ω of Ω^s, the
        # right rule of ∇² without its dω term
        for s in range(1, f.D - 1):
            fail = f.right_rule_failure(
                c.curvature_cols, 2, 0, 0, s, range(c.calculus.dim(s)),
                range(c.module.dim), self.quotients[s + 2])
            if fail is not None:
                self.verdicts.append(failed(
                    "curvature-right-omega-on-omega-m",
                    anchors.RIGHT_OMEGA_HOM,
                    {"degree": s, "basis": list(fail)}))
                return
        self.verdicts.append(passed("curvature-right-omega-on-omega-m",
                                    anchors.RIGHT_OMEGA_HOM))


class InducedCalculus:
    """Ω_∇ from the kernels of κ, with d_∇ and the comparison with Ω.

    κ̄ is kept by sparse columns (``linalg.Cols``, one per degree): column u
    is κ of the bar basis monomial u, ``Connection.kappa_ops(r)[u]``,
    projected to Ω(M) and flattened row by row (entry (p, c) at row
    p·dim M + c), so κ̄ of any bar vector is the ``_col_sum`` of its columns
    at the vector's nonzeros (``image``).  Each identity of κ is decided on
    those columns, which decide it on every element by linearity: no
    operator is composed, extended or projected per pair, and Ω_∇ is read
    off one elimination of each degree's rows (``_build_calculus``).
    ``calculus`` is Ω_∇, Ω's own object (``connection.calculus``) when the
    two ideals agree in every degree (``_build_calculus``).
    """

    def __init__(self, c: Connection, omega_m: OmegaM):
        self.connection = c
        self.omega_m = omega_m
        self.verdicts: list[Verdict] = []
        # κ̄ = J-projected operators on bar coordinates; column u is the
        # projection of κ(u), flattened row by row
        self._columns: list[Cols] = [
            [self._project_op(r, op) for op in c.kappa_ops(r)]
            for r in range(c.forms.D + 1)]
        # first failing pairs, which sigma_full reports under its own ids
        self.multiplicative_failure: tuple[int, int, int] | None = None
        self.diagram_failure: tuple[int, int] | None = None
        self._check_multiplicative()
        self._check_diagram()
        self._build_calculus()

    def _project_op(self, r: int, op: DegreeRHom) -> SparseVec:
        """The operator projected to Ω(M)_r, flattened row by row as in κ:
        each nonzero (k, x) of the operator's column c adds x times the
        projection's sparse column k, at the rows p·dim M + c; a zero
        operator is {} with no ``_col_sum`` call."""
        proj = self.omega_m.quotients[r].proj_cols
        width = self.connection.module.dim
        terms = [({p * width + c: y for p, y in proj[k].items()}, x)
                 for c, col in enumerate(op.cols) for k, x in col.items()]
        return _col_sum(terms) if terms else {}

    def image(self, r: int, v: SparseVec) -> SparseVec:
        """κ̄ of the sparse bar vector v, flattened as κ̄'s columns are:
        ``_apply`` of κ̄'s columns, so one term with c = 1 is that column
        itself, which the caller must not change."""
        return _apply(self._columns[r], v)

    def _check_multiplicative(self) -> None:
        """κ̄(u·e_k) = κ̄(u)∘ê_k on bar basis pairs, read off κ̄'s columns.

        Products by a pure monomial v = e_k0·de_j1⋯de_js split as
        (u·e_k0)·de_j1⋯de_js; multiplication by de-tails is concatenation of
        bar monomials, for which both sides agree by construction, and J is
        a right Ω-module, so it suffices to check v of degree zero — the only
        place where the contraction u·e_k0 happens.

        The left side is the combination of κ̄'s columns at the nonzeros of
        u·e_k, which column u of R_{e_k}'s table holds.  The right side is
        P·(R_u·L_k), for R_u = κ(u), the left action L_k of e_k on
        M and the projection P onto Ω(M)_r; it is (P·R_u)·L_k, column u of
        κ̄ as an Ω(M)_r × M matrix times L_k: each nonzero x at (i, j) adds
        x·L_k[j][c] at (i, c) for the nonzeros of L_k's row j, so no
        operator is composed or projected per pair.  The first failing pair,
        in the order r, u, k, is kept as ``multiplicative_failure``.

        It is decided for e_k on A's generators first
        (``Algebra.first_failure``), so that pair is the basis scan's.  The
        f with κ̄(u·f) = κ̄(u)∘f̂ for every u form a unital subalgebra: the
        identity is linear in f, holds at f = 1 (u·1 = u, 1̂ = id), and
        κ̄(u·fg) = κ̄((u·f)·g) = κ̄(u·f)∘ĝ = κ̄(u)∘f̂∘ĝ = κ̄(u)∘(fg)^, u·f a
        combination of bar basis vectors and κ̄ linear.
        """
        uni = self.connection.calculus.universal
        m = self.connection.module
        a = m.algebra
        # L_k by rows, each a SparseVec, read once off L_k's columns
        l_rows = []
        for cols in m.left_action:
            rows = [{} for _ in range(m.dim)]
            for c, col in enumerate(cols):
                for j, y in col.items():
                    rows[j][c] = y
            l_rows.append(rows)

        def scan(kjs):
            for r in range(uni.D + 1):
                moved = [(kj, uni.right_cols(r, kj)) for kj in kjs]
                for ki, col in enumerate(self._columns[r]):
                    nz = [(x - x % m.dim, x % m.dim, y)
                          for x, y in col.items()]
                    for kj, by_k in moved:
                        rhs: SparseVec = {}
                        for i, j, x in nz:
                            for c, y in l_rows[kj][j].items():
                                rhs[i + c] = rhs.get(i + c, 0) + x * y
                        if self.image(r, by_k[ki]) != \
                                {i: x for i, x in rhs.items() if x}:
                            return r, ki, kj
            return None

        fail = self.multiplicative_failure = a.first_failure(scan)
        if fail is not None:
            self.verdicts.append(failed(
                "kappa-multiplicative", anchors.OMEGA_HAT,
                {"degree": fail[0], "basis": list(fail[1:])}))
            return
        self.verdicts.append(passed("kappa-multiplicative", anchors.OMEGA_HAT))

    def _check_diagram(self) -> None:
        """κ∘d_u = ∇̂∘κ after projection to Ω(M), on bar basis elements; the
        first failing one is kept as ``diagram_failure``.  κ̄(d_u(e_k)) is
        the combination of κ̄'s columns at the nonzeros of d's column k."""
        c = self.connection
        uni = c.calculus.universal
        for r in range(uni.D):
            d_cols = uni.d_cols(r)
            for k, op in enumerate(c.kappa_ops(r)):
                lhs = self.image(r + 1, d_cols[k])
                rhs = self._project_op(r + 1, nabla_hat(c, op))
                if lhs != rhs:
                    self.diagram_failure = (r, k)
                    self.verdicts.append(failed("kappa-d-diagram",
                                                anchors.D_NABLA_SQUARED,
                                                {"degree": r, "basis": k}))
                    return
        self.verdicts.append(passed("kappa-d-diagram", anchors.D_NABLA_SQUARED))

    def _build_calculus(self) -> None:
        """Ω_∇ = Ω_u / ker κ degree-wise, with Ω⁰_∇ = A by convention: each
        degree is read off one elimination of κ̄'s rows
        (``linalg.kernel_quotient``), and κ₀ is injective when that
        quotient keeps all of A.  d_∇² = 0 is decided by columns.

        When every degree's quotient has the (``free``, ``proj_cols``) of
        Ω's, Ω_∇ is Ω's own object: the projection is read off the RREF of
        the ideal, which is unique, so equal projections mean equal ideals,
        and Ω's ``Forms`` then serve Ω_∇ too.  Otherwise Ω_∇ is a new
        ``GradedCalculus``."""
        own = self.connection.calculus
        uni = own.universal
        self.kappa0_injective = \
            kernel_quotient(self._columns[0]).dim == uni.algebra.dim
        quotients = [SpanBuilder(uni.bar_dim(0)).quotient()] + [
            kernel_quotient(self._columns[r]) for r in range(1, uni.D + 1)]
        if all((q.free, q.proj_cols) == (p.free, p.proj_cols)
               for q, p in zip(quotients, own.quotients)):
            self.calculus = own
        else:
            self.calculus = GradedCalculus(uni, quotients)
        self.verdicts.append(Verdict(
            "omega0-is-algebra", anchors.OMEGA0_IS_A, "pass", None,
            {"kappa0_injective": self.kappa0_injective}))
        for r in range(uni.D - 1):
            if any(_compose(self.calculus.d_cols(r + 1),
                            self.calculus.d_cols(r))):
                self.verdicts.append(failed("d-nabla-squared-zero",
                                            anchors.D_NABLA_SQUARED,
                                            {"degree": r}))
                return
        self.verdicts.append(passed("d-nabla-squared-zero",
                                    anchors.D_NABLA_SQUARED))

    @cached_property
    def below(self) -> tuple[CalculusMorphism | None, tuple[int, Vec] | None]:
        """Ω_∇ ⪯ Ω as ``preceq`` decides it, once; ρ is κ̂ when it exists."""
        return preceq(self.calculus, self.connection.calculus)

    def compare(self) -> Verdict:
        """Is Ω_∇ ⪯ Ω (and/or conversely) in the lattice of calculi?"""
        rho_fwd, wit_fwd = self.below
        rho_bwd, wit_bwd = preceq(self.connection.calculus, self.calculus)
        detail = {
            "induced_dims": self.calculus.dims(),
            "calculus_dims": self.connection.calculus.dims(),
            "induced_preceq_calculus": rho_fwd is not None,
            "calculus_preceq_induced": rho_bwd is not None,
        }
        witness = None
        if wit_fwd is not None and wit_bwd is not None:
            witness = {"degree": wit_fwd[0], "bar": rationals(wit_fwd[1])}
        return Verdict("induced-calculus-compare", anchors.PARTIAL_ORDER,
                       "pass", witness, detail)


@dataclass
class SigmaFull:
    """Existence of σ: Ω^r⊗_AM → Ω(M)_r for every degree at once."""

    exists: bool
    witnesses: list[tuple[int, Vec]]
    verdicts: list[Verdict] = field(default_factory=list)


def _sigma_u_product_failure(induced: InducedCalculus) \
        -> tuple[int, int, int] | None:
    """The first (r, u, ω₂) with σ_u(uω₂⊗ξ) ≠ σ_u(u⊗σ_u(ω₂⊗ξ)) modulo J, by
    r, bar basis vector u, then ω₂ = e_0, …, e_{n−1}, de_j (j in the unit
    complement).  A general ω₂ is a sum of e_k·de_j1⋯de_js, and right
    multiplication by a de-tail is concatenation of bar monomials, for
    which both sides agree by construction; so the pairs with ω₂ = e_k (the
    contraction) and ω₂ = de_j span all products.  The former are κ's
    multiplicativity and come first for each u: InducedCalculus's first
    failure stands unless a product by de_j fails at an earlier u.

    For ω₂ = de_j, whose bar coordinates are 1·de_j = Σ c_i·e_i·de_j (the
    unit 1 = Σ c_i·e_i written out: d's column j), the left side is
    κ̄(u·1·de_j), the combination of κ̄'s columns at the nonzeros of the
    sparse product (column u of each R_{e_i}, the tail appended).  The right
    side, κ(u)∘κ(1·de_j) projected, is κ̄'s own column at the monomial
    u·de_j, index u·m + t for j the t-th of the m complement indices: that
    column is the projection of κ(u)∘∇̂ê_j, and κ(1·de_j) = Σ c_i·ê_i∘∇̂ê_j
    = ∇̂ê_j because M is unital, so Σ c_i·ê_i is the identity (parsing
    rejects a module that fails ``check_bimodule``, unitality included).
    """
    uni = induced.connection.calculus.universal
    m = len(uni.complement)
    contraction = induced.multiplicative_failure
    tails = [uni.d_cols(0)[j] for j in uni.complement]
    for r in range(uni.D):
        columns = induced._columns[r + 1]
        for ki in range(uni.bar_dim(r)):
            if contraction is not None and contraction[:2] == (r, ki):
                return contraction
            for t, v in enumerate(tails):
                lhs = induced.image(r + 1, uni.product(r, {ki: 1}, 1, v))
                if lhs != columns[ki * m + t]:
                    return r, ki, uni.algebra.dim + t
    return contraction


def sigma_full(induced: InducedCalculus) -> SigmaFull:
    """σ_u(ω⊗ξ) = κ(ω)(ξ) always exists; it factors through every degree of
    the quotient calculus iff κ̄ kills the defining ideal degree-wise.

    The σ_u identities are κ's, read off ``induced``: the products by e_k
    are κ's multiplicativity, and ∇σ_u(ω⊗ξ) = σ_u(d_uω⊗ξ) + (−1)^r
    σ_u(ω⊗∇ξ) says ∇∘κ(ω) − (−1)^r κ(ω)∘∇ = ∇̂κ(ω) equals κ(d_uω), the
    κ∘d_u = ∇̂∘κ diagram on the same pairs.  Only products by de_j are new,
    and each is read off κ̄'s columns (``_sigma_u_product_failure``).  The
    witness of ``sigma-all-degrees`` is the first basis vector ι of I^r,
    by degree, with κ̄(ι) ≠ 0, and κ̄(ι) is the combination of κ̄'s columns
    at ι's nonzeros.
    """
    c = induced.connection
    cal = c.calculus
    witnesses = []
    verdicts = []
    fail = _sigma_u_product_failure(induced)
    if fail is None:
        verdicts.append(passed("sigma-u-multiplicative",
                               anchors.SIGMA_U_GRADED))
    else:
        verdicts.append(failed("sigma-u-multiplicative", anchors.SIGMA_U_GRADED,
                               {"degree": fail[0], "basis": list(fail[1:])}))
    if induced.diagram_failure is None:
        verdicts.append(passed("sigma-u-derivation", anchors.SIGMA_U_DEGREE0))
    else:
        r, k = induced.diagram_failure
        verdicts.append(failed("sigma-u-derivation", anchors.SIGMA_U_DEGREE0,
                               {"degree": r, "basis": k}))
    for r in range(1, cal.D + 1):
        for v in cal.ideal[r]:
            if induced.image(r, v):
                witnesses.append((r, _col_vec(v, cal.universal.bar_dim(r))))
                break
    if witnesses:
        verdicts.append(Verdict("sigma-all-degrees", anchors.SIGMA_FULL_IFF,
                                "absent",
                                {"witness_degree": witnesses[0][0],
                                 "witness_bar": rationals(witnesses[0][1])}))
    else:
        verdicts.append(passed("sigma-all-degrees", anchors.SIGMA_FULL_IFF))
    # existence is equivalent to (Ω_∇, d_∇) ⪯ (Ω, d)
    rho = induced.below[0]
    agree = (rho is not None) == (not witnesses)
    verdicts.append(Verdict("sigma-iff-preceq", anchors.SIGMA_FULL_IFF,
                            "pass" if agree else "fail",
                            None if agree else {"preceq": rho is not None,
                                                "sigma": not witnesses},
                            {"induced_preceq_calculus": rho is not None}))
    return SigmaFull(not witnesses, witnesses, verdicts)


class Pipeline:
    """Every stage of the analysis of one connection, each computed on
    first read and kept.

    The stages, in the order ``cli`` reads them for ``all``: ∇̂ and Ω¹_∇
    (``induced_first_order``), κ₁ (``kappa1``), σ (``sigma``), the
    ∇-extension (``extension``), the curvature (``curvature``), Ω̂
    (``omega_hat``), J (``j_ideal``), Ω(M) (``omega_m``), Ω_∇ with κ̄
    (``induced_calculus``), σ_u (``sigma_full``) and κ̂: Ω_∇ → Ω where
    Ω_∇ ⪯ Ω (``kappa_hat``).  Each stage function takes the earlier stages
    it reads as arguments and builds none of them; this class is the one
    place that hands a stage another stage's result.
    """

    def __init__(self, conn: Connection):
        self.conn = conn

    @cached_property
    def induced_first_order(self):
        return induced_first_order(self.conn)

    @cached_property
    def kappa1(self):
        return kappa1(self.conn)

    @cached_property
    def sigma(self):
        return sigma_exists(self.conn, self.kappa1)

    @cached_property
    def extension(self):
        return extend_connection(self.conn)

    @cached_property
    def curvature(self):
        return curvature(self.conn)

    @cached_property
    def omega_hat(self):
        return OmegaHat(self.conn)

    @cached_property
    def j_ideal(self):
        return j_ideal(self.conn, self.omega_hat)

    @cached_property
    def omega_m(self):
        return OmegaM(self.conn, self.j_ideal)

    @cached_property
    def induced_calculus(self):
        return InducedCalculus(self.conn, self.omega_m)

    @cached_property
    def sigma_full(self):
        return sigma_full(self.induced_calculus)

    @cached_property
    def kappa_hat(self):
        return self.induced_calculus.below[0]
