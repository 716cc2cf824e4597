"""Reference routes that the checks in ``src/`` are tested against.

Each reference computes what a check or kernel of ``src/`` computes by an
older or more direct route: dense vectors and matrices where ``src/`` keeps
sparse columns, loops over every basis pair or triple where it decides on
generators or columns, whole spans where it reads a closed form, and the
stdlib where it writes a report in one pass.  A check returns the witness
of its first failing case, in the shape of the verdict's, or None when
every case holds.

All linear algebra here is sympy's ``DomainMatrix`` over QQ: rank, RREF,
null space, quotient, factorisation through a surjection, the dense
product, and ``Span``, the incremental span of the worklist references.
So no reference shares an eliminator with ``bimodconn.linalg``, and an
``ast`` scan in ``tests/test_linalg.py`` keeps it so.

The sections, in order: dense conveniences; the eliminator; κ and σ_u per
pair; the algebra and bimodule axioms; the dense operator route; Ω̂, J and
the ∇-extension on whole spans; the right Leibniz checks; κ₁ and σ by
coordinates; the unit complement; ideal saturation in tensor-power
coordinates; ⪯; Ω_∇ and the tensor routes; degeneracy and pure pairs; the
left Leibniz rule; parsing; rendering.
"""

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from _embedding import d_emb, product_emb, to_emb
from bimodconn import anchors
from bimodconn.algebra import BalancedTensor
from bimodconn.calculus import CalculusMorphism
from bimodconn.connection import kappa0_op, nabla_hat
from bimodconn.curvature import _square_hat
from bimodconn.forms import DegreeRHom
from bimodconn.linalg import (DimensionError, QuotientSpace, _col_vec,
                              _exact, _sparse, _to_mat, mat_vec, zero_mat,
                              zeros)
from bimodconn.model import ModelError
from bimodconn.report import failed, jsonable, passed, rationals
from bimodconn.tensorconn import DegeneracyPair


def cols_to_mat(cols, n_rows):
    """The matrix with the given dense columns (n_rows rows even with
    none)."""
    return [[col[row] for col in cols] for row in range(n_rows)]


def identity_mat(n):
    """The n×n identity matrix: its rows are the dense unit vectors."""
    return [basis_vec(n, i) for i in range(n)]


def basis_vec(n, i):
    """The i-th basis vector of an n-dimensional module, dense."""
    return [int(k == i) for k in range(n)]


def combine(cols, v, n_rows):
    """Σ v_x·(column x) over the dense vector v's nonzeros, for a map by
    sparse columns, as a dense vector of length n_rows."""
    out = [0] * n_rows
    for x, c in enumerate(v):
        if c:
            for row, y in cols[x].items():
                out[row] += c * y
    return out


def project(q, v):
    """The class of the dense vector v of a ``QuotientSpace``'s total space:
    the projection's columns combined at v's nonzeros."""
    if len(v) != len(q.proj_cols):
        raise DimensionError("not a vector of the total space")
    return combine(q.proj_cols, v, q.dim)


def lift(q, v):
    """The representative of the class v of a ``QuotientSpace``: class k
    lifts to the unit vector at ``free[k]``."""
    if len(v) != q.dim:
        raise DimensionError("not a vector of the quotient")
    out = [0] * len(q.proj_cols)
    for fc, x in zip(q.free, v):
        out[fc] = x
    return out


def bar_index(uni, r):
    """The (i0, β) of each degree-r bar basis vector e_i0·de_β, by index
    i0·m^r + (index of β)."""
    return [(i0, beta) for i0 in range(uni.algebra.dim)
            for beta in uni.tails(r)]


def sparse_class(v):
    """The dense vector v as a sparse one, the form a class takes in
    ``Forms.right_mult_cols`` and ``SigmaMap.on``."""
    return {k: x for k, x in enumerate(v) if x}


def d_bar(uni, r, v):
    """d: Ω^r_u → Ω^{r+1}_u on a dense bar vector."""
    return combine(uni.d_cols(r), v, uni.bar_dim(r + 1))


def d_class(cal, r, q):
    """d on a dense class of Ω^r."""
    return combine(cal.d_cols(r), q, cal.dim(r + 1))


def d_of_algebra(cal, f):
    """The class of df in Ω¹ for a dense f in A."""
    return project(cal.quotients[1], d_bar(cal.universal, 0, f))


def act_left(mod, f, v):
    """f·v for dense f in A and v in the module, by the dense action."""
    return mat_vec(action_matrix(actions(mod, "left"), f), v)


def act_right(mod, v, f):
    """v·f for dense f in A and v in the module, by the dense action."""
    return mat_vec(action_matrix(actions(mod, "right"), f), v)


def nabla_apply(c, v):
    """∇ of a dense vector of M, in class coordinates of M⊗_AΩ¹."""
    return combine(c.nabla, v, c.forms.dim(1))


def at_free(q, m):
    """m·lift: the columns of the dense matrix m at the quotient q's
    ``free`` columns."""
    return [[row[fc] for fc in q.free] for row in m]


def is_zero_vec(v):
    """Whether every entry of a dense vector is zero."""
    return not any(v)


def vec_add(u, v):
    """The entrywise sum of two dense vectors of one length."""
    return [a + b for a, b in zip(u, v, strict=True)]


def product(uni, r, u, s, v):
    """``UniversalCalculus.product`` of dense bar vectors, densified."""
    return _col_vec(uni.product(r, _sparse(u), s, _sparse(v)),
                    uni.bar_dim(r + s))


def dense_vecs(vectors, n):
    """Sparse vectors, such as a quotient's ``sub``, as dense vectors of
    length n."""
    out = []
    for v in vectors:
        d = [0] * n
        for k, x in v.items():
            d[k] = x
        out.append(d)
    return out


def dense(op):
    """A ``DegreeRHom``'s sparse columns as a dense dim T_r × dim M matrix."""
    return _to_mat(op.cols, op.forms.dim(op.degree))


def apply(op, v):
    """A ``DegreeRHom`` applied to a dense vector of M: its columns combined
    at v's nonzeros."""
    return combine(op.cols, v, op.forms.dim(op.degree))


def ext_matrix(op, s):
    """A ``DegreeRHom``'s extension to T_s as a dense matrix."""
    return _to_mat(op.ext_cols(s), op.forms.dim(op.degree + s))


def scaled(op, c):
    """c times a ``DegreeRHom``, column by column (a negation for c = −1)."""
    return DegreeRHom(op.forms, op.degree,
                      [{row: c * x for row, x in col.items()} if c else {}
                       for col in op.cols])


def nabla_matrix(c):
    """∇ as a dense dim T_1 × dim M matrix, read off its columns."""
    return _to_mat(c.nabla, c.forms.dim(1))


def actions(mod, side):
    """A bimodule's left or right actions of the algebra basis elements as
    dense matrices, read off their columns."""
    cols = mod.left_action if side == "left" else mod.right_action
    return [_to_mat(m, mod.dim) for m in cols]


def action_matrix(matrices, f):
    """Σ fᵢ·(action matrix of e_i), from one square matrix per basis
    element."""
    out = zero_mat(len(matrices[0]), len(matrices[0]))
    for i, c in enumerate(f):
        if c == 0:
            continue
        m = matrices[i]
        for r in range(len(out)):
            row = m[r]
            orow = out[r]
            for s in range(len(orow)):
                if row[s]:
                    orow[s] += c * row[s]
    return out


def projection(q):
    """A quotient's projection as a dense matrix, read off its columns."""
    return _to_mat(q.proj_cols, q.dim)


def nabla_ext(c, r):
    """∇'s extension T_r → T_{r+1} as a dense matrix, read off its
    columns."""
    return _to_mat(c.nabla_ext_cols(r), c.forms.dim(r + 1))


def curvature_matrix(c, r):
    """∇∘∇: T_r → T_{r+2} as a product of ∇'s two dense extensions."""
    return mat_mul(nabla_ext(c, r + 1), nabla_ext(c, r))


# -- the one eliminator: sympy's DomainMatrix over QQ -----------------------
#
# Entries enter as ints and Fractions and come back through ``_exact``, an
# int where the value is integral.

def _dm(rows, n_cols):
    """Dense rows with n_cols columns as a sparse DomainMatrix over QQ."""
    mpq = QQ.dtype
    return DomainMatrix(
        {i: {j: mpq(row[j]) for j in itertools.compress(range(n_cols), row)}
         for i, row in enumerate(rows) if any(row)}, (len(rows), n_cols), QQ)


def _rows(m):
    """A DomainMatrix as dense rows."""
    out = zero_mat(*m.shape)
    for i, row in m.to_dod().items():
        for j, x in row.items():
            out[i][j] = _exact(Fraction(x.numerator, x.denominator))
    return out


def mat_mul(a, b):
    """The dense product a·b."""
    if a and len(a[0]) != len(b):
        raise DimensionError("matrix product shape mismatch")
    return _rows(_dm(a, len(b)) * _dm(b, len(b[0]) if b else 0))


def _cols_dm(cols, n_rows):
    """A map by sparse columns as a DomainMatrix with n_rows rows."""
    mpq = QQ.dtype
    rows = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = mpq(x)
    return DomainMatrix(rows, (n_rows, len(cols)), QQ)


def _op_dm(op):
    """A ``DegreeRHom`` as a dim T_r × dim M DomainMatrix."""
    return _cols_dm(op.cols, op.forms.dim(op.degree))


def omega_m_projections(induced):
    """Ω(M)'s projection per degree as a DomainMatrix, None where J is
    zero and the projection the identity."""
    return [_cols_dm(q.proj_cols, q.dim) if q.sub else None
            for q in induced.omega_m.quotients]


def rref(matrix, n_cols=None):
    """(rank, RREF, pivot columns) of a dense matrix, the zero rows last, as
    ``linalg.row_reduce`` returns them; n_cols is needed only when the
    matrix has no rows."""
    if n_cols is None:
        n_cols = len(matrix[0]) if matrix else 0
    reduced, pivots = _dm(matrix, n_cols).rref()
    return len(pivots), _rows(reduced), list(pivots)


def null_space(matrix, n_cols):
    """Basis of {x : matrix @ x = 0} for a dense matrix with n_cols columns,
    read off its RREF: for each free column fc ascending,
    e_fc − Σ rref[r][fc]·e_(pivot r), the basis ``linalg.null_space`` reads
    off a map's columns."""
    _, reduced, pivots = rref(matrix, n_cols)
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        v = zeros(n_cols)
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


class SurjectivityError(ValueError):
    """Raised when ``factor_through`` is handed a map that is not onto."""


def factor_through(f, g, n):
    """Factor g through the surjection f, both dense maps on an
    n-dimensional domain: (h, None) with h∘f = g when ker f ⊆ ker g;
    otherwise (None, the first vector of ``null_space(f)`` that g does not
    kill).  h's column i is g applied to the solution x of f x = e_i with
    zero free entries, read off the RREF of [f | I]: its rows are [R | T]
    with T·f = R, so x is column i of T at R's pivots, and f is onto
    exactly when every pivot lies in f's block."""
    if any(len(row) != n for row in f) or any(len(row) != n for row in g):
        raise DimensionError("f and g must share a domain")
    k = len(f)
    _, reduced, pivots = rref([list(row) + basis_vec(k, i)
                               for i, row in enumerate(f)])
    if any(pc >= n for pc in pivots):
        raise SurjectivityError("factor_through requires f surjective")
    for v in null_space(f, n):
        if not is_zero_vec(mat_vec(g, v)):
            return None, v
    cols = []
    for i in range(k):
        x = zeros(n)
        for row, pc in zip(reduced, pivots):
            x[pc] = row[n + i]
        cols.append(mat_vec(g, x))
    return cols_to_mat(cols, len(g)), None


def quotient(total, sub):
    """total / span(sub), read off the RREF of sub: reducing e_i modulo its
    rows leaves e_i for a free column i and e_i − row for the pivot i of a
    row.  Its ``sub`` is the dense vectors as given."""
    if any(len(v) != total for v in sub):
        raise DimensionError("sub is not presented inside total")
    sub_rank, reduced, pivots = rref(sub, total)
    if sub_rank != len(sub):
        raise DimensionError("sub basis is degenerate")
    free = [c for c in range(total) if c not in pivots]
    proj = zero_mat(len(free), total)
    for k, fc in enumerate(free):
        proj[k][fc] = 1
        for row, pc in zip(reduced, pivots):
            proj[k][pc] = -row[fc]
    cols = [{k: row[c] for k, row in enumerate(proj) if row[c]}
            for c in range(total)]
    return QuotientSpace(sub, free, cols)


def kernel_quotient(cols, n_rows):
    """``linalg.kernel_quotient``: the quotient by the ``null_space`` of
    the map densified, the route ``InducedCalculus`` took to Ω_∇."""
    n = len(cols)
    return quotient(n, null_space(_to_mat(cols, n_rows), n))


class Span:
    """The span of dense vectors added one at a time: ``basis`` holds the
    vectors that enlarged it, in order, and ``pivots`` the pivot columns of
    its RREF, whose rows are kept by pivot, sparse, and refreshed only when
    the span grows.  A vector lies in the span when the RREF rows weighted
    by its entries at the pivots give it back."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.basis = []
        self.pivots = []
        self._rref = _dm([], ambient_dim)
        self._by_pivot = {}

    @property
    def dim(self):
        return len(self.basis)

    def _residue(self, v):
        """v less the RREF rows weighted by its entries at the pivots, as
        a sparse vector: empty exactly when v lies in the span."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector does not live in the ambient space")
        res = {j: x for j, x in enumerate(v) if x}
        for pc, row in self._by_pivot.items():
            if c := v[pc]:
                for j, x in row.items():
                    if y := res.get(j, 0) - c * x:
                        res[j] = y
                    else:
                        del res[j]
        return res

    def add(self, v):
        res = self._residue(v)
        if not res:
            return False
        self.basis.append(list(v))
        n = self.ambient_dim
        self._rref, pivots = self._rref.vstack(
            _dm([[res.get(j, 0) for j in range(n)]], n)).rref()
        self.pivots = list(pivots)
        rows = self._rref.to_dod()
        self._by_pivot = {
            pc: {j: _exact(Fraction(x.numerator, x.denominator))
                 for j, x in rows[i].items()}
            for i, pc in enumerate(self.pivots)}
        return True

    def contains(self, v):
        return not self._residue(v)

    def coords(self, v):
        """v's coordinates in ``basis``, read off the RREF of [basisᵀ | v],
        or None when v is outside the span."""
        k = self.dim
        _, reduced, pivots = rref(cols_to_mat(self.basis + [v], len(v)))
        return None if k in pivots else [row[k] for row in reduced[:k]]


# -- κ and σ_u per pair, projected by the projection matrix ---------------

def kappa_raw(induced, r, bar):
    """κ(bar) as an operator: the sum of the raw operators of the bar basis
    monomials, weighted by bar's entries."""
    c = induced.connection
    acc = None
    for k, cc in enumerate(bar):
        if cc:
            m = scaled(induced.connection.kappa_ops(r)[k], cc)
            acc = m if acc is None else acc.add(m)
    if acc is None:
        return DegreeRHom(c.forms, r, [{} for _ in range(c.module.dim)])
    return acc


def kappa_matrices(induced):
    """κ̄ per degree as a dense matrix on bar coordinates: column u is u's
    raw operator projected by the projection matrix (``project_op``),
    not read off ``InducedCalculus``'s own columns."""
    c = induced.connection
    projections = omega_m_projections(induced)
    return [cols_to_mat([project_op(projections, r, _op_dm(op))
                         for op in c.kappa_ops(r)],
                        induced.omega_m.dim(r) * c.module.dim)
            for r in range(c.forms.D + 1)]


def project_op(projections, r, op):
    """The operator, a DomainMatrix, projected to Ω(M)_r by its projection
    in ``omega_m_projections``, flattened row by row as κ̄'s columns are,
    dense."""
    proj = projections[r]
    m = _rows(op if proj is None else proj * op)
    return [x for row in m for x in row]


def kappa_multiplicative(induced):
    """κ(u·e_k) = κ(u)∘κ(e_k), projected to Ω(M), on bar basis pairs."""
    kappa = kappa_matrices(induced)
    projections = omega_m_projections(induced)
    uni = induced.connection.calculus.universal
    a = induced.connection.module.algebra
    for r in range(uni.D + 1):
        rmul = [_to_mat(uni.right_cols(r, kj), uni.bar_dim(r))
                for kj in range(a.dim)]
        for ki in range(uni.bar_dim(r)):
            u = zeros(uni.bar_dim(r))
            u[ki] = 1
            for kj in range(a.dim):
                moved = mat_vec(rmul[kj], u)
                lhs = mat_vec(kappa[r], moved)
                raw = induced.connection.kappa_ops
                comp = raw(r)[ki].compose(raw(0)[kj])
                if lhs != project_op(projections, r, _op_dm(comp)):
                    return {"degree": r, "basis": [ki, kj]}
    return None


def kappa_d_diagram(induced):
    """κ∘d_u = ∇̂∘κ after projection to Ω(M), on bar basis elements."""
    kappa = kappa_matrices(induced)
    projections = omega_m_projections(induced)
    c = induced.connection
    uni = c.calculus.universal
    for r in range(uni.D):
        dm = _to_mat(uni.d_cols(r), uni.bar_dim(r + 1))
        for k in range(uni.bar_dim(r)):
            bar = zeros(uni.bar_dim(r))
            bar[k] = 1
            lhs = mat_vec(kappa[r + 1], mat_vec(dm, bar))
            rhs = project_op(projections, r + 1,
                             _op_dm(nabla_hat(c, c.kappa_ops(r)[k])))
            if lhs != rhs:
                return {"degree": r, "basis": k}
    return None


def sigma_u_multiplicative(induced):
    """σ_u(ω₁ω₂⊗ξ) = σ_u(ω₁⊗σ_u(ω₂⊗ξ)) modulo J, for ω₂ = e_k (indices
    0..n−1) and ω₂ = de_j (indices n, n+1, … over the unit complement)."""
    kappa = kappa_matrices(induced)
    projections = omega_m_projections(induced)
    uni = induced.connection.calculus.universal
    a = uni.algebra
    raw = induced.connection.kappa_ops
    second = []
    for a_i in range(a.dim):
        second.append((0, basis_vec(a.dim, a_i), raw(0)[a_i]))
    for j in uni.complement:
        dj = d_bar(uni, 0, basis_vec(a.dim, j))
        second.append((1, dj, kappa_raw(induced, 1, dj)))
    for r in range(uni.D + 1):
        for ki in range(uni.bar_dim(r)):
            u = zeros(uni.bar_dim(r))
            u[ki] = 1
            for kj, (s, v, vop) in enumerate(second):
                if r + s > uni.D:
                    continue
                lhs = mat_vec(kappa[r + s], product(uni, r, u, s, v))
                rhs = project_op(projections, r + s,
                                 _op_dm(raw(r)[ki].compose(vop)))
                if lhs != rhs:
                    return {"degree": r, "basis": [ki, kj]}
    return None


def sigma_u_derivation(induced):
    """∇σ_u(ω⊗ξ) = σ_u(d_uω⊗ξ) + (−1)^r σ_u(ω⊗∇ξ) modulo J, on bar basis
    elements, with ∇∘κ(ω) and κ(ω)∘∇ composed apart."""
    kappa = kappa_matrices(induced)
    projections = omega_m_projections(induced)
    c = induced.connection
    uni = c.calculus.universal
    for r in range(uni.D):
        sign = 1 if r % 2 == 0 else -1
        dm = _to_mat(uni.d_cols(r), uni.bar_dim(r + 1))
        for k in range(uni.bar_dim(r)):
            bar = zeros(uni.bar_dim(r))
            bar[k] = 1
            op = c.kappa_ops(r)[k]
            lhs = _cols_dm(c.nabla_ext_cols(r), c.forms.dim(r + 1)) * \
                _op_dm(op)
            first = mat_vec(kappa[r + 1], mat_vec(dm, bar))
            second = _cols_dm(op.ext_cols(1), c.forms.dim(r + 1)) * \
                _cols_dm(c.nabla, c.forms.dim(1))
            rest = lhs - second if sign == 1 else lhs + second
            if project_op(projections, r + 1, rest) != first:
                return {"degree": r, "basis": k}
    return None


# -- the algebra axioms on dense vectors ------------------------------------
#
# ``Algebra.mult`` and ``algebra.check_algebra`` before A's product was read
# off ``Algebra.products``: each product a dense vector formed from the
# structure constants, in the same loop order.

def mult(a, u, v):
    """u·v for dense coordinate vectors u, v of A, by A's structure
    constants."""
    out = zeros(a.dim)
    for i, ci in enumerate(u):
        if ci == 0:
            continue
        for j, cj in enumerate(v):
            if cj == 0:
                continue
            c = ci * cj
            for k, s in enumerate(a.structure[i][j]):
                if s:
                    out[k] += c * s
    return out


def check_algebra(a):
    """The unit two-sided on all basis elements, then associativity on all
    basis triples, on dense vectors."""
    unit = list(a.unit)
    for i in range(a.dim):
        e = basis_vec(a.dim, i)
        if mult(a, unit, e) != e:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "left-unit", "basis": i})
        if mult(a, e, unit) != e:
            return failed("check-algebra", anchors.ALGEBRA,
                          {"axiom": "right-unit", "basis": i})
    for i in range(a.dim):
        for j in range(a.dim):
            ij = mult(a, basis_vec(a.dim, i), basis_vec(a.dim, j))
            for k in range(a.dim):
                lhs = mult(a, ij, basis_vec(a.dim, k))
                rhs = mult(a, basis_vec(a.dim, i),
                           mult(a, basis_vec(a.dim, j), basis_vec(a.dim, k)))
                if lhs != rhs:
                    return failed("check-algebra", anchors.ALGEBRA,
                                  {"axiom": "associativity",
                                   "triple": [i, j, k]})
    return passed("check-algebra", anchors.ALGEBRA, {"dim": a.dim})


# -- the bimodule axioms on dense matrices ----------------------------------
#
# ``algebra.check_bimodule`` before the actions were held by columns: each
# action of a combination of basis elements a dense matrix, each
# composition a ``mat_mul``, in the same loop order.

def _check_one_sided(mod, matrices, side, check_id, anchor):
    a = mod.algebra
    unit_m = action_matrix(matrices, list(a.unit))
    if unit_m != identity_mat(mod.dim):
        return failed(check_id, anchor, {"axiom": f"{side}-unit"})
    for i in range(a.dim):
        for j in range(a.dim):
            prod = mult(a, basis_vec(a.dim, i), basis_vec(a.dim, j))
            m_prod = action_matrix(matrices, prod)
            if side == "left":
                m_comp = mat_mul(matrices[i], matrices[j])
            else:
                m_comp = mat_mul(matrices[j], matrices[i])
            if m_prod != m_comp:
                return failed(check_id, anchor,
                              {"axiom": f"{side}-associativity", "pair": [i, j]})
    return None


def check_bimodule(m):
    """Unitality, action associativity and left/right commutation, all
    basis tuples, on the dense action matrices."""
    left, right = actions(m, "left"), actions(m, "right")
    for side, mats in (("left", left), ("right", right)):
        bad = _check_one_sided(m, mats, side, "check-bimodule",
                               anchors.BIMODULE)
        if bad is not None:
            return bad
    for i in range(m.algebra.dim):
        for j in range(m.algebra.dim):
            if mat_mul(right[j], left[i]) != mat_mul(left[i], right[j]):
                return failed("check-bimodule", anchors.BIMODULE,
                              {"axiom": "left-right-commutation", "pair": [i, j]})
    return passed("check-bimodule", anchors.BIMODULE, {"dim": m.dim})


# -- the dense operator route -----------------------------------------------
#
# A right-Ω operator as a dim T_r × dim M ``DomainMatrix``, each extension
# formed densely through representatives (``extension_columns``), and a
# composition the product of an extension by the right factor.  The
# matrices stay DomainMatrices between products; ``matrix`` and
# ``ext_matrix`` hand out the dense rows the tests compare.  ``omega_hat``
# and ``raw_ops`` replay ``OmegaHat`` and κ's raw operators.


@dataclass
class DenseRHom:
    """A degree-r right-Ω operator as a DomainMatrix ``dm``; its extensions
    are computed once per instance."""

    forms: object
    degree: int
    dm: DomainMatrix
    _ext: dict = field(default_factory=dict, repr=False)

    @cached_property
    def matrix(self):
        """The operator as dense rows."""
        return _rows(self.dm)

    def ext_dm(self, s):
        """The extension T_s → T_{degree+s}, Φ(a⊗ω) = Φ(a)·ω."""
        if s == 0:
            return self.dm
        if s not in self._ext:
            f = self.forms
            free = f.quotient_space(s).free
            self._ext[s] = _dm(extension_columns(f, self.degree, self.matrix,
                                                 s, free), len(free))
        return self._ext[s]

    def ext_matrix(self, s):
        """The extension as dense rows."""
        return _rows(self.ext_dm(s))

    def compose(self, other):
        return DenseRHom(self.forms, self.degree + other.degree,
                         self.ext_dm(other.degree) * other.dm)

    def add(self, other):
        return DenseRHom(self.forms, self.degree, self.dm + other.dm)

    def scale(self, c):
        return DenseRHom(self.forms, self.degree, self.dm * QQ.dtype(c))


class DenseRoute:
    """The dense operator route on one connection; ∇'s extensions are
    those of ∇ as a dense degree-1 map, through representatives."""

    def __init__(self, c):
        self.c = c
        self._nabla = DenseRHom(c.forms, 1,
                                _dm(nabla_matrix(c), c.module.dim))

    def kappa0(self, f_vec):
        c = self.c
        return DenseRHom(c.forms, 0, _dm(
            action_matrix(actions(c.module, "left"), f_vec), c.module.dim))

    def nabla_hat(self, phi):
        """∇̂Φ = ∇∘Φ − (−1)^r Φ∘∇."""
        first = self._nabla.ext_dm(phi.degree) * phi.dm
        second = phi.ext_dm(1) * self._nabla.dm
        return DenseRHom(self.c.forms, phi.degree + 1,
                         first - second if phi.degree % 2 == 0
                         else first + second)

    def curvature(self, r):
        """∇∘∇: T_r → T_{r+2}, a DomainMatrix."""
        return self._nabla.ext_dm(r + 1) * self._nabla.ext_dm(r)


def right_linearity_witness(op):
    """``DegreeRHom.right_linearity_witness`` on dense vectors: for each
    module basis vector a, then each algebra basis vector f, Φ applied to
    a·f against Φ(a)·f, multiplied through representatives
    (``mult_class``)."""
    f = op.forms
    m, a = f.module, f.algebra
    for ai in range(m.dim):
        av = basis_vec(m.dim, ai)
        img = apply(op, av)
        for fi in range(a.dim):
            fv = basis_vec(a.dim, fi)
            if apply(op, act_right(m, av, fv)) != \
                    mult_class(f, op.degree, img, 0, fv):
                return (ai, fi)
    return None


def omega_hat(route):
    """``OmegaHat`` on the dense route: (T by degree, the basis of Ω̂ by
    degree, the witness of the derivation identity, the witness of the
    square identity), each witness in the verdict's shape or None."""
    c = route.c
    f = c.forms
    D = f.D
    a = c.module.algebra

    def key(op):
        return [op.matrix[i][g] for i in range(f.dim(op.degree))
                for g in f.generators]

    gens = []
    found = [route.kappa0(basis_vec(a.dim, i)) for i in range(a.dim)]
    for r in range(D + 1):
        span = Span(f.dim(r) * len(f.generators))
        gens.append([op for op in found if span.add(key(op))])
        if r < D:
            found = [route.nabla_hat(t) for t in gens[r]]
    spans = [Span(f.dim(r) * len(f.generators))
             for r in range(D + 1)]
    ops = [[] for _ in range(D + 1)]
    queue = []

    def try_add(op):
        if spans[op.degree].add(key(op)):
            ops[op.degree].append(op)
            queue.append(op)

    for t in gens[0]:
        try_add(t)
    for w in queue:
        for r in range(D + 1 - w.degree):
            for t in gens[r]:
                try_add(t.compose(w))
    derivation = square = None
    for r in range(D):
        sign = 1 if r % 2 == 0 else -1
        for ki, t in enumerate(gens[r]):
            dt = route.nabla_hat(t)
            for s in range(D - r):
                for kj, w in enumerate(ops[s]):
                    lhs = route.nabla_hat(t.compose(w))
                    rhs = dt.compose(w).add(
                        t.compose(route.nabla_hat(w)).scale(sign))
                    if derivation is None and \
                            not (lhs.dm - rhs.dm).is_zero_matrix:
                        derivation = {"degrees": [r, s], "basis": [ki, kj]}
    for r in range(D - 1):
        for k, t in enumerate(gens[r]):
            lhs = route.nabla_hat(route.nabla_hat(t)).dm
            rhs = route.curvature(r) * t.dm - \
                t.ext_dm(2) * route.curvature(0)
            if square is None and not (lhs - rhs).is_zero_matrix:
                square = {"degree": r, "basis": k}
    return gens, ops, derivation, square


def raw_ops(route):
    """``InducedCalculus``'s raw operators on the dense route: f̂ for each
    e_i0, then each monomial's degree-(r−1) prefix composed with ∇̂ê_j."""
    c = route.c
    uni = c.calculus.universal
    a = c.module.algebra
    d_ops = {j: route.nabla_hat(route.kappa0(basis_vec(a.dim, j)))
             for j in uni.complement}
    raw = []
    prev = {}
    for r in range(uni.D + 1):
        ops, pos = [], {}
        for k, (i0, beta) in enumerate(bar_index(uni, r)):
            ops.append(route.kappa0(basis_vec(a.dim, i0)) if r == 0 else
                       raw[r - 1][prev[i0, beta[:-1]]].compose(
                           d_ops[beta[-1]]))
            pos[i0, beta] = k
        raw.append(ops)
        prev = pos
    return raw


# -- the extension of a map on M, through representatives -----------------

def concat_tu(f, r, tu, beta):
    """Right multiplication of a T^u_r vector by the pure tail
    de_j1⋯de_js (concatenation)."""
    s = len(beta)
    nt_r, nt_out = f.n_tails(r), f.n_tails(r + s)
    tails_r = f.uni.tails(r)
    pos = {b: k for k, b in enumerate(f.uni.tails(r + s))}
    out = zeros(f.tu_dim(r + s))
    for flat, c in enumerate(tu):
        if c:
            m_i, bidx = divmod(flat, nt_r)
            out[m_i * nt_out + pos[tails_r[bidx] + beta]] = c
    return out


def extension_columns(f, r, phi, s, indices):
    """``Forms.extension_columns`` by lift, concatenation and a dense
    projection per column: the column of m_i⊗de_β is the class of the lift
    of Φ(m_i) with β concatenated."""
    q = f.quotient_space(r + s)
    tails = f.uni.tails(s)
    imgs = [lift(f.quotient_space(r), [row[i] for row in phi])
            for i in range(f.module.dim)]
    cols = []
    for flat in indices:
        m_i, bidx = divmod(flat, f.n_tails(s))
        tu = concat_tu(f, r, imgs[m_i], tails[bidx])
        cols.append(mat_vec(projection(q), tu) if q.sub else tu)
    return [[col[k] for col in cols] for k in range(q.dim)]


# -- Ω̂, J and the ∇-extension, decided on whole spans --------------------
#
# Ω̂ as the fixpoint of ∇̂ and two-sided composition over all of Ω̂; the
# derivation identity on every pair of spanning operators, the square
# identity and J-closure on every spanning operator, and the graded Leibniz
# rule for ω in every degree s.


def omega_hat_ops(c):
    """A basis of Ω̂_r for every r: each operator that enlarges its degree's
    span is combined with ∇̂ and, on both sides, with every operator known
    at that time."""
    f = c.forms
    a = c.module.algebra
    spans = [Span(f.dim(r) * c.module.dim)
             for r in range(f.D + 1)]
    ops = [[] for _ in range(f.D + 1)]
    queue = []

    def try_add(op):
        if spans[op.degree].add([x for row in dense(op) for x in row]):
            ops[op.degree].append(op)
            queue.append(op)

    for i in range(a.dim):
        try_add(kappa0_op(c, {i: 1}))
    while queue:
        op = queue.pop(0)
        r = op.degree
        if r + 1 <= f.D:
            try_add(nabla_hat(c, op))
        for s in range(f.D + 1 - r):
            for other in list(ops[s]):
                try_add(op.compose(other))
                try_add(other.compose(op))
    return ops


def derivation_holds(c, phi, psi):
    """∇̂(Φ∘Ψ) = (∇̂Φ)∘Ψ + (−1)^r Φ∘(∇̂Ψ), r the degree of Φ."""
    sign = 1 if phi.degree % 2 == 0 else -1
    lhs = nabla_hat(c, phi.compose(psi))
    rhs = nabla_hat(c, phi).compose(psi).add(
        scaled(phi.compose(nabla_hat(c, psi)), sign))
    return dense(lhs) == dense(rhs)


def square_holds(c, phi):
    """∇̂²Φ = ∇²∘Φ − Φ∘∇² on M."""
    lhs = dense(nabla_hat(c, nabla_hat(c, phi)))
    rhs1 = mat_mul(curvature_matrix(c, phi.degree), dense(phi))
    rhs2 = mat_mul(ext_matrix(phi, 2), curvature_matrix(c, 0))
    return lhs == [[x - y for x, y in zip(rx, ry)]
                   for rx, ry in zip(rhs1, rhs2)]


def leibniz_holds(c, r, qi, s, wi):
    """∇(q·ω) = (∇q)·ω + (−1)^r q·dω for q the qi-th basis vector of T_r
    and ω the wi-th basis vector of Ω^s."""
    f = c.forms
    cal = c.calculus
    sign = 1 if r % 2 == 0 else -1
    q = zeros(f.dim(r))
    q[qi] = 1
    w = zeros(cal.dim(s))
    w[wi] = 1
    lhs = mat_vec(nabla_ext(c, r + s), mult_class(f, r, q, s, w))
    rhs = [x + sign * y for x, y in zip(
        mult_class(f, r + 1, mat_vec(nabla_ext(c, r), q), s, w),
        mult_class(f, r, q, s + 1, d_class(cal, s, w)))]
    return lhs == rhs


def graded_derivation(c, ops):
    """The derivation identity on every pair of spanning operators."""
    D = c.forms.D
    for r in range(D):
        for ki, phi in enumerate(ops[r]):
            for s in range(D - r):
                for kj, psi in enumerate(ops[s]):
                    if not derivation_holds(c, phi, psi):
                        return {"degrees": [r, s], "basis": [ki, kj]}
    return None


def squared_identity(c, ops):
    """The square identity on every spanning operator."""
    for r in range(c.forms.D - 1):
        for k, phi in enumerate(ops[r]):
            if not square_holds(c, phi):
                return {"degree": r, "basis": k}
    return None


def j_spans(c, ops):
    """J_r as a ``Span`` per degree, spanned by (∇̂²Φ)(a)·ω
    for Φ in ``ops``, a a basis vector of M and ω a basis vector of
    Ω^s."""
    f = c.forms
    D = f.D
    cal = c.calculus
    builders = [Span(f.dim(r)) for r in range(D + 1)]
    for p in range(D - 1):
        for phi in ops[p]:
            sq = nabla_hat(c, nabla_hat(c, phi))
            for ai in range(c.module.dim):
                base = apply(sq, basis_vec(c.module.dim, ai))
                builders[p + 2].add(base)
                for s in range(1, D - p - 1):
                    for wi in range(cal.dim(s)):
                        w = zeros(cal.dim(s))
                        w[wi] = 1
                        builders[p + 2 + s].add(
                            mult_class(f, p + 2, base, s, w))
    return builders


def j_ideal_spans(c, omega_hat):
    """J_r as a ``Span`` per degree, by ``j_ideal``'s loop
    before it skipped the zero columns: every column of ∇²∘Φ − Φ∘∇², for Φ
    in ``omega_hat``'s basis of Ω̂_p, is added and multiplied on the right
    by every basis vector of Ω^s, the right multiplication densified."""
    f = c.forms
    D = f.D
    builders = [Span(f.dim(r)) for r in range(D + 1)]
    for p in range(D - 1):
        for phi in omega_hat.ops(p):
            for col in _square_hat(c, phi):
                base = _col_vec(col, f.dim(p + 2))
                builders[p + 2].add(base)
                for s in range(1, D - p - 1):
                    for w in identity_mat(c.calculus.dim(s)):
                        right = _to_mat(f.right_mult_cols(
                            p + 2, s, sparse_class(w)), f.dim(p + 2 + s))
                        builders[p + 2 + s].add(mat_vec(right, base))
    return builders


def curvature_right_omega(c, omega_m):
    """∇²(m·ω) = ∇²(m)·ω on Ω(M), for basis vectors m of M and ω of Ω^s, by
    ``OmegaM``'s loop before it skipped a zero curvature factor: both
    sides built for every ω, as dense matrices from the cached curvature
    columns, and compared at m by m, then ω."""
    f = c.forms
    r2 = _to_mat(c.curvature_cols(0), f.dim(2))
    for s in range(1, f.D - 1):
        curv = _to_mat(c.curvature_cols(s), f.dim(s + 2))
        proj = projection(omega_m.quotients[s + 2])
        sides = [
            (mat_mul(proj, mat_mul(curv, _to_mat(f.right_mult_cols(
                0, s, {wi: 1}), f.dim(s)))),
             mat_mul(proj, mat_mul(_to_mat(f.right_mult_cols(
                 2, s, {wi: 1}), f.dim(s + 2)), r2)))
            for wi in range(c.calculus.dim(s))]
        for mi in range(c.module.dim):
            for wi, (lhs, rhs) in enumerate(sides):
                if [row[mi] for row in lhs] != [row[mi] for row in rhs]:
                    return {"degree": s, "basis": [mi, wi]}
    return None


def j_degrees_01(c, ops):
    """J⁰ = J¹ = 0, with the dims of J as the witness otherwise."""
    dims = [b.dim for b in j_spans(c, ops)]
    return {"dims": dims} if dims[0] or dims[1] else None


def j_closure(c, ops):
    """∇J ⊆ J, f·J ⊆ J and Φ(J) ⊆ J for every spanning operator Φ of
    degree ≥ 1, on every basis vector of J."""
    f = c.forms
    D = f.D
    builders = j_spans(c, ops)
    for r in range(2, D + 1):
        for k, v in enumerate(builders[r].basis):
            if r + 1 <= D and not builders[r + 1].contains(
                    mat_vec(nabla_ext(c, r), v)):
                return {"op": "nabla", "degree": r, "basis": k}
            for i in range(c.module.algebra.dim):
                left = f.hats[i].ext_cols(r)
                if not builders[r].contains(
                        mat_vec(_to_mat(left, f.dim(r)), v)):
                    return {"op": "left", "degree": r, "basis": k,
                            "algebra_basis": i}
            for p in range(1, D - r + 1):
                for kp, phi in enumerate(ops[p]):
                    if not builders[r + p].contains(
                            mat_vec(ext_matrix(phi, r), v)):
                        return {"op": "omega-hat", "degrees": [p, r],
                                "basis": [kp, k]}
    return None


def graded_leibniz(c):
    """The graded Leibniz rule on basis pairs (q, ω), for ω in every degree
    s ≥ 1 with r + s < D."""
    f = c.forms
    for r in range(f.D):
        for s in range(1, f.D - r):
            for qi in range(f.dim(r)):
                for wi in range(c.calculus.dim(s)):
                    if not leibniz_holds(c, r, qi, s, wi):
                        return {"degrees": [r, s], "basis": [qi, wi]}
    return None


# -- the right Leibniz checks, per basis pair -----------------------------


def mult_tu_by_bar(f, r, tu, s, omega_bar):
    """(element of T^u_r)·(degree-s universal element) → T^u_{r+s}, summed
    densely over ``Forms._product_terms`` at tu's nonzeros."""
    out = zeros(f.tu_dim(r + s))
    omega_terms = sparse_class(omega_bar)
    for flat, c in enumerate(tu):
        if c:
            for at, x in f._product_terms(r, flat, s, omega_terms):
                out[at] += c * x
    return out


def class_of_pair_bar(f, r, m_vec, u_bar):
    """The class in T_r of m⊗u, m in M and u in degree-r bar coordinates:
    the product in T^u projected densely."""
    return project(f.quotient_space(r), mult_tu_by_bar(f, 0, m_vec, r, u_bar))


def class_product(cal, r, u, s, v):
    """The product of the classes u of Ω^r and v of Ω^s via
    representatives: lift both, multiply in the universal calculus and
    project."""
    bar = product(cal.universal, r, lift(cal.quotients[r], u),
                  s, lift(cal.quotients[s], v))
    return project(cal.quotients[r + s], bar)


def mult_class(f, r, q, s, omega):
    """(T_r class q)·(Ω^s class ω), via representatives: lift both, multiply
    on T^u and project."""
    omega_bar = lift(f.calculus.quotients[s], omega)
    tu = mult_tu_by_bar(f, r, lift(f.quotient_space(r), q), s, omega_bar)
    return project(f.quotient_space(r + s), tu)


def right_leibniz(c):
    """∇(a·f) = (∇a)·f + a⊗df on basis pairs of M and A."""
    m, a, f = c.module, c.module.algebra, c.forms
    for ai in range(m.dim):
        av = basis_vec(m.dim, ai)
        na = nabla_apply(c, av)
        for fi in range(a.dim):
            fv = basis_vec(a.dim, fi)
            lhs = nabla_apply(c, act_right(m, av, fv))
            rhs = vec_add(mult_class(f, 1, na, 0, fv), class_of_pair_bar(
                f, 1, av, d_bar(c.calculus.universal, 0, fv)))
            if lhs != rhs:
                return {"module_basis": ai, "algebra_basis": fi}
    return None


def graded_leibniz_degree_one(c):
    """The graded Leibniz rule on basis pairs (q, ω), ω in Ω¹, r ≤ D−2."""
    f = c.forms
    for r in range(f.D - 1):
        for qi in range(f.dim(r)):
            for wi in range(c.calculus.dim(1)):
                if not leibniz_holds(c, r, qi, 1, wi):
                    return {"degrees": [r, 1], "basis": [qi, wi]}
    return None


def omega_m_right_leibniz(c, omega_m):
    """∇̄(ξ̄·f) = (∇̄ξ̄)·f + ξ̄·df on Ω(M), at the lift of each basis class
    of Ω(M)_r and each basis element f of A."""
    f = c.forms
    a = c.module.algebra
    for r in range(f.D):
        sign = 1 if r % 2 == 0 else -1
        nx = nabla_ext(c, r)
        for k, fc in enumerate(omega_m.quotients[r].free):
            v = zeros(f.dim(r))
            v[fc] = 1
            nv = mat_vec(nx, v)
            for fi in range(a.dim):
                fv = basis_vec(a.dim, fi)
                q = omega_m.quotients[r + 1]
                lhs = project(q, mat_vec(nx, mult_class(f, r, v, 0, fv)))
                rhs = vec_add(mult_class(f, r + 1, nv, 0, fv),
                              [sign * x for x in mult_class(
                                  f, r, v, 1, d_of_algebra(c.calculus, fv))])
                if lhs != project(q, rhs):
                    return {"degree": r, "basis": [k, fi]}
    return None


# -- κ₁'s bimodule linearity, per basis triple ----------------------------
#
# The loop ``kappa1`` replaced: f·α·g, κ₁(α) and the two action matrices are
# rebuilt for every triple (f, g, α), α a unit vector, where ``kappa1``
# builds κ₁(α) once per α and reads f·α·g off the columns of fl·gr.

def kappa1_bimodule_linear(k):
    """κ₁(f·α·g) = f̂∘κ₁(α)∘ĝ on basis triples."""
    c = k.connection
    uni = c.calculus.universal
    a = c.module.algebra
    n = uni.bar_dim(1)
    for f in range(a.dim):
        fl = _to_mat(uni.left_cols(1, f), n)
        for g in range(a.dim):
            gr = _to_mat(uni.right_cols(1, g), n)
            for bi in range(uni.bar_dim(1)):
                alpha = zeros(uni.bar_dim(1))
                alpha[bi] = 1
                moved = mat_vec(fl, mat_vec(gr, alpha))
                lhs = dense(k.op(_sparse(moved)))
                fm = _to_mat(c.forms.hats[f].ext_cols(1), c.forms.dim(1))
                rhs = mat_mul(fm, mat_mul(dense(k.op({bi: 1})),
                                          actions(c.module, "left")[g]))
                if lhs != rhs:
                    return {"triple": [f, g, bi]}
    return None


# -- κ₁ by coordinates in Ω¹_∇, and σ by factor_through ---------------------
#
# The basis of Ω¹_∇ is the f̂∘∇̂(ĝ)∘ĥ that enlarge its span, in (f, g, h)
# order: the n³ spanning set of Ω¹_∇'s definition, which
# ``induced_first_order`` never builds, reading Ω¹_∇ as κ₁'s image.

def flatten(op):
    """A ``DegreeRHom`` as ``DegreeRHom.flat`` lays it out, dense: its
    matrix T_r × M row by row."""
    return [x for row in dense(op) for x in row]


def kappa1_coords(k1):
    """(κ₁'s matrix, the accepted operators): column u of the matrix holds
    the coordinates of ``k1.ops[u]`` in the accepted operators, found by
    ``Span.coords``."""
    c = k1.connection
    a = c.module.algebra
    hats = [kappa0_op(c, {i: 1}) for i in range(a.dim)]
    d_ops = [nabla_hat(c, h) for h in hats]
    span = Span(c.forms.dim(1) * c.module.dim)
    accepted = []
    for f, g, h in itertools.product(range(a.dim), repeat=3):
        op = hats[f].compose(d_ops[g].compose(hats[h]))
        if span.add(flatten(op)):
            accepted.append(op)
    cols = [span.coords(flatten(op)) for op in k1.ops]
    assert None not in cols, "kappa1 image must lie in omega1_nabla"
    return cols_to_mat(cols, span.dim), accepted


def sigma(k1):
    """(exists, witness_bar, matrix) of ``sigma_exists``: h and the witness
    from ``factor_through(P₁, κ₁'s matrix)``, and σ's matrix read off the
    operators Σ h[k][wi]·(accepted k), one per class wi of Ω¹."""
    c = k1.connection
    cal = c.calculus
    mat, accepted = kappa1_coords(k1)
    h, wit = factor_through(projection(cal.quotients[1]), mat,
                            cal.universal.bar_dim(1))
    if h is None:
        return False, wit, None
    t1, width = c.forms.dim(1), c.module.dim
    plain = []
    for wi in range(cal.dim(1)):
        op = zero_mat(t1, width)
        for row, acc in zip(h, accepted):
            if row[wi]:
                op = [[x + row[wi] * y for x, y in zip(r0, r1)]
                      for r0, r1 in zip(op, dense(acc))]
        plain += [[r[i] for r in op] for i in range(width)]
    tens = balanced_tensor(cal.degree_bimodule(1), c.module)
    return True, None, at_free(tens.quotient, cols_to_mat(plain, t1))


# -- the unit complement ------------------------------------------------------

def unit_complement(a):
    """(complement, π) of ``UniversalCalculus._unit_complement`` by the span
    route it replaced: the unit, then each basis vector that enlarges the
    span, is the basis; π(e_k) is e_k's coordinates in it past the unit's,
    found by ``Span.coords``."""
    span = Span(a.dim)
    span.add(list(a.unit))
    comp = [i for i in range(a.dim) if span.add(basis_vec(a.dim, i))]
    pi = [sparse_class(span.coords(e)[1:]) for e in identity_mat(a.dim)]
    return comp, pi


# -- ideal saturation -------------------------------------------------------

def saturate_ideal(uni, generators):
    """The FIFO worklist that expands each new vector v by e_i·v and v·e_i,
    dv, and de_j·v and v·de_j for j in the unit complement, every image
    formed in tensor-power coordinates (``_embedding``) and brought back by
    ``from_emb``, so no column table of ``UniversalCalculus`` is read.  The
    spans are ``Span``s, whose ``basis`` holds the accepted vectors in
    order.  No image is
    formed into a degree whose span is already full when the vector is
    taken from the queue: that span rejects it anyway, so the spans are
    the same.  The generators are (degree, sparse bar vector) pairs, as
    ``calculus.saturate_ideal`` takes them."""
    a = uni.algebra
    spans = [Span(uni.bar_dim(r)) for r in range(uni.D + 1)]
    queue = deque()
    for deg, bar in generators:
        bar = _col_vec(bar, uni.bar_dim(deg))
        if spans[deg].add(bar):
            queue.append((deg, bar))
    fs = [to_emb(uni, 0, f) for f in identity_mat(a.dim)]
    des = [d_emb(a, f, 0) for f in (fs[j] for j in uni.complement)]
    while queue:
        r, v = queue.popleft()
        v_emb = to_emb(uni, r, v)
        images = []
        if spans[r].dim < uni.bar_dim(r):
            for f in fs:
                images.append((r, product_emb(a, f, 0, v_emb, r)))
                images.append((r, product_emb(a, v_emb, r, f, 0)))
        if r < uni.D and spans[r + 1].dim < uni.bar_dim(r + 1):
            images.append((r + 1, d_emb(a, v_emb, r)))
            for de in des:
                images.append((r + 1, product_emb(a, de, 1, v_emb, r)))
                images.append((r + 1, product_emb(a, v_emb, r, de, 1)))
        for s, w in images:
            w = _col_vec(uni.from_emb(s, w), uni.bar_dim(s))
            if spans[s].add(w):
                queue.append((s, w))
    return spans


# -- the partial order ⪯ ----------------------------------------------------

def preceq(c1, c2):
    """(ρ, None) or (None, (degree, witness)) as ``calculus.preceq``, with
    ρ densified: I₂ ⊆ I₁ decided against a ``Span`` of I₁'s basis,
    densified, the witness the first basis vector of I₂, densified, that
    it does not contain, and ρ_r the h with h·P₂ = P₁ that
    ``factor_through`` solves for."""
    for r in range(1, c1.D + 1):
        n = c1.universal.bar_dim(r)
        i1 = Span(n)
        for v in dense_vecs(c1.ideal[r], n):
            i1.add(v)
        for b in dense_vecs(c2.ideal[r], n):
            if not i1.contains(b):
                return None, (r, b)
    maps = [identity_mat(c1.algebra.dim)]
    for r in range(1, c1.D + 1):
        h, _ = factor_through(projection(c2.quotients[r]),
                              projection(c1.quotients[r]),
                              c1.universal.bar_dim(r))
        assert h is not None, "ideal inclusion should guarantee factoring"
        maps.append(h)
    return CalculusMorphism(c2, c1, maps), None


# -- Ω_∇ and the tensor routes ----------------------------------------------

def nu_hat_right_linear(nu):
    """The witness of ``nu-hat-right-linear``, or None: ν̂'s maps and the
    right multiplications of ``Forms`` densified and the squares multiplied
    by ``mat_mul``."""
    src, tgt = nu.source, nu.target
    maps = [_to_mat(m, tgt.dim(r)) for r, m in enumerate(nu.maps)]
    a = src.uni.algebra

    def right(f, r, s, w):
        return _to_mat(f.right_mult_cols(r, s, sparse_class(w)),
                       f.dim(r + s))

    for r in range(src.D + 1):
        for fi in range(a.dim):
            e_i = basis_vec(a.dim, fi)
            if mat_mul(maps[r], right(src, r, 0, e_i)) != \
                    mat_mul(right(tgt, r, 0, e_i), maps[r]):
                return {"degree": r, "algebra_basis": fi}
        if r + 1 > src.D:
            continue
        for j in src.uni.complement:
            de_src = d_of_algebra(src.calculus, basis_vec(a.dim, j))
            de_tgt = d_of_algebra(tgt.calculus, basis_vec(a.dim, j))
            lhs = mat_mul(right(tgt, r, 1, de_tgt), maps[r])
            rhs = mat_mul(maps[r + 1], right(src, r, 1, de_src))
            for col in range(src.dim(r)):
                if any(x[col] != y[col] for x, y in zip(lhs, rhs)):
                    return {"degree": r, "tail": j, "basis": col}
    return None


def balancing_relations(x, y):
    """``algebra.balancing_relations`` as dense plain-tensor vectors, each
    x_i·f and f·y_j applied by ``act_right`` and ``act_left``."""
    xd, yd = x.dim, y.dim
    rels = []
    a = x.algebra
    for i in range(xd):
        for fi in range(a.dim):
            f = basis_vec(a.dim, fi)
            xf = act_right(x, basis_vec(xd, i), f)
            for j in range(yd):
                fy = act_left(y, f, basis_vec(yd, j))
                rel = zeros(xd * yd)
                for k, c in enumerate(xf):
                    if c:
                        rel[k * yd + j] += c
                for l, c in enumerate(fy):
                    if c:
                        rel[i * yd + l] -= c
                if any(rel):
                    rels.append(rel)
    return rels


def balanced_tensor(x, y):
    """``algebra.tensor_over_A``, the span of ``balancing_relations`` read
    off their ``rref`` and the quotient by it taken by ``quotient``."""
    rels = balancing_relations(x, y)
    k, reduced, _ = rref(rels) if rels else (0, [], [])
    return BalancedTensor(x, y, quotient(x.dim * y.dim, reduced[:k]),
                          [{k: c for k, c in enumerate(rel) if c}
                           for rel in rels])


def tensor_class(f, tn, forms, v):
    """A dense vector of N ⊗ (M⊗_AΩ¹) as its class in (N⊗_AM)⊗_AΩ¹, T₁ of
    ``forms``, the Forms of N⊗_AM = ``tn``: v's entry at k·dim T₁ + q is
    the coefficient of b_k⊗q for the class q of M⊗_AΩ¹ = T₁ of ``f``.
    Each slice of v is lifted to its representative Σ x·m_a⊗de_γ, each
    b_k⊗m_a projected to N⊗_AM by ``project_pure``, the tail γ set after
    each of its classes, and the sum projected."""
    n, m = tn.left_factor, tn.right_factor
    t1, nt = f.dim(1), f.n_tails(1)
    out = zeros(forms.tu_dim(1))
    for k in range(n.dim):
        rep = lift(f.quotient_space(1), v[k * t1:(k + 1) * t1])
        for flat, x in enumerate(rep):
            if x:
                a, g = divmod(flat, nt)
                for cls, y in enumerate(project_pure(
                        tn, basis_vec(n.dim, k), basis_vec(m.dim, a))):
                    out[cls * nt + g] += x * y
    return project(forms.quotient_space(1), out)


def pure_pair_vectors(c, tn, forms, xi_forms, xi_list, tail_ops):
    """Per pure pair (j, i) of N⊗M, the class of ξ_j·a_i + b_j⊗∇a_i in
    (N⊗_AM)⊗_AΩ¹ as a dense vector: its vector in N ⊗ (M⊗_AΩ¹) filled in
    entry by entry, ξ_j a dense class of ``xi_forms`` lifted to its
    representative, then taken to its class by ``tensor_class``."""
    nt = xi_forms.n_tails(1)
    t1 = c.forms.dim(1)
    out = []
    for j, xi in enumerate(xi_list):
        terms = [(divmod(flat, nt), cc)
                 for flat, cc in enumerate(lift(xi_forms.quotient_space(1),
                                                xi))
                 if cc]
        for i in range(c.module.dim):
            v = zeros(tn.left_factor.dim * t1)
            for (k, bidx), cc in terms:
                for l, x in tail_ops[bidx][i].items():
                    v[k * t1 + l] += cc * x
            for l, x in c.nabla[i].items():
                v[j * t1 + l] += x
            out.append(tensor_class(c.forms, tn, forms, v))
    return out


def tensor_well_defined(c, tn, forms, xi_forms, xi_list, tail_ops):
    """The witness of ``tensor-connection-well-defined``, or None: the
    first of ``balancing_relations`` on which the dense
    ``pure_pair_vectors`` do not combine to zero."""
    mat = cols_to_mat(pure_pair_vectors(c, tn, forms, xi_forms, xi_list,
                                        tail_ops), forms.dim(1))
    for rel in balancing_relations(tn.left_factor, tn.right_factor):
        if not is_zero_vec(mat_vec(mat, rel)):
            return {"relation": rationals(rel)}
    return None


def tensor_matrix(c, tc, xi_forms, xi_list, tail_ops):
    """∇⊗ on classes as a dense matrix: the columns of
    ``pure_pair_vectors`` at the domain's ``free``."""
    forms = tc.built[1].forms
    return at_free(tc.domain.quotient, cols_to_mat(pure_pair_vectors(
        c, tc.domain, forms, xi_forms, xi_list, tail_ops), forms.dim(1)))


def associated_factors(rc, nu):
    """``factor_through``'s results for ∇′_M degree by degree, on ν̂ and
    ν̂∘∇′ multiplied densely: the list of (h, witness) up to the first
    absent degree."""
    src, tgt = nu.source, nu.target
    out = []
    for r in range(src.D):
        pushed = mat_mul(_to_mat(nu.maps[r + 1], tgt.dim(r + 1)),
                         _to_mat(rc.nabla_ext_cols(r), src.dim(r + 1)))
        out.append(factor_through(_to_mat(nu.maps[r], tgt.dim(r)), pushed,
                                  src.dim(r)))
        if out[-1][0] is None:
            break
    return out


def associated_square(rc, nu, ext_cols):
    """The witness of ``associated-square``, or None: ν̂∘∇′ and ∇′_M∘ν̂,
    ∇′_M given by columns, compared as dense products."""
    src, tgt = nu.source, nu.target
    for r in range(src.D):
        nu_r = _to_mat(nu.maps[r], tgt.dim(r))
        pushed = mat_mul(_to_mat(nu.maps[r + 1], tgt.dim(r + 1)),
                         _to_mat(rc.nabla_ext_cols(r), src.dim(r + 1)))
        if pushed != mat_mul(_to_mat(ext_cols[r], tgt.dim(r + 1)), nu_r):
            return {"degree": r}
    return None


# -- pure pairs through project_pure --------------------------------------

def pure(t, x, y):
    """Plain-tensor coordinates of x⊗y in the balanced tensor t."""
    out = zeros(t.plain_dim)
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            if ci and cj:
                out[t.pure_index(i, j)] = ci * cj
    return out


def project_pure(t, x, y):
    """The class of x⊗y in the balanced tensor t, its plain coordinates
    projected."""
    return project(t.quotient, pure(t, x, y))


def _pure(t, x, y):
    """The class of the basis pair x_j⊗y_i of t, by ``project_pure``."""
    return [[project_pure(t, basis_vec(x.dim, j), basis_vec(y.dim, i))
             for i in range(y.dim)] for j in range(x.dim)]


def degeneracy_submodules(n, m):
    """``tensorconn.degeneracy_submodules`` on N⊗_AM built afresh by
    ``balanced_tensor``, with the pairing maps stacked from dense classes
    of the basis pairs and the spans of N₀ and M₀ held by ``Span``s."""
    t = balanced_tensor(n, m)
    pure = _pure(t, n, m)
    n0 = null_space(cols_to_mat(
        [[x for i in range(m.dim) for x in pure[j][i]] for j in range(n.dim)],
        m.dim * t.dim), n.dim)
    m0 = null_space(cols_to_mat(
        [[x for j in range(n.dim) for x in pure[j][i]] for i in range(m.dim)],
        n.dim * t.dim), m.dim)
    pair = DegeneracyPair(n, m, t, n0, m0)
    a = m.algebra
    span_n = Span(n.dim)
    for v in n0:
        span_n.add(v)
    span_m = Span(m.dim)
    for v in m0:
        span_m.add(v)
    for v in n0:
        for fi in range(a.dim):
            if not span_n.contains(act_right(n, v, basis_vec(a.dim, fi))):
                pair.verdicts.append(failed(
                    "degeneracy-submodules", anchors.ASSUME_DEGENERACY,
                    {"side": "N0", "algebra_basis": fi,
                     "vector": rationals(v)}))
                return pair
    for v in m0:
        for fi in range(a.dim):
            fv = basis_vec(a.dim, fi)
            for moved, side in ((act_right(m, v, fv), "M0-right"),
                                (act_left(m, fv, v), "M0-left")):
                if not span_m.contains(moved):
                    pair.verdicts.append(failed(
                        "degeneracy-submodules", anchors.ASSUME_DEGENERACY,
                        {"side": side, "algebra_basis": fi,
                         "vector": rationals(v)}))
                    return pair
    pair.verdicts.append(passed("degeneracy-submodules",
                                anchors.ASSUME_DEGENERACY,
                                {"dim_n0": len(n0), "dim_m0": len(m0)}))
    return pair


def degeneracy_brute(pair):
    """``tensorconn.degeneracy_brute``, each basis pair tested zero as a
    dense class, the spans held by ``Span``s."""
    n, m = pair.left, pair.right
    pure = _pure(pair.tensor, n, m)
    n0_b = [j for j in range(n.dim)
            if all(is_zero_vec(pure[j][i]) for i in range(m.dim))]
    m0_b = [i for i in range(m.dim)
            if all(is_zero_vec(pure[j][i]) for j in range(n.dim))]
    span_n = Span(n.dim)
    for j in n0_b:
        span_n.add(basis_vec(n.dim, j))
    span_m = Span(m.dim)
    for i in m0_b:
        span_m.add(basis_vec(m.dim, i))
    ok = (span_n.dim == len(pair.n0)
          and all(span_n.contains(v) for v in pair.n0)
          and span_m.dim == len(pair.m0)
          and all(span_m.contains(v) for v in pair.m0))
    if not ok:
        return failed("degeneracy-brute-oracle", anchors.ASSUME_DEGENERACY,
                      {"kernel_dims": [len(pair.n0), len(pair.m0)],
                       "brute_dims": [span_n.dim, span_m.dim]})
    return passed("degeneracy-brute-oracle", anchors.ASSUME_DEGENERACY,
                  {"dim_n0": len(pair.n0), "dim_m0": len(pair.m0)})


def compatibility(c, rc, pair):
    """The witness of ``tensor-compatibility``, or None, on the reference
    ``pair``: per side, M₀ for ∇ and then N₀ for ∇′, ∇v for each basis
    vector v of the submodule against the ``Span`` of the classes v⊗u, u
    over the bar basis of Ω¹_u (``class_of_pair_bar``)."""
    for sub, conn, side in ((pair.m0, c, "M0"), (pair.n0, rc, "N0")):
        span = Span(conn.forms.dim(1))
        for u in identity_mat(conn.calculus.universal.bar_dim(1)):
            for v in sub:
                span.add(class_of_pair_bar(conn.forms, 1, v, u))
        for v in sub:
            if not span.contains(nabla_apply(conn, v)):
                return {"side": side, "vector": rationals(v)}
    return None


def sigma_apply(c, s, cls):
    """σ (a ``SigmaMap`` of ∇ = c) applied to a dense class of Ω¹⊗_AM, as
    its matrix: σ's columns densified."""
    return mat_vec(_to_mat(s.cols, c.forms.dim(1)), cls)


def tail_bars(uni):
    """Bar coordinates of 1·de_j per degree-one tail (j): d(e_j) itself,
    since π(e_j) is a unit vector for j in the unit complement."""
    return [d_bar(uni, 0, basis_vec(uni.algebra.dim, j))
            for j in uni.complement]


def sigma_route(tc, rc, c, sigma):
    """The witness of ``tensor-route-agreement``, or None: per pure pair
    (b_j, a_i), (id_N⊗σ)(∇′b_j)·a_i + b_j⊗∇a_i as a dense vector
    (``pure_pair_vectors``, the tail β acting on a_i by σ's matrix at the
    class of 1·de_β⊗a_i), against ∇⊗ applied to the pair's dense class."""
    n, m = rc.module, c.module
    s = sigma.sigma
    cal = c.calculus
    tail_ops = []
    for bar in tail_bars(cal.universal):
        cls = project(cal.quotients[1], bar)
        tail_ops.append([_sparse(sigma_apply(c, s, project_pure(
            s.tensor, cls, basis_vec(m.dim, i)))) for i in range(m.dim)])
    xi = [nabla_apply(rc, basis_vec(n.dim, j)) for j in range(n.dim)]
    forms = tc.built[1].forms
    plain = pure_pair_vectors(c, tc.domain, forms, rc.forms, xi, tail_ops)
    pure_classes = _pure(tc.domain, n, m)
    for j in range(n.dim):
        for i in range(m.dim):
            if plain[j * m.dim + i] != combine(tc.built[1].nabla,
                                               pure_classes[j][i],
                                               forms.dim(1)):
                return {"pair": [j, i]}
    return None


# -- the left Leibniz rule, per basis pair --------------------------------
#
# The route ``connection._left_leibniz_failure`` took before it compared
# maps by columns: per basis pair (f, a), ∇(f·a) against X(f, a) + f·∇a on
# dense vectors, f acting on M⊗_AΩ¹ by its action densified, where
# X(f, a) is (d_∇f)(a) (``d_nabla_x``) or σ(df⊗a), σ's matrix applied to
# the class of df⊗a formed by ``project_pure`` (``sigma_x``).

def left_leibniz(c, x):
    """The first basis pair [f, ai], by f and then ai, at which
    ∇(f·a_i) = x(f, a_i) + f·∇a_i fails, or None."""
    m = c.module
    a = m.algebra
    for f in range(a.dim):
        fv = basis_vec(a.dim, f)
        left = _to_mat(c.forms.hats[f].ext_cols(1), c.forms.dim(1))
        for ai in range(m.dim):
            av = basis_vec(m.dim, ai)
            lhs = nabla_apply(c, act_left(m, fv, av))
            rhs = vec_add(x(f, av), mat_vec(left, nabla_apply(c, av)))
            if lhs != rhs:
                return [f, ai]
    return None


def d_nabla_x(c):
    """X(f, a) = (d_∇e_f)(a) = (∇̂ê_f)(a), the left rule of
    ``left-leibniz-induced``."""
    a = c.module.algebra
    ops = [nabla_hat(c, kappa0_op(c, {i: 1})) for i in range(a.dim)]
    return lambda f, av: apply(ops[f], av)


def sigma_x(c, s):
    """X(f, a) = σ(de_f⊗a), the left rule of ``sigma-left-leibniz``."""
    dfs = [d_of_algebra(c.calculus, e)
           for e in identity_mat(c.module.algebra.dim)]
    return lambda f, av: sigma_apply(c, s, project_pure(s.tensor, dfs[f], av))


# -- parsing -----------------------------------------------------------------

def parse_rational(value, path):
    """``model.parse_rational`` with every string read by ``Fraction``."""
    if not isinstance(value, str):
        raise ModelError(path, f"expected a rational string, got {value!r}")
    if "e" in value or "E" in value:
        raise ModelError(path, f"exponent notation is not accepted: {value!r}")
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(path, f"not a rational: {value!r} ({exc})") from None
    return _exact(f)


# -- rendering ---------------------------------------------------------------

def render_json(report):
    """``Report.to_json`` as ``json.dumps`` of ``to_dict``, indented."""
    return json.dumps(report.to_dict(), indent=2)


def render_text(report):
    """``Report.to_text`` with each payload made ``jsonable`` and written
    by ``json.dumps``."""
    lines = []
    for r in report.records:
        line = f"[{r.status.upper():^11}] {r.check_id} ({r.anchor})"
        if r.dims:
            line += "  dims=" + json.dumps(jsonable(r.dims), sort_keys=True)
        if r.witness is not None:
            line += "  witness=" + json.dumps(jsonable(r.witness))
        lines.append(line)
    lines.append(f"summary: {report.summary}")
    return "\n".join(lines)
