"""Exact linear algebra over arbitrary-precision rationals.

An entry is an ``int`` when its value is integral and a
:class:`fractions.Fraction` when it is not, so integral data (every shipped
model) runs in plain int arithmetic.  Parsed values, quotients and the
results of elimination are normalized so; a sum or product with a
non-integral operand may still hold an integral value as a Fraction, which
compares and hashes equal to the int.

Every linear map the package stores is stored by columns (``Cols``: per
column, its nonzero (row, entry) pairs sorted by row), and dense only for
inputs, printed maps and dense solvers.  That covers the structure maps of
the universal calculus, the projection of every :class:`QuotientSpace`
(column i is the class of the unit vector e_i), every map on M⊗_AΩ (see
``forms`` and ``connection``), κ̄ (``curvature.InducedCalculus``) and the
operators that span Ω¹_∇.  Such a map is applied by ``_combine`` at the
nonzeros of a dense vector, composed by ``_compose`` and summed by
``_col_sum``, so its cost is the number of nonzeros met.  Dense matrices
(lists of rows) remain for the model's actions and ∇, for the small maps on
classes (κ₁, σ and those a report prints), and for ``row_reduce``,
``null_space``, ``rank`` and ``factor_through``; ``_to_cols`` and
``_to_mat`` convert between the two forms.  Inside elimination (``row_reduce``,
``SpanBuilder``) rows are sparse, ``dict[column, entry]``; ``SpanBuilder``
keeps its rows reduced and keyed by pivot, so reducing a vector touches only
the rows at the pivots in its support.  The kernels (``mat_vec``,
``mat_mul``, ``_sparse``, ``_combine``) find the nonzeros of a dense row
with ``itertools.compress``, at C speed, and do Python-level work only on
those.  Everything is computed exactly: the one division, :func:`_div`,
returns an int or a Fraction, never a float, so every equality test in the
rest of the package is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

Vec = list[int | Fraction]
Mat = list[list[int | Fraction]]
# A sparse column: its nonzero (row, coeff) pairs, sorted by row.
Col = list[tuple[int, int | Fraction]]
# Sparse columns of a linear map, one Col per column.
Cols = list[Col]


class DimensionError(ValueError):
    """Raised when shapes or containments do not line up."""


class SurjectivityError(ValueError):
    """Raised when an operation requires a surjective map and got none."""


def _exact(c: int | Fraction) -> int | Fraction:
    """The entry of value c: an int when c is integral, else the Fraction.

    Parsed values, quotients and the results of elimination pass through
    here, so integral values stay in int arithmetic.
    """
    return c.numerator if c.denominator == 1 else c


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b exactly, as an entry: the only true division in the package,
    because ``/`` on two ints gives a float."""
    if type(a) is int and type(b) is int:
        q, rem = divmod(a, b)
        return Fraction(a, b) if rem else q
    return _exact(a / b)


def frac(x) -> int | Fraction:
    """Coerce ints, strings like '3/4', or Fractions to an entry."""
    if isinstance(x, bool):
        raise TypeError(f"not an exact rational: {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return _exact(x)
    if isinstance(x, str):
        return _exact(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


def zeros(n: int) -> Vec:
    return [0] * n


def zero_mat(r: int, c: int) -> Mat:
    return [zeros(c) for _ in range(r)]


def _cols_to_mat(cols: list[Vec], n_rows: int) -> Mat:
    """The matrix with the given columns (n_rows rows even with none)."""
    return [[col[row] for col in cols] for row in range(n_rows)]


def identity_mat(n: int) -> Mat:
    m = zero_mat(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v, strict=True)]


SparseVec = dict[int, int | Fraction]


def _sparse(v: Vec) -> SparseVec:
    return {j: v[j] for j in compress(range(len(v)), v)}


def _eliminate(v: SparseVec, c: int | Fraction, row: SparseVec) -> None:
    """v -= c·row in place; entries that cancel are dropped."""
    nc = -c
    for j, b in row.items():
        x = v.get(j)
        if x is None:
            v[j] = nc * b
        elif x := x + nc * b:
            v[j] = x
        else:
            del v[j]


def _combine(cols: Cols, v: Vec, n_rows: int) -> Vec:
    """Σ v_x·(column x) over v's nonzeros."""
    out = [0] * n_rows
    for x in compress(range(len(v)), v):
        c = v[x]
        for row, cc in cols[x]:
            out[row] += c * cc
    return out


def _col_sum(terms: list[tuple[Col, int | Fraction]]) -> Col:
    """Σ c·col over the (col, c) terms, each c nonzero, as one sparse column
    sorted by row with the cancelled entries dropped; a single term with
    c = 1 is that column itself, which the caller must not change."""
    if len(terms) == 1:
        col, c = terms[0]
        return col if c == 1 else [(row, c * x) for row, x in col]
    acc: dict[int, int | Fraction] = {}
    for col, c in terms:
        for row, x in col:
            acc[row] = acc.get(row, 0) + c * x
    return sorted([(row, x) for row, x in acc.items() if x])


def _compose(a: Cols, b: Cols) -> Cols:
    """a∘b by columns (b applied first): column i combines a's columns at
    the nonzeros of b's column i."""
    return [_col_sum([(a[k], c) for k, c in col]) for col in b]


def _col_vec(col: Col, n_rows: int) -> Vec:
    """A sparse column as a dense vector of length n_rows."""
    out = [0] * n_rows
    for row, x in col:
        out[row] = x
    return out


def _to_cols(m: Mat, n_cols: int) -> Cols:
    """The sparse columns of a matrix with n_cols columns."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]]
            for j in range(n_cols)]


def _to_mat(cols: Cols, n_rows: int) -> Mat:
    """The dense matrix, with n_rows rows, of sparse columns."""
    out = zero_mat(n_rows, len(cols))
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def mat_vec(m: Mat, v: Vec) -> Vec:
    if m and len(m[0]) != len(v):
        raise DimensionError("matrix-vector shape mismatch")
    nz = [(j, v[j]) for j in compress(range(len(v)), v)]
    if not nz:
        return [0] * len(m)
    return [sum([x * c for j, c in nz if (x := row[j])]) for row in m]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a·b row by row: row i is the sum of a[i][k]·b[k] over the nonzeros
    a[i][k], each b[k] taken at its nonzeros."""
    if a and b and len(a[0]) != len(b):
        raise DimensionError("matrix product shape mismatch")
    n = len(b[0]) if b else 0
    b_nz = {k: [(j, b[k][j]) for j in compress(range(n), b[k])]
            for k in compress(range(len(b)), map(any, b))}
    out = [[0] * n for _ in a]
    for i in compress(range(len(a)), map(any, a)):
        arow, acc = a[i], out[i]
        for k in compress(range(len(arow)), arow):
            c = arow[k]
            for j, x in b_nz.get(k, ()):
                acc[j] += c * x
    return out


def row_reduce(matrix: Mat) -> tuple[int, Mat, list[int]]:
    """Reduced row echelon form with exact arithmetic.

    Returns (rank, rref, pivot_columns).  Deterministic given the input row
    order: pivots are chosen left to right, first nonzero row wins.
    """
    m = [_sparse(row) for row in matrix]
    n_rows = len(m)
    n_cols = len(matrix[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        pr = next((i for i in range(r, n_rows) if c in m[i]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = {j: _div(x, pv) for j, x in m[r].items()}
        for i in range(n_rows):
            if i != r and c in m[i]:
                _eliminate(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
    rref = []
    for row in m:
        dense = [0] * n_cols
        for j, x in row.items():
            dense[j] = _exact(x)
        rref.append(dense)
    return r, rref, pivots


def null_space(matrix: Mat, n_cols: int) -> list[Vec]:
    """Basis of {x : matrix @ x = 0} for a matrix with n_cols columns,
    deterministic (free columns ascending)."""
    rows = [r for r in matrix if any(r)]
    rank, rref, pivots = row_reduce(rows) if rows else (0, [], [])
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = zeros(n_cols)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def rank(matrix: Mat) -> int:
    return row_reduce(matrix)[0] if matrix else 0


@dataclass(frozen=True)
class QuotientSpace:
    """total / span(sub), with a deterministic projection and lift.

    ``proj_cols`` is the projection by sparse columns: column i is the class
    of e_i, which is [(k, 1)] for i = free[k] and holds the few nonzeros of
    −row at the pivot i of a reduced row of sub.  ``project`` combines those
    columns at v's nonzeros, and a caller that needs the class of one unit
    vector reads its column.  ``sub`` is the independent basis the quotient
    was taken by, and ``free`` the columns of total (the pivot complement of
    sub) whose unit vectors represent the quotient basis: lift(e_k) =
    e_{free[k]}.  So a map m on total, composed with ``lift``, is m's
    columns at ``free``, and the map it induces on classes is read off
    those columns (``columns``, ``induced``).
    """

    sub: list[Vec]
    free: list[int]
    proj_cols: Cols

    @property
    def dim(self) -> int:
        return len(self.free)

    def columns(self, m: Mat) -> Mat:
        """m·lift: the columns of the dense matrix m at ``free``."""
        return [[row[fc] for fc in self.free] for row in m]

    def induced(self, m: Cols, target: "QuotientSpace") -> Cols:
        """The map of classes that m, from this total space to target's and
        given by columns, induces: m's columns at ``free``, each projected
        through ``target.proj_cols``."""
        return _compose(target.proj_cols, [m[fc] for fc in self.free])

    def project(self, v: Vec) -> Vec:
        if len(v) != len(self.sub) + self.dim:
            raise DimensionError("not a vector of the total space")
        if not self.sub:
            return v[:]
        return _combine(self.proj_cols, v, self.dim)

    def lift(self, q: Vec) -> Vec:
        if len(q) != self.dim:
            raise DimensionError("not a vector of the quotient")
        v = zeros(len(self.sub) + self.dim)
        for fc, x in zip(self.free, q):
            v[fc] = x
        return v


def quotient(total: int, sub: list[Vec]) -> QuotientSpace:
    """Quotient of the coordinate space of dimension `total` by the span of
    the independent vectors `sub`: one ``SpanBuilder`` pass, then
    :meth:`SpanBuilder.quotient`.

    The lift maps quotient coordinates to the pivot-complement basis of the
    reduced rows of sub, so results are reproducible given input ordering.
    """
    if any(len(v) != total for v in sub):
        raise DimensionError("sub is not presented inside total")
    span = SpanBuilder(total)
    for v in sub:
        if not span.add(v):
            raise DimensionError("sub basis is degenerate")
    return span.quotient()


def factor_through(f: Mat, g: Mat, n: int) -> tuple[Mat | None, Vec | None]:
    """Factor g through the surjection f, both maps on an n-dimensional
    domain.

    Returns (h, None) with h∘f = g when kernel(f) ⊆ kernel(g); h is unique
    because f is surjective.  Otherwise returns (None, witness) with a vector
    in ker(f) \\ ker(g).  Raises SurjectivityError when f is not onto.
    """
    if any(len(row) != n for row in f) or any(len(row) != n for row in g):
        raise DimensionError("f and g must share a domain")
    if rank(f) != len(f):
        raise SurjectivityError("factor_through requires f surjective")
    for v in null_space(f, n):
        if not is_zero_vec(mat_vec(g, v)):
            return None, v
    solver = LinSolver(f)
    cols = []
    for i in range(len(f)):
        e = zeros(len(f))
        e[i] = 1
        x = solver.solve(e)
        assert x is not None  # f surjective
        cols.append(mat_vec(g, x))
    return [[col[k] for col in cols] for k in range(len(g))], None


class LinSolver:
    """Repeated exact solves of A x = b for a fixed matrix A."""

    def __init__(self, a: Mat):
        self.n_rows = len(a)
        self.n_cols = len(a[0]) if a else 0
        aug = [row[:] + [1 if i == j else 0 for j in range(self.n_rows)]
               for i, row in enumerate(a)]
        rank, rref, pivots = row_reduce(aug) if aug else (0, [], [])
        # keep only pivots within the A block
        self.pivots = [p for p in pivots if p < self.n_cols]
        self.rref = rref
        self.rank = len(self.pivots)
        # sparse view of the transform block, for fast repeated solves
        self._t_rows = [[(j, row[self.n_cols + j])
                         for j in range(self.n_rows) if row[self.n_cols + j]]
                        for row in rref]

    def solve(self, b: Vec) -> Vec | None:
        """One solution of A x = b, or None when inconsistent."""
        if len(b) != self.n_rows:
            raise DimensionError("rhs length mismatch")
        tb = [sum([c * b[j] for j, c in trow if b[j]])
              for trow in self._t_rows]
        for r in range(self.rank, len(self.rref)):
            if tb[r] != 0:
                return None
        x = zeros(self.n_cols)
        for r, pc in enumerate(self.pivots):
            x[pc] = _exact(tb[r])
        return x


class SpanBuilder:
    """Incrementally built span with a reduced echelon internal basis.

    ``add`` returns True when the vector enlarged the span; independent input
    vectors are remembered so callers can recover coordinates in terms of the
    vectors they actually inserted.  The reduced rows are kept by pivot, each
    with its expression in the inserted vectors; a row is 1 at its pivot and
    0 at every other pivot, so reducing v eliminates exactly the pivots in
    v's support, each by v's own entry there.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, tuple[SparseVec, SparseVec]] = {}
        self.basis: list[Vec] = []       # independent inserted vectors

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vec) -> tuple[SparseVec, SparseVec]:
        if len(v) != self.ambient_dim:
            raise DimensionError("vector does not live in the ambient space")
        res = _sparse(v)
        combo: SparseVec = {}
        for pc in [p for p in res if p in self._rows]:
            c = v[pc]
            row, expr = self._rows[pc]
            _eliminate(res, c, row)
            for k, ce in expr.items():
                combo[k] = combo.get(k, 0) + c * ce
        return res, combo

    def add(self, v: Vec) -> bool:
        res, combo = self._reduce(v)
        if not res:
            return False
        pc = min(res)
        idx = len(self.basis)
        self.basis.append(v[:])
        pv = res[pc]
        row = {j: _div(x, pv) for j, x in res.items()}
        # expression of `row` in inserted vectors: (v - combo·basis)/pv
        expr = {k: _div(-c, pv) for k, c in combo.items()}
        expr[idx] = _div(1, pv)
        # clear the new pivot from the other rows, keeping them reduced
        for other, other_expr in self._rows.values():
            c = other.get(pc)
            if c is not None:
                _eliminate(other, c, row)
                _eliminate(other_expr, c, expr)
        self._rows[pc] = (row, expr)
        return True

    def contains(self, v: Vec) -> bool:
        return not self._reduce(v)[0]

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of v in the inserted independent basis, or None."""
        res, combo = self._reduce(v)
        if res:
            return None
        out = zeros(len(self.basis))
        for k, c in combo.items():
            out[k] = _exact(c)
        return out

    def quotient(self) -> QuotientSpace:
        """The ambient space modulo this span, read off the reduced rows:
        they are the span's RREF, so e_i reduces to itself for a free column
        i and to e_i − row for the pivot i of a row, and the projection's
        column i is that remainder in the free coordinates."""
        free = [c for c in range(self.ambient_dim) if c not in self._rows]
        cols: Cols = [[] for _ in range(self.ambient_dim)]
        for k, fc in enumerate(free):
            cols[fc].append((k, 1))
        pos = {fc: k for k, fc in enumerate(free)}
        for pc, (row, _) in self._rows.items():
            # every entry but the pivot is in a free column
            cols[pc] = sorted((pos[j], -_exact(x))
                              for j, x in row.items() if j != pc)
        return QuotientSpace(self.basis[:], free, cols)
