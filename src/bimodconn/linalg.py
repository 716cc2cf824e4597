"""Exact linear algebra over arbitrary-precision rationals.

An entry is an ``int`` when its value is integral and a
:class:`fractions.Fraction` when it is not, so integral data (every shipped
model) runs in plain int arithmetic.  Parsed values, quotients and the
results of elimination are normalized so; a sum or product with a
non-integral operand may still hold an integral value as a Fraction, which
compares and hashes equal to the int.

Every linear map a check uses is stored by columns (``Cols``: per column,
its nonzero (row, entry) pairs sorted by row): the structure maps of the
universal calculus, the projection of every :class:`QuotientSpace` (column
i is the class of e_i), d on classes, a bimodule's actions, ∇, every map
on M⊗_AΩ (``forms``, ``connection``), κ̄, the operators that span Ω¹_∇ and
those of κ₁, σ, ν̂, ∇⊗, ∇′_M and ·f on a balanced tensor.  Such a map is
applied by ``_combine`` at the nonzeros of a dense vector, composed by
``_compose`` and summed by ``_col_sum``, so its cost is the number of
nonzeros met.  No caller hands ``_col_sum`` an empty term list: an empty
column (in ``_compose`` and the operator layer alike), a zero operator or
a product with no term gives [] without a call.  Dense matrices (lists of
rows) remain only at intake, where ``_to_cols`` converts a model's actions
and ∇ once, and where a report prints σ, which ``_to_mat`` densifies.  A
span's basis is sparse too: the ``sub`` of a :class:`QuotientSpace` (an
ideal, M⊗I, J or a kernel) holds the ``SparseVec``s the eliminator
accepted, a reader combines columns at their nonzeros (``_sparse_sum``),
and a witness it prints is densified once, by ``_col_vec``.

One eliminator keeps sparse rows, ``dict[column, entry]``, reduced and
keyed by pivot, so reducing a vector touches only the rows at the pivots
in its support, and beside them a column index (per
column, the pivots of the rows that hold it), so clearing a new pivot
touches only the rows that hold it: a span costs the rows it changes, not
the rows it stores (one m2_grass parse updates 67 stored rows over 454 new
pivots).  ``SpanBuilder`` holds them (sparse or dense intake),
``row_reduce`` reads its RREF off them, and ``null_space`` and
``kernel_quotient`` read a map's kernel off one elimination of the rows of
its columns, so no kernel witness densifies its map.  No check calls
``row_reduce``, ``rank``, ``LinSolver`` or ``mat_vec`` any more; they stay
as public and profiled names.  The kernels (``_sparse``, ``_combine``)
find the nonzeros of a dense row with ``itertools.compress`` and do
Python-level work only on those.  Everything is exact: the one
division, :func:`_div`, returns an int or a Fraction, never a float, so
every equality test in the rest of the package is decidable.
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


def identity_mat(n: int) -> Mat:
    m = zero_mat(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


SparseVec = dict[int, int | Fraction]
# The column index of reduced rows: per column j, the pivots of the rows
# that are nonzero at j, each row's own pivot left out.
_Held = dict[int, set[int]]


def _sparse(v: Vec) -> SparseVec:
    return {j: v[j] for j in compress(range(len(v)), v)}


def _eliminate(v: SparseVec, c: int | Fraction, row: SparseVec) -> None:
    """v -= c·row in place; entries that cancel are dropped."""
    nc = -c
    for j, b in row.items():
        if j not in v:
            v[j] = nc * b
        elif x := v[j] + nc * b:
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


def _sparse_sum(terms: list[tuple[Col, int | Fraction]]) -> SparseVec:
    """Σ c·col over the (col, c) terms, as a SparseVec with the cancelled
    entries dropped."""
    acc: SparseVec = {}
    for col, c in terms:
        for row, x in col:
            acc[row] = acc[row] + c * x if row in acc else c * x
    return {row: x for row, x in acc.items() if x}


def _col_sum(terms: list[tuple[Col, int | Fraction]]) -> Col:
    """Σ c·col over the (col, c) terms, each c nonzero, as one sparse column
    sorted by row with the cancelled entries dropped, in one pass over the
    entries met; no term gives [] and a single term with c = 1 is that
    column itself, which the caller must not change."""
    if len(terms) < 2:
        if not terms:
            return []
        col, c = terms[0]
        return col if c == 1 else [(row, c * x) for row, x in col]
    acc: SparseVec = {}
    for col, c in terms:
        for row, x in col:
            acc[row] = acc[row] + c * x if row in acc else c * x
    return sorted([(row, x) for row, x in acc.items() if x])


def _compose(a: Cols, b: Cols) -> Cols:
    """a∘b by columns (b applied first): column i combines a's columns at
    the nonzeros of b's column i, and an empty column of b is [] without
    a look at a."""
    return [_col_sum([(a[k], c) for k, c in col]) if col else []
            for col in b]


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


def row_reduce(matrix: Mat) -> tuple[int, Mat, list[int]]:
    """Reduced row echelon form with exact arithmetic.

    Returns (rank, rref, pivot_columns), the zero rows last.  The RREF is
    unique, so it is read off the rows ``_absorb`` builds, as in a
    ``SpanBuilder``, until they span every column.
    """
    n_cols = len(matrix[0]) if matrix else 0
    rows: dict[int, SparseVec] = {}
    held: _Held = {}
    for row in matrix:
        if len(rows) == n_cols:
            break
        _absorb(rows, held, _sparse(row))
    pivots = sorted(rows)
    rref = [_col_vec([(j, _exact(x)) for j, x in rows[pc].items()], n_cols)
            for pc in pivots]
    rref += [[0] * n_cols for _ in range(len(matrix) - len(pivots))]
    return len(pivots), rref, pivots


def null_space(cols: Cols) -> list[Vec]:
    """Basis of the kernel of a map given by its sparse columns, from one
    elimination of its rows (``_kernel``): for each free column fc
    ascending, e_fc − Σ row_pc[fc]·e_pc over the reduced rows, keyed by
    their pivots pc."""
    n = len(cols)
    return [_col_vec(v.items(), n)
            for v in _kernel(cols, range(n)).values()]


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
    was taken by, held sparse as the eliminator accepted it (no zero entry),
    and ``free`` the columns of total (the pivot complement of sub) whose
    unit vectors represent the quotient basis: lift(e_k) = e_{free[k]}.
    So a map m on total, composed with ``lift``, is m's columns at
    ``free``, and the map it induces on classes is read off those columns
    (``induced``).
    """

    sub: list[SparseVec]
    free: list[int]
    proj_cols: Cols

    @property
    def dim(self) -> int:
        return len(self.free)

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


def _reduce(rows: dict[int, SparseVec], res: SparseVec) -> SparseVec:
    """res modulo reduced rows, in place: each row, keyed by its pivot, is 1
    there and 0 at every other pivot, so eliminating the pivots in res's
    support, each by res's entry there, leaves no pivot in res."""
    for pc in [p for p in res if p in rows]:
        _eliminate(res, res[pc], rows[pc])
    return res


def _absorb(rows: dict[int, SparseVec], held: _Held, res: SparseVec) -> bool:
    """Reduce res modulo the rows; a nonzero residual becomes the row of its
    first column pc, scaled to 1 there, cleared from the other rows.  True
    when res enlarged their span.

    ``held`` indexes the rows by column, so clearing pc reads only the rows
    ``held[pc]`` names: it costs the rows changed, not the rows stored.
    The new row's non-pivot columns are registered; each cleared row drops
    pc, and its fill-in and cancelled entries (all at the new row's
    non-pivot columns, none at a pivot) enter and leave the index.  A
    row's update reads only that row and the new one, so the order in
    which the rows are cleared cannot change them."""
    if not _reduce(rows, res):
        return False
    pc = min(res)
    pv = res[pc]
    row = res if pv == 1 else {j: _div(x, pv) for j, x in res.items()}
    holders = held.pop(pc, None)
    for j in row:
        if j != pc:
            if j in held:
                held[j].add(pc)
            else:
                held[j] = {pc}
    if holders:
        tail = [(j, x) for j, x in row.items() if j != pc]
        for p in holders:
            other = rows[p]
            nc = -other.pop(pc)
            for j, x in tail:
                if j not in other:
                    other[j] = nc * x
                    held[j].add(p)
                elif y := other[j] + nc * x:
                    other[j] = y
                else:
                    del other[j]
                    held[j].remove(p)
    rows[pc] = row
    return True


class SpanBuilder:
    """Incrementally built span, kept as its reduced row echelon form
    ``_rows`` (see ``_absorb``); ``_added`` holds the vectors that enlarged
    it, in order, sparse; ``quotient`` hands out a copy of that list as its
    ``sub``, so a later ``add`` leaves that quotient as it was.

    ``add`` and ``contains`` take a ``SparseVec`` (no zero entry, keys in
    range(ambient_dim); left unchanged) or a ``Vec`` (its length checked,
    made sparse at once).  A full span reduces nothing.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, SparseVec] = {}
        self._held: _Held = {}              # the column index of _rows
        self._added: list[SparseVec] = []   # independent inserted vectors

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _intake(self, v: Vec | SparseVec) -> SparseVec:
        """A sparse copy of v for elimination to change."""
        if type(v) is dict:
            return v.copy()
        if len(v) != self.ambient_dim:
            raise DimensionError("vector does not live in the ambient space")
        return _sparse(v)

    def add(self, v: Vec | SparseVec) -> bool:
        """Add v; True when it enlarged the span."""
        res = self._intake(v)
        if len(self._rows) == self.ambient_dim or \
                not _absorb(self._rows, self._held, res):
            return False
        self._added.append(v.copy() if type(v) is dict else _sparse(v))
        return True

    def contains(self, v: Vec | SparseVec) -> bool:
        return not _reduce(self._rows, self._intake(v))

    def quotient(self) -> QuotientSpace:
        """The ambient space modulo this span, read off the reduced rows."""
        return _quotient_of_rows(self.ambient_dim, self._rows,
                                 self._added[:])


def _quotient_of_rows(n: int, rows: dict[int, SparseVec],
                      sub: list[SparseVec]) -> QuotientSpace:
    """The n-dimensional space modulo the span of sub, read off that span's
    RREF ``rows`` (keyed by pivot): e_i reduces to itself for a free column
    i and to e_i − row for the pivot i of a row, and the projection's
    column i is that remainder in the free coordinates."""
    free = [c for c in range(n) if c not in rows]
    cols: Cols = [[] for _ in range(n)]
    for k, fc in enumerate(free):
        cols[fc].append((k, 1))
    pos = {fc: k for k, fc in enumerate(free)}
    for pc, row in rows.items():
        # every entry but the pivot is in a free column
        cols[pc] = sorted((pos[j], -_exact(x))
                          for j, x in row.items() if j != pc)
    return QuotientSpace(sub, free, cols)


def _kernel(cols: Cols, at: range) -> dict[int, SparseVec]:
    """The kernel of a map given by its n sparse columns, from one
    elimination of its rows with column u at index at[u] (at a permutation
    of range(n)): the column u at each non-pivot index gives the kernel
    vector e_u − Σ (row's entry at that index)·e_(column at row's pivot),
    keyed by u ascending and held sparse."""
    n = len(cols)
    by_row: dict[int, SparseVec] = {}
    for k, col in zip(at, cols):
        for i, x in col:
            by_row.setdefault(i, {})[k] = x
    rows: dict[int, SparseVec] = {}
    held: _Held = {}
    # sparsest rows first: on ℂ[ℤ₅] at D=3 that keeps fill-in and the
    # rationals small enough to take a quarter off κ̄'s top degree
    for row in sorted(by_row.values(), key=len):
        if len(rows) == n:
            break
        _absorb(rows, held, row)
    col_at = {k: u for u, k in enumerate(at)}
    kernel = {u: {u: 1} for u, k in enumerate(at) if k not in rows}
    for p, row in rows.items():
        for k, x in row.items():
            if k != p:
                kernel[col_at[k]][col_at[p]] = _exact(-x)
    return kernel


def kernel_quotient(cols: Cols) -> QuotientSpace:
    """The domain of a map, given by its n sparse columns, modulo its
    kernel: ``quotient(n, null_space(cols))`` with ``sub`` the kernel's
    RREF rows, sparse, from one elimination of the map's rows.  The rows
    are reduced with column u at index n−1−u, so each kernel vector of
    ``_kernel`` is zero at every other non-pivot u and has its first
    nonzero at u: these vectors are the kernel's RREF."""
    n = len(cols)
    kernel = _kernel(cols, range(n - 1, -1, -1))
    return _quotient_of_rows(n, kernel, list(kernel.values()))
