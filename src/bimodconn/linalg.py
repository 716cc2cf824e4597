"""Exact linear algebra over arbitrary-precision rationals.

An entry is an ``int`` when its value is integral and a
:class:`fractions.Fraction` when it is not, so integral data (every shipped
model) runs in plain int arithmetic.  Parsed values, quotients and the
results of elimination are normalized so; a sum or product with a
non-integral operand may still hold an integral value as a Fraction, which
compares and hashes equal to the int.

Every vector and every column of every linear map is one format,
``SparseVec``: a dict from index to nonzero entry.  A map is held by its
columns (``Cols``, one SparseVec per column): the structure maps of the
universal calculus, the projection of every :class:`QuotientSpace`
(column i is the class of e_i), d on classes, a bimodule's actions, ∇,
every map on M⊗_AΩ (``forms``, ``connection``), κ̄, the operators that
span Ω¹_∇ and those of κ₁, σ, ν̂, ∇⊗, ∇′_M and ·f on a balanced tensor.
``_col_sum`` is the one sum of columns, ``_apply`` is that sum at a
vector's nonzeros and ``_compose`` is ``_apply`` at each column of the
map applied first, so a map costs the nonzeros met; a basis element
enters as its index, its image the map's column there.  No caller hands
``_col_sum`` an empty term list: an empty column, a zero operator or a
product with no term gives {} without a call.  No stored column holds a
zero entry, so equal maps have equal columns, whatever the order of
their keys.  Order matters in two places only: a hash key of a map sorts
each column's items (``forms.DegreeRHom.key`` and the key of
``Forms.right_mult_cols``), and ``_kernel`` reads each column by
ascending row index, so the eliminator meets a map's rows in one order.
Dense matrices (lists of rows) remain only at intake, where ``_to_cols``
converts a model's actions and ∇ once, and where a report prints σ,
which ``_to_mat`` densifies.  A span takes SparseVecs only, and a
quotient is ``SpanBuilder.quotient`` (the whole space is
``SpanBuilder(n).quotient()``).  A span's basis is sparse too: the
``sub`` of a :class:`QuotientSpace` (an ideal, M⊗I, J or a kernel) holds
the SparseVecs the eliminator accepted, and a witness it prints is
densified once, by ``_col_vec``.

One eliminator keeps sparse rows, ``dict[column, entry]``, reduced and
keyed by pivot, so reducing a vector touches only the rows at the pivots
in its support, and beside them a column index (per column, the pivots
of the rows that hold it), so clearing a new pivot touches only the rows
that hold it: a span costs the rows it changes, not the rows it stores
(one m2_grass parse clears 486 new pivots from 44 held rows;
``NEW_PIVOTS_M2`` and ``HOLDERS_M2`` in tests/test_linalg.py pin both).
``SpanBuilder`` holds them and hands them out by pivot
(``reduced_rows``), ``row_reduce`` reads its RREF off them, and
``null_space`` and ``kernel_quotient`` read a map's kernel off one
elimination of the rows of its columns, sparse, so no kernel densifies
its map or its vectors.  No check calls ``row_reduce``, ``LinSolver`` or
``mat_vec`` any more; they stay as public and profiled names.
``_sparse`` finds the nonzeros of a dense row with
``itertools.compress`` and does Python-level work only on those.
Everything is exact: the one division, :func:`_div`, returns an int or a
Fraction, never a float, so every equality test in the rest of the
package is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

Vec = list[int | Fraction]
Mat = list[list[int | Fraction]]
# A sparse vector, or a column of a map: index ↦ nonzero entry.
SparseVec = dict[int, int | Fraction]
# A linear map by its columns, one SparseVec per column.
Cols = list[SparseVec]


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


def _col_sum(terms: list[tuple[SparseVec, int | Fraction]]) -> SparseVec:
    """Σ c·col over the (col, c) terms, each c nonzero, with the cancelled
    entries dropped, in one pass over the entries met.  No caller hands it
    an empty term list, and a single term with c = 1 is that column itself,
    which the caller must not change."""
    if len(terms) == 1:
        col, c = terms[0]
        return col if c == 1 else {row: c * x for row, x in col.items()}
    acc: SparseVec = {}
    for col, c in terms:
        for row, x in col.items():
            acc[row] = acc[row] + c * x if row in acc else c * x
    return {row: x for row, x in acc.items() if x}


def _apply(cols: Cols, v: SparseVec) -> SparseVec:
    """The map with columns ``cols`` at the sparse vector v: the
    ``_col_sum`` of its columns at v's nonzeros, the empty ones left out,
    and {} without a call when none is left."""
    terms = [(col, c) for x, c in v.items() if (col := cols[x])]
    return _col_sum(terms) if terms else {}


def _compose(a: Cols, b: Cols) -> Cols:
    """a∘b by columns (b applied first): a applied to each column of b, an
    empty column {} without a call."""
    return [_apply(a, col) if col else {} for col in b]


def _col_vec(v: SparseVec, n: int) -> Vec:
    """A sparse vector as a dense one of length n."""
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return out


def _to_cols(m: Mat, n_cols: int) -> Cols:
    """The sparse columns of a matrix with n_cols columns."""
    return [{i: row[j] for i, row in enumerate(m) if row[j]}
            for j in range(n_cols)]


def _to_mat(cols: Cols, n_rows: int) -> Mat:
    """The dense matrix, with n_rows rows, of sparse columns."""
    out = zero_mat(n_rows, len(cols))
    for j, col in enumerate(cols):
        for i, x in col.items():
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
    rref = [_col_vec({j: _exact(x) for j, x in rows[pc].items()}, n_cols)
            for pc in pivots]
    rref += [[0] * n_cols for _ in range(len(matrix) - len(pivots))]
    return len(pivots), rref, pivots


def null_space(cols: Cols) -> list[SparseVec]:
    """Basis of the kernel of a map given by its sparse columns, from one
    elimination of its rows (``_kernel``), held sparse: for each free
    column fc ascending, e_fc − Σ row_pc[fc]·e_pc over the reduced rows,
    keyed by their pivots pc."""
    return list(_kernel(cols, range(len(cols))).values())


@dataclass(frozen=True)
class QuotientSpace:
    """total / span(sub), with a deterministic projection and lift.

    ``proj_cols`` is the projection by sparse columns: column i is the class
    of e_i, which is {k: 1} for i = free[k] and holds the few nonzeros of
    −row at the pivot i of a reduced row of sub; a vector's class combines
    those columns at its nonzeros.  ``sub`` is the independent basis the
    quotient was taken by, held sparse as the eliminator accepted it (no
    zero entry), and ``free`` the columns of total (the pivot complement of
    sub) whose unit vectors represent the quotient basis: class k lifts to
    e_{free[k]}.  So a map m on total, composed with that lift, is m's
    columns at ``free``, and the map it induces on classes is read off
    those columns (``induced``).
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
        # the transform block's rows, sparse, for fast repeated solves
        self._t_rows = [_sparse(row[self.n_cols:]) for row in rref]

    def solve(self, b: Vec) -> Vec | None:
        """One solution of A x = b, or None when inconsistent."""
        if len(b) != self.n_rows:
            raise DimensionError("rhs length mismatch")
        tb = [sum([c * b[j] for j, c in trow.items() if b[j]])
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
    range(ambient_dim)) and leave it unchanged.  A full span reduces
    nothing.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, SparseVec] = {}
        self._held: _Held = {}              # the column index of _rows
        self._added: list[SparseVec] = []   # independent inserted vectors

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, v: SparseVec) -> bool:
        """Add v; True when it enlarged the span."""
        if len(self._rows) == self.ambient_dim or \
                not _absorb(self._rows, self._held, v.copy()):
            return False
        self._added.append(v.copy())
        return True

    def contains(self, v: SparseVec) -> bool:
        return not _reduce(self._rows, v.copy())

    def reduced_rows(self) -> list[SparseVec]:
        """The span's RREF rows by ascending pivot, shared: no caller may
        change them, and a later ``add`` may."""
        return [self._rows[pc] for pc in sorted(self._rows)]

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
    pos = {fc: k for k, fc in enumerate(free)}
    # every entry of a row but its pivot is in a free column
    cols = [{pos[i]: 1} if i in pos else
            {pos[j]: -_exact(x) for j, x in rows[i].items() if j != i}
            for i in range(n)]
    return QuotientSpace(sub, free, cols)


def _kernel(cols: Cols, at: range) -> dict[int, SparseVec]:
    """The kernel of a map given by its n sparse columns, from one
    elimination of its rows with column u at index at[u] (at a permutation
    of range(n)): the column u at each non-pivot index gives the kernel
    vector e_u − Σ (row's entry at that index)·e_(column at row's pivot),
    keyed by u ascending and held sparse.  Each column is read by ascending
    row index, so the rows reach the eliminator in one order (by the first
    column that holds them, then by index, the sparsest first), whatever
    the order of a column's keys."""
    n = len(cols)
    by_row: dict[int, SparseVec] = {}
    for k, col in zip(at, cols):
        for i in sorted(col):
            by_row.setdefault(i, {})[k] = col[i]
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
    kernel, the span of ``null_space(cols)``, with ``sub`` the kernel's
    RREF rows, sparse, from one elimination of the map's rows.  The rows
    are reduced with column u at index n−1−u, so each kernel vector of
    ``_kernel`` is zero at every other non-pivot u and has its first
    nonzero at u: these vectors are the kernel's RREF."""
    n = len(cols)
    kernel = _kernel(cols, range(n - 1, -1, -1))
    return _quotient_of_rows(n, kernel, list(kernel.values()))
