"""Exact linear algebra: row reduction, kernels, quotients, factorization."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from _reference import (dense_vecs, identity_mat, lift, mat_mul, project,
                        sparse_class, vec_add)
from _shared import MODELS, NAMES, a2
from test_cli import GENERATED_PINS, _generated
import bimodconn
from bimodconn import cli, linalg, parse_model
from bimodconn.connection import Connection
from bimodconn.curvature import Pipeline
from bimodconn.forms import DegreeRHom, Forms
from bimodconn.linalg import (DimensionError, QuotientSpace, SpanBuilder,
                              _apply, _col_vec, _compose, _sparse, _to_cols,
                              _to_mat, frac, kernel_quotient, mat_vec,
                              null_space, row_reduce, zero_mat, zeros)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bimodconn"

F = Fraction


def test_frac_gives_int_when_integral_and_rejects_bool():
    assert [type(frac(x)) for x in [3, "4/2", F(6, 3), "1/2", F(1, 3)]] == \
        [int, int, int, F, F]
    # a bool is an int to Python, but would render as JSON true
    for bad in (True, False, 0.5, None):
        with pytest.raises(TypeError, match="not an exact rational"):
            frac(bad)


def test_only_true_division_is_the_linalg_helper():
    # `/` on two ints gives a float, so all division goes through _div
    outside, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_div"
                  and path.name == "linalg.py" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.Div):
                if id(node) in helper:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside == 1


def test_every_imported_name_is_used():
    # no linter runs on src/, so an import a refactor leaves behind is
    # caught here; __init__.py imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in sorted(imported - used)]
    assert unused == []


ELIMINATOR = {"SpanBuilder", "row_reduce", "null_space", "kernel_quotient",
              "LinSolver", "_absorb", "_reduce", "_kernel", "_eliminate"}


def test_the_references_name_no_routine_of_linalgs_eliminator():
    # the references eliminate by sympy alone, so a fault in linalg's
    # eliminator cannot reach both sides of a comparison: they import none
    # of its routines and not linalg itself, read no attribute so named,
    # and name one only where they define their own (_reference's sympy
    # null_space and kernel_quotient)
    found = []
    for name in ("_reference.py", "_embedding.py"):
        tree = ast.parse((TESTS / name).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named = {alias.name.split(".")[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            elif isinstance(node, ast.Name):
                named = {node.id} - defined
            else:
                continue
            found += [f"{name}:{node.lineno}:{x}"
                      for x in sorted(named & (ELIMINATOR | {"linalg"}))]
    assert found == []


def test_row_reduce_identity():
    rank, _, pivots = row_reduce([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_row_reduce_zero():
    rank, _, pivots = row_reduce([[0, 0, 0, 0], [0, 0, 0, 0]])
    assert rank == 0
    assert pivots == []


def test_row_reduce_rank_one():
    rank, reduced, pivots = row_reduce([[1, 2], [2, 4]])
    assert rank == 1
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]


def test_kernel_identity():
    assert null_space(_to_cols(identity_mat(3), 3)) == []


def test_kernel_zero_map():
    assert len(null_space(_to_cols(zero_mat(2, 2), 2))) == 2


def test_kernel_multiplication_map():
    # For the two-point algebra, ker(mu: A(x)A -> A) is spanned by
    # e1(x)e2 and e2(x)e1 inside the 4-dimensional plain tensor square.
    # The columns of mu are the structure constants e_i·e_j, index i·2 + j.
    a = a2()
    mu = [[a.structure[i][j][k] for i in range(2) for j in range(2)]
          for k in range(2)]
    ker = null_space(_to_cols(mu, 4))
    assert ker == [{1: 1}, {2: 1}]


def _span_quotient(n, vs):
    """``SpanBuilder(n).quotient()`` after adding the dense vectors vs,
    each made sparse first."""
    span = SpanBuilder(n)
    for v in vs:
        span.add(_sparse(v))
    return span.quotient()


def test_quotient_dimensions():
    q = _span_quotient(3, [[F(1), F(0), F(0)]])
    assert q.dim == 2
    # projection kills the subspace and splits the section exactly
    assert project(q, [F(5), F(0), F(0)]) == zeros(2)
    for k in range(2):
        e = zeros(2)
        e[k] = F(1)
        assert project(q, lift(q, e)) == e


def test_quotient_by_zero_and_by_all():
    assert SpanBuilder(2).quotient().dim == 2
    assert _span_quotient(2, [[F(1), F(0)], [F(0), F(1)]]).dim == 0


# the dense factorisation that the sparse reads of σ, ρ and ∇′_M are
# compared against (tests/_reference.py)

def test_factor_through_identity():
    i = identity_mat(2)
    h, wit = _reference.factor_through(i, i, 2)
    assert wit is None
    assert h == i


def test_factor_through_zero_always_factors():
    s = [[1, 1]]
    h, wit = _reference.factor_through(s, zero_mat(1, 2), 2)
    assert wit is None
    assert h == zero_mat(1, 1)


def test_factor_through_absent_with_witness():
    s = [[1, 1]]
    d = [[1, -1]]
    h, wit = _reference.factor_through(s, d, 2)
    assert h is None
    assert mat_vec(s, wit) == zeros(1)
    assert mat_vec(d, wit) != zeros(1)


def test_factor_through_rejects_bad_shapes_and_non_surjection():
    with pytest.raises(DimensionError, match="share a domain"):
        _reference.factor_through([[1, 1]], [[1, 1, 1]], 2)
    with pytest.raises(_reference.SurjectivityError):
        _reference.factor_through([[1, 1], [2, 2]], [[1, 1]], 2)


def test_rank_nullity():
    f = [[1, 2, 3], [2, 4, 6]]
    assert len(null_space(_to_cols(f, 3))) + row_reduce(f)[0] == 3


def test_wrong_length_vectors_are_rejected():
    for bad in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(DimensionError):
            mat_vec(identity_mat(3), bad)


# Oracle tests against sympy, on rationals that are not integral: every
# operand of the shipped models is, so the goldens never divide by a pivot
# other than 1.  Integral draws mix in, so that the int-typed copies of the
# draws meet Fraction operands.
ENTRIES = st.just(F(0)) | st.integers(-3, 3).map(F) | \
    st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def matrices(draw):
    """Small matrices with negative and fractional entries, zero rows and
    rows that are combinations of others, in any order."""
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(ENTRIES), draw(ENTRIES)
        u, v = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(u, v)])
    rows += [zeros(n_cols)] * draw(st.integers(0, 1))
    return draw(st.permutations(rows))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _frac(xs):
    return [F(int(x.p), int(x.q)) for x in xs]


def _sym_rank(rows):
    return _sym(rows).rank() if rows else 0


def _ints(v):
    """Int-typed copy of a draw: integral entries as int, as the package
    holds them; the oracle tests run on the draw and on this copy."""
    if isinstance(v, list):
        return [_ints(x) for x in v]
    return v.numerator if v.denominator == 1 else v


def _typed(v) -> bool:
    """Every entry an int exactly when it is integral."""
    if isinstance(v, list):
        return all(_typed(x) for x in v)
    return type(v) is (int if v.denominator == 1 else F)


@settings(deadline=None)
@given(matrices())
def test_row_reduce_and_null_space_match_sympy(m):
    n_cols = len(m[0])
    s_rref, s_pivots = _sym(m).rref()
    for rows in (m, _ints(m)):
        got_rank, rref, pivots = row_reduce(rows)
        assert pivots == list(s_pivots)
        assert got_rank == len(s_pivots)
        assert rref == [_frac(s_rref.row(i)) for i in range(len(m))]
        null = null_space(_to_cols(rows, n_cols))
        assert null == [dict(sparse_class(_frac(v)))
                        for v in _sym(m).nullspace()]
        assert _typed(rref) and _typed([list(v.values()) for v in null])


@settings(deadline=None)
@given(matrices(), st.data())
def test_quotient_splits_and_kills_sub(m, data):
    n = len(m[0])
    sub = []
    for v in m:
        if _sym_rank(sub + [v]) > len(sub):
            sub.append(v)
    cls = data.draw(st.lists(ENTRIES, min_size=n - len(sub),
                             max_size=n - len(sub)))
    results = []
    for rows, subs, c in ((m, sub, cls), (_ints(m), _ints(sub), _ints(cls))):
        q = _span_quotient(n, subs)
        assert q.dim == n - len(sub)
        assert _typed(_to_mat(q.proj_cols, q.dim))
        # induced reads m·lift off the columns at free
        lifts = [lift(q, e) for e in identity_mat(q.dim)]
        square = mat_mul([list(col) for col in zip(*rows)], rows)
        assert _to_mat(q.induced(_to_cols(square, n), q), q.dim) == \
            _reference.cols_to_mat([project(q, mat_vec(square, x))
                                    for x in lifts], q.dim)
        for s in subs:
            assert project(q, s) == zeros(q.dim)
        assert project(q, lift(q, c)) == c
        for v in rows:
            # v and lift(project(v)) differ by an element of span(sub)
            diff = vec_add(v, [-x for x in lift(q, project(q, v))])
            assert _sym_rank(sub + [diff]) == len(sub)
        results.append((q.proj_cols, q.free))
    assert results[0] == results[1]


@settings(deadline=None)
@given(matrices(), st.data())
def test_quotient_read_off_the_span_matches_the_row_reduce_reference(m, data):
    # SpanBuilder.quotient() on every row, dependent ones included,
    # against a second row reduction of the independent ones
    # (tests/_reference.py); a prefix of the rows, so sub may be empty
    n = len(m[0])
    rows = m[:data.draw(st.integers(0, len(m)))]
    for vs in (rows, _ints(rows)):
        span = SpanBuilder(n)
        basis = [v for v in vs if span.add(_sparse(v))]
        want = _reference.quotient(n, basis)
        q = span.quotient()
        assert (q.proj_cols, q.free) == (want.proj_cols, want.free)
        assert dense_vecs(q.sub, n) == basis
        assert _typed(_to_mat(q.proj_cols, q.dim))


@settings(deadline=None)
@given(matrices(), st.data())
def test_span_builder_matches_sympy(m, data):
    n = len(m[0])
    probe = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    for rows in (m + [probe], _ints(m + [probe])):
        span = SpanBuilder(n)
        added = [span.add(_sparse(v)) for v in rows[:-1]]
        assert span.dim == _sym_rank(m) == sum(added)
        for v in rows:
            inside = _sym_rank(m + [v]) == span.dim
            assert span.contains(_sparse(v)) == inside


# The sparse kernels against the dense ones they replaced
# (``tests/_reference.py``), on the draws above and on products of every
# shape, empty ones included.

def _assert_kernel_quotient(rows, n_cols):
    """kernel_quotient of the columns of rows against the quotient by the
    null space (tests/_reference.py), with the kernel's RREF as its sub."""
    cols = _to_cols(rows, n_cols)
    q = kernel_quotient(cols)
    want = _reference.kernel_quotient(cols, len(rows))
    assert (q.free, q.proj_cols) == (want.free, want.proj_cols)
    kernel = _reference.null_space(rows, n_cols)
    sub = dense_vecs(q.sub, n_cols)
    assert sub == (_reference.rref(kernel)[1] if kernel else [])
    assert _typed(sub) and _typed(_to_mat(q.proj_cols, q.dim))
    return q


@settings(deadline=None)
@given(matrices())
@example([[F(0), F(0), F(0)], [F(0), F(0), F(0)]])          # the zero map
@example([[F(1), F(2)], [F(0), F(1)], [F(1), F(1)]])        # injective
@example([[F(0), F(0)], [F(1), F(-2)], [F(0), F(0)]])       # empty rows
def test_kernel_quotient_is_the_quotient_by_the_null_space(m):
    n = len(m[0])
    for rows in (m, _ints(m)):
        q = _assert_kernel_quotient(rows, n)
        assert q.dim == _sym_rank(m)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5)
    .map(lambda rows: (rows, n))))
def test_kernel_quotient_on_int_maps(drawn):
    # int entries throughout, zero rows and no rows at all among the draws
    rows, n = drawn
    q = _assert_kernel_quotient(rows, n)
    assert q.dim == (_sym_rank([[F(x) for x in row] for row in rows]))


@st.composite
def products(draw):
    """(a, b) with a of shape n×k and b of shape k×m, each of n, k, m
    possibly 0, with a zero column of a and a zero row of b mixed in."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    a = [draw(st.lists(ENTRIES, min_size=k, max_size=k)) for _ in range(n)]
    b = [draw(st.lists(ENTRIES, min_size=m, max_size=m)) for _ in range(k)]
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        for row in a:
            row[j] = F(0)
        b[draw(st.integers(0, k - 1))] = [F(0)] * m
    return a, b


@settings(deadline=None)
@given(products())
def test_sparse_columns_compose_like_mat_mul(ab):
    # a·b by columns, as _compose builds it for every stored map: column j
    # combines a's columns at the nonzeros of b's column j; mat_mul is
    # sympy's product (tests/_reference.py)
    a, b = ab
    k, m = len(b), len(b[0]) if b else 0
    for x, y in ((a, b), (_ints(a), _ints(b))):
        x_cols, y_cols = _to_cols(x, k), _to_cols(y, m)
        assert _to_mat(x_cols, len(x)) == x
        assert [_col_vec(col, len(x)) for col in x_cols] == \
            [[row[j] for row in x] for j in range(k)]
        prod = _compose(x_cols, y_cols)
        assert _to_mat(prod, len(x)) == mat_mul(x, y)
        # cancelled entries dropped: equal maps, equal columns
        for col in prod:
            _assert_column(col)
        assert prod == _to_cols(mat_mul(x, y), m)


# The column kernels every stored map is combined by, against sums of dense
# vectors.  Draws hold no term at all, empty columns, terms that cancel to
# nothing, and negative and non-integral coefficients.
NONZERO = ENTRIES.filter(bool)


def _dense_sum(n: int, cols, coeffs):
    """Σ c·col over dense columns of length n."""
    out = zeros(n)
    for col, c in zip(cols, coeffs):
        out = vec_add(out, [c * x for x in col])
    return out


def _nonzeros(v):
    """A dense vector as a sparse column."""
    return {i: x for i, x in enumerate(v) if x}


@st.composite
def dense_terms(draw):
    """(n, columns, coefficients): dense columns of length n, some of them
    zero, each with a nonzero coefficient; a drawn term may be repeated with
    the opposite coefficient, so that the two cancel."""
    n = draw(st.integers(0, 5))
    cols = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n)
                         | st.just([F(0)] * n), max_size=4))
    coeffs = [draw(NONZERO) for _ in cols]
    for _ in range(draw(st.integers(0, 2)) if cols else 0):
        t = draw(st.integers(0, len(cols) - 1))
        cols.append(cols[t])
        coeffs.append(-coeffs[t])
    order = draw(st.permutations(range(len(cols))))
    return n, [cols[t] for t in order], [coeffs[t] for t in order]


def _assert_column(col) -> None:
    """A dict with no zero entry: equal maps keep equal columns."""
    assert type(col) is dict
    assert all(col.values())


@settings(deadline=None)
@given(dense_terms())
def test_col_sum_matches_the_dense_sum(drawn):
    # the one sum of the package, and `_apply`, which is that sum at a
    # vector's nonzeros, its empty columns left out
    n, cols, coeffs = drawn
    for cs, xs in ((cols, coeffs), (_ints(cols), _ints(coeffs))):
        terms = [(_nonzeros(col), c) for col, c in zip(cs, xs)]
        want = _nonzeros(_dense_sum(n, cs, xs))
        got = linalg._col_sum(terms)
        assert got == want
        _assert_column(got)
        # the terms in any order of their keys give the same column
        assert linalg._col_sum([(dict(reversed(col.items())), c)
                                for col, c in terms]) == want
        at = {x: c for x, (_, c) in enumerate(terms)}
        assert _apply([col for col, _ in terms], at) == want
        for col, c in terms:
            # a single term with c = 1 is the column itself, not a copy
            assert linalg._col_sum([(col, 1)]) is col
            assert linalg._col_sum([(col, c)]) == \
                _nonzeros([c * x for x in _col_vec(col, n)])
    assert _apply([], {}) == {}


@st.composite
def column_products(draw):
    """(n, a, b): k dense columns a of length n and m dense columns b of
    length k, with an empty column of b and a column of b that meets two
    equal columns of a with opposite coefficients, so that it cancels."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    a = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(k)]
    b = [draw(st.lists(ENTRIES, min_size=k, max_size=k)) for _ in range(m)]
    if k >= 2 and m and draw(st.booleans()):
        i, j = draw(st.permutations(range(k)))[:2]
        a[j] = a[i]
        c = draw(NONZERO)
        b[draw(st.integers(0, m - 1))] = [c if t == i else -c if t == j
                                          else F(0) for t in range(k)]
    if m and draw(st.booleans()):
        b[draw(st.integers(0, m - 1))] = [F(0)] * k
    return n, a, b


@settings(deadline=None)
@given(column_products())
def test_compose_matches_the_dense_combination(drawn):
    n, a, b = drawn
    for x, y in ((a, b), (_ints(a), _ints(b))):
        got = _compose([_nonzeros(col) for col in x],
                       [_nonzeros(col) for col in y])
        assert got == [_nonzeros(_dense_sum(n, x, col)) for col in y]
        for col in got:
            _assert_column(col)
    # an empty column of b never indexes a
    assert _compose([], [{}, {}]) == [{}, {}]


# `_col_sum` calls in one parse and `all` of m2_grass: 7,829 while every
# empty column and zero operator still cost a call; a skip that is lost
# shows here.  168 of them sum a nonempty side of right A-linearity (two
# sides per module basis vector and algebra basis vector).  5,243 while
# the bimodule axioms multiplied dense matrices; composing the module's
# action columns instead (and projecting ∇'s columns at intake) adds 279.
# 5,522 while Ω̂_D was built (250 more compositions) and curvature handed
# no term to 968 calls: κ̄ read at empty columns only (548 in κ's
# multiplicativity, 121 on I^r's basis, 169 on σ_u's products by de_j) and
# 130 zero raw operators projected.  4,304 while forms and connection still
# handed no term to 190 of them: 124 right multiplications by ω with no
# product term, 66 in κ₁ and its bimodule linearity at empty columns (over
# the four shipped models, 254 such calls, 4 of them tensorconn's at pure
# pairs of zero class).  4,114 while the left Leibniz rule and the
# early-quotient span of J were decided per basis pair on dense vectors:
# deciding them as identities of maps by columns adds 66 calls in
# left-leibniz-induced (44 for the compositions ∇∘L_f and L_f∘∇, 22 for
# the differences of the columns where a side is nonempty) and 42 in
# j_ideal (32 for ∇²∘L_f and L_f∘∇², 10 for the nonzero differences);
# m2_grass has no σ, so σ's left Leibniz rule adds none.  4,222 while the
# ideal was saturated by a worklist above degree 1: sigma-all-degrees reads
# κ̄ on every basis vector of I² and I³ (it kills both) and calls _col_sum
# for those with a term at a nonempty column of κ̄, 5 and 10 then; the
# closed form's basis (I^r's reduced rows with a tail slot appended, then
# A ⊗ W_r) is sparser, and 4 and 6 have such a term.  4,217 while every
# identity that holds for all f in A was decided on the whole algebra
# basis: deciding it on A's generators (e12 and e21) first takes 240 calls
# off κ₁'s bimodule linearity (its left and right halves replace the
# triple scan), 148 off Ω¹_∇ (right linearity of ∇̂ê_g and the derivation
# law), 96 off Ω(M)'s checks, 44 off the right Leibniz rule at parse, 42
# off κ's multiplicativity and 8 each off the curvature and J; the
# ∇-extension makes 8 more, for ·d(e11) on T₁ (d(e11) is a basis class of
# Ω¹), which Ω(M)'s right Leibniz rule built first while it read e11.
# 3,639 while the left action on M⊗_AΩ^r had a cache of its own beside
# op_cache: the ten left actions `all` built a second time that way (the
# extensions of κ₀(e_i) already in op_cache) made 40 calls in
# Forms.extension_columns.  3,599 while `_sparse_sum` was a second sum
# beside `_col_sum` and `_compose` summed every column of a it met: the 762
# `_sparse_sum` calls (380 of them over empty columns only) are `_col_sum`
# calls now, and `_apply`, which `_compose` applies to each column, leaves
# the empty columns out and makes no call when none is left (3,277 calls);
# `Bimodule._action_cols` and `Kappa1.op` apply their columns by `_apply`
# too, one call per nonempty column where a basis element with coefficient
# 1 gave the stored columns without a call (80 more).  3,357 while right
# Leibniz and right linearity were decided three ways: deciding each as
# Forms.right_rule_failure, one call per (column, ω) pair with a nonempty
# term and the empty columns left out, takes 5 off right-leibniz at parse
# (16 → 11), 20 off the ∇-extension (64 → 44), 13 off Ω(M)'s right
# Leibniz rule (40 → 27), 22 off right_linearity_witness (two sides per
# pair, 44 → 22) and 8 off curvature-right-omega-on-omega-m (its two
# composed and projected sides, 16 → 8); reading curvature-left-linear and
# the early-quotient span off [∇², ê_f] (_square_hat) adds 2 to the first
# (10 → 12) and takes 2 off the second (114 → 112).  3,289 while Ω¹_∇ was
# spanned a second time, by the 64 compositions f̂∘∇̂ĝ∘ĥ, beside κ₁ (whose
# operators, built either way, now give its dimension as κ₁'s image)
COL_SUM_CALLS_M2 = 3273


def test_empty_columns_and_zero_operators_cost_no_col_sum_call(monkeypatch):
    # every module's calls are counted (within linalg only _apply calls it,
    # and _compose through it), and no caller hands _col_sum an empty term
    # list
    calls, callers = [], set()

    def counting(terms, col_sum=linalg._col_sum):
        calls.append(terms)
        return col_sum(terms)

    for path in sorted(Path(bimodconn.__file__).parent.glob("*.py")):
        module = getattr(bimodconn, path.stem, None)
        if hasattr(module, "_col_sum"):
            monkeypatch.setattr(module, "_col_sum", counting)
            callers.add(path.stem)
    assert callers == {"calculus", "connection", "curvature", "forms",
                       "linalg", "tensorconn"}
    cli.run("all", parse_model(str(MODELS / "m2_grass.model")))
    assert len(calls) == COL_SUM_CALLS_M2
    assert all(calls)
    for name in ("a2_flat", "a2_quotient", "a2_twist"):
        calls.clear()
        cli.run("all", parse_model(str(MODELS / f"{name}.model")))
        assert calls and all(calls), name


def _stored_maps(built):
    """(kind, columns) of every map by columns that the recorded Forms,
    Connections, QuotientSpaces and Pipelines of a run hold."""
    for f in built[Forms]:
        uni = f.uni
        for cols in f.module.left_action + f.module.right_action:
            yield "actions", cols
        for cols in f._right_cols.values():
            yield "right multiplications", cols
        for op in f.op_cache.values():
            yield "operators", op.cols if isinstance(op, DegreeRHom) else op
        for cols in [*uni._d_cols, *uni._bar_cols, uni._pi,
                     *(c for t in uni._right_cols for c in t),
                     *(c for t in uni._left_cols.values() for c in t),
                     *f.calculus._d_cols.values()]:
            yield "calculus tables", cols
    for c in built[Connection]:
        for cols in c._ext_cols.values():
            yield "nabla", cols
        for op in c.nabla_hats.values():
            yield "nabla hats", op.cols
    for q in built[QuotientSpace]:
        yield "projections", q.proj_cols
    for p in built[Pipeline]:
        for cols in p.induced_calculus._columns:
            yield "kappa bar", cols
        if p.sigma.sigma is not None:
            yield "sigma", p.sigma.sigma.cols


@pytest.mark.parametrize("name", NAMES)
def test_no_stored_column_holds_a_zero_entry(monkeypatch, name):
    # map equality rests on one invariant: every column a run stores is a
    # dict with no zero entry, so equal maps have equal columns whatever
    # the order of their keys
    built = {Forms: [], Connection: [], QuotientSpace: [], Pipeline: []}
    for cls, seen in built.items():
        def recording_init(self, *args, init=cls.__init__, seen=seen):
            init(self, *args)
            seen.append(self)
        monkeypatch.setattr(cls, "__init__", recording_init)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    kinds = set()
    for kind, cols in _stored_maps(built):
        for col in cols:
            _assert_column(col)
        kinds.add(kind)
    assert kinds >= {"actions", "right multiplications", "operators",
                     "calculus tables", "nabla", "nabla hats", "projections",
                     "kappa bar"}
    assert ("sigma" in kinds) == any(p.sigma.exists for p in built[Pipeline])


# `_to_cols` and `_to_mat` calls in one parse and `all`, by the module that
# makes them: a bimodule's actions (algebra, one call per action of a basis
# element) and ∇ (model) are converted to columns once, at intake, and only
# σ, which a report prints, is densified (in cli, where it is printed).
# While the actions and ∇ were held dense, m2_grass made 77 and 3 such
# calls and a2_flat 64 and 18; while ρ was densified in calculus, m2_grass
# made 3 `_to_mat` calls there and a2_flat 6; while σ was held dense, its
# one call was made in connection.
CONVERSIONS = {
    "m2_grass": ({"algebra": 8, "model": 1}, {}),
    "a2_flat": ({"algebra": 4, "model": 1}, {"cli": 1}),
}


@pytest.mark.parametrize("name", sorted(CONVERSIONS))
def test_maps_are_converted_only_at_intake_and_for_printing(monkeypatch,
                                                            name):
    calls = {"_to_cols": {}, "_to_mat": {}}
    for at in ("algebra", "calculus", "cli", "connection", "curvature",
               "forms", "linalg", "model", "tensorconn"):
        module = getattr(bimodconn, at)
        for fn, counts in calls.items():
            if hasattr(module, fn):
                def counting(*args, convert=getattr(module, fn),
                             counts=counts, at=at):
                    counts[at] = counts.get(at, 0) + 1
                    return convert(*args)
                monkeypatch.setattr(module, fn, counting)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    assert (calls["_to_cols"], calls["_to_mat"]) == CONVERSIONS[name]


def _assert_reduced(span: SpanBuilder, ref) -> None:
    """Each row starts at its pivot with a 1, is 0 at every other pivot and
    lies in the span of the inserted vectors, which ``ref`` holds."""
    n = span.ambient_dim
    for pc, row in span._rows.items():
        assert min(row) == pc and row[pc] == 1 and all(row.values())
        assert not any(p in row for p in span._rows if p != pc)
        assert ref.contains([row.get(j, 0) for j in range(n)])


@settings(deadline=None)
@given(matrices(), st.data())
def test_span_builder_matches_the_echelon_reference(m, data):
    # the same vectors fed sparse, with contains interleaved with add:
    # every answer the reference's
    n = len(m[0])
    probe = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    for rows in (m, _ints(m)):
        probes = rows + [probe, _ints(probe)]
        ref = _reference.Span(n)
        span = SpanBuilder(n)
        for v in rows:
            added = ref.add(v)
            assert span.add(_sparse(v)) == added
            assert dense_vecs(span.quotient().sub, n) == ref.basis
            assert span.dim == ref.dim
            assert sorted(span._rows) == ref.pivots
            _assert_reduced(span, ref)
            if data.draw(st.booleans()):
                x = data.draw(st.sampled_from(probes))
                assert span.contains(_sparse(x)) == ref.contains(x)
        for v in probes:
            assert span.contains(_sparse(v)) == ref.contains(v)


def test_sparse_input_is_not_changed_and_a_full_span_is_not_reduced(
        monkeypatch):
    span = SpanBuilder(3)
    v = {0: 1, 2: F(1, 2)}
    assert span.add(v) and v == {0: 1, 2: F(1, 2)}
    assert span.quotient().sub == [{0: 1, 2: F(1, 2)}]
    assert span.add({1: 1}) and span.add({2: 3})
    calls = []
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: calls.append(args))
    assert not span.add({0: 1, 1: 1, 2: 1}) and not span.add({1: 5})
    assert calls == []


def test_a_quotient_keeps_its_sub_when_the_span_grows():
    # quotient() hands out a copy of the accepted vectors, so a later add
    # enlarges the span but not a quotient already taken
    span = SpanBuilder(3)
    span.add({0: 1})
    q = span.quotient()
    assert span.add({1: 2})
    assert q.sub == [{0: 1}] and q.dim == 2 and q.free == [1, 2]
    assert span.quotient().sub == [{0: 1}, {1: 2}]


@pytest.mark.parametrize("name", NAMES)
def test_every_quotient_of_all_holds_its_sub_sparse(monkeypatch, name):
    # every QuotientSpace one parse + `all` builds (the ideal, M⊗I, J, the
    # balanced tensors, Ω_∇'s kernels) holds sub as the zero-free sparse
    # vectors it was taken by, no dense cell among them; densified, they
    # are independent and give the quotient that tests/_reference.py's
    # rref of them gives
    built = []

    def recording(n, rows, sub, quotient_of_rows=linalg._quotient_of_rows):
        q = quotient_of_rows(n, rows, sub)
        built.append(q)
        return q

    monkeypatch.setattr(linalg, "_quotient_of_rows", recording)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    assert any(q.sub for q in built)
    for q in built:
        n = len(q.proj_cols)
        assert all(type(v) is dict and v and all(v.values())
                   and all(0 <= k < n for k in v) for v in q.sub)
        want = _reference.quotient(n, dense_vecs(q.sub, n))
        assert (q.free, q.proj_cols) == (want.free, want.proj_cols)


def test_reducing_a_vector_eliminates_only_the_pivots_in_its_support(
        monkeypatch):
    # the reduced rows are 0 at every other pivot, so one reduction costs
    # one elimination per pivot in v's support, however many rows there
    # are; the pivots are those of the rows' RREF (tests/_reference.py)
    rows = [[1, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 2, 1, 0]]
    probes = identity_mat(7) + rows + [[1, 0, 0, 1, 0, 1, 0],
                                       [0, 0, 0, 0, 0, 1, 1]]
    span = SpanBuilder(7)
    for v in rows:
        span.add(_sparse(v))
    pivots = set(_reference.rref(rows)[2])
    calls = []
    eliminate = linalg._eliminate

    def counting(v, c, row):
        calls.append(c)
        eliminate(v, c, row)
    monkeypatch.setattr(linalg, "_eliminate", counting)
    for v in probes:
        want = len(pivots & {j for j, x in enumerate(v) if x})
        calls.clear()
        span.contains(_sparse(v))
        assert len(calls) == want


def _index_of(rows) -> dict[int, set[int]]:
    """The column index of reduced rows, rebuilt: per column j, the pivots
    of the rows nonzero at j other than at their own pivot."""
    held: dict[int, set[int]] = {}
    for p, row in rows.items():
        for j in row:
            if j != p:
                held.setdefault(j, set()).add(p)
    return held


def _nonempty(held) -> dict[int, set[int]]:
    """The index without the columns no row holds any more."""
    return {j: ps for j, ps in held.items() if ps}


@settings(deadline=None)
@given(matrices())
# clearing pivot 1 from row 0 cancels its entry at 2
@example([[F(1), F(1), F(1)], [F(0), F(1), F(1)]])
def test_the_column_index_is_the_one_rebuilt_from_the_rows(m):
    # after every `_absorb`, in SpanBuilder, row_reduce, null_space and
    # kernel_quotient; their outputs are still the references'
    n = len(m[0])
    absorb, checked = linalg._absorb, []

    def checking(rows, held, res):
        added = absorb(rows, held, res)
        assert _nonempty(held) == _index_of(rows)
        checked.append(added)
        return added
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_absorb", checking)
        for rows in (m, _ints(m)):
            ref = _reference.Span(n)
            span = SpanBuilder(n)
            for v in rows:
                assert span.add(_sparse(v)) == ref.add(v)
                assert _nonempty(span._held) == _index_of(span._rows)
            assert dense_vecs(span.quotient().sub, n) == ref.basis
            cols = _to_cols(rows, n)
            assert row_reduce(rows)[1] == \
                [_frac(_sym(m).rref()[0].row(i)) for i in range(len(m))]
            assert null_space(cols) == [dict(sparse_class(v)) for v in
                                        _reference.null_space(rows, n)]
            q = kernel_quotient(cols)
            want = _reference.kernel_quotient(cols, len(rows))
            assert (q.free, q.proj_cols) == (want.free, want.proj_cols)
    # a nonzero row was absorbed unless the map is zero (the references
    # eliminate by sympy, without _absorb)
    assert any(checked) or not any(map(any, m))


def _clearing_work(monkeypatch) -> list[tuple[int, set[int], set[int]]]:
    """Per new pivot pc that ``_absorb`` makes from now on: (pc, the stored
    rows read while it is cleared, the stored rows that held pc).  Every
    stored row is watched on each access; what ``_reduce`` reads is not
    counted."""
    clearing, touched, work = [False], set(), []

    class Watched(dict):
        pass
    for name in ("__contains__", "__getitem__", "__setitem__",
                 "__delitem__", "__iter__", "get", "pop", "items", "keys",
                 "values"):
        def watched(self, *args, method=getattr(dict, name)):
            if clearing[0]:
                touched.add(id(self))
            return method(self, *args)
        setattr(Watched, name, watched)
    absorb, reduce = linalg._absorb, linalg._reduce

    def reducing(rows, res):
        was, clearing[0] = clearing[0], False
        out = reduce(rows, res)
        clearing[0] = was
        return out

    def absorbing(rows, *args):
        # rows first and res last, whatever else `_absorb` takes
        for p, row in dict.items(rows):
            if type(row) is not Watched:
                rows[p] = Watched(row)
        left = reduce(rows, dict(args[-1]))
        pc = min(left) if left else None
        holders = {id(row) for row in rows.values()
                   if dict.__contains__(row, pc)}
        touched.clear()
        clearing[0] = True
        try:
            added = absorb(rows, *args)
        finally:
            clearing[0] = False
        if added:
            work.append((pc, set(touched), holders))
        return added
    monkeypatch.setattr(linalg, "_reduce", reducing)
    monkeypatch.setattr(linalg, "_absorb", absorbing)
    return work


# One parse of m2_grass makes 472 new pivots, and 40 stored rows hold one
# when it is made, where a walk over every stored row would read 29,893.
# Its `all` clears 11: 13 while Ω¹_∇ was the span of the f̂∘∇̂ĝ∘ĥ, which
# cleared 4 rows where the kernel of κ₁'s flattenings clears 2, and 15
# while Ω̂_D was built.  454 pivots and 67 holders while the ideal was
# saturated by a worklist above degree 1: the closed form adds the pivots
# of W_1 and W_2 (7 and 25), no longer finds the algebra generators (14
# pivots, 4 holders: m2_grass has no generator above degree 1), and
# clears 16 rows in the saturation (43 before) and 24 in Forms (20
# before), whose M⊗I^r vectors follow the ideal's basis.
# 472 pivots and 40 holders while every check scanned the whole algebra
# basis: the right Leibniz rule at parse now runs on A's generators first,
# so the parse finds them again (14 pivots, 4 holders).
NEW_PIVOTS_M2, HOLDERS_M2, HOLDERS_M2_ALL = 486, 44, 11


def test_clearing_a_new_pivot_reads_only_the_rows_that_hold_it(monkeypatch):
    work = _clearing_work(monkeypatch)
    model = parse_model(str(MODELS / "m2_grass.model"))
    assert len(work) == NEW_PIVOTS_M2
    assert all(read == holders for _, read, holders in work)
    assert sum(len(holders) for _, _, holders in work) == HOLDERS_M2
    work.clear()
    cli.run("all", model)
    assert all(read == holders for _, read, holders in work)
    assert sum(len(holders) for _, _, holders in work) == HOLDERS_M2_ALL


def _sum_of(terms) -> dict:
    """Σ c·v over the (c, sparse v) terms, sparse, by products and sums."""
    out: dict = {}
    for c, v in terms:
        for j, x in v.items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _on_pivots(v: dict, rows: dict) -> dict:
    """Σ (v's entry at p / row p's entry at p)·row p over the pivots p of
    the reduced rows: v itself exactly when v lies in their span."""
    return _sum_of((F(v[p]) / rows[p][p], rows[p]) for p in v if p in rows)


@pytest.fixture
def checked_eliminator(monkeypatch):
    """``linalg._absorb`` and ``linalg._kernel``, each call checked against
    the rows before it with products and sums only, dividing by nothing
    but a row's entry at its pivot; the fixture gives the number of steps
    checked, [absorbs, kernels].

    ``_absorb`` must find the rows as the last checked step left them (a
    copy is kept per rows dict), and leave them in reduced echelon shape:
    each row's pivot is its first column, and no other pivot is in it.
    The input and every changed old row lie in the new span (each is the
    sum, over the pivots p, of its entry at p over row p's entry there
    times row p; an unchanged row is a row of it), and the new rows lie in
    the old span plus the input: the new row is the input less the old
    rows at the input's pivots, scaled, and each old row changed by a
    multiple of it, none where it held no entry at the new pivot.  After
    ``_kernel``: each kernel vector is 1 at its own free index and 0 at the
    others, the columns combined at it are 0, and there are n less the
    rank (the rows the elimination added) of them."""
    absorb, kernel = linalg._absorb, linalg._kernel
    steps, added_rows, copies = [0, 0], [0], {}

    def absorbing(rows, held, res):
        # the rows dict itself is kept beside its copy, so its id is not
        # reused while the copy is
        old = copies.setdefault(id(rows), (rows, {}))[1]
        assert rows == old
        given = dict(res)
        residual = _sum_of([(1, given)] + [
            (-F(given[p]) / old[p][p], old[p]) for p in given if p in old])
        added = absorb(rows, held, res)
        steps[0] += 1
        added_rows[0] += added
        new = rows.keys() - old.keys()
        assert added == bool(new) == bool(residual) and len(new) <= 1
        if not added:
            assert rows == old
            return added
        (pc,) = new
        row = rows[pc]
        assert min(row) == pc and not (row.keys() - {pc}) & rows.keys()
        assert _sum_of([(F(residual[pc]) / row[pc], row)]) == residual
        assert _on_pivots(given, rows) == given
        for p, was in old.items():
            if pc not in was:
                assert rows[p] == was
                continue
            now = rows[p]
            assert min(now) == p and pc not in now
            diff = _sum_of([(1, now), (-1, was)])
            assert _sum_of([(F(diff[pc]) / row[pc], row)]) == diff
            assert _on_pivots(was, rows) == was
            old[p] = dict(now)
        old[pc] = dict(row)
        return added

    def kernel_of(cols, at):
        before = added_rows[0]
        out = kernel(cols, at)
        steps[1] += 1
        assert len(out) == len(cols) - (added_rows[0] - before)
        for u, v in out.items():
            assert v[u] == 1 and not (v.keys() & out.keys()) - {u}
            assert _sum_of((x, dict(cols[w])) for w, x in v.items()) == {}
        return out
    monkeypatch.setattr(linalg, "_absorb", absorbing)
    monkeypatch.setattr(linalg, "_kernel", kernel_of)
    return steps


def test_every_elimination_of_the_shipped_and_generated_models_checks_out(
        checked_eliminator):
    # every elimination a parse and an ``all`` run make, each model built
    # afresh under the checks: the four shipped models and the generated
    # ones whose reports test_cli pins
    for name in NAMES:
        cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    for name in GENERATED_PINS:
        cli.run("all", _generated(name))
    absorbs, kernels = checked_eliminator
    assert absorbs > 1000 and kernels > 20


@st.composite
def sub_bases(draw):
    """(total, an independent sub basis with Fraction entries, a vector of
    the total space): total ≤ 8, the sub empty in some draws."""
    total = draw(st.integers(1, 8))
    vec = st.lists(ENTRIES, min_size=total, max_size=total)
    span = SpanBuilder(total)
    for v in draw(st.lists(vec, max_size=total)):
        span.add(_sparse(v))
    return total, dense_vecs(span.quotient().sub, total), draw(vec)


@settings(deadline=None)
@given(sub_bases())
def test_project_combines_the_projection_columns(drawn):
    # a vector's class combines the sparse columns at its nonzeros; the
    # projection densified from them is the oracle, and the columns hold
    # no zero entry
    total, sub, v = drawn
    for q in (_span_quotient(total, sub), SpanBuilder(total).quotient(),
              _span_quotient(total, _ints(sub))):
        dense = _to_mat(q.proj_cols, q.dim)
        assert q.proj_cols == _to_cols(dense, total) == \
            _reference.quotient(total, dense_vecs(q.sub, total)).proj_cols
        for col in q.proj_cols:
            _assert_column(col)
        for w in (v, _ints(v)):
            assert _apply(q.proj_cols, _sparse(w)) == \
                _sparse(mat_vec(dense, w))
