"""Right multiplication on M⊗_AΩ: ``Forms.right_mult_cols`` against the
product through representatives, and its algebraic laws; the g⊗ι that
span M⊗_AI against the same product; every extension a run computes
against the extension through representatives, each computed once; and
the operator tables, which only ``forms`` names."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import _reference
from _reference import identity_mat, sparse_class
from _shared import MODELS, NAMES, cyclic_group_algebra, generated_model, \
    model, model_file, regular_bimodule, regular_connection, upper_triangular
from bimodconn import cli
from bimodconn.calculus import quotient_calculus, universal_graded
from bimodconn.connection import Connection
from bimodconn.forms import Forms
from bimodconn.linalg import DimensionError, _col_vec, _sparse, _to_mat, zeros
from bimodconn.model import parse_model


# the runs of parse + ``all`` whose Forms are checked: the shipped models,
# whose ν̂ (on a2_flat and a2_quotient, where Ω_∇ is Ω) targets the model's
# own Forms, and a generated model whose Ω_∇ is not Ω, whose tensor request
# builds a distinct N-side Forms over Ω_∇ (also the Forms of ∇′_M); each
# tensor request adds N⊗_AM's, the Forms of ∇⊗.  By run: how many are built
ALL_RUNS = {
    **{n: lambda n=n: parse_model(str(MODELS / f"{n}.model")) for n in NAMES},
    "CZ3-D3": lambda: generated_model(cyclic_group_algebra(3), 3)}
FORMS_BUILT = {"a2_flat": 2, "a2_quotient": 2, "a2_twist": 1, "m2_grass": 1,
               "CZ3-D3": 3}


def _forms_built_by_all(monkeypatch, name) -> list[Forms]:
    """Every Forms that parse + ``all`` builds on one of ``ALL_RUNS``."""
    built = []
    init = Forms.__init__

    def recording_init(self, module, calculus):
        init(self, module, calculus)
        built.append(self)

    monkeypatch.setattr(Forms, "__init__", recording_init)
    cli.run("all", ALL_RUNS[name]())
    return built


def _right_mult(f: Forms, r: int, s: int, w) -> list:
    """``Forms.right_mult_cols`` at a dense class w, densified."""
    return _to_mat(f.right_mult_cols(r, s, sparse_class(w)), f.dim(r + s))


def _check_right_mult(f: Forms) -> None:
    cal = f.calculus
    a = cal.algebra
    for r in range(f.D + 1):
        # the unit acts as the identity
        assert _right_mult(f, r, 0, list(a.unit)) == identity_mat(f.dim(r))
        # the product through representatives, on every basis pair
        for s in range(f.D - r + 1):
            for w in identity_mat(cal.dim(s)):
                rm = _right_mult(f, r, s, w)
                for k, q in enumerate(identity_mat(f.dim(r))):
                    assert [row[k] for row in rm] == \
                        _reference.mult_class(f, r, q, s, w)
        # (q·ω₁)·ω₂ = q·(ω₁ω₂) on basis classes q, ω₁, ω₂
        for s in range(f.D - r + 1):
            for t in range(f.D - r - s + 1):
                for w1 in identity_mat(cal.dim(s)):
                    for w2 in identity_mat(cal.dim(t)):
                        assert _reference.mat_mul(
                            _right_mult(f, r + s, t, w2),
                            _right_mult(f, r, s, w1)) == \
                            _right_mult(f, r, s + t, _reference.class_product(
                                cal, s, w1, t, w2))
        # ·[de_j] is concatenation of the tail (j,) on representatives
        if r < f.D:
            for j in cal.universal.complement:
                cols = []
                for fc in f.quotient_space(r).free:
                    tu = zeros(f.tu_dim(r))
                    tu[fc] = 1
                    cols.append(_reference.project(
                        f.quotient_space(r + 1),
                        _reference.concat_tu(f, r, tu, (j,))))
                assert _right_mult(f, r, 1, _reference.d_of_algebra(
                    cal, _reference.basis_vec(a.dim, j))) == \
                    _reference.cols_to_mat(cols, f.dim(r + 1))


@pytest.mark.parametrize("name", ALL_RUNS)
def test_right_mult_matrix_on_every_forms_of_all(monkeypatch, name):
    built = _forms_built_by_all(monkeypatch, name)
    assert len(built) == FORMS_BUILT[name]
    for f in built:
        _check_right_mult(f)


def test_right_mult_matrix_on_the_t2_model():
    _check_right_mult(regular_connection(upper_triangular(2), 3, 0).forms)


def test_right_mult_matrix_rejects_bad_degrees_and_classes():
    f = model("m2_grass").connections["nabla"].forms
    D = f.D
    # past the truncation, where T_{r+s} does not exist
    for r, s in ((D, 1), (1, D), (D, D)):
        with pytest.raises(DimensionError):
            f.right_mult_cols(r, s, {0: 1})
    # an ω with an index past Ω¹'s basis is no class
    with pytest.raises(IndexError):
        f.right_mult_cols(0, 1, {f.calculus.dim(1): 1})
    # the zero class multiplies to zero, the first basis class does not
    assert f.right_mult_cols(0, 1, {}) == [{} for _ in range(f.dim(0))]
    assert any(f.right_mult_cols(0, 1, {0: 1}))


def _t2_forms_over_a_quotient() -> tuple:
    """The regular bimodule of T₂ and T₂'s calculus at D=3 modulo the ideal
    generated by e12·de11 and by d(e11)·d(e12)."""
    a = upper_triangular(2)
    base = universal_graded(a, 3)
    uni = base.universal
    e12_de11 = [0] * uni.bar_dim(1)
    e12_de11[2] = 1
    dd = _reference.product(uni, 1, _reference.d_bar(uni, 0, [1, 0, 0]), 1,
                            _reference.d_bar(uni, 0, [0, 1, 0]))
    cal = quotient_calculus(base, [(1, _sparse(e12_de11)), (2, _sparse(dd))])
    assert all(cal.ideal[1:]) and cal.dims()[1:] != [0] * 3
    return regular_bimodule(a), cal


@pytest.mark.parametrize("make", [
    *[(lambda n=n: (model(n).connections["nabla"].module,
                    model(n).calculus)) for n in NAMES],
    _t2_forms_over_a_quotient], ids=[*NAMES, "T2"])
def test_ideal_tensors_are_the_product(make):
    # Forms reads g⊗ι off the stored right action; it must be the product
    # m⊗u of T^u_0 × Ω^r_u, for every generator g and ideal basis vector ι.
    # The tensors are sparse, with no zero entry, and compared densified
    module, cal = make()
    f = Forms(module, cal)
    for r in range(f.D + 1):
        tensors = f._ideal_tensors(r)
        assert all(all(tu.values()) for tu in tensors)
        ideal = _reference.dense_vecs(cal.ideal[r], cal.universal.bar_dim(r))
        assert [_col_vec(tu, f.tu_dim(r)) for tu in tensors] == [
            _reference.mult_tu_by_bar(
                f, 0, _reference.basis_vec(module.dim, g), r, iota)
            for g in f.generators for iota in ideal]


# the runs whose caches are checked, and the ("ext", …) entries of
# Forms.op_cache that `all` leaves on each, over every Forms it builds (a
# zero operator is neither extended nor composed, so it leaves none; a left
# action is the extension of κ₀(e_i), ``Forms.hats[i]``, so it is among them)
CACHE_RUNS = {
    **{n: lambda n=n: parse_model(str(MODELS / f"{n}.model")) for n in NAMES},
    "a2_flat-D9": lambda: parse_model(str(MODELS / "a2_flat.model"),
                                      truncation=9),
    "t2-D3": lambda: model_file(regular_connection(upper_triangular(2), 3, 0),
                                "t2")}
EXT_ENTRIES = {"a2_flat": 16, "a2_quotient": 7, "a2_twist": 7,
               "m2_grass": 67, "a2_flat-D9": 64, "t2-D3": 48}


@pytest.mark.parametrize("name", CACHE_RUNS)
def test_every_cached_extension_matches_the_representative_route(
        monkeypatch, name):
    # after `all`, every extension held by a Forms (an operator's, in
    # op_cache, left actions included) and by a Connection (∇'s) must be the
    # lift → concatenate → project route of tests/_reference.py; an
    # operator's degree and columns are read back from the Forms' intern
    # table by its id
    built: dict[type, list] = {Forms: [], Connection: []}
    for cls, seen in built.items():
        def recording_init(self, *args, init=cls.__init__, seen=seen):
            init(self, *args)
            seen.append(self)
        monkeypatch.setattr(cls, "__init__", recording_init)
    m = CACHE_RUNS[name]()
    cli.run("all", m)
    conns = list({id(c): c for c in built[Connection]
                  + list(m.connections.values())}.values())
    forms = list({id(f): f for f in built[Forms]
                  + [c.forms for c in conns]}.values())
    # (the sparse columns of operators and extensions are compared densified)
    checked = n_ext = 0
    for f in forms:
        contents = {op_id: content for content, op_id in f.op_ids.items()}
        for key, cols in f.op_cache.items():
            if key[0] == "ext":
                (degree, entries), s = contents[key[1]], key[2]
                phi = [[0] * f.module.dim for _ in range(f.dim(degree))]
                for i, row, x in entries:
                    phi[row][i] = x
                assert _to_mat(cols, f.dim(degree + s)) == \
                    _reference.extension_columns(
                        f, degree, phi, s, f.quotient_space(s).free)
                n_ext += 1
    for c in conns:
        f = c.forms
        for (r, kind), cols in c._ext_cols.items():
            if kind == "curvature":
                continue                # ∇∘∇: a product of two extensions
            want = _reference.extension_columns(
                f, 1, _reference.nabla_matrix(c), r, range(f.tu_dim(r)))
            if kind == "ext":
                want = _reference.at_free(f.quotient_space(r), want)
            assert _to_mat(cols, f.dim(r + 1)) == want
            checked += 1
    assert n_ext == EXT_ENTRIES[name] and checked > 0


@pytest.mark.parametrize("name", NAMES)
def test_no_map_is_extended_twice(monkeypatch, name):
    # every map on M⊗_AΩ that ∇ does not enter is a Forms' own, its
    # extensions kept in op_cache (a left action is κ₀(e_i)'s), and ∇'s are
    # kept by its Connection: so one parse + `all` extends no map to one
    # degree at the same indices twice
    calls = Counter()
    extend = Forms.extension_columns

    def counting(self, r, phi, s, indices):
        content = tuple(tuple(sorted(col.items())) for col in phi)
        calls[id(self), r, content, s, tuple(indices)] += 1
        return extend(self, r, phi, s, indices)

    monkeypatch.setattr(Forms, "extension_columns", counting)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    assert calls and {k: n for k, n in calls.items() if n > 1} == {}


def test_only_forms_names_the_operator_tables():
    # the intern table and the extension and composition cache belong to
    # Forms and the DegreeRHom beside it; no other module reads them
    package = Path(__file__).resolve().parents[1] / "src" / "bimodconn"
    named = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "attr", getattr(node, "id", None)) in (
                    "op_ids", "op_cache"):
                named.add(path.name)
    assert named == {"forms.py"}
