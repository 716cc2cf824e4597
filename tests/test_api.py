"""The public names of the bimodconn package, the one place that wires
the stages, the function names the benchmark profiles, the functions
nothing in the program calls, the reference routes the program no longer
takes, the stages that reuse what an earlier one built, the maps that
are stored by columns only, the functions that may build a dense vector,
the one place κ's operators are built, the one module that reads A's
structure constants, and the loops over the algebra basis."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import bimodconn
from bimodconn.connection import kappa1, sigma_exists
from bimodconn.forms import Forms
from bimodconn.linalg import QuotientSpace
from bimodconn.tensorconn import TensorConnection

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bimodconn"


def test_all_names_resolve_and_star_import():
    assert len(set(bimodconn.__all__)) == len(bimodconn.__all__)
    for name in bimodconn.__all__:
        assert hasattr(bimodconn, name), name
    namespace = {}
    exec("from bimodconn import *", namespace)
    assert set(bimodconn.__all__) <= set(namespace)


def test_the_package_exports_what_a_pipeline_user_needs():
    # a model is parsed, each connection's stages come from a Pipeline, and
    # cli.run renders them as a Report of Verdicts; every stage and helper
    # is imported from its own submodule
    assert bimodconn.__all__ == ["ModelError", "ModelFile", "Pipeline",
                                 "Report", "Verdict", "parse_model"]


# every stage entry point that takes another stage's result, or that
# Pipeline computes for one connection
STAGES = {"induced_first_order", "kappa1", "sigma_exists",
          "extend_connection", "curvature", "OmegaHat", "j_ideal", "OmegaM",
          "InducedCalculus", "sigma_full"}


def test_only_the_pipeline_calls_a_stage():
    # Pipeline is the one place in src/ and demos/ that builds a stage, so
    # the order of the stages and what each is handed is written once; a
    # stage takes its inputs, and none builds an earlier one for itself
    outside, inside = [], set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wiring = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Pipeline"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in STAGES and id(node) in wiring:
                inside.add(name)
            elif name in STAGES:
                outside.append(f"{path.name}:{node.lineno}:{name}")
    assert outside == []
    assert inside == STAGES
    for stage in (kappa1, sigma_exists):
        assert all(p.default is inspect.Parameter.empty
                   for p in inspect.signature(stage).parameters.values())


def test_the_package_does_not_import_the_cli():
    # runpy warns when the module it runs is already in sys.modules after
    # its package is imported, so ``python -m bimodconn.cli`` stays silent
    # only while the package leaves cli alone
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bimodconn.cli",
         "check", "--model", str(ROOT / "models" / "a2_flat.model")],
        capture_output=True, env=env, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_each_submodule_is_its_own_attribute():
    # the package re-exports no function under a submodule's name, so
    # ``import bimodconn.curvature as m`` gives the module, and a
    # monkeypatch through it reaches the module's own names
    import bimodconn.curvature as m
    assert isinstance(m, types.ModuleType)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"bimodconn.{path.stem}")
            assert getattr(bimodconn, path.stem) is module, path.stem


def _table(tree: ast.Module, name: str) -> dict:
    """The literal value of a module-level assignment ``name = {...}``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in perfbench/layers.py")


def _defined(module: str) -> set[str]:
    """Qualified names of the functions and methods a module defines."""
    path = PACKAGE / f"{module}.py"
    if not path.is_file():
        return set()
    names = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def test_every_function_the_benchmark_profiles_is_defined():
    # perfbench/layers.py names each profiled function "module:Qualified.name",
    # a caller after "<"; the bench reads a renamed one as "missing", so the
    # rename fails here.  The file is parsed, not imported.
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(
        encoding="utf-8"))
    names = {name for table in ("INCLUSIVE_S", "CALLS")
             for targets in _table(tree, table).values()
             for target in targets for name in target.split("<")}
    assert "curvature:sigma_full" in names
    missing = [name for name in sorted(names)
               if name.partition(":")[2] not in _defined(name.partition(":")[0])]
    assert not missing


def test_every_defined_function_is_referenced():
    # a function or method that no code in src/ (re-exports in __init__.py
    # aside) or demos/ names is reached only from tests, if at all, and
    # should be deleted; a def line does not count as a use of itself.  A
    # module-level function counts as used only where some program loads
    # it by name, as an identifier read: an attribute or a method of the
    # same name (``LinSolver.rank``, ``Kappa1.rank``) is no use of it.  A
    # method counts as used where its name is read as an identifier or an
    # attribute.  Dunder methods are called by Python itself.
    # LinSolver.solve and mat_vec are exempt by
    # their qualified names alone: perfbench/layers.py profiles them, and
    # they are kept for the benchmark's counts though nothing in src/
    # solves a system or applies a dense matrix any more.
    # Report.to_dict likewise: perfbench/layers.py reads its records, and
    # the tests compare to_json with json.dumps of it, though no program
    # path renders through it any more.
    programs = [p for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "__init__.py"] + sorted(
                    (ROOT / "demos").glob("*.py"))
    kept = {"linalg.py:LinSolver.solve", "linalg.py:mat_vec",
            "report.py:Report.to_dict"}
    used, loaded = set(), set()
    for path in programs:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(f): f"{c.name}." for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        top = {id(f) for f in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("__") \
                    and node.name not in (loaded if id(node) in top
                                          else used) and (
                        f"{path.name}:{owner.get(id(node), '')}{node.name}"
                        not in kept):
                unused.append(f"{path.name}:{node.lineno}:{node.name}")
    assert unused == []


def test_reports_are_written_without_the_pure_python_encoder():
    # json.dumps with an indent runs json's pure-Python encoder, and the
    # jsonable copy of a payload is a second pass over it: the report
    # module makes no json.dumps or JSONEncoder call with an indent, and
    # to_json and to_text (with the writers they call) name neither
    # jsonable nor the records of to_dict, the stdlib route the tests
    # compare with, that go through it
    tree = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    indented = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("dumps", "JSONEncoder")
                and any(kw.arg == "indent" for kw in node.keywords)]
    assert indented == []
    for name in ("Report.to_json", "Report.to_text", "Verdict._json",
                 "_indented", "_fraction"):
        assert _named("report", name) & {"jsonable", "to_dict",
                                         "to_record"} == set(), name
    assert "jsonable" in _named("report", "Verdict.to_record")


def test_no_reference_route_is_named_in_the_package():
    # κ(1·de_j) is Connection.d_hats, and a tail is concatenated inside
    # Forms.extension_columns; the sums of raw operators (kappa_raw) and the
    # concatenation of a whole vector (concat_tu) are routes of
    # tests/_reference.py only
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):
                name = getattr(node, field, None)
                if name in ("kappa_raw", "concat_tu"):
                    named.add(f"{path.name}:{node.lineno}:{name}")
    assert named == set()


def _function(module: str, qualname: str) -> ast.FunctionDef:
    """The definition of a function or method of a package module."""
    node = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for part in qualname.split("."):
        node = next(child for child in ast.iter_child_nodes(node)
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                    and child.name == part)
    return node


def _named(module: str, qualname: str) -> set[str]:
    """The identifiers and attributes a function of a package module
    names."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(_function(module, qualname))}


def test_preceq_and_omega_m_eliminate_nothing_again():
    # I₁ is the kernel of Ω₁'s projection, which decides I₂ ⊆ I₁ on I₂'s
    # basis, and ρ = P₁·lift₂ is read off Ω₂'s free columns, so preceq
    # builds no span, solver or row reduction (the elimination and
    # factor_through route is tests/_reference.py's); and Ω(M) takes J's
    # quotients from j_ideal rather than eliminating J a second time
    named = _named("calculus", "preceq")
    assert named & {"SpanBuilder", "factor_through", "LinSolver",
                    "row_reduce", "null_space", "rank"} == set()
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(_function("curvature", "OmegaM.__init__"))
              if isinstance(node, ast.Call)}
    assert "quotient" not in called


def test_kappa1_and_sigma_read_kappa1_off_its_operators():
    # κ₁ is kept as its operators, one per bar basis vector, with no
    # coordinates in Ω¹_∇'s basis; σ decides ker P₁ ⊆ ker κ₁ on I¹'s basis
    # and reads h with h·P₁ = κ₁ off κ₁'s operators at Ω¹'s free columns,
    # as preceq reads ρ (the factor_through route is tests/_reference.py's)
    for name in ("kappa1", "sigma_exists"):
        named = _named("connection", name)
        assert named & {"coords", "factor_through", "LinSolver",
                        "rank"} == set(), name


def test_kernels_and_factorisations_are_read_off_columns():
    # a kernel is read off one elimination of a map's rows, the map handed
    # over by its columns, and a factorisation through a quotient off the
    # columns at its free columns: σ's witness, N₀/M₀ and ∇′_M take no
    # dense route (the dense null space and factor_through are
    # tests/_reference.py's), no null_space call densifies its map, and no
    # module names factor_through or QuotientSpace.columns
    for module, name in (("connection", "sigma_exists"),
                         ("tensorconn", "degeneracy_submodules"),
                         ("tensorconn", "associated_connection")):
        named = _named(module, name)
        assert "null_space" in named, name
        assert named & {"factor_through", "LinSolver", "row_reduce",
                        "columns"} == set(), name
    assert "_to_mat" not in _named("tensorconn", "degeneracy_submodules")
    for name in ("null_space", "_kernel"):
        assert _named("linalg", name) & {"row_reduce", "_to_mat"} == set()
    assert not hasattr(QuotientSpace, "columns")
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) == "factor_through":
                    found.add(f"{path.name}:{node.lineno}:factor_through")
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "null_space":
                for sub in ast.walk(node):
                    if getattr(sub, "id", None) == "_to_mat":
                        found.add(f"{path.name}:{sub.lineno}:_to_mat")
    assert found == set()


# Every function in src/ works on sparse columns (``linalg.Cols``), sparse
# vectors and basis indices, and may build no dense vector, except the
# functions below: report rendering (a densified witness or σ's printed
# matrix) and the linalg functions perfbench/layers.py profiles.  Parsing
# turns a model file's JSON lists into columns and sparse vectors before
# any of these functions sees them.
DENSE_ALLOWED = {
    "cli": {"_cmd_sigma"},
    "linalg": {"zeros", "zero_mat", "_col_vec", "_to_mat", "mat_vec",
               "row_reduce", "LinSolver.solve"},
}
# dense unit vectors and the dense products and combinations that read them
DENSE_KERNELS = {"basis_vec", "unit_vec", "identity_mat", "mult", "_combine",
                 "mat_mul", "mat_vec", "zero_mat", "zeros", "_to_mat",
                 "_cols_to_mat", "nabla_ext_matrix", "left_matrix",
                 "projection", "project", "lift", "is_zero_vec",
                 "class_of_pair_bar", "mult_tu_by_bar"}
# the dense operator route of tests/_reference.py
DENSE_ROUTE = {"ext_matrix", "DenseRHom", "DenseRoute", "matrix"}


def _dense_list(node) -> bool:
    """A ``[...] * n`` allocation: a dense vector built to be filled in."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and isinstance(node.left, ast.List)


def test_the_operator_route_stays_sparse():
    # an element of A, of M or of Ω^s enters an action, a product or an
    # operator as its basis index or as a sparse class; right-Ω operators,
    # their extensions, ∇̂ and ∇'s extensions are sparse columns, and the
    # dense route (a dense extension per operator, a mat_mul per
    # composition) lives in tests/_reference.py only.  So no function
    # outside DENSE_ALLOWED names a dense kernel or fills a dense list
    found, dense = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = DENSE_ALLOWED.get(path.stem, set())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef):
                    if prefix + child.name in allowed:
                        found.add(f"{path.stem}:{prefix}{child.name}")
                        continue
                    for sub in ast.walk(child):
                        name = getattr(sub, "id", getattr(sub, "attr", None))
                        if name in DENSE_KERNELS | DENSE_ROUTE:
                            dense.append(f"{path.name}:{sub.lineno}:{name}")
                        elif _dense_list(sub):
                            dense.append(f"{path.name}:{sub.lineno}:[]*")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert found == {f"{m}:{n}" for m, ns in DENSE_ALLOWED.items() for n in ns}
    assert dense == []
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) in DENSE_ROUTE - {"matrix"}:
                    named.add(f"{path.name}:{node.lineno}")
    assert named == set()


def _calls_by_function(module: str) -> dict[str, list[ast.Call]]:
    """The calls in each top-level function or method of a package module
    (nested functions count for the one that holds them)."""
    calls: dict[str, list[ast.Call]] = {}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                calls[f"{module}:{prefix}{child.name}"] = [
                    sub for sub in ast.walk(child)
                    if isinstance(sub, ast.Call)]

    visit(tree, "")
    return calls


def test_kappa_is_built_once_per_connection():
    # κ₀(e_i) = ê_i is Forms.hats, built once per Forms, ∇̂ê_i is
    # Connection.d_hats and κ on the bar basis is Connection.kappa_ops: a
    # degree-0 operator is built only in Forms.hats and in kappa0_op, whose
    # one caller is the derivation law's κ₀(e_f·e_g), e_f·e_g read off
    # A's products
    built, kappa0 = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, calls in _calls_by_function(path.stem).items():
            for call in calls:
                func = getattr(call.func, "id", getattr(call.func, "attr",
                                                        None))
                degree = call.args[1] if len(call.args) > 1 else next(
                    (kw.value for kw in call.keywords if kw.arg == "degree"),
                    None)
                if func == "DegreeRHom" and isinstance(degree, ast.Constant) \
                        and degree.value == 0:
                    built.add(name)
                elif func == "kappa0_op":
                    kappa0.append(name)
    assert built == {"forms:Forms.hats", "connection:kappa0_op"}
    assert kappa0 == ["connection:induced_first_order"]
    assert "products" in _named("connection", "induced_first_order")
    # κ₁'s operators are κ on the degree-1 bar basis, the same list
    for name in ("a2_flat", "m2_grass"):
        p = bimodconn.Pipeline(bimodconn.parse_model(
            str(ROOT / "models" / f"{name}.model")).connections["nabla"])
        assert p.kappa1.ops is p.conn.kappa_ops(1)
        assert p.conn.kappa_ops(0) is p.conn.forms.hats
        assert len(p.conn.d_hats) == p.conn.module.algebra.dim


def test_only_algebra_reads_the_structure_constants():
    # A's product is decoded once, into Algebra.products and Algebra.one;
    # every other module reads those, never structure or unit
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("structure", "unit"):
                named.add(path.name)
    assert named == {"algebra.py"}


# the dense twins of maps that are stored by columns: the dense projection
# of a quotient, ∇'s dense extensions, the dense actions and right
# multiplications on M⊗_AΩ, the dense structure maps of the universal
# calculus, κ̄'s flattened dense columns with their combination and their
# heights, d on classes, ·f on a balanced tensor, a bimodule's dense
# actions, ∇′_M's dense matrices and the dense product that composed them
DENSE_TWINS = {"nabla_ext_matrix", "right_mult_matrix", "left_action_matrix",
               "d_bar_matrix", "left_mult_bar_matrix",
               "right_mult_bar_matrix", "_combination", "_heights",
               "d_matrix", "_d_mats", "induced_right_matrix",
               "action_matrix", "left_matrix", "right_matrix",
               "left_matrices", "right_matrices", "ext_matrices", "mat_mul"}


def test_each_map_is_stored_once_by_columns():
    # a quotient keeps its projection by sparse columns only, and no module
    # defines or reads a dense twin of a map it holds by columns
    assert [f.name for f in dataclasses.fields(QuotientSpace)] == \
        ["sub", "free", "proj_cols"]
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "projection":
                named.add(f"{path.name}:{node.lineno}:projection")
            for field in ("id", "attr", "name"):
                name = getattr(node, field, None)
                if name in DENSE_TWINS:
                    named.add(f"{path.name}:{node.lineno}:{name}")
    assert named == set()


def test_only_intake_and_printed_maps_convert_between_the_two_forms():
    # a bimodule's actions and ∇ are converted to columns once, where a
    # model is read (Bimodule.from_actions, the dense intake of the parser
    # and the tests, and _parse_connection), and a dense matrix is built
    # only for the map a report prints, σ where the sigma command prints it
    # (σ, ρ and ν̂ are held by columns)
    users = {"_to_cols": set(), "_to_mat": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "linalg":
            continue

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef):
                    for sub in ast.walk(child):
                        if getattr(sub, "id", None) in users:
                            users[sub.id].add(f"{path.stem}:{prefix}"
                                              f"{child.name}")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert users == {
        "_to_cols": {"algebra:Bimodule.from_actions",
                     "model:_parse_connection"},
        "_to_mat": {"cli:_cmd_sigma"}}


def test_omega_nabla_eliminates_kappa_bar_once_and_only_algebra_multiplies():
    # Ω_∇ is read off one elimination of κ̄'s rows (kernel_quotient), with
    # no dense κ̄, rank, null space or second row reduction; and every map
    # a check composes is composed by columns, the bimodule axioms on the
    # model's actions included, so no module names mat_mul
    named = _named("curvature", "InducedCalculus._build_calculus")
    assert named & {"null_space", "rank", "row_reduce", "_to_mat"} == set()
    assert "kernel_quotient" in named
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(node, "id", getattr(node, "attr", None)) == "mat_mul" \
                    or isinstance(node, ast.alias) and node.name == "mat_mul":
                users.add(path.name)
    assert users == set()


def test_forms_are_built_only_through_the_memo():
    # one M⊗_AΩ per (module, calculus): the package calls Forms nowhere and
    # builds one only inside Forms.of (as ``cls``), which keeps it on the
    # calculus; the parser, ν̂ and N⊗_AM's (Forms.tensor_forms) take
    # theirs from it
    calls = set()
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef):
                    for sub in ast.walk(child):
                        if isinstance(sub, ast.Call) and \
                                getattr(sub.func, "id", None) in ("Forms",
                                                                  "cls"):
                            calls.add(f"{path.stem}:{prefix}{child.name}:"
                                      f"{sub.func.id}")
                        if isinstance(sub, ast.Attribute) and \
                                sub.attr == "of" and \
                                getattr(sub.value, "id", None) == "Forms":
                            calls.add(f"{path.stem}:{prefix}{child.name}:of")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert calls == {"forms:Forms.of:cls", "forms:Forms.tensor_forms:of",
                     "model:_parse_connection:of", "tensorconn:nu_hat:of"}


# Every loop over the algebra basis in src/, counted per top-level function
# or method (nested functions count for the one that holds them), with why
# it stays: a ``range(X.dim)`` with X an algebra (``a``, ``alg``, an
# attribute ``algebra``, or ``self`` in Algebra), and a loop or
# comprehension over a per-basis list, ``hats``, ``d_hats`` or
# ``d_cols(0)`` (inside ``enumerate`` or not), directly or through a local
# name bound to one of them.  An identity that must hold for every f in A goes through
# Algebra.first_failure instead, and its scan loops over the indices it is
# handed (GENERATOR_FIRST).
BASIS_LOOPS = {
    "algebra:Algebra.first_failure": (
        1, "the generator-first scan itself: the whole basis, for the "
           "witness, once a generator fails"),
    "algebra:check_algebra": (
        4, "intake axioms, which every closure argument assumes"),
    "algebra:_check_one_sided": (2, "intake axioms of check_bimodule"),
    "algebra:check_bimodule": (2, "intake axioms: the actions commute"),
    "algebra:balancing_relations": (
        1, "a spanning set: X⊗_AY's balancing relations, in the order the "
           "tensor's quotient is eliminated"),
    "calculus:UniversalCalculus._unit_complement": (
        2, "construction: π and the unit complement"),
    "calculus:GradedCalculus.degree_bimodule": (
        1, "construction: Ω^r's actions, one per basis element"),
    "connection:Connection.d_hats": (
        1, "construction: ∇̂ê_i, one per basis element"),
    "connection:induced_first_order": (
        6, "Ω¹_∇'s spanning set f̂∘∇̂ĝ∘ĥ over basis triples; "
           "nabla-hat-right-linear per g, decided before the derivation "
           "law that its closure under products would rest on; the "
           "derivation law's g, on the basis for each f; "
           "left-leibniz-induced's X_f = d_∇e_f over d_hats, a rule whose "
           "set of good f is closed under sums but not, without the "
           "derivation law on the same f, under products, and whose "
           "witness is the first failing basis pair"),
    "connection:kappa1": (
        4, "kappa1-diagram, whose closure under products would rest on "
           "kappa1-bimodule-linear; the (f, g, α) triple scan and its "
           "κ₁(α)∘ĝ over hats, run only when left or right linearity "
           "fails on a generator, for its witness"),
    "connection:sigma_exists": (
        1, "sigma-left-leibniz's X_f = σ(df⊗·) over d_cols(0): as for "
           "left-leibniz-induced, the rule for f and g gives it for fg "
           "only with σ's own product law, which is not checked first"),
    "curvature:OmegaHat.__init__": (
        1, "construction: T₀, a basis of κ₀(A), read off every ê_i"),
    "curvature:j_ideal": (
        1, "the early proposal's span, whose dimension is reported"),
}
GENERATOR_FIRST = {
    "connection:right_leibniz_failure",
    "forms:DegreeRHom.right_linearity_witness",
    "connection:induced_first_order", "curvature:curvature",
    "curvature:j_ideal", "curvature:OmegaM._check",
    "curvature:InducedCalculus._check_multiplicative",
    "tensorconn:degeneracy_submodules", "tensorconn:_nu_right_linear"}


def _names_an_algebra(node, in_algebra: bool) -> bool:
    return isinstance(node, ast.Name) and (
        node.id in ("a", "alg") or in_algebra and node.id == "self") \
        or isinstance(node, ast.Attribute) and node.attr == "algebra"


# the per-basis lists: κ₀(e_i), ∇̂ê_i and de_i, one per basis element
PER_BASIS = {"hats", "d_hats"}


def _per_basis(node, bound: set[str]) -> bool:
    """An expression that is a per-basis list: ``hats``, ``d_hats``,
    ``d_cols(0)``, or a local name bound to one of them."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == \
            "enumerate" and node.args:
        node = node.args[0]
    return isinstance(node, ast.Attribute) and node.attr in PER_BASIS \
        or isinstance(node, ast.Name) and node.id in bound \
        or isinstance(node, ast.Call) and \
        getattr(node.func, "attr", None) == "d_cols" and \
        len(node.args) == 1 and isinstance(node.args[0], ast.Constant) and \
        node.args[0].value == 0


def _basis_names(func: ast.FunctionDef) -> set[str]:
    """The local names a function binds to a per-basis list, a tuple
    assignment taken element by element."""
    bound: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = zip(target.elts, node.value.elts) if isinstance(
                    target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                    else [(target, node.value)]
                bound |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and _per_basis(v, set())}
    return bound


def test_identities_for_all_f_run_on_the_generators_first():
    loops, scans, docs = {}, set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child)
                elif isinstance(child, ast.FunctionDef):
                    name = f"{path.stem}:{prefix}{child.name}"
                    docs[name] = (ast.get_docstring(child) or "") + (
                        (ast.get_docstring(cls) or "") if cls else "")
                    bound = _basis_names(child)
                    for sub in ast.walk(child):
                        if isinstance(sub, (ast.For, ast.comprehension)) and \
                                _per_basis(sub.iter, bound):
                            loops[name] = loops.get(name, 0) + 1
                        if isinstance(sub, ast.Call) and \
                                getattr(sub.func, "id", None) == "range" and \
                                len(sub.args) == 1 and \
                                isinstance(sub.args[0], ast.Attribute) and \
                                sub.args[0].attr == "dim" and \
                                _names_an_algebra(sub.args[0].value,
                                                  prefix == "Algebra."):
                            loops[name] = loops.get(name, 0) + 1
                        if getattr(sub, "attr", None) == "first_failure" \
                                and name != "algebra:Algebra.first_failure":
                            scans.add(name)

        visit(tree, "", None)
    assert loops == {name: n for name, (n, _) in BASIS_LOOPS.items()}
    assert scans == GENERATOR_FIRST
    # κ₁'s bimodule linearity decides its two halves on the generators
    # and runs no generator-first scan of its own
    assert "generators" in _named("connection", "kappa1")
    # each converted check says why its good f form a unital subalgebra
    for name in GENERATOR_FIRST | {"connection:kappa1"}:
        assert "subalgebra" in docs[name], name


def _callers(module: str, names: set[str]) -> dict[str, set[str]]:
    """Per name, the functions of a package module (methods by qualified
    name) that name it."""
    found = {name: set() for name in names}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                for sub in ast.walk(child):
                    name = getattr(sub, "id", getattr(sub, "attr", None))
                    if name in found:
                        found[name].add(f"{prefix}{child.name}")

    visit(tree, "")
    return found


def test_the_tensor_connection_is_a_connection_with_one_right_leibniz_rule():
    # ∇⊗ is a Connection on the Forms of N⊗_AM, which is a bimodule of its
    # own, so its right Leibniz rule is the one every connection has:
    # tensorconn composes and right-multiplies only for ν̂ and N₀, M₀, and
    # decides no Leibniz rule by maps of its own
    assert [f.name for f in dataclasses.fields(TensorConnection)] == \
        ["route", "domain", "connection", "verdicts"]
    assert _callers("tensorconn", {
        "right_leibniz_failure", "leibniz_failure", "right_mult_cols",
        "_compose", "check_right_leibniz"}) == {
        "right_leibniz_failure": {"_tensor_from_xi"},
        "leibniz_failure": set(),
        "right_mult_cols": {"check_compatibility", "_nu_right_linear"},
        "_compose": {"_nu_right_linear", "tensor_connection_original",
                     "associated_connection"},
        "check_right_leibniz": {"associated_connection"}}
    assert _callers("connection", {"leibniz_failure"}) == {
        "leibniz_failure": {"right_leibniz_failure"}}
    # and no module names the second codomain or its routes
    gone = {"_check_tensor_leibniz", "induced_right_cols", "codomain"}
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) in gone:
                    named.add(f"{path.name}:{node.lineno}")
    assert named == set()
    assert not hasattr(Forms, "as_bimodule")
