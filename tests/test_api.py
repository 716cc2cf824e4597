"""The public names of the bimodconn package, the function names the
benchmark profiles, the functions nothing in the program calls, the
reference routes the program no longer takes, the stages that reuse
what an earlier one built, and the maps that are stored by columns only."""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import bimodconn
from bimodconn.linalg import QuotientSpace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bimodconn"


def test_all_names_resolve_and_star_import():
    assert len(set(bimodconn.__all__)) == len(bimodconn.__all__)
    for name in bimodconn.__all__:
        assert hasattr(bimodconn, name), name
    namespace = {}
    exec("from bimodconn import *", namespace)
    assert set(bimodconn.__all__) <= set(namespace)


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
    # should be deleted; names are compared as identifiers and attributes,
    # so a def line does not count as a use of itself.  Dunder methods are
    # called by Python itself.  LinSolver.solve and mat_vec are exempt by
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
    used = set()
    for path in programs:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(f): f"{c.name}." for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("__") \
                    and node.name not in used and (
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
    # κ(1·de_j) is InducedCalculus.d_ops, and a tail is concatenated inside
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


# the sparse operator route: each function below works on sparse columns
# (``linalg.Cols``) and sparse span bases (a ``QuotientSpace.sub``) and may
# call no dense kernel
SPARSE_ROUTE = {
    "algebra": {"balancing_relations", "Bimodule._action_cols",
                "check_bimodule"},
    "calculus": {"saturate_ideal", "GradedCalculus.d_cols",
                 "UniversalCalculus.algebra_generators",
                 "UniversalCalculus.product", "preceq"},
    "connection": {"Connection.nabla_ext_plain", "Connection.nabla_ext_cols",
                   "Connection.curvature_cols", "DegreeRHom.key",
                   "DegreeRHom.flat", "DegreeRHom.ext_cols",
                   "DegreeRHom.compose", "DegreeRHom.add",
                   "DegreeRHom.is_zero", "_commutator", "nabla_hat",
                   "leibniz_failure", "_left_leibniz_failure", "Kappa1.op",
                   "SigmaMap.on", "sigma_exists"},
    "curvature": {"_square_hat", "InducedCalculus._project_op",
                  "InducedCalculus.image",
                  "InducedCalculus._check_multiplicative",
                  "InducedCalculus._check_diagram",
                  "InducedCalculus._build_calculus", "OmegaM.nabla_cols",
                  "OmegaHat.__init__", "OmegaHat._check_derivation",
                  "extend_connection", "j_ideal", "OmegaM._check",
                  "_sigma_u_product_failure", "sigma_full"},
    "forms": {"Forms.extension_columns", "Forms.right_mult_cols",
              "Forms._ideal_tensors"},
    "linalg": {"_compose", "QuotientSpace.induced", "kernel_quotient",
               "SpanBuilder.quotient"},
    "tensorconn": {"nu_hat", "_nu_right_linear", "_pure_pair_columns",
                   "_check_tensor_leibniz", "_check_sigma_route"},
}
DENSE_KERNELS = {"mat_mul", "mat_vec", "zero_mat", "zeros", "_to_mat",
                 "_cols_to_mat", "nabla_ext_matrix", "left_matrix",
                 "projection", "mult", "project", "is_zero_vec",
                 "class_of_pair_bar", "mult_tu_by_bar"}
# the dense operator route of tests/_reference.py
DENSE_ROUTE = {"ext_matrix", "DenseRHom", "DenseRoute", "matrix"}


def _dense_list(node) -> bool:
    """A ``[...] * n`` allocation: a dense vector built to be filled in."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and isinstance(node.left, ast.List)


def test_the_operator_route_stays_sparse():
    # a right-Ω operator, each of its extensions, ∇̂ and ∇'s extensions are
    # sparse columns; the dense route (a dense extension per operator, a
    # mat_mul per composition) lives in tests/_reference.py only, so no
    # function of the sparse route may name a dense kernel or fill a dense
    # list, and no DegreeRHom may grow a dense matrix again.  The spans of
    # the ideal, of M⊗I and of Ω̂ take their vectors sparse: the ideal's
    # images, each g⊗ι and each operator's key (its flattening)
    found, dense = set(), []
    for module, names in SPARSE_ROUTE.items():
        path = PACKAGE / f"{module}.py"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef) and \
                        prefix + child.name in names:
                    found.add(f"{module}:{prefix}{child.name}")
                    for sub in ast.walk(child):
                        name = getattr(sub, "id", getattr(sub, "attr", None))
                        if name in DENSE_KERNELS | DENSE_ROUTE:
                            dense.append(f"{path.name}:{sub.lineno}:{name}")
                        elif _dense_list(sub):
                            dense.append(f"{path.name}:{sub.lineno}:[]*")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    assert found == {f"{m}:{n}" for m, ns in SPARSE_ROUTE.items() for n in ns}
    assert dense == []
    # the ideal's images are sparse combinations of the column tables, not
    # dense ones (_combine) nor the dense d of the universal calculus
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(_function("calculus", "saturate_ideal"))
              if isinstance(node, ast.Call)}
    assert called & {"_combine", "d"} == set()
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) in DENSE_ROUTE - {"matrix"}:
                    named.add(f"{path.name}:{node.lineno}")
    assert named == set()


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
