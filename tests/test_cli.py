"""Model-file parsing, pipeline dispatch, report shape, and exit codes."""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
from _shared import (ALGEBRA_FAULTS, MODELS, NAMES, cyclic_group_algebra,
                     faulted_algebra, generated_model, m2, universal,
                     upper_triangular)
import bimodconn
from bimodconn import cli
from bimodconn import model as model_module
from bimodconn.calculus import preceq
from bimodconn.forms import Forms
from bimodconn.linalg import DimensionError, LinSolver, SpanBuilder, _sparse
from bimodconn.model import (MAX_EMB_DIM, MAX_ENTRIES, ModelError,
                             parse_model, parse_rational)
from bimodconn.report import (ABSENT, FAIL, PASS, UNAVAILABLE, Report,
                              Verdict, failed, passed)
from bimodconn.tensorconn import nu_hat

def flat_doc() -> dict:
    return json.loads((MODELS / "a2_flat.model").read_text())


def write_doc(tmp_path: Path, doc: dict) -> str:
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_shipped_flat_model():
    model = parse_model(str(MODELS / "a2_flat.model"))
    assert model.name == "a2-flat"
    assert list(model.connections) == ["nabla"]
    assert all(v.ok for v in model.axiom_verdicts)
    assert model.calculus.dims() == [2, 2, 2, 2]


def test_parse_truncation_override():
    model = parse_model(str(MODELS / "a2_flat.model"), truncation=2)
    assert model.truncation == 2
    assert model.calculus.dims() == [2, 2, 2]


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ModelError) as err:
        parse_model(str(p))
    assert err.value.path == "<file>"


def test_parse_rejects_zero_denominator(tmp_path):
    doc = flat_doc()
    doc["algebra"]["unit"][0] = "1/0"
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert "unit" in err.value.path


@pytest.mark.parametrize("axiom", ALGEBRA_FAULTS)
@pytest.mark.parametrize("name", ["T2", "M2"])
def test_a_faulted_algebra_exits_two_and_prints_the_dense_witness(
        tmp_path, capsys, name, axiom):
    # the algebra is checked before anything else is read, so a2_flat's
    # modules and connection are never reached
    bad = faulted_algebra(name, axiom)
    doc = flat_doc()
    doc["algebra"] = {
        "dim": bad.dim, "unit": [str(x) for x in bad.unit],
        "structure": [[[str(x) for x in cell] for cell in row]
                      for row in bad.structure]}
    assert cli.main(["check", "--model", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "model error at algebra: algebra axioms fail" in err
    ref = _reference.check_algebra(bad)
    assert ref.witness["axiom"] == axiom
    assert Report([ref]).to_text() in err


def test_main_exit_two_fast_on_exponent_notation(tmp_path, capsys):
    # Fraction("1e10000000") builds a ten-million-digit integer (seconds)
    doc = flat_doc()
    doc["algebra"]["unit"][0] = "1e10000000"
    start = time.perf_counter()
    assert cli.main(["check", "--model", write_doc(tmp_path, doc)]) == 2
    assert time.perf_counter() - start < 1
    assert "model error at algebra.unit[0]: exponent notation" in \
        capsys.readouterr().err
    with pytest.raises(ModelError, match="exponent"):
        parse_rational("2E3", "x")
    # p, p/q and decimals stay accepted, as entries
    assert [parse_rational(x, "x") for x in ("-3", "6/4", "0.50", "2.0")] \
        == [-3, Fraction(3, 2), Fraction(1, 2), 2]
    assert type(parse_rational("2.0", "x")) is int


@settings(deadline=None)
@given(st.text() | st.from_regex(r"-?[0-9]{1,40}", fullmatch=True) |
       st.sampled_from(["+1", " 1", "1 ", "1_0", "--1", "-", "", "-0", "007",
                        "\u0661", "-\u0661", "1/0", "1" * 5000, "-1" * 3]))
def test_integer_strings_parse_as_the_fraction_route_does(value):
    # integer strings skip Fraction; every string gets the value, type and
    # error message the Fraction-only route gives
    def outcome(parse):
        try:
            x = parse(value, "x")
        except ModelError as exc:
            return str(exc)
        return type(x), x
    assert outcome(parse_rational) == outcome(_reference.parse_rational)


def test_parse_rejects_non_associative_algebra(tmp_path):
    doc = flat_doc()
    # e1·e1 = 2·e1 with unit e1 violates the unit axiom
    doc["algebra"] = {"dim": 1, "structure": [[["2"]]], "unit": ["1"]}
    doc["modules"] = {"M": {"left": [[["1"]]], "right": [[["1"]]]}}
    doc["connections"] = {"nabla": {"module": "M", "nabla": [["0"]]}}
    doc.pop("tensor", None)
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.verdict is not None
    assert err.value.verdict.status == "fail"


def test_parse_rejects_unknown_schema(tmp_path):
    doc = flat_doc()
    doc["schema"] = 99
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.path == "schema"


@pytest.mark.parametrize("field, path", [
    (("schema",), "schema"),
    (("algebra", "dim"), "algebra.dim"),
    (("calculus", "truncation"), "calculus.truncation"),
])
def test_parse_rejects_boolean_integer(tmp_path, field, path):
    # JSON true loads as a Python bool, which compares equal to 1
    doc = flat_doc()
    node = doc
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = True
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.path == path


def test_parse_rejects_boolean_generator_degree(tmp_path):
    doc = flat_doc()
    doc["calculus"]["ideal_generators"] = [
        {"degree": True, "element": ["0", "1", "0", "0"]}]
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.path == "calculus.ideal_generators[0].degree"


@pytest.mark.parametrize("section, key, path", [
    ("connections", "module", "connections.nabla.module"),
    ("tensor", "left", "tensor[0].left"),
    ("tensor", "right", "tensor[0].right"),
])
def test_parse_rejects_list_as_name(tmp_path, capsys, section, key, path):
    # a list is unhashable, so it must be rejected before any lookup
    doc = flat_doc()
    entry = doc["connections"]["nabla"] if section == "connections" \
        else doc["tensor"][0]
    entry[key] = ["nabla"]
    model_path = write_doc(tmp_path, doc)
    with pytest.raises(ModelError) as err:
        parse_model(model_path)
    assert err.value.path == path
    assert cli.main(["check", "--model", model_path]) == 2
    assert path in capsys.readouterr().err


def test_parse_rejects_generator_outside_universal(tmp_path):
    # e1 ⊗ e1 multiplies to e1 ≠ 0, so it is not in Ω¹_u
    outside = ["1", "0", "0", "0"]
    doc = flat_doc()
    doc["calculus"]["ideal_generators"] = [{"degree": 1, "element": outside}]
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.path == "calculus.ideal_generators[0].element"
    with pytest.raises(DimensionError):
        universal("a2_flat").universal.from_emb(
            1, [Fraction(x) for x in outside])


def test_parse_rejects_oversized_truncation(tmp_path, capsys):
    # 2^13 > 4096 ≥ 2^12: a2 is admitted up to D=11
    assert 2 ** 12 <= MAX_EMB_DIM < 2 ** 13
    for d in (12, 10 ** 18):
        with pytest.raises(ModelError) as err:
            parse_model(str(MODELS / "a2_flat.model"), truncation=d)
        assert err.value.path == "calculus.truncation"
    # a one-dimensional algebra counts 2 per slot, so its degrees are capped
    doc = flat_doc()
    doc["algebra"] = {"dim": 1, "structure": [[["1"]]], "unit": ["1"]}
    doc["calculus"]["truncation"] = 10 ** 18
    with pytest.raises(ModelError) as err:
        parse_model(write_doc(tmp_path, doc))
    assert err.value.path == "calculus.truncation"
    code = cli.main(["check", "--model", str(MODELS / "a2_flat.model"),
                     "--truncation", "40"])
    assert code == 2
    assert "calculus.truncation" in capsys.readouterr().err


@pytest.mark.parametrize("change, path", [
    (lambda m: m.pop(), "connections.nabla.nabla"),
    (lambda m: m.append(["0", "0"]), "connections.nabla.nabla"),
    (lambda m: m[0].pop(), "connections.nabla.nabla[0]"),
    (lambda m: m[1].append("0"), "connections.nabla.nabla[1]"),
], ids=["row-short", "row-over", "column-short", "column-over"])
def test_parse_rejects_a_connection_matrix_of_the_wrong_shape(
        tmp_path, capsys, monkeypatch, change, path):
    # the parser checks ∇'s shape before M⊗_AΩ or ∇ is built, so a model
    # file never reaches the shape check of Connection itself
    doc = flat_doc()
    change(doc["connections"]["nabla"]["nabla"])
    model_path = write_doc(tmp_path, doc)

    def never(*args):
        raise AssertionError("built before the shape was checked")

    monkeypatch.setattr(model_module.Forms, "of", never)
    monkeypatch.setattr(model_module, "Connection", never)
    with pytest.raises(ModelError) as err:
        parse_model(model_path)
    assert err.value.path == path
    assert cli.main(["check", "--model", model_path]) == 2
    assert f"model error at {path}:" in capsys.readouterr().err


def _entries(doc: dict, key: str, n: int) -> None:
    """Set n modules, connections or tensor requests on an a2_flat doc:
    copies of its own one, the first keeping its name, so the connections
    are all on M and the requests all on nabla."""
    if key == "tensor":
        doc[key] = doc[key] * n
    else:
        (name, entry), = doc[key].items()
        doc[key] = {name: entry, **{f"x{k}": entry for k in range(1, n)}}


@pytest.mark.parametrize("key", ["modules", "connections", "tensor"])
def test_parse_caps_the_number_of_entries(tmp_path, capsys, key):
    # each module builds its own M⊗_AΩ and `all` runs per connection and
    # per request; past the cap the file is refused before anything is built
    doc = flat_doc()
    _entries(doc, key, MAX_ENTRIES)
    model = parse_model(write_doc(tmp_path, doc))
    got = {"modules": model.modules, "connections": model.connections,
           "tensor": model.tensor_requests}[key]
    assert len(got) == MAX_ENTRIES
    doc = flat_doc()
    _entries(doc, key, MAX_ENTRIES + 1)
    doc["algebra"]["unit"] = ["2", "0"]     # never read: nothing is built
    model_path = write_doc(tmp_path, doc)
    with pytest.raises(ModelError) as err:
        parse_model(model_path)
    assert err.value.path == key
    assert cli.main(["check", "--model", model_path]) == 2
    assert f"model error at {key}:" in capsys.readouterr().err


def test_parse_rejects_truncation_below_two(tmp_path, capsys):
    # curvature, J and Ω(M) need Ω²: at truncation 1 `all` used to end in
    # an IndexError; now the file and the option are refused at intake
    for d in (1, 0, -1):
        doc = flat_doc()
        doc["calculus"]["truncation"] = d
        model_path = write_doc(tmp_path, doc)
        with pytest.raises(ModelError) as err:
            parse_model(model_path)
        assert err.value.path == "calculus.truncation"
        assert cli.main(["all", "--model", model_path]) == 2
        assert "calculus.truncation" in capsys.readouterr().err
    for name in NAMES:
        with pytest.raises(ModelError) as err:
            parse_model(str(MODELS / f"{name}.model"), truncation=1)
        assert err.value.path == "calculus.truncation"
        assert cli.main(["all", "--model", str(MODELS / f"{name}.model"),
                         "--truncation", "1"]) == 2
        assert "calculus.truncation" in capsys.readouterr().err
    two = parse_model(str(MODELS / "a2_flat.model"), truncation=2)
    assert two.truncation == 2


def test_run_check_reports_axioms_only():
    model = parse_model(str(MODELS / "a2_flat.model"))
    report = cli.run("check", model)
    ids = [v.check_id for v in report.records]
    assert ids[0] == "scope"
    assert "check-algebra" in ids
    assert report.summary == "pass"


def test_run_sigma_emits_matrix():
    model = parse_model(str(MODELS / "a2_flat.model"))
    report = cli.run("sigma", model)
    ids = {v.check_id: v for v in report.records}
    assert ids["sigma-exists"].ok
    assert "sigma-matrix" in ids
    assert report.summary == "pass"


def test_run_rejects_unknown_command():
    model = parse_model(str(MODELS / "a2_flat.model"))
    with pytest.raises(ValueError):
        cli.run("frobnicate", model)


def test_run_rejects_unknown_connection():
    model = parse_model(str(MODELS / "a2_flat.model"))
    with pytest.raises(ModelError):
        cli.run("check", model, connection="missing")


def test_report_json_round_trip():
    model = parse_model(str(MODELS / "a2_flat.model"))
    report = cli.run("check", model)
    doc = json.loads(report.to_json())
    assert doc["summary"] == "pass"
    assert all("paper_anchor" in rec for rec in doc["records"])


def _count_forms_builds(monkeypatch) -> list:
    """The calculus of each Forms built from here on, in order."""
    builds = []
    init = Forms.__init__

    def counting_init(self, module, calculus):
        builds.append(calculus)
        init(self, module, calculus)

    monkeypatch.setattr(Forms, "__init__", counting_init)
    return builds


def test_each_forms_built_once(monkeypatch):
    # parsing builds M⊗Ω for the one connection; on a2_flat Ω_∇ is Ω, so
    # the tensor routes reuse it as ν̂'s source and target and as the Forms
    # of ∇′_M, and build one more only: (N⊗_AM)⊗_AΩ, the Forms of ∇⊗ on
    # both routes, once per N, which a second run finds
    builds = _count_forms_builds(monkeypatch)
    model = parse_model(str(MODELS / "a2_flat.model"))
    assert builds == [model.calculus]
    for _ in range(2):
        report = cli.run("tensor", model)
        assert report.summary == "pass"
        assert builds == [model.calculus] * 2
    c = model.connections["nabla"]
    forms = c.forms.tensor_forms(c.module)[0]
    assert forms.module.dim == c.forms.tensors(c.module).dim
    assert forms.calculus is model.calculus


@pytest.mark.parametrize("name, truncation", [
    *((name, None) for name in NAMES), ("a2_flat", 9), ("a2_quotient", 9)])
def test_parse_and_all_build_one_forms_per_shipped_model(
        monkeypatch, name, truncation):
    # one M⊗_AΩ per (module, calculus), through Forms.of: the a2_flat and
    # a2_quotient tensor requests find Ω_∇ = Ω and reuse the model's Forms,
    # and add one, N⊗_AM's, for ∇⊗; a2_twist and m2_grass have no request
    builds = _count_forms_builds(monkeypatch)
    model = parse_model(str(MODELS / f"{name}.model"), truncation=truncation)
    cli.run("all", model)
    assert builds == [model.calculus] * (1 + bool(model.tensor_requests))
    assert bool(model.tensor_requests) == (name in ("a2_flat",
                                                    "a2_quotient"))


@pytest.mark.parametrize("name", [*NAMES, "CZ3-D3"])
def test_m_tensor_i_from_generators_equals_full_span(monkeypatch, name):
    # Forms spans M⊗I^r by g⊗ι over the right-module generators g only;
    # rebuild it from every basis vector m_i instead, for every Forms that
    # parse + all builds: the model's; on the generated model, where Ω_∇ is
    # not Ω, the N-side one over Ω_∇ of its tensor request; and with a
    # tensor request, N⊗_AM's, the Forms of ∇⊗
    built = []
    init = Forms.__init__

    def recording_init(self, module, calculus):
        init(self, module, calculus)
        built.append(self)

    monkeypatch.setattr(Forms, "__init__", recording_init)
    if name in GENERATED_PINS:
        model = _generated(name)
    else:
        model = parse_model(str(MODELS / f"{name}.model"))
    cli.run("all", model)
    assert len(built) == {"a2_flat": 2, "a2_quotient": 2, "a2_twist": 1,
                          "m2_grass": 1, "CZ3-D3": 3}[name]
    if name == "m2_grass":
        assert len(built[0].generators) < built[0].module.dim
    for f in built:
        for r in range(f.D + 1):
            full = SpanBuilder(f.tu_dim(r))
            for v in _reference.dense_vecs(f.calculus.ideal[r],
                                           f.uni.bar_dim(r)):
                for i in range(f.module.dim):
                    full.add(_sparse(_reference.mult_tu_by_bar(
                        f, 0, _reference.basis_vec(f.module.dim, i), r, v)))
            old = _reference.quotient(f.tu_dim(r), _reference.dense_vecs(
                full.quotient().sub, f.tu_dim(r)))
            new = f.quotient_space(r)
            assert (new.proj_cols, new.free) == (old.proj_cols, old.free)


@pytest.mark.parametrize("name", ["a2_twist", "m2_grass"])
def test_all_twice_on_one_model_gives_the_same_bytes(name):
    # the second run reads its operators from the caches of the model's
    # Forms and Connection, so a caller that changed a shared matrix in
    # place would change the second report
    model = parse_model(str(MODELS / f"{name}.model"))
    first = cli.run("all", model).to_json()
    assert cli.run("all", model).to_json() == first


def test_parse_builds_no_linsolver(monkeypatch):
    # bar coordinates of the universal calculus are closed-form
    builds = []
    init = LinSolver.__init__

    def counting_init(self, a):
        builds.append(len(a))
        init(self, a)

    monkeypatch.setattr(LinSolver, "__init__", counting_init)
    parse_model(str(MODELS / "a2_flat.model"), truncation=9)
    assert builds == []


def test_summary_fail_drives_exit_code():
    report = Report()
    report.append(passed("ok-check", "anchor-a"))
    assert report.summary == "pass"
    report.append(failed("bad-check", "anchor-b", {"why": "witness"}))
    assert report.summary == "fail"
    absent = Report([Verdict("gone", "anchor-c", "absent")])
    assert absent.summary == "pass"


def test_main_exit_zero_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["check", "--model", str(MODELS / "a2_flat.model"),
                     "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"] == "pass"
    assert "check-algebra" in capsys.readouterr().out


def test_main_escapes_what_an_ascii_stdout_cannot_encode():
    # every shipped report holds characters outside ASCII (the "—" of the
    # plumbing anchor, at least): an ASCII stdout gets them as backslash
    # escapes, as stderr would, and the exit code still says whether every
    # identity passed
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": os.pathsep.join([str(MODELS.parent / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    codes = []
    for name in NAMES:
        path = str(MODELS / f"{name}.model")
        done = subprocess.run(
            [sys.executable, "-m", "bimodconn.cli", "all", "--model", path],
            capture_output=True, env=env)
        assert b"Traceback" not in done.stderr
        text = cli.run("all", parse_model(path)).to_text()
        assert not text.isascii()
        assert done.stdout == text.encode("ascii", "backslashreplace") + b"\n"
        codes.append(done.returncode)
    assert codes == [0, 0, 0, 1]


def test_main_exit_two_on_missing_file(tmp_path, capsys):
    code = cli.main(["check", "--model", str(tmp_path / "nope.json")])
    assert code == 2
    assert "model error" in capsys.readouterr().err


def test_main_exit_two_on_non_utf8_file(tmp_path, capsys):
    p = tmp_path / "latin1.model"
    p.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert cli.main(["check", "--model", str(p)]) == 2
    assert "model error at <file>: not UTF-8" in capsys.readouterr().err


def test_main_exit_two_on_deeply_nested_json(tmp_path, capsys):
    p = tmp_path / "nested.model"
    p.write_text("[" * 200_000)
    assert cli.main(["check", "--model", str(p)]) == 2
    assert "model error at <file>: JSON nested too deeply" in \
        capsys.readouterr().err


def test_main_exit_two_on_unwritable_json(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    code = cli.main(["check", "--model", str(MODELS / "a2_flat.model"),
                     "--json", str(out)])
    assert code == 2
    assert f"cannot write {out}: " in capsys.readouterr().err
    assert not out.exists()


def test_main_checks_json_dir_before_parsing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing-dir" / "report.json"

    def no_parse(*args, **kwargs):
        raise AssertionError("parse_model called before the --json check")

    monkeypatch.setattr(cli, "parse_model", no_parse)
    code = cli.main(["all", "--model", str(MODELS / "m2_grass.model"),
                     "--json", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    with pytest.raises(OSError) as opened:
        open(out, "w", encoding="utf-8")
    assert err == f"cannot write {out}: {opened.value}\n"


def test_main_exit_one_on_failing_identity(capsys):
    # the gauge-potential model has a genuinely non-left-linear curvature
    code = cli.main(["curvature", "--model", str(MODELS / "m2_grass.model")])
    assert code == 1
    out = capsys.readouterr().out
    assert "curvature-left-linear" in out
    assert "FAIL" in out


def _odd_numbers(root) -> list[tuple[object, bool]]:
    """Numbers reachable from root through lists, tuples, sets, dicts and
    package objects that are not ints: floats anywhere, bools held as
    entries (a flag under a string key or in an attribute is fine) and
    Fractions, each with whether it sits in a Verdict."""
    odd, seen = [], set()
    stack = [(root, False, False)]
    while stack:
        obj, entry, in_verdict = stack.pop()
        kind = type(obj)
        if kind in (int, str) or obj is None or \
                (kind is bool and not entry) or id(obj) in seen:
            continue
        if kind in (bool, float, Fraction):
            odd.append((obj, in_verdict))
            continue
        seen.add(id(obj))
        if kind in (list, tuple, set, frozenset):
            if not set(map(type, obj)) <= {int}:
                stack.extend((x, True, in_verdict) for x in obj)
        elif kind is dict:
            for k, v in obj.items():
                stack += [(k, True, in_verdict),
                          (v, not isinstance(k, str), in_verdict)]
        else:
            assert kind.__module__.startswith("bimodconn."), kind
            stack.extend((v, False, in_verdict or kind is Verdict)
                         for v in vars(obj).values())
    return odd


@pytest.mark.parametrize("name", NAMES)
def test_no_float_bool_or_integral_fraction_after_all(monkeypatch, name):
    # every operand of a shipped model is integral, so every cached matrix
    # and vector holds plain ints; only report payloads carry Fractions
    pipelines = []
    make = cli.Pipeline

    def recording(conn):
        pipelines.append(make(conn))
        return pipelines[-1]

    monkeypatch.setattr(cli, "Pipeline", recording)
    model = parse_model(str(MODELS / f"{name}.model"))
    report = cli.run("all", model)
    cal, conn = model.calculus, model.connections["nabla"]
    (p,) = pipelines
    assert cal._d_cols and cal.universal._tail_times and cal.quotients
    assert conn.nabla and conn.forms.quotient_space(1).proj_cols
    assert p.induced_calculus._columns and p.sigma_full.verdicts
    assert (p.sigma.sigma is not None) == (name in ("a2_flat", "a2_quotient"))
    odd = _odd_numbers([model, pipelines, report.records])
    assert [x for x, in_verdict in odd if not in_verdict] == []
    assert {type(x) for x, _ in odd} <= {Fraction}


@pytest.mark.parametrize("name", NAMES)
def test_all_decides_each_order_once_per_pipeline(monkeypatch, name):
    # Ω_∇ ⪯ Ω is decided once (InducedCalculus.below, which sigma_full,
    # compare and κ̂ for the tensor routes read) and Ω ⪯ Ω_∇ once, in
    # compare.  Every module that binds preceq is patched by name, each
    # module found through importlib.
    calls = []

    def counting(c1, c2):
        calls.append((c1, c2))
        return preceq(c1, c2)

    for info in pkgutil.iter_modules(bimodconn.__path__):
        module = importlib.import_module(f"bimodconn.{info.name}")
        if getattr(module, "preceq", None) is preceq:
            monkeypatch.setattr(module, "preceq", counting)
    model = parse_model(str(MODELS / f"{name}.model"))
    cli.run("all", model)
    cal = model.calculus
    assert len(model.connections) == 1
    assert len(calls) == 2
    (c1, c2), (d1, d2) = calls
    assert c2 is cal and d1 is cal and c1 is d2
    # Ω_∇ is Ω's own object exactly when their ideals agree
    assert (c1 is cal) == (name in ("a2_flat", "a2_quotient"))


# One SHA-256 over the JSON and the text report of every command on every
# shipped model, at the model's own truncation and at D=4, recorded so that
# a change that moves one byte of any of them fails.  Order: model (as in
# NAMES), then truncation (own, then 4), then command (as in cli.COMMANDS),
# ``to_json()`` before ``to_text()``; each run parses the model afresh.
REPORTS_SHA256 = \
    "61743e0676087f7b2fa1daa6bb60f6054a3b64800618ebaa0173c2d7d3460c3a"


def test_every_report_of_the_shipped_models_is_pinned():
    digest = hashlib.sha256()
    for name in NAMES:
        every = []
        for truncation in (None, 4):
            for command in cli.COMMANDS:
                report = cli.run(command, parse_model(
                    str(MODELS / f"{name}.model"), truncation=truncation))
                digest.update(report.to_json().encode())
                digest.update(report.to_text().encode())
                if command == "all":
                    every.append(report)
        # raising the truncation from the model's own (D=3) to D=4 changes
        # nothing below D=3; the statuses are equal on every record
        _assert_truncation_prefix(*every, name)
    assert digest.hexdigest() == REPORTS_SHA256


def _assert_truncation_prefix(low: Report, high: Report, name: str) -> None:
    """The `all` reports of one model at D and at D+1: the same checks,
    record by record, with the same statuses, and every per-degree
    ``*_dims`` list at D a prefix of its list at D+1.  The prefix rule holds
    for every model (I^r, κ in degree r and J^r read only degrees up to
    r); equal statuses are what the pinned models show, not a theorem, as a
    check that reads degree D can first fail at D+1."""
    assert [(r.check_id, r.status) for r in low.records] == \
        [(r.check_id, r.status) for r in high.records], name
    for a, b in zip(low.records, high.records):
        for key, dims in (a.dims or {}).items():
            if key.endswith("_dims"):
                assert b.dims[key][:len(dims)] == dims, (name, key)


# The SHA-256 of the JSON `all` report of ∇ = d + Γ· (Γ the bar basis
# 1-form 0) on generated algebras, with a "both" tensor request for ∇ on
# itself: what the program reports there, recorded so that a refactor that
# changes a byte of it fails; the reference routes check that it is right.
GENERATED_PINS = {
    "T3-D2": (lambda: upper_triangular(3), 2,
              "c92a28d7f9c14f9f52fa3171cf351e0c5e994be67b87e7aca4cb1ef0382a23cf"),
    "CZ4-D2": (lambda: cyclic_group_algebra(4), 2,
               "2562eb77fc24981fa759069b1beb146cc03f7bdfb88ca45867173cff7c9efa28"),
    "CZ3-D3": (lambda: cyclic_group_algebra(3), 3,
               "599dae3f29a134e7f5867439ed9da395c0e856bb0d16bcbc991d535286f8413a"),
    "M2-D3": (m2, 3,
              "a3243bd8d53de3d62fc8498c4c832399ad3fce4dd98d0d3c2e431b18ad09cc5d"),
    "T3-D3": (lambda: upper_triangular(3), 3,
              "39b0f261ccc9134de11f92355dc22492e435bbe26d04c11ea2e3e70631e852b2"),
}


def _generated(name):
    algebra, truncation, _ = GENERATED_PINS[name]
    return generated_model(algebra(), truncation)


@cache
def _generated_report(algebra: str, truncation: int) -> Report:
    """The `all` report of ``generated_model`` on the algebra of the
    GENERATED_PINS names "<algebra>-D<n>", at the given truncation, built
    once and shared by the pins and the truncation rule."""
    make = next(make for key, (make, _, _) in GENERATED_PINS.items()
                if key.split("-D")[0] == algebra)
    return cli.run("all", generated_model(make(), truncation))


@pytest.mark.parametrize("name", GENERATED_PINS)
def test_the_all_report_of_a_generated_model_is_pinned(name):
    report = _generated_report(name.split("-D")[0], GENERATED_PINS[name][1])
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        GENERATED_PINS[name][2]


@pytest.mark.parametrize("algebra", ["T3", "CZ3", "M2"])
def test_a_generated_report_at_d2_is_a_prefix_of_its_report_at_d3(algebra):
    # the truncation rule on generated models; the statuses are equal on
    # every record of all three, 58 records each
    _assert_truncation_prefix(_generated_report(algebra, 2),
                              _generated_report(algebra, 3), algebra)


@pytest.mark.parametrize("name", [*NAMES, *GENERATED_PINS])
def test_omega_nabla_and_nu_hat_reuse_the_model_exactly_when_the_ideals_agree(
        name):
    # on a2_flat and a2_quotient Ω_∇ has Ω's ideal, so it is Ω's object and
    # ν̂ (the identity) targets the model's own Forms; elsewhere both are
    # distinct, and on a2_twist and m2_grass, where Ω_∇ ⪯ Ω fails, ν̂ is
    # unavailable and builds no target
    mf = _generated(name) if name in GENERATED_PINS else \
        parse_model(str(MODELS / f"{name}.model"))
    conn = mf.connections["nabla"]
    p = bimodconn.Pipeline(conn)
    nu = nu_hat(conn, p.kappa_hat)
    if name in ("a2_flat", "a2_quotient"):
        assert p.induced_calculus.calculus is conn.calculus
        assert nu.target is conn.forms
    else:
        assert p.induced_calculus.calculus is not conn.calculus
        if name in GENERATED_PINS:
            assert isinstance(nu.target, Forms)
            assert nu.target is not conn.forms
            assert nu.target.calculus is p.induced_calculus.calculus
        else:
            assert not nu.available and nu.target is None


# The SHA-256 of the JSON `all` report of a2_twist and m2_grass with a
# "both" tensor request for ∇ on itself, recorded so that a change that
# moves a byte of it fails: there Ω_∇ is not Ω, and ν̂ is unavailable, so
# no ∇⊗ is built, and neither is the Forms of N⊗_AM.
BOTH_PINS = {
    "a2_twist":
        "55a224482c4d3ef511d9ad26b804762b769a94ea82bf695c285abf69009d589f",
    "m2_grass":
        "bd017859b072215c1172119dcd9bc89658545af7b4104d83cd393a2283377184",
}


@pytest.mark.parametrize("name", BOTH_PINS)
def test_the_all_report_with_a_both_request_is_pinned(
        monkeypatch, tmp_path, name):
    doc = json.loads((MODELS / f"{name}.model").read_text())
    assert "tensor" not in doc
    doc["tensor"] = [{"left": "nabla", "right": "nabla", "route": "both"}]
    builds = _count_forms_builds(monkeypatch)
    model = parse_model(write_doc(tmp_path, doc))
    report = cli.run("all", model).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == BOTH_PINS[name]
    assert builds == [model.calculus]


def _keys(x):
    """Every dict key met in a payload, at any depth."""
    if isinstance(x, dict):
        return [*x, *(k for v in x.values() for k in _keys(v))]
    if isinstance(x, (list, tuple)):
        return [k for v in x for k in _keys(v)]
    return []


def _assert_renders_as_the_stdlib(report):
    assert report.to_json() == _reference.render_json(report)
    assert report.to_text() == _reference.render_text(report)


RENDERED = {
    **{name: lambda name=name: parse_model(str(MODELS / f"{name}.model"))
       for name in NAMES},
    **{f"{name}-D9": lambda name=name: parse_model(
        str(MODELS / f"{name}.model"), truncation=9)
       for name in ("a2_flat", "a2_quotient")},
    **{name: lambda name=name: _generated(name) for name in GENERATED_PINS}}


@pytest.mark.parametrize("name", RENDERED)
def test_every_report_renders_as_the_stdlib_route(name):
    # to_json and to_text write in one pass what json.dumps writes of the
    # jsonable records; every key is a str, which is what lets the text
    # route's C encoder stand for jsonable's str(k) (a bool key, say, would
    # be written "true" there and "True" by jsonable)
    mf = RENDERED[name]()
    for command in cli.COMMANDS:
        report = cli.run(command, mf)
        _assert_renders_as_the_stdlib(report)
        for v in report.records:
            for payload in (v.witness, v.dims):
                assert all(type(k) is str for k in _keys(payload)), \
                    (command, v.check_id)


ESCAPED = ['"', "\\", "\n", "\t\x00\x1f\x7f", "—", "é ∇̂ ⊗", "\U0001d6fa",
           "\\u2014", "</script>"]
SCALARS = [0, -1, 2**70, True, False, None, Fraction(3), Fraction(-7, 2),
           Fraction(1, 10**30), "", [], {}, (), [[]], [{}], {"": []}]


def test_scalars_escapes_and_empty_reports_render_as_the_stdlib_route():
    _assert_renders_as_the_stdlib(Report())
    for x in SCALARS + ESCAPED:
        for status in (PASS, FAIL):
            _assert_renders_as_the_stdlib(Report([
                Verdict(x if isinstance(x, str) else "id", "anchor", status,
                        x, {"x": x}),
                Verdict("id", x if isinstance(x, str) else "", status, None,
                        {x: [x, (x,), {x: x}]} if isinstance(x, str)
                        else None)]))
    _assert_renders_as_the_stdlib(Report([passed("a", "b", {}),
                                          failed("a", "b", [], {})]))


@pytest.mark.parametrize("payload", [0.5, [1, [Fraction(1, 2), 1e3]],
                                     {"x": float("nan")}, {1: 2}, {None: 0},
                                     {(0, 1): 2}, {0, 1}, b"x", 1j])
def test_the_json_writer_refuses_what_it_would_not_write_identically(payload):
    # a float, a non-str key and any type json does not write raise rather
    # than write bytes that might differ from the stdlib route's
    with pytest.raises(TypeError):
        Report([failed("id", "anchor", payload)]).to_json()
    with pytest.raises(TypeError):
        Report([passed("id", "anchor", {"dims": payload})]).to_json()


_text = st.text(max_size=8) | st.sampled_from(ESCAPED)
# Fractions negative, non-integral and integral-valued (a Fraction equal to
# an int is written as a string, an int as a number)
_leaves = (st.integers() | st.booleans() | st.none() | _text
           | st.fractions() | st.integers().map(Fraction))
_payloads = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_text, inner, max_size=3), max_leaves=12)
_verdicts = st.builds(
    Verdict, _text, _text, st.sampled_from([PASS, FAIL, ABSENT, UNAVAILABLE]),
    st.none() | _payloads, st.none() | st.dictionaries(_text, _payloads,
                                                       max_size=3))


@settings(deadline=None)
@given(st.lists(_verdicts, max_size=4))
def test_drawn_reports_render_as_the_stdlib_route(verdicts):
    _assert_renders_as_the_stdlib(Report(verdicts))
