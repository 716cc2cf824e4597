"""Model files: JSON descriptions of an algebra, a calculus, modules and
connections, parsed into fully validated engine objects.

Layout (all rationals are strings like ``"2/3"``, ``"-1"`` or ``"0.25"``,
without exponent; matrices are row-major lists of rows)::

    {
      "schema": 1,
      "name": "a2-flat",
      "algebra": {"dim": 2, "structure": [[[...], ...], ...], "unit": [...]},
      "calculus": {"truncation": 3,
                   "ideal_generators": [{"degree": 1, "element": [...]}]},
      "modules": {"M": {"left": [mat, ...], "right": [mat, ...]}},
      "connections": {"nabla": {"module": "M", "nabla": mat}},
      "tensor": [{"left": "nabla", "right": "nabla", "route": "both"}]
    }

``structure`` lists, per basis pair (i, j), the coordinates of e_i·e_j.
``ideal_generators`` elements are given in tensor-power coordinates of
their degree (length dim^(degree+1)).  A connection matrix has one column
per module basis vector; its rows run over the free coordinates of
M ⊗ (degree-one tails), i.e. pairs (module basis index, unit-complement
index), row-major, and give a representative of ∇(m_col).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Algebra, Bimodule, check_algebra, check_bimodule
from .calculus import GradedCalculus, quotient_calculus, universal_graded
from .connection import Connection, check_right_leibniz
from .forms import Forms
from .linalg import DimensionError, Mat, Vec, _compose, _exact, _to_cols
from .report import Verdict

SCHEMA_VERSION = 1
ROUTES = ("induced", "nu-hat", "both")
# Largest tensor-power dimension dim^(truncation+1) a model may ask for:
# ideal generators, and the intake check of the bar basis, use vectors of
# that length in the top degree.
# It admits every shipped model (m2 at D=3 is 256) and the two-point algebra
# up to D=11.  The bound counts at least 2 per tensor slot, so it also caps
# the number of degrees of a one-dimensional algebra.
MAX_EMB_DIM = 4096
# Most modules, connections and tensor requests a model may hold, each: every
# module builds its own M⊗_AΩ, and `all` runs every check once per
# connection and per tensor request.
MAX_ENTRIES = 16


class ModelError(Exception):
    """Invalid model file: carries the offending field path and, for axiom
    failures, the failing verdict."""

    def __init__(self, path: str, message: str,
                 verdict: Verdict | None = None):
        self.path = path
        self.message = message
        self.verdict = verdict
        super().__init__(f"{path}: {message}")


def parse_rational(value, path: str) -> int | Fraction:
    """The entry a rational string gives: ``p``, ``p/q`` or a decimal.

    Exponent notation is refused: ``Fraction`` expands ``"1e10000000"``
    into a ten-million-digit integer, which takes seconds.  ``int`` reads
    an ASCII ``-?digits`` string as ``Fraction`` would, and faster.
    """
    if not isinstance(value, str):
        raise ModelError(path, f"expected a rational string, got {value!r}")
    if "e" in value or "E" in value:
        raise ModelError(path, f"exponent notation is not accepted: {value!r}")
    digits = value[1:] if value[:1] == "-" else value
    try:
        if digits.isascii() and digits.isdigit():
            return int(value)
        f = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(path, f"not a rational: {value!r} ({exc})") from None
    return _exact(f)


def _rat_vec(value, path: str, length: int) -> Vec:
    if not isinstance(value, list) or len(value) != length:
        raise ModelError(path, f"expected a list of {length} rationals")
    return [parse_rational(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _rat_mat(value, path: str, n_rows: int, n_cols: int) -> Mat:
    if not isinstance(value, list) or len(value) != n_rows:
        raise ModelError(path, f"expected a matrix with {n_rows} rows")
    return [_rat_vec(row, f"{path}[{r}]", n_cols)
            for r, row in enumerate(value)]


def _is_int(value) -> bool:
    """An integer in the JSON sense: ``true``/``false`` load as bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise ModelError(f"{path}.{key}" if path else key,
                         "missing required field")
    return obj[key]


@dataclass
class TensorRequest:
    left: str                    # connection providing the N-side ∇′
    right: str                   # connection on the bimodule M
    route: str                   # "induced", "nu-hat" or "both"


@dataclass
class ModelFile:
    """A parsed and axiom-checked model."""

    name: str
    algebra: Algebra
    truncation: int
    calculus: GradedCalculus
    modules: dict[str, Bimodule]
    connections: dict[str, Connection]
    tensor_requests: list[TensorRequest] = field(default_factory=list)
    axiom_verdicts: list[Verdict] = field(default_factory=list)


def _parse_algebra(doc, path: str) -> Algebra:
    if not isinstance(doc, dict):
        raise ModelError(path, "expected an object")
    dim = _get(doc, "dim", path)
    if not _is_int(dim) or dim < 1:
        raise ModelError(f"{path}.dim", "expected a positive integer")
    structure = _get(doc, "structure", path)
    if not isinstance(structure, list) or len(structure) != dim:
        raise ModelError(f"{path}.structure", f"expected {dim} rows")
    table = []
    for i, row in enumerate(structure):
        if not isinstance(row, list) or len(row) != dim:
            raise ModelError(f"{path}.structure[{i}]", f"expected {dim} entries")
        table.append([_rat_vec(v, f"{path}.structure[{i}][{j}]", dim)
                      for j, v in enumerate(row)])
    unit = _rat_vec(_get(doc, "unit", path), f"{path}.unit", dim)
    return Algebra.from_table(table, unit)


def _emb_dim_exceeds(dim: int, truncation: int) -> bool:
    """max(dim, 2)^(truncation+1) > MAX_EMB_DIM, in at most
    log2(MAX_EMB_DIM)+1 steps whatever the truncation."""
    size = 1
    for _ in range(truncation + 1):
        size *= max(dim, 2)
        if size > MAX_EMB_DIM:
            return True
    return False


def _parse_calculus(doc, path: str, algebra: Algebra,
                    truncation_override: int | None) -> tuple[int, GradedCalculus]:
    doc = doc if doc is not None else {}
    if not isinstance(doc, dict):
        raise ModelError(path, "expected an object")
    truncation = doc.get("truncation", 3)
    if truncation_override is not None:
        truncation = truncation_override
    # curvature, J and the checks built on them need Ω²
    if not _is_int(truncation) or truncation < 2:
        raise ModelError(f"{path}.truncation", "expected an integer >= 2")
    if _emb_dim_exceeds(algebra.dim, truncation):
        raise ModelError(f"{path}.truncation",
                         f"dim^(truncation+1) exceeds {MAX_EMB_DIM} for "
                         f"dim {algebra.dim}, truncation {truncation}")
    base = universal_graded(algebra, truncation)
    gens_doc = doc.get("ideal_generators", [])
    if not isinstance(gens_doc, list):
        raise ModelError(f"{path}.ideal_generators", "expected a list")
    if not gens_doc:
        return truncation, base
    gens = []
    for k, g in enumerate(gens_doc):
        gpath = f"{path}.ideal_generators[{k}]"
        if not isinstance(g, dict):
            raise ModelError(gpath, "expected an object")
        degree = _get(g, "degree", gpath)
        if not _is_int(degree) or not 1 <= degree <= truncation:
            raise ModelError(f"{gpath}.degree",
                             "expected an integer between 1 and the truncation")
        element = _rat_vec(_get(g, "element", gpath), f"{gpath}.element",
                           algebra.dim ** (degree + 1))
        try:
            gens.append((degree, base.universal.from_emb(degree, element)))
        except DimensionError:
            raise ModelError(f"{gpath}.element",
                             "element does not lie in the universal calculus "
                             f"in degree {degree}") from None
    return truncation, quotient_calculus(base, gens)


def _parse_module(doc, path: str, algebra: Algebra) -> Bimodule:
    if not isinstance(doc, dict):
        raise ModelError(path, "expected an object")
    left_doc = _get(doc, "left", path)
    right_doc = _get(doc, "right", path)
    for side, mats in (("left", left_doc), ("right", right_doc)):
        if not isinstance(mats, list) or len(mats) != algebra.dim:
            raise ModelError(f"{path}.{side}",
                             f"expected {algebra.dim} action matrices")
    if not left_doc[0] or not isinstance(left_doc[0], list):
        raise ModelError(f"{path}.left[0]", "expected a matrix")
    dim = len(left_doc[0])
    left = [_rat_mat(m, f"{path}.left[{i}]", dim, dim)
            for i, m in enumerate(left_doc)]
    right = [_rat_mat(m, f"{path}.right[{i}]", dim, dim)
             for i, m in enumerate(right_doc)]
    return Bimodule.from_actions(algebra, left, right)


def _parse_connection(doc, path: str, model: ModelFile) -> Connection:
    if not isinstance(doc, dict):
        raise ModelError(path, "expected an object")
    mod_name = _get(doc, "module", path)
    if not isinstance(mod_name, str) or mod_name not in model.modules:
        raise ModelError(f"{path}.module", f"unknown module {mod_name!r}")
    module = model.modules[mod_name]
    n_tails = len(model.calculus.universal.tails(1))
    nabla_tu = _to_cols(_rat_mat(_get(doc, "nabla", path), f"{path}.nabla",
                                 module.dim * n_tails, module.dim),
                        module.dim)
    forms = Forms.of(module, model.calculus)
    # each column's class: the projection's columns at its nonzeros
    proj = forms.quotient_space(1).proj_cols
    return Connection(forms, [{r: _exact(x) for r, x in col.items()}
                              for col in _compose(proj, nabla_tu)])


def parse_model(path: str, truncation: int | None = None) -> ModelFile:
    """Parse and validate a model file; raise :class:`ModelError` on any
    schema violation or failed structural axiom."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError("<file>", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ModelError("<file>", f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelError("<file>", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelError("<file>", "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelError("<root>", "expected a JSON object")
    schema = _get(doc, "schema", "")
    if not _is_int(schema) or schema != SCHEMA_VERSION:
        raise ModelError("schema", f"unsupported schema version {schema!r}")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ModelError("name", "expected a string")
    for key in ("modules", "connections", "tensor"):
        entries = doc.get(key)
        if isinstance(entries, (dict, list)) and len(entries) > MAX_ENTRIES:
            raise ModelError(key, f"more than {MAX_ENTRIES} entries")
    algebra = _parse_algebra(_get(doc, "algebra", ""), "algebra")
    v = check_algebra(algebra)
    if not v.ok:
        raise ModelError("algebra", "algebra axioms fail", v)
    trunc, calculus = _parse_calculus(doc.get("calculus"), "calculus",
                                      algebra, truncation)
    model = ModelFile(name, algebra, trunc, calculus, {}, {})
    model.axiom_verdicts.append(v)
    modules_doc = _get(doc, "modules", "")
    if not isinstance(modules_doc, dict) or not modules_doc:
        raise ModelError("modules", "expected a non-empty object")
    for mname in sorted(modules_doc):
        mod = _parse_module(modules_doc[mname], f"modules.{mname}", algebra)
        mv = check_bimodule(mod)
        if not mv.ok:
            raise ModelError(f"modules.{mname}", "bimodule axioms fail", mv)
        model.modules[mname] = mod
        model.axiom_verdicts.append(mv)
    conns_doc = _get(doc, "connections", "")
    if not isinstance(conns_doc, dict) or not conns_doc:
        raise ModelError("connections", "expected a non-empty object")
    for cname in sorted(conns_doc):
        conn = _parse_connection(conns_doc[cname], f"connections.{cname}",
                                 model)
        cv = check_right_leibniz(conn)
        if not cv.ok:
            raise ModelError(f"connections.{cname}",
                             "the right Leibniz rule fails", cv)
        model.connections[cname] = conn
        model.axiom_verdicts.append(cv)
    tensor_doc = doc.get("tensor", [])
    if not isinstance(tensor_doc, list):
        raise ModelError("tensor", "expected a list")
    for k, req in enumerate(tensor_doc):
        tpath = f"tensor[{k}]"
        if not isinstance(req, dict):
            raise ModelError(tpath, "expected an object")
        left = _get(req, "left", tpath)
        right = _get(req, "right", tpath)
        route = req.get("route", "both")
        for key, cname in (("left", left), ("right", right)):
            if not isinstance(cname, str) or cname not in model.connections:
                raise ModelError(f"{tpath}.{key}",
                                 f"unknown connection {cname!r}")
        if route not in ROUTES:
            raise ModelError(f"{tpath}.route",
                             f"expected one of {', '.join(ROUTES)}")
        model.tensor_requests.append(TensorRequest(left, right, route))
    return model
