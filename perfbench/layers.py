"""Per-layer metrics read from one cProfile pass over the real call path.

The layers are the modules of ``src/bimodconn``.  A profiled function is
named ``"module:Qualified.name"`` and located by parsing that module's source
with ``ast``, so the profile only observes the public entry points the
benchmark calls; it never imports or calls a private name.  ``"callee<caller"``
restricts a callee to the calls made directly by one caller.

A metric whose function (or object attribute) no longer exists reads ``None``
and is listed as ``missing``; one that exists but ran zero times reads 0 and
is listed as ``not called``.
"""

from __future__ import annotations

import ast
import fractions
import os
import pstats
from pathlib import Path

MODULES = ("linalg", "algebra", "calculus", "forms", "connection",
           "curvature", "tensorconn", "model", "report", "cli")

# Inclusive seconds; each row lists the functions whose time is summed.
INCLUSIVE_S = {
    "calculus.universal_s": ["calculus:UniversalCalculus.__init__"],
    "linalg.solver_build_s": ["linalg:LinSolver.__init__"],
    "calculus.saturate_s": ["calculus:saturate_ideal"],
    "forms.build_s": ["forms:Forms.__init__"],
    "model.parse_s": ["model:parse_model"],
    "model.axioms_s": ["algebra:check_algebra<model:parse_model",
                       "algebra:check_bimodule<model:parse_model",
                       "connection:check_right_leibniz<model:parse_model"],
    "connection.induced_first_order_s": ["connection:induced_first_order"],
    "connection.kappa1_s": ["connection:kappa1"],
    "connection.sigma_s": ["connection:sigma_exists"],
    "curvature.extend_s": ["curvature:extend_connection"],
    "curvature.curvature_s": ["curvature:curvature"],
    "curvature.omega_hat_s": ["curvature:OmegaHat.__init__"],
    "curvature.j_ideal_s": ["curvature:j_ideal"],
    "curvature.omega_m_s": ["curvature:OmegaM.__init__"],
    "curvature.induced_calculus_s": ["curvature:InducedCalculus.__init__"],
    "curvature.sigma_full_s": ["curvature:sigma_full"],
    "calculus.preceq_s": ["calculus:preceq"],
    "tensorconn.degeneracy_s": ["tensorconn:degeneracy_submodules",
                                "tensorconn:degeneracy_brute"],
    "tensorconn.nu_hat_s": ["tensorconn:nu_hat"],
    "tensorconn.routes_s": ["tensorconn:tensor_connection_original",
                            "tensorconn:associated_connection",
                            "tensorconn:tensor_connection_induced"],
    "report.render_s": ["report:Report.to_json", "report:Report.to_text"],
    "cli.run_s": ["cli:run"],
    "linalg.row_reduce_s": ["linalg:row_reduce"],
}

# Call counts.
CALLS = {
    "linalg.solver_build.calls": ["linalg:LinSolver.__init__"],
    "calculus.saturate.attempts": ["linalg:SpanBuilder.add<calculus:saturate_ideal"],
    "forms.builds": ["forms:Forms.__init__"],
    "linalg.row_reduce.calls": ["linalg:row_reduce"],
    "linalg.solve.calls": ["linalg:LinSolver.solve"],
    "linalg.span_add.calls": ["linalg:SpanBuilder.add"],
    "linalg.mat_vec.calls": ["linalg:mat_vec"],
}


def _source_index(src: Path) -> dict[str, dict[int, str]]:
    """Per module: first line of each function (decorators included, as in
    ``co_firstlineno``) -> qualified name."""
    index: dict[str, dict[int, str]] = {}
    for mod in MODULES:
        path = src / f"{mod}.py"
        if not path.is_file():
            continue
        names: dict[int, str] = {}

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] +
                               [d.lineno for d in child.decorator_list])
                    names[line] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
        index[mod] = names
    return index


class Profile:
    """A cProfile result keyed by ``"module:Qualified.name"``."""

    def __init__(self, profiler, src: Path):
        index = _source_index(src)
        self.defined = {f"{m}:{q}" for m, names in index.items()
                        for q in names.values()}
        by_file = {os.path.realpath(src / f"{m}.py"): m for m in index}
        frac_file = os.path.realpath(fractions.__file__)

        def name(label) -> str | None:
            filename, line, func = label
            mod = by_file.get(os.path.realpath(filename)) if filename != "~" else None
            if mod is None:
                return None
            qual = index[mod].get(line)
            # lambdas and comprehensions have no name of their own
            return f"{mod}:{qual}" if qual else f"{mod}:{func}@{line}"

        raw = pstats.Stats(profiler).stats
        # funcs[name] = (calls, inclusive s, {caller name: (calls, inclusive s)})
        self.funcs: dict[str, tuple] = {}
        self.module_self_s = {m: 0.0 for m in index}
        self.fraction_ops = 0
        self.fraction_self_s = 0.0
        for label, (_cc, nc, tt, ct, callers) in raw.items():
            if os.path.realpath(label[0]) == frac_file:
                self.fraction_self_s += tt
                self.fraction_ops += sum(
                    c[0] for lab, c in callers.items()
                    if lab[0] == "~" or os.path.realpath(lab[0]) != frac_file)
                continue
            key = name(label)
            if key is None:
                continue
            self.module_self_s[key.split(":")[0]] += tt
            # pstats orders a caller edge as (nc, cc, tt, ct).
            edges = {name(lab): (c[0], c[3]) for lab, c in callers.items()}
            edges.pop(None, None)
            self.funcs[key] = (nc, ct, edges)

    def _edge(self, target: str) -> tuple[int, float] | None:
        callee, _, caller = target.partition("<")
        if callee not in self.defined or (caller and caller not in self.defined):
            return None
        entry = self.funcs.get(callee)
        if entry is None:
            return 0, 0.0
        if caller:
            return entry[2].get(caller, (0, 0.0))
        return entry[0], entry[1]

    def total(self, targets: list[str], pos: int):
        """Sum of calls (pos 0) or inclusive seconds (pos 1) over targets;
        None when any target no longer exists."""
        edges = [self._edge(t) for t in targets]
        if any(e is None for e in edges):
            return None
        return sum(e[pos] for e in edges)


def _probe(fn):
    """fn() or None when the object model it reads has changed shape."""
    try:
        return fn()
    except (AttributeError, TypeError, KeyError):
        return None


def structure_metrics(runs) -> dict[str, int | None]:
    """Dimensions and report sizes of one op.  ``runs`` holds a
    ``(model, report, json_text, text)`` tuple per model visited."""
    def over_models(per_model, combine=sum):
        vals = [_probe(lambda m=m: per_model(m)) for m, *_ in runs]
        return None if None in vals else combine(vals)

    def bars(m):
        uni = m.calculus.universal
        return [uni.bar_dim(r) for r in range(m.truncation + 1)]

    records = [rec for _, rep, *_ in runs for rec in rep.to_dict()["records"]]

    def dims_in_report(check_id: str, key: str) -> int:
        return sum(sum(rec["dims"][key]) for rec in records
                   if rec["check_id"] == check_id)

    return {
        "calculus.emb_dim_max": over_models(
            lambda m: max(m.calculus.universal.emb_dim(r)
                          for r in range(m.truncation + 1)), max),
        "calculus.bar_dim_sum": over_models(lambda m: sum(bars(m))),
        "calculus.ideal_dim_sum": over_models(
            lambda m: sum(b - m.calculus.dim(r) for r, b in enumerate(bars(m)))),
        "forms.dim_sum": over_models(
            lambda m: sum(sum(c.forms.dims()) for c in m.connections.values())),
        "curvature.j_dim_sum": _probe(
            lambda: dims_in_report("curvature-dimensions", "j_dims")),
        "curvature.omega_nabla_dim_sum": _probe(
            lambda: dims_in_report("induced-dimensions", "omega_nabla_dims")),
        "tensorconn.requests": sum(
            1 for rec in records if rec["check_id"] == "scope"
            and rec.get("dims", {}).get("command") == "tensor"),
        "report.verdicts": len(records),
        "report.bytes": sum(len(js.encode("utf-8")) + len(txt.encode("utf-8"))
                            for *_, js, txt in runs),
    }


UNITS = {"_s": "s", ".calls": "count", ".attempts": "count",
         ".builds": "count", ".requests": "count", ".verdicts": "count",
         ".fraction_ops": "count", "_ratio": "ratio", ".bytes": "B",
         "_max": "dim", "_sum": "dim", "trace_overhead": "ratio"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def per_layer(profile: Profile, runs) -> dict[str, float | int | None]:
    """Every per-layer metric of one traced op, in a fixed order."""
    out: dict[str, float | int | None] = {}
    for name, targets in INCLUSIVE_S.items():
        out[name] = profile.total(targets, 1)
    for name, targets in CALLS.items():
        out[name] = profile.total(targets, 0)
    out.update(structure_metrics(runs))
    attempts, found = out["calculus.saturate.attempts"], out["calculus.ideal_dim_sum"]
    out["calculus.saturate.useful_ratio"] = (
        found / attempts if attempts and found is not None else None)
    out["linalg.fraction_ops"] = profile.fraction_ops
    out["linalg.fraction_self_s"] = profile.fraction_self_s
    for mod in MODULES:
        out[f"{mod}.self_s"] = profile.module_self_s.get(mod)
    return out


def status(name: str, values: dict) -> str:
    """``ok``, ``not called`` or ``missing`` for one metric of ``values``."""
    value = values[name]
    if name == "calculus.saturate.useful_ratio" and value is None:
        value = values["calculus.saturate.attempts"]
    if value is None:
        return "missing"
    profiled = name in INCLUSIVE_S or name in CALLS or name.endswith("_ratio")
    return "not called" if profiled and value == 0 else "ok"
