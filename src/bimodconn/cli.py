"""Command-line driver: run the analysis pipelines on a model file.

Usage::

    bimodconn <command> --model <path> [--truncation D] [--connection NAME]
              [--json out.json]

Commands: ``check`` (structural axioms only), ``induce`` (the induced
calculus, κ and d²), ``sigma`` (σ existence with witness), ``curvature``
(linearity report, J and the quotient M⊗Ω/J), ``tensor`` (tensor-product
connections), ``compare`` (partial order between the model's calculus and
the induced one, with per-degree dimension tables), ``all``.

Exit codes: 0 all identities pass, 1 some identity check fails, 2 the
input is invalid.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import cached_property

from . import anchors
from .connection import (Connection, induced_first_order, kappa1,
                         sigma_exists)
from .curvature import (InducedCalculus, OmegaHat, OmegaM, curvature,
                        extend_connection, j_ideal, sigma_full)
from .linalg import _to_mat
from .model import ModelError, ModelFile, parse_model
from .report import Report, Verdict, rationals
from .tensorconn import (associated_connection, check_compatibility,
                         degeneracy_brute, degeneracy_submodules, nu_hat,
                         tensor_connection_induced,
                         tensor_connection_original)

COMMANDS = ("check", "induce", "sigma", "curvature", "tensor", "compare",
            "all")


class _Pipeline:
    """Lazily computed analysis stages for one connection."""

    def __init__(self, conn: Connection):
        self.conn = conn

    @cached_property
    def induced_first_order(self):
        return induced_first_order(self.conn)

    @cached_property
    def kappa1(self):
        return kappa1(self.conn, self.induced_first_order)

    @cached_property
    def sigma(self):
        return sigma_exists(self.conn, self.kappa1)

    @cached_property
    def extension(self):
        return extend_connection(self.conn)

    @cached_property
    def curvature(self):
        return curvature(self.conn)

    @cached_property
    def omega_hat(self):
        return OmegaHat(self.conn)

    @cached_property
    def j_ideal(self):
        return j_ideal(self.conn, self.omega_hat)

    @cached_property
    def omega_m(self):
        return OmegaM(self.conn, self.j_ideal)

    @cached_property
    def induced_calculus(self):
        return InducedCalculus(self.conn, self.omega_m)

    @cached_property
    def sigma_full(self):
        return sigma_full(self.induced_calculus)

    @cached_property
    def kappa_hat(self):
        return self.induced_calculus.below[0]


def _scope(report: Report, command: str, connection: str | None = None) -> None:
    dims = {"command": command}
    if connection is not None:
        dims["connection"] = connection
    report.append(Verdict("scope", anchors.PLUMBING, "pass", None, dims))


def _cmd_check(report: Report, model: ModelFile) -> None:
    _scope(report, "check")
    report.extend(model.axiom_verdicts)


def _cmd_induce(report: Report, name: str, p: _Pipeline) -> None:
    _scope(report, "induce", name)
    report.extend(p.induced_first_order.verdicts)
    report.extend(p.kappa1.verdicts)
    report.extend(p.induced_calculus.verdicts)
    report.append(Verdict(
        "induced-dimensions", anchors.PLUMBING, "pass", None,
        {"omega_dims": p.conn.calculus.dims(),
         "omega_nabla_dims": p.induced_calculus.calculus.dims()}))


def _cmd_sigma(report: Report, name: str, p: _Pipeline) -> None:
    _scope(report, "sigma", name)
    report.extend(p.kappa1.verdicts)
    report.extend(p.sigma.verdicts)
    if p.sigma.exists and (s := p.sigma.sigma) is not None:
        report.append(Verdict("sigma-matrix", anchors.PLUMBING, "pass", None,
                              {"level": s.level, "matrix": rationals(
                                  _to_mat(s.cols, p.conn.forms.dim(1)))}))
    report.extend(p.sigma_full.verdicts)


def _cmd_curvature(report: Report, name: str, p: _Pipeline) -> None:
    _scope(report, "curvature", name)
    report.extend(p.extension)
    report.extend(p.curvature.verdicts)
    report.extend(p.omega_hat.verdicts)
    report.extend(p.j_ideal.verdicts)
    report.extend(p.omega_m.verdicts)
    report.append(Verdict(
        "curvature-dimensions", anchors.PLUMBING, "pass", None,
        {"j_dims": p.j_ideal.dims(), "omega_m_dims": p.omega_m.dims()}))


def _cmd_compare(report: Report, name: str, p: _Pipeline) -> None:
    _scope(report, "compare", name)
    report.append(p.induced_calculus.compare())
    report.extend(p.sigma_full.verdicts)


def _cmd_tensor(report: Report, model: ModelFile,
                pipelines: dict[str, _Pipeline]) -> None:
    for req in model.tensor_requests:
        _scope(report, "tensor", f"{req.left}⊗{req.right}")
        c = model.connections[req.right]
        rc = model.connections[req.left]
        # N⊗_AM, as every check below reads it: built once per N
        pair = degeneracy_submodules(rc.module, c.module,
                                     tensor=c.tensors(rc.module)[0])
        report.extend(pair.verdicts)
        report.append(degeneracy_brute(pair))
        report.append(check_compatibility(c, rc, pair))
        p = pipelines[req.right]
        nu = nu_hat(rc, p.kappa_hat)
        report.extend(nu.verdicts)
        if req.route in ("nu-hat", "both"):
            tco = tensor_connection_original(rc, c, p.induced_calculus, nu,
                                             p.sigma)
            report.extend(tco.verdicts)
        if req.route in ("induced", "both"):
            assoc = associated_connection(rc, nu)
            report.extend(assoc.verdicts)
            if assoc.exists:
                tci = tensor_connection_induced(assoc.connection, c,
                                                p.induced_calculus)
                report.extend(tci.verdicts)


def run(command: str, model: ModelFile,
        connection: str | None = None) -> Report:
    """Execute one pipeline command and return its ordered report."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    names = sorted(model.connections)
    if connection is not None:
        if connection not in model.connections:
            raise ModelError("--connection",
                             f"unknown connection {connection!r}")
        names = [connection]
    pipelines = {n: _Pipeline(model.connections[n]) for n in names}
    report = Report()
    if command in ("check", "all"):
        _cmd_check(report, model)
    for n in names:
        if command in ("induce", "all"):
            _cmd_induce(report, n, pipelines[n])
        if command in ("sigma", "all"):
            _cmd_sigma(report, n, pipelines[n])
        if command in ("curvature", "all"):
            _cmd_curvature(report, n, pipelines[n])
        if command in ("compare", "all"):
            _cmd_compare(report, n, pipelines[n])
    if command in ("tensor", "all"):
        if connection is None:
            _cmd_tensor(report, model, pipelines)
        else:
            reqs = [r for r in model.tensor_requests
                    if r.right == connection and r.left in pipelines]
            sub = ModelFile(model.name, model.algebra, model.truncation,
                            model.calculus, model.modules, model.connections,
                            reqs)
            _cmd_tensor(report, sub, pipelines)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bimodconn",
        description="Exact checks for connections on bimodules over "
                    "finite-dimensional algebras.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--model", required=True,
                        help="path to a schema-1 model file")
    parser.add_argument("--truncation", type=int, default=None,
                        help="override the calculus truncation degree")
    parser.add_argument("--connection", default=None,
                        help="restrict the run to one named connection")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)
    # fail before the analysis, with the error open() would raise
    if args.json_out and \
            not os.path.isdir(os.path.dirname(args.json_out) or "."):
        return _cannot_write(args.json_out, FileNotFoundError(
            errno.ENOENT, os.strerror(errno.ENOENT), args.json_out))
    try:
        model = parse_model(args.model, truncation=args.truncation)
        report = run(args.command, model, connection=args.connection)
    except ModelError as exc:
        print(f"model error at {exc.path}: {exc.message}", file=sys.stderr)
        if exc.verdict is not None:
            print(Report([exc.verdict]).to_text(), file=sys.stderr)
        return 2
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        except OSError as exc:
            return _cannot_write(args.json_out, exc)
    print(report.to_text())
    return 0 if report.summary == "pass" else 1


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cannot write {path}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
