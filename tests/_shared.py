"""The shipped model files as the tests' example library, and cached
per-process analysis pipelines over their connections."""

from functools import cache
from pathlib import Path

from bimodconn.algebra import Algebra
from bimodconn.calculus import GradedCalculus, universal_graded
from bimodconn.connection import Connection
from bimodconn.curvature import InducedCalculus, OmegaHat, OmegaM, j_ideal
from bimodconn.model import ModelFile, parse_model

MODELS = Path(__file__).resolve().parents[1] / "models"
NAMES = ("a2_flat", "a2_quotient", "a2_twist", "m2_grass")


@cache
def model(name: str, truncation: int | None = None) -> ModelFile:
    """models/<name>.model, parsed once per process and truncation."""
    return parse_model(str(MODELS / f"{name}.model"), truncation=truncation)


def nabla(name: str) -> Connection:
    """The connection every shipped model names "nabla"."""
    return model(name).connections["nabla"]


def a2() -> Algebra:
    """Functions on a two-point set, the algebra of every a2 model."""
    return model("a2_flat").algebra


def m2() -> Algebra:
    """The full 2×2 matrix algebra of m2_grass."""
    return model("m2_grass").algebra


@cache
def universal(name: str) -> GradedCalculus:
    """The universal calculus on a model's algebra, at its truncation."""
    m = model(name)
    return universal_graded(m.algebra, m.truncation)


@cache
def pipeline(name: str, truncation: int | None = None):
    """(connection, OmegaHat, JIdeal, OmegaM) for one model's ∇."""
    conn = model(name, truncation).connections["nabla"]
    oh = OmegaHat(conn)
    j = j_ideal(conn, oh)
    om = OmegaM(conn, j)
    return conn, oh, j, om


@cache
def induced(name: str, truncation: int | None = None) -> InducedCalculus:
    conn, _, _, om = pipeline(name, truncation)
    return InducedCalculus(conn, om)
