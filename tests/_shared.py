"""The shipped model files as the tests' example library, cached
per-process analysis pipelines over their connections, generated models
beside them, and a pair N ≠ M for the tensor routes."""

from fractions import Fraction
from functools import cache
from pathlib import Path

from _reference import (basis_vec, class_of_pair_bar, d_bar, product,
                        vec_add)
from bimodconn.algebra import Algebra, Bimodule, check_bimodule
from bimodconn.calculus import (GradedCalculus, quotient_calculus,
                                universal_graded)
from bimodconn.connection import Connection, check_right_leibniz
from bimodconn.curvature import Pipeline
from bimodconn.forms import Forms
from bimodconn.linalg import _col_vec, _sparse, _to_cols, zeros
from bimodconn.model import ModelFile, TensorRequest, parse_model

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
def pipeline(name: str, truncation: int | None = None) -> Pipeline:
    """The stages of one model's ∇, each computed once per process."""
    return Pipeline(model(name, truncation).connections["nabla"])


def whole_basis(a: Algebra) -> Algebra:
    """``a`` with its generating set taken to be its whole basis, so that
    ``Algebra.first_failure`` runs the plain basis scan: the reference for
    a check decided on the generators first."""
    vars(a)["generators"] = list(range(a.dim))
    return a


def upper_triangular(n: int) -> Algebra:
    """T_n, the upper-triangular n×n matrices on the matrix units e_ij,
    i ≤ j, in row order (e11, e12, e22 for n = 2): not semisimple, the
    e_ij with i < j span its radical."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {u: k for k, u in enumerate(units)}
    table = [[[0] * len(units) for _ in units] for _ in units]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[a][b][pos[i, l]] = 1
    return Algebra.from_table(table, [int(i == j) for i, j in units])


def cyclic_group_algebra(k: int) -> Algebra:
    """ℂ[ℤ_k] on the basis g⁰, …, g^{k−1}: commutative and semisimple, with
    no idempotent basis vector but the unit."""
    table = [[[int(t == (i + j) % k) for t in range(k)] for j in range(k)]
             for i in range(k)]
    return Algebra.from_table(table, [1] + [0] * (k - 1))


# One fault per axiom of check_algebra, each raising one product of T₂ or
# M₂ by e12 (basis index 1 in both; e11 is index 0 and e22 the last): the
# basis pair (i, j) whose e_i·e_j changes, j = −1 for e22.  e11·e12 breaks
# the left unit at e12 and e12·e22 the right unit there; e12·e12 breaks
# associativity alone, as the unit laws never multiply e12 by e12.
ALGEBRA_FAULTS = {"left-unit": (0, 1), "right-unit": (1, -1),
                  "associativity": (1, 1)}


def faulted_algebra(name: str, axiom: str) -> Algebra:
    """T₂ ("T2") or M₂ ("M2") with the ``ALGEBRA_FAULTS`` entry of axiom."""
    a = upper_triangular(2) if name == "T2" else m2()
    i, j = ALGEBRA_FAULTS[axiom]
    table = [[list(cell) for cell in row] for row in a.structure]
    table[i][j][1] += 1
    return Algebra.from_table(table, a.unit)


def regular_bimodule(a: Algebra) -> Bimodule:
    """A acting on itself by left and right multiplication."""
    left = [[[a.structure[i][j][k] for j in range(a.dim)]
             for k in range(a.dim)] for i in range(a.dim)]
    right = [[[a.structure[j][i][k] for j in range(a.dim)]
              for k in range(a.dim)] for i in range(a.dim)]
    return Bimodule.from_actions(a, left, right)


def regular_connection(a: Algebra, truncation: int, gamma: int | list,
                       generators: list = ()) -> Connection:
    """∇ = d + Γ· on the regular bimodule A over the universal calculus, or
    over its quotient by the ideal of the (degree, bar vector)
    ``generators``, Γ the bar basis 1-form of index ``gamma``, or the 1-form
    of bar coordinates ``gamma``.  Column c of ∇ is the class of
    1⊗(d e_c + Γ·e_c); right Leibniz holds by construction."""
    cal = universal_graded(a, truncation)
    if generators:
        cal = quotient_calculus(cal, generators)
    uni = cal.universal
    forms = Forms.of(regular_bimodule(a), cal)
    if isinstance(gamma, int):
        g = [0] * uni.bar_dim(1)
        g[gamma] = 1
    else:
        g = gamma
    cols = [class_of_pair_bar(forms, 1, list(a.unit), [
        x + y for x, y in zip(d_bar(uni, 0, basis_vec(a.dim, c)),
                              product(uni, 1, g, 0, basis_vec(a.dim, c)))])
        for c in range(a.dim)]
    return Connection(forms, [_sparse(col) for col in cols])


def model_file(conn: Connection, name: str = "generated") -> ModelFile:
    """An in-memory model file holding one generated connection, named
    "nabla", and its bimodule, named "A", for ``cli.run``."""
    return ModelFile(name, conn.module.algebra, conn.forms.D, conn.calculus,
                     {"A": conn.module}, {"nabla": conn})


def generated_model(a: Algebra, truncation: int) -> ModelFile:
    """``model_file`` of ∇ = d + Γ· on the regular bimodule of A over the
    universal calculus, Γ the bar basis 1-form 0, with a "both" tensor
    request for ∇ on itself."""
    mf = model_file(regular_connection(a, truncation, 0))
    mf.tensor_requests.append(TensorRequest("nabla", "nabla", "both"))
    return mf


def forms_bimodule(forms: Forms, r: int) -> Bimodule:
    """T_r of ``forms`` as an A-bimodule: e_i acts on the left by the
    extension of κ₀(e_i), ``hats[i].ext_cols(r)``, and on the right by
    ``right_mult_cols(r, 0, {i: 1})``."""
    basis = range(forms.algebra.dim)
    return Bimodule(
        forms.dim(r), forms.algebra,
        tuple(forms.hats[i].ext_cols(r) for i in basis),
        tuple(forms.right_mult_cols(r, 0, {i: 1}) for i in basis))


# A right module N = x ⊕ y with x·e1 = 0, x·e2 = x, y·e1 = y, y·e2 = 0,
# paired with the one-dimensional e1-column bimodule M: then x⊗m = 0 for
# every m, so N0 = span(x) while y⊗m stays nonzero and M0 = 0.

def column_module() -> Bimodule:
    left = [[[1]], [[0]]]
    right = [[[1]], [[0]]]
    m = Bimodule.from_actions(a2(), left, right)
    assert check_bimodule(m).ok
    return m


def skew_right_module() -> Bimodule:
    # N's right action pairs it with M and its left one acts on N⊗_AM;
    # ℂ² is commutative, so the same matrices serve as both
    right = [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]
    n = Bimodule.from_actions(a2(), right, right)
    assert check_bimodule(n).ok
    return n


def column_connection() -> Connection:
    m = column_module()
    cal = universal("a2_flat")
    forms = Forms(m, cal)
    emb = zeros(4)
    emb[0 * 2 + 1] = Fraction(1)                    # e1 (x) e2
    bar = _col_vec(cal.universal.from_emb(1, emb),
                   cal.universal.bar_dim(1))
    col = [-x for x in class_of_pair_bar(forms, 1, [Fraction(1)], bar)]
    c = Connection(forms, _to_cols([[x] for x in col], 1))
    assert check_right_leibniz(c).ok
    return c


def skew_connection(perturbed: bool = False) -> Connection:
    n = skew_right_module()
    cal = universal("a2_flat")
    forms = Forms(n, cal)
    uni = cal.universal
    cols = []
    for i, j in ((0, 1), (1, 0)):                   # x⊗de2, y⊗de1
        bar = d_bar(uni, 0, basis_vec(a2().dim, j))
        cols.append(class_of_pair_bar(forms, 1, basis_vec(n.dim, i), bar))
    if perturbed:
        emb = zeros(4)
        emb[0 * 2 + 1] = Fraction(1)                # add y⊗(e1⊗e2) to ∇′x
        cols[0] = vec_add(cols[0], class_of_pair_bar(
            forms, 1, basis_vec(n.dim, 1),
            _col_vec(uni.from_emb(1, emb), uni.bar_dim(1))))
    matrix = [[cols[c][r] for c in range(2)] for r in range(forms.dim(1))]
    rc = Connection(forms, _to_cols(matrix, 2))
    assert check_right_leibniz(rc).ok
    return rc
