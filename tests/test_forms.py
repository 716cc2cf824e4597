"""Right multiplication on M⊗_AΩ: ``Forms.right_mult_matrix`` against the
product through representatives, and its algebraic laws."""

import pytest

import _reference
from _shared import MODELS, NAMES, model, regular_connection, \
    upper_triangular_2
from bimodconn import cli
from bimodconn.forms import Forms
from bimodconn.linalg import DimensionError, _cols_to_mat, identity_mat, \
    mat_mul, zeros
from bimodconn.model import parse_model


def _forms_built_by_all(monkeypatch, name) -> list[Forms]:
    """Every Forms that parse + ``all`` builds on a shipped model: the
    model's own, and the ν̂ target (also the Forms of ∇′_M) of its tensor
    requests."""
    built = []
    init = Forms.__init__

    def recording_init(self, module, calculus):
        init(self, module, calculus)
        built.append(self)

    monkeypatch.setattr(Forms, "__init__", recording_init)
    cli.run("all", parse_model(str(MODELS / f"{name}.model")))
    return built


def _check_right_mult(f: Forms) -> None:
    cal = f.calculus
    a = cal.algebra
    for r in range(f.D + 1):
        # the unit acts as the identity
        assert f.right_mult_matrix(r, 0, a.unit_vec()) == identity_mat(f.dim(r))
        # the product through representatives, on every basis pair
        for s in range(f.D - r + 1):
            for w in identity_mat(cal.dim(s)):
                rm = f.right_mult_matrix(r, s, w)
                for k, q in enumerate(identity_mat(f.dim(r))):
                    assert [row[k] for row in rm] == \
                        _reference.mult_class(f, r, q, s, w)
        # (q·ω₁)·ω₂ = q·(ω₁ω₂) on basis classes q, ω₁, ω₂
        for s in range(f.D - r + 1):
            for t in range(f.D - r - s + 1):
                for w1 in identity_mat(cal.dim(s)):
                    for w2 in identity_mat(cal.dim(t)):
                        assert mat_mul(f.right_mult_matrix(r + s, t, w2),
                                       f.right_mult_matrix(r, s, w1)) == \
                            f.right_mult_matrix(r, s + t,
                                                cal.product(s, w1, t, w2))
        # ·[de_j] is concatenation of the tail (j,) on representatives
        if r < f.D:
            for j in cal.universal.complement:
                cols = []
                for fc in f.quotient_space(r).free:
                    tu = zeros(f.tu_dim(r))
                    tu[fc] = 1
                    cols.append(f.project(r + 1, f.concat_tu(r, tu, (j,))))
                assert f.right_mult_matrix(
                    r, 1, cal.d_of_algebra(a.basis_vec(j))) == \
                    _cols_to_mat(cols, f.dim(r + 1))


@pytest.mark.parametrize("name", NAMES)
def test_right_mult_matrix_on_every_forms_of_all(monkeypatch, name):
    built = _forms_built_by_all(monkeypatch, name)
    assert len(built) == (2 if model(name).tensor_requests else 1)
    for f in built:
        _check_right_mult(f)


def test_right_mult_matrix_on_the_t2_model():
    _check_right_mult(regular_connection(upper_triangular_2(), 3, 0).forms)


def test_right_mult_matrix_rejects_bad_degrees_and_lengths():
    f = model("m2_grass").connections["nabla"].forms
    D = f.D
    w1 = identity_mat(f.calculus.dim(1))[0]
    # past the truncation, where T_{r+s} does not exist
    for r, s in ((D, 1), (1, D), (D, D)):
        w = identity_mat(f.calculus.dim(s))[0]
        with pytest.raises(DimensionError):
            f.right_mult_matrix(r, s, w)
    # an ω that is not an Ω^s class
    for bad in (w1[:-1], w1 + [0], []):
        with pytest.raises(DimensionError):
            f.right_mult_matrix(0, 1, bad)
    assert f.right_mult_matrix(0, 1, w1)
