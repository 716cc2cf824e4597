"""Walkthrough: curvature is only bilinear after quotienting by J.

The square of an extended connection is always right-linear over the
calculus, but in general fails to be left-linear over the algebra.  The
rank-2 module over the 2x2 matrix algebra with a gauge potential shows the
failure with an explicit witness; factoring M⊗Omega by the graded
submodule J generated by second-commutator images repairs it, and on the
quotient both linearities hold.  (This demo runs the full pipeline on the
m2_grass model and takes a second or two.)
"""

from pathlib import Path

from bimodconn import Pipeline, parse_model
from bimodconn.report import rat_str

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> None:
    p = Pipeline(
        parse_model(str(MODELS / "m2_grass.model")).connections["nabla"])
    res = p.curvature
    print("curvature is zero:", res.operator.is_zero())
    print("curvature left-linear upstairs:", res.left_linear)
    w = res.witness
    print("witness: algebra basis", w["algebra_basis"],
          "module basis", w["module_basis"],
          "difference", [rat_str(x) for x in w["difference"]])

    print("J dims per degree:", p.j_ideal.dims())
    om = p.omega_m
    print("Omega(M) dims per degree:", om.dims())
    for v in om.verdicts:
        if v.check_id.startswith("curvature"):
            print(" ", v.check_id, "->", v.status)


if __name__ == "__main__":
    main()
