"""Walkthrough: when no generalized permutation sigma exists.

A left Leibniz rule for a connection needs a map sigma sending
Omega^1 ⊗ M to M ⊗ Omega^1.  It exists exactly when kappa1 annihilates the
defining kernel K of the calculus.  On the quotient calculus of the
two-point algebra the flat connection (a2_quotient) admits sigma, but the
shipped a2_twist model — a connection on the bimodule of degree-one
universal forms — does not: kappa1 sends an element of K to a nonzero operator, so nothing
can factor through the projection.
"""

from pathlib import Path

from bimodconn import Pipeline, parse_model
from bimodconn.report import rat_str

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> None:
    flat = Pipeline(
        parse_model(str(MODELS / "a2_quotient.model")).connections["nabla"])
    print("flat connection on the quotient calculus: sigma exists =",
          flat.sigma.exists)

    twist = Pipeline(
        parse_model(str(MODELS / "a2_twist.model")).connections["nabla"])
    k1 = twist.kappa1
    res = twist.sigma
    print("a2_twist model: sigma exists =", res.exists)
    wit = res.witness_bar
    print("witness in K (bar coordinates):", [rat_str(x) for x in wit])
    # kappa1 takes a bar vector sparse: its nonzero entries by index
    alpha = {u: x for u, x in enumerate(wit) if x}
    print("kappa1(witness) is zero:", k1.op(alpha).is_zero())


if __name__ == "__main__":
    main()
