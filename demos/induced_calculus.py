"""Walkthrough: the differential calculus a connection induces.

A connection on a bimodule M turns left multiplications f-hat into
degree-raising operators via the commutator nabla-hat; the span of
f-hat∘(nabla-hat g-hat)∘h-hat is a new first-order calculus on the algebra,
the image of kappa1 (f·dg ↦ f-hat∘nabla-hat g-hat), and iterating the
construction gives a full graded calculus (Omega_nabla, d_nabla).  This
script builds it for the flat connection nabla = d on M = A over the
two-point algebra and shows it reproduces the calculus we started from.
"""

from pathlib import Path

from bimodconn import Pipeline, parse_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> None:
    p = Pipeline(
        parse_model(str(MODELS / "a2_flat.model")).connections["nabla"])
    print("calculus dims (degrees 0..3):", p.conn.calculus.dims())

    ifo = p.induced_first_order
    print("dim of the induced degree-one space:", ifo.dim)
    for v in ifo.verdicts:
        print(" ", v.check_id, "->", v.status)

    # the induced degree-one space is kappa1's image, so its dimension is
    # kappa1's rank
    injective = ifo.dim == p.conn.calculus.universal.bar_dim(1)
    print("kappa1 rank:", ifo.dim, "(injective)" if injective else "")

    ic = p.induced_calculus
    print("induced calculus dims:", ic.calculus.dims())
    cmp = ic.compare()
    print("induced ⪯ original:", cmp.dims["induced_preceq_calculus"])
    print("original ⪯ induced:", cmp.dims["calculus_preceq_induced"])


if __name__ == "__main__":
    main()
