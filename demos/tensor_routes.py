"""Walkthrough: two routes to a connection on a tensor product N⊗M.

Given a right-module connection on N and a bimodule connection on M, one
can either push the N-side derivative down to the induced calculus with
nu-hat = id⊗kappa-hat and add b⊗(nabla a), or first build the associated
connection on N against (Omega_nabla, d_nabla) and use the interpretation
rule (b⊗Phi)a := b⊗Phi(a).  Both routes are constructed here for the
a2_flat model and shown to produce the same columns.
"""

from pathlib import Path

from bimodconn import Pipeline, parse_model
from bimodconn.connection import Connection
from bimodconn.tensorconn import (associated_connection, degeneracy_brute,
                                  degeneracy_submodules, nu_hat,
                                  tensor_connection_induced,
                                  tensor_connection_original)

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> None:
    p = Pipeline(
        parse_model(str(MODELS / "a2_flat.model")).connections["nabla"])
    conn, ic = p.conn, p.induced_calculus

    pair = degeneracy_submodules(conn.module, conn.module)
    print("degeneracy kernels N0, M0:", len(pair.n0), len(pair.m0))
    print("brute-force pairing oracle:", degeneracy_brute(pair).status)

    rc = Connection(conn.forms, conn.nabla)
    nu = nu_hat(rc, p.kappa_hat)
    print("nu-hat rank in degree 1:", nu.rank(1))

    tco = tensor_connection_original(rc, conn, nu, p.sigma)
    assoc = associated_connection(rc, nu)
    tci = tensor_connection_induced(assoc.connection, conn, ic)
    for v in tco.verdicts + assoc.verdicts:
        print(" ", v.check_id, "->", v.status)
    print("routes agree entrywise:",
          tci.connection.nabla == tco.connection.nabla)


if __name__ == "__main__":
    main()
