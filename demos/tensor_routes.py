"""Walkthrough: two routes to one connection on a tensor product N⊗M.

Given a right-module connection on N and a bimodule connection on M, one
can either push the N-side derivative down to the induced calculus with
nu-hat = id⊗kappa-hat and add b⊗(nabla a), or first build the associated
connection on N against (Omega_nabla, d_nabla) and use the interpretation
rule (b⊗Phi)a := b⊗Phi(a).  nu-hat is the identity in degree 0, so the
associated connection is nu-hat∘nabla' itself: the tensor connection is
built once, from it, and both routes report that one connection.  This
runs both routes for the a2_flat model and shows the associated
connection is nu-hat's.
"""

from pathlib import Path

from bimodconn import Pipeline, parse_model
from bimodconn.connection import Connection
from bimodconn.tensorconn import (TensorConnection, associated_connection,
                                  degeneracy_brute, degeneracy_submodules,
                                  nu_hat, tensor_connection_induced,
                                  tensor_connection_original)

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> None:
    p = Pipeline(
        parse_model(str(MODELS / "a2_flat.model")).connections["nabla"])
    conn = p.conn

    pair = degeneracy_submodules(conn.module, conn.module,
                                 conn.forms.tensors(conn.module))
    print("degeneracy kernels N0, M0:", len(pair.n0), len(pair.m0))
    print("brute-force pairing oracle:", degeneracy_brute(pair).status)

    rc = Connection(conn.forms, conn.nabla)
    nu = nu_hat(rc, p.kappa_hat)
    print("nu-hat rank in degree 1:", nu.rank(1))

    # one tensor connection, built by the first route that reports it
    tc = TensorConnection(conn.forms.tensors(rc.module), nu.pushed, conn)
    original = tensor_connection_original(tc, rc, p.sigma)
    assoc = associated_connection(rc, nu)
    induced = tensor_connection_induced(tc)
    for v in original + assoc.verdicts + induced:
        print(" ", v.check_id, "->", v.status)
    print("associated connection is nu-hat∘nabla':",
          assoc.connection is nu.pushed)


if __name__ == "__main__":
    main()
