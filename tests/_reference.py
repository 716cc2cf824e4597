"""The per-pair checks of κ's identities and of σ_u's: the reference the
checks of ``InducedCalculus`` and ``sigma_full`` are tested against.

Each pair builds the raw operators it needs, composes them and projects the
result to Ω(M), and ``sigma_full``'s identities are decided on their own,
not read off ``InducedCalculus``.  Each function returns the witness of the
first failing pair, or None when every pair holds.
"""

from bimodconn.connection import DegreeRHom, nabla_hat
from bimodconn.linalg import mat_mul, mat_vec, zeros


def kappa_multiplicative(induced):
    """κ(u·e_k) = κ(u)∘κ(e_k), projected to Ω(M), on bar basis pairs."""
    uni = induced.connection.calculus.universal
    a = induced.connection.module.algebra
    for r in range(uni.D + 1):
        rmul = [uni.right_mult_bar_matrix(r, a.basis_vec(kj))
                for kj in range(a.dim)]
        for ki in range(uni.bar_dim(r)):
            u = zeros(uni.bar_dim(r))
            u[ki] = 1
            for kj in range(a.dim):
                moved = mat_vec(rmul[kj], u)
                lhs = mat_vec(induced.kappa[r], moved)
                comp = induced._raw[r][ki].compose(induced._raw[0][kj])
                if lhs != induced._project_op(r, comp):
                    return {"degree": r, "basis": [ki, kj]}
    return None


def kappa_d_diagram(induced):
    """κ∘d_u = ∇̂∘κ after projection to Ω(M), on bar basis elements."""
    c = induced.connection
    uni = c.calculus.universal
    for r in range(uni.D):
        dm = uni.d_bar_matrix(r)
        for k in range(uni.bar_dim(r)):
            bar = zeros(uni.bar_dim(r))
            bar[k] = 1
            lhs = mat_vec(induced.kappa[r + 1], mat_vec(dm, bar))
            rhs = induced._project_op(r + 1, nabla_hat(c, induced._raw[r][k]))
            if lhs != rhs:
                return {"degree": r, "basis": k}
    return None


def sigma_u_multiplicative(induced):
    """σ_u(ω₁ω₂⊗ξ) = σ_u(ω₁⊗σ_u(ω₂⊗ξ)) modulo J, for ω₂ = e_k (indices
    0..n−1) and ω₂ = de_j (indices n, n+1, … over the unit complement)."""
    uni = induced.connection.calculus.universal
    a = uni.algebra
    second = []
    for a_i in range(a.dim):
        second.append((0, a.basis_vec(a_i), induced._raw[0][a_i]))
    for j in uni.complement:
        dj = uni.d(0, a.basis_vec(j))
        second.append((1, dj, induced.kappa_raw(1, dj)))
    for r in range(uni.D + 1):
        for ki in range(uni.bar_dim(r)):
            u = zeros(uni.bar_dim(r))
            u[ki] = 1
            for kj, (s, v, vop) in enumerate(second):
                if r + s > uni.D:
                    continue
                lhs = mat_vec(induced.kappa[r + s], uni.product(r, u, s, v))
                rhs = induced._project_op(r + s,
                                          induced._raw[r][ki].compose(vop))
                if lhs != rhs:
                    return {"degree": r, "basis": [ki, kj]}
    return None


def sigma_u_derivation(induced):
    """∇σ_u(ω⊗ξ) = σ_u(d_uω⊗ξ) + (−1)^r σ_u(ω⊗∇ξ) modulo J, on bar basis
    elements, with ∇∘κ(ω) and κ(ω)∘∇ composed apart."""
    c = induced.connection
    uni = c.calculus.universal
    for r in range(uni.D):
        sign = 1 if r % 2 == 0 else -1
        dm = uni.d_bar_matrix(r)
        for k in range(uni.bar_dim(r)):
            bar = zeros(uni.bar_dim(r))
            bar[k] = 1
            op = induced._raw[r][k]
            lhs = mat_mul(c.nabla_ext_matrix(r), op.matrix)
            first = mat_vec(induced.kappa[r + 1], mat_vec(dm, bar))
            second = mat_mul(op.ext_matrix(1), c.nabla)
            rest = DegreeRHom(c.forms, r + 1,
                              [[x - sign * y for x, y in zip(rx, ry)]
                               for rx, ry in zip(lhs, second)])
            if induced._project_op(r + 1, rest) != first:
                return {"degree": r, "basis": k}
    return None
