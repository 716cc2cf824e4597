"""Exact computer algebra for connections on bimodules over finite-dimensional algebras."""

from .linalg import QuotientSpace, null_space, quotient, rank, row_reduce
from .algebra import (Algebra, BalancedTensor, Bimodule, check_algebra,
                      check_bimodule, tensor_over_A)
from .calculus import (CalculusMorphism, GradedCalculus, UniversalCalculus,
                       preceq, quotient_calculus, universal_graded)
from .forms import Forms
from .connection import (Connection, DegreeRHom, check_right_leibniz,
                         induced_first_order, kappa0_op, kappa1, nabla_hat,
                         sigma_exists)
from .curvature import (InducedCalculus, OmegaHat, OmegaM, extend_connection,
                        j_ideal, sigma_full)
from .tensorconn import (associated_connection, check_compatibility,
                         degeneracy_brute, degeneracy_submodules, nu_hat,
                         tensor_connection_induced,
                         tensor_connection_original)
from .model import ModelError, ModelFile, parse_model
from .report import Report, Verdict

__all__ = [
    "Algebra", "BalancedTensor", "Bimodule", "CalculusMorphism",
    "Connection", "DegreeRHom", "Forms", "GradedCalculus",
    "InducedCalculus", "ModelError", "ModelFile", "OmegaHat", "OmegaM",
    "QuotientSpace", "Report", "UniversalCalculus", "Verdict",
    "associated_connection", "check_algebra", "check_bimodule",
    "check_compatibility", "check_right_leibniz", "degeneracy_brute",
    "degeneracy_submodules", "extend_connection",
    "induced_first_order", "j_ideal", "kappa0_op", "kappa1", "nabla_hat",
    "null_space", "nu_hat", "parse_model", "preceq", "quotient",
    "quotient_calculus", "rank", "row_reduce", "sigma_exists", "sigma_full",
    "tensor_connection_induced", "tensor_connection_original",
    "tensor_over_A", "universal_graded",
]
