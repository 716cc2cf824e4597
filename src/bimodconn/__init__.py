"""Exact computer algebra for connections on bimodules over finite-dimensional algebras.

``parse_model`` reads a model file, and ``Pipeline(conn)`` runs the
analysis stages of one of its connections; ``bimodconn.cli`` turns them
into a ``Report``.  Every stage and helper stays importable from its own
submodule.
"""

from .curvature import Pipeline
from .model import ModelError, ModelFile, parse_model
from .report import Report, Verdict

__all__ = ["ModelError", "ModelFile", "Pipeline", "Report", "Verdict",
           "parse_model"]
