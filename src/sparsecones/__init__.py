"""Projections, normal cones and regularity certificates for nonnegative
sparse vectors and low-rank positive semidefinite matrices, plus
Douglas-Rachford / alternating-projection feasibility solvers and Euclidean
distance matrix completion."""

from . import config, edm, linalg, matrix_sets, regularity, solvers, vector_sets
from .config import zero_tol
from .errors import NumericalError, PreconditionError

__version__ = "0.1.0"

__all__ = [
    "config",
    "linalg",
    "vector_sets",
    "matrix_sets",
    "regularity",
    "solvers",
    "edm",
    "zero_tol",
    "NumericalError",
    "PreconditionError",
    "__version__",
]
