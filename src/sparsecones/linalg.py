"""Dense small-scale linear algebra used throughout the library.

Symmetric eigendecomposition (LAPACK ``eigh`` under a fixed ordering and
sign convention), the numerical rank rule and the null spaces it defines,
orthonormal subspaces with coordinate-restricted null spaces, and a phase-1
simplex kernel that decides whether a subspace contains a nonzero
nonnegative vector.  Everything here is sized for desk-scale problems
(dimensions in the low hundreds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import zero_tol
from .errors import NumericalError, PreconditionError

_SYM_TOL = 1e-12


def check_finite(x: np.ndarray, name: str) -> np.ndarray:
    """Return ``x``; raise :class:`PreconditionError` if it has a NaN or
    infinite entry."""
    if not np.isfinite(x).all():
        raise PreconditionError(f"{name} has a NaN or infinite entry")
    return x


def symmetrize(x: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * (x + x^T) as a float copy."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + x.T)


def check_symmetric(x, name: str = "matrix") -> np.ndarray:
    """Validate that ``x`` is square and symmetric; return a symmetrized copy,
    ``0.5 * (x + x.T)``, the same bits as :func:`symmetrize`.

    Asymmetry up to roundoff (1e-12 relative) is tolerated and averaged away;
    anything larger raises ``ValueError``.  NaN or infinite entries raise
    :class:`PreconditionError`.  Every public entry that takes a symmetric
    matrix validates it here, once.  A bitwise-symmetric input with a finite
    sum of squares (every completion iterate) is returned as a copy after a
    byte comparison and one dot product, the same bits as the average.
    Entries above about 1e154 overflow that product (numpy warns) and take
    the full check.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be square, got shape {x.shape}")
    v = x.ravel()
    if x.tobytes() == x.T.tobytes() and math.isfinite(v.dot(v)):
        return x.copy()
    scale = float(abs(x).max()) if x.size else 0.0
    if not math.isfinite(scale):
        raise PreconditionError(f"{name} has a NaN or infinite entry")
    asym = float(abs(x - x.T).max()) if x.size else 0.0
    if asym > _SYM_TOL * (1.0 + scale):
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (x + x.T)


@dataclass(frozen=True)
class EigenDecomp:
    """Ordered spectral decomposition ``x = u.T @ diag(lam) @ u``.

    Rows of ``u`` are the eigenvectors; ``lam`` is non-increasing.  Signs are
    fixed so the first non-negligible component of each eigenvector is
    positive, which makes the decomposition deterministic.
    """

    u: np.ndarray
    lam: np.ndarray


def eig_sym(x) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK
    (``numpy.linalg.eigh``) in a fixed normal form: eigenvalues in
    non-increasing order, exact ties ordered by the index of each
    eigenvector's first significant component, and that component positive.
    Identical input gives identical output for a fixed numpy/BLAS build and
    BLAS thread count.
    """
    a = check_symmetric(x)
    lam, w = np.linalg.eigh(a)
    u = w.T
    rows = np.arange(lam.size)
    lead = np.argmax(np.abs(u) > 1e-12, axis=1) if lam.size else rows
    u = u * np.where(u[rows, lead] < 0.0, -1.0, 1.0)[:, None]
    order = np.lexsort((lead, -lam))
    return EigenDecomp(u=u[order], lam=lam[order])


def numerical_rank(values):
    """Number of entries of ``values`` (eigenvalues or singular values) of
    magnitude above ``zero_tol() * max(1, largest magnitude)``: the one rank
    rule of the library.  Counted along the last axis: an ``int`` for a 1-D
    input, an integer array of per-row ranks for a stack."""
    mag = np.abs(values)
    above = mag > zero_tol() * mag.max(axis=-1, keepdims=True, initial=1.0)
    if mag.ndim == 1:
        return int(np.count_nonzero(above))
    return np.count_nonzero(above, axis=-1)


def null_space(a) -> np.ndarray:
    """Orthonormal basis rows of the null space of ``a``, from an SVD whose
    rank is :func:`numerical_rank` of the singular values.  The SVD is thin
    unless ``a`` is wide: with at least as many rows as columns the thin
    ``Vt`` is already the full basis, and the tall ``U`` is never read."""
    a = np.asarray(a)
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vt[numerical_rank(sv):]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n stored as orthonormal basis rows."""

    ambient_dim: int
    basis: np.ndarray  # (dim, ambient_dim), orthonormal rows

    @classmethod
    def span(cls, vectors) -> "Subspace":
        """Subspace spanned by the given vectors (rows), orthonormalized.

        Directions that :func:`numerical_rank` counts as zero are dropped.
        """
        va = np.atleast_2d(np.asarray(vectors, dtype=float))
        n = va.shape[1]
        if va.size == 0 or not np.any(va):
            return cls(ambient_dim=n, basis=np.zeros((0, n)))
        _, sv, vt = np.linalg.svd(va, full_matrices=False)
        return cls(ambient_dim=n, basis=vt[: numerical_rank(sv)].copy())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self.basis.T @ (self.basis @ y)

    def contains(self, y, tol: float = 1e-8) -> bool:
        y = np.asarray(y, dtype=float)
        return float(np.linalg.norm(y - self.project(y))) <= tol * (
            1.0 + float(np.linalg.norm(y))
        )


def null_intersection_basis(v: Subspace, coords: Iterable[int]) -> np.ndarray:
    """Orthonormal basis rows of ``v`` intersected with the coordinate
    subspace ``{y : y_j = 0 for all j not in coords}``.  Indices are 0-based.

    The coefficients are the :func:`null_space` of the transposed
    off-``coords`` columns of ``v.basis``; a 0-dimensional ``v`` gives
    shape ``(0, n)``.
    """
    coords = set(int(j) for j in coords)
    if not coords <= set(range(v.ambient_dim)):
        raise ValueError("coords out of range")
    complement = sorted(set(range(v.ambient_dim)) - coords)
    return null_space(v.basis[:, complement].T) @ v.basis


def lp_cone_point(v: Subspace, zero_coords: Iterable[int] = ()):
    """A vector y in ``v`` with y >= 0, sum(y) = 1 and y zero on
    ``zero_coords``, or ``None`` if no such vector exists.

    Posed in standard form on the free coordinates, those off
    ``zero_coords``.  The rows C of :func:`null_intersection_basis` there
    span the candidates, so the system is {x >= 0 : N x = 0, sum(x) = 1},
    N the :func:`null_space` of C, decided by :func:`_phase1_simplex`.  An
    empty C (``v`` trivial, every coordinate zero, or no direction of ``v``
    vanishing on ``zero_coords``) gives ``None``.
    """
    n = v.ambient_dim
    zero = set(int(j) for j in zero_coords)
    if not zero <= set(range(n)):
        raise ValueError("zero_coords out of range")
    free = [j for j in range(n) if j not in zero]
    c = null_intersection_basis(v, free)[:, free]
    if not c.size:
        return None
    a_eq = np.vstack([null_space(c), np.ones(len(free))])
    x = _phase1_simplex(a_eq, np.eye(a_eq.shape[0])[-1])
    if x is None:
        return None
    y = np.zeros(n)
    y[free] = x
    return y


def _phase1_simplex(a_eq, b_eq):
    """Feasible point of {x >= 0 : a_eq x = b_eq}, for b_eq >= 0, or None.

    Full-tableau phase-1 with artificial variables, minimizing their sum under
    Bland's rule, which rules out cycling: the entering column is the first
    reduced cost below -1e-11; the leaving row has the minimum ratio among
    the rows whose pivot entry is above 1e-11, ties within 1e-12 of that
    minimum going to the lowest basis index.  The system counts as feasible
    when the phase-1 objective is at most 1e-9.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    m, n = a.shape
    maxiter = 1000 + 50 * (m + n)
    # tableau: [A | I | b] with phase-1 cost row beneath
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[-1, :n] = -a.sum(axis=0)
    t[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    pivot_tol = 1e-11
    for _ in range(maxiter):
        negative = np.flatnonzero(t[-1, : n + m] < -pivot_tol)
        if not negative.size:
            break
        entering = negative[0]
        rows = np.flatnonzero(t[:m, entering] > pivot_tol)
        if not rows.size:
            raise NumericalError("phase-1 simplex found an unbounded direction")
        ratio = t[rows, -1] / t[rows, entering]
        ties = rows[ratio <= ratio.min() + 1e-12]
        leaving = ties[np.argmin(basis[ties])]
        t[leaving] /= t[leaving, entering]
        col = t[:, entering].copy()
        col[leaving] = 0.0
        t -= np.outer(col, t[leaving])
        basis[leaving] = entering
    else:
        raise NumericalError(f"phase-1 simplex iteration cap {maxiter} exceeded")
    objective = -t[-1, -1]
    if objective > 1e-9:  # the feasibility margin
        return None
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = t[:m, -1][structural]
    return x
