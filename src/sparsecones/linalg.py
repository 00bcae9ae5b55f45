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

    @property
    def dim(self) -> int:
        return self.lam.shape[0]

    def reconstruct(self) -> np.ndarray:
        return symmetrize((self.u.T * self.lam) @ self.u)


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
    """
    coords = set(int(j) for j in coords)
    if not coords <= set(range(v.ambient_dim)):
        raise ValueError("coords out of range")
    k = v.dim
    if k == 0:
        return np.zeros((0, v.ambient_dim))
    complement = sorted(set(range(v.ambient_dim)) - coords)
    if not complement:
        return v.basis.copy()
    m = v.basis[:, complement]  # k x |complement|; need c with c @ m = 0
    # with k <= |complement| the thin U is already the full k x k
    u, sv, _ = np.linalg.svd(m, full_matrices=k > len(complement))
    c = u[:, numerical_rank(sv):].T  # orthonormal coefficient rows
    return c @ v.basis


def lp_cone_point(
    v: Subspace, zero_coords: Iterable[int] = (), feas_tol: float = 1e-9
):
    """A vector y in ``v`` with y >= 0, sum(y) = 1 and y zero on
    ``zero_coords``, or ``None`` if no such vector exists.

    Decided by a phase-1 simplex with Bland's rule on the equality form; the
    feasibility margin is ``feas_tol``.
    """
    n = v.ambient_dim
    k = v.dim
    zero = sorted(set(int(j) for j in zero_coords))
    if not set(zero) <= set(range(n)):
        raise ValueError("zero_coords out of range")
    if k == 0:
        return None
    free = [j for j in range(n) if j not in zero]
    f = len(free)
    if f == 0:
        return None
    b_free = v.basis[:, free]  # k x f
    b_zero = v.basis[:, zero]  # k x |zero|
    # variables: [y_free (f), u (k), w (k)] with coefficients c = u - w
    rows = f + len(zero) + 1
    cols = f + 2 * k
    a_eq = np.zeros((rows, cols))
    b_eq = np.zeros(rows)
    a_eq[:f, :f] = np.eye(f)
    a_eq[:f, f : f + k] = -b_free.T
    a_eq[:f, f + k :] = b_free.T
    if zero:
        a_eq[f : f + len(zero), f : f + k] = b_zero.T
        a_eq[f : f + len(zero), f + k :] = -b_zero.T
    a_eq[-1, :f] = 1.0
    b_eq[-1] = 1.0
    x = _phase1_simplex(a_eq, b_eq, feas_tol=feas_tol)
    if x is None:
        return None
    y = np.zeros(n)
    y[free] = x[:f]
    return y


def _phase1_simplex(a_eq, b_eq, feas_tol: float = 1e-9, maxiter: int | None = None):
    """Feasible point of {x >= 0 : a_eq x = b_eq} or None.

    Full-tableau phase-1 with artificial variables, minimizing their sum under
    Bland's rule (entering: lowest-index negative reduced cost; leaving:
    lowest-index among minimum-ratio ties), which rules out cycling.
    """
    a = np.asarray(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float).copy()
    m, n = a.shape
    a = a.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    if maxiter is None:
        maxiter = 1000 + 50 * (m + n)
    # tableau: [A | I | b] with phase-1 cost row beneath
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    t[-1, :n] = -a.sum(axis=0)
    t[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    pivot_tol = 1e-11
    for _ in range(maxiter):
        costs = t[-1, : n + m]
        entering = -1
        for j in range(n + m):
            if costs[j] < -pivot_tol:
                entering = j
                break
        if entering < 0:
            break
        col = t[:m, entering]
        best_ratio = None
        leaving = -1
        for i in range(m):
            if col[i] > pivot_tol:
                ratio = t[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - 1e-12
                    or (abs(ratio - best_ratio) <= 1e-12 and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise NumericalError("phase-1 simplex found an unbounded direction")
        piv = t[leaving, entering]
        t[leaving] /= piv
        for i in range(m + 1):
            if i != leaving and t[i, entering] != 0.0:
                t[i] -= t[i, entering] * t[leaving]
        basis[leaving] = entering
    else:
        raise NumericalError(f"phase-1 simplex iteration cap {maxiter} exceeded")
    objective = -t[-1, -1]
    if objective > feas_tol:
        return None
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i, -1]
    return x
