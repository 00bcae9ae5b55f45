"""Spectral lifting of the vector results to symmetric matrices.

Projections onto PSD matrices of bounded rank (and the sign-free low-rank
set) and their normal cones.  Each projection is one eigendecomposition and
the vector routine on the sorted spectrum; the PSD rank-``s`` projection,
the solvers' hot path, writes that lift out on the raw ``eigh`` output with
the same bits, and the PSD projection is its case ``s = n``.  An annihilating
pair commutes, so each PSD cone test is the annihilation check plus the
vector test, with its zero cutoff, on the joint spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import vector_sets
from .config import MEMBERSHIP_TOL
from .errors import PreconditionError
from .linalg import check_symmetric, eig_sym, numerical_rank, symmetrize


def psd_spectrum(x) -> tuple:
    """The one PSD-point rule: ``(eig_sym(x), is_psd, rank)`` for a
    symmetric ``x``.  ``x`` is PSD when its smallest eigenvalue is at least
    ``-MEMBERSHIP_TOL * (1 + ||x||_F)``, or when it is empty; its rank is
    :func:`numerical_rank` of the spectrum clamped at zero."""
    dec = eig_sym(x)
    tol = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(x)))
    psd = dec.lam.size == 0 or dec.lam[-1] >= -tol
    return dec, bool(psd), numerical_rank(np.maximum(dec.lam, 0.0))


def validate_psd_low_rank(x, s: int, name: str = "Xbar") -> tuple:
    """Validate membership in the PSD rank-at-most-s set under
    :func:`psd_spectrum`; return (X, decomp, rank)."""
    x = check_symmetric(x, name)
    s = vector_sets._require_s(s, x.shape[0])
    dec, psd, r = psd_spectrum(x)
    if not psd:
        raise PreconditionError(f"{name} is not positive semidefinite")
    if r > s:
        raise PreconditionError(f"{name} has rank {r} > s = {s}")
    return x, dec, r


def project_psd(x) -> np.ndarray:
    """Projection onto positive semidefinite matrices (clamp eigenvalues):
    :func:`project_psd_low_rank` at full rank, the same bits as the lift of
    ``vector_sets.project_nonneg`` through :func:`eig_sym`."""
    x = check_symmetric(x)
    return project_psd_low_rank(x, x.shape[0])


def project_psd_low_rank(x, s: int) -> np.ndarray:
    """Canonical projection onto PSD matrices of rank at most ``s``: keep the
    ``s`` largest eigenvalues clamped at zero, drop the rest.

    One validation (its fast path on the embedding projection's block) and
    one LAPACK ``eigh``; the result is rebuilt from the top ``s`` eigenpairs
    alone as ``(W_s * max(lam_s, 0)) @ W_s.T``, symmetrized.  A sign flip of
    an eigenvector cancels exactly in that product, so the sign part of the
    :func:`eig_sym` normal form is not needed.  Its tie order is needed only
    when the top ``s + 1`` eigenvalues hold an exact tie, so only then is
    the normal form built.  The result is the lift of
    ``vector_sets.top_s_nonneg`` through :func:`eig_sym` bit for bit on the
    OpenBLAS build it was measured on; the tests check that for every ``s``
    at n <= 8 and n = 34.

    The projection is set-valued only through eigenspace degeneracy; this
    returns the member produced by the deterministic eigensolver.  Use
    :func:`boundary_tie` to detect the degenerate case.
    """
    x = check_symmetric(x)
    s = vector_sets._require_s(s, x.shape[0])
    lam, w = np.linalg.eigh(x)
    top = lam[-(s + 1):].tolist()
    if len(set(top)) < len(top):
        dec = eig_sym(x)
        lam, u = dec.lam[:s], dec.u[:s]
    else:
        # eigenvector rows in one C-contiguous block, laid out as in
        # EigenDecomp, so the product takes the BLAS path of the full lift
        lam, u = lam[::-1][:s], np.ascontiguousarray(w.T[::-1][:s])
    return symmetrize((u.T * np.maximum(lam, 0.0)) @ u)


def project_low_rank(x, s: int) -> np.ndarray:
    """Canonical projection onto symmetric matrices of rank at most ``s``:
    ``vector_sets.project_sparse`` on the spectrum of ``x`` (keep the ``s``
    eigenvalues largest in magnitude, ties broken by eigenvalue order),
    reassembled with the same eigenvectors."""
    dec = eig_sym(x)
    lam = vector_sets.project_sparse(dec.lam, s).canonical
    return symmetrize((dec.u.T * lam) @ dec.u)


def _cut_tie(x, s: int, spectrum_op) -> bool:
    """True when the non-increasing values ``spectrum_op(lam)`` at positions
    ``s`` and ``s + 1`` coincide within tolerance and are positive."""
    x = check_symmetric(x)
    m = x.shape[0]
    s = int(s)
    if s <= 0 or s >= m:
        return False
    values = spectrum_op(eig_sym(x).lam)
    tol = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(x)))
    return bool(values[s - 1] > tol and values[s - 1] - values[s] <= tol)


def boundary_tie(x, s: int) -> bool:
    """True when the clamped eigenvalues at positions ``s`` and ``s + 1``
    coincide within tolerance and are positive, i.e. the PSD rank-``s``
    projection is set-valued at ``x``."""
    return _cut_tie(x, s, lambda lam: np.maximum(lam, 0.0))


def low_rank_tie(x, s: int) -> bool:
    """The same test on the eigenvalue magnitudes in non-increasing order,
    i.e. the sign-free rank-``s`` projection is set-valued at ``x``."""
    return _cut_tie(x, s, lambda lam: -np.sort(-np.abs(lam)))


_BRANCHES = {"nonpositive-branch": "nsd-branch", "sparsity-branch": "low-rank-branch"}


@dataclass(frozen=True)
class MatrixConeReport:
    """Normal-cone membership outcome with diagnostics.

    ``residual`` is the Frobenius norm of ``Xbar @ Y``; ``y_eigenvalues`` the
    ordered spectrum of ``Y``.  A spectral ``violated_condition`` is the
    vector test's, on the joint spectrum.
    """

    is_member: bool
    branch: str  # "nsd-branch" | "low-rank-branch" | "both" | "none"
    residual: float
    y_eigenvalues: np.ndarray
    violated_condition: Optional[str] = None


def _annihilation(xbar, y) -> tuple:
    """Validate ``Y`` against ``Xbar``; return ``(Y, residual, vanishes)``
    with ``residual`` the Frobenius norm of ``Xbar @ Y`` and ``vanishes``
    whether it is zero within tolerance."""
    y = check_symmetric(y, "Y")
    if y.shape != xbar.shape:
        raise ValueError("Xbar and Y must have the same dimension")
    residual = float(np.linalg.norm(xbar @ y))
    tol = MEMBERSHIP_TOL * (
        1.0 + float(np.linalg.norm(xbar)) * float(np.linalg.norm(y))
    )
    return y, residual, residual <= tol


def _joint_spectrum(xbar, y, s: int) -> tuple:
    """Validate the pair; return ``(x, y_vec, residual, vanishes, lam_y)``.
    An annihilating pair commutes.  The vector cones read ``x`` only by its
    support: the first ``r = rank(Xbar)`` entries.  ``y_vec`` is the spectrum
    of ``Y`` by increasing magnitude; complementarity needs its ``r`` smallest
    to vanish, as ``Y`` must on the range of ``Xbar``."""
    xbar, _, r = validate_psd_low_rank(xbar, s)
    y, residual, vanishes = _annihilation(xbar, y)
    m = xbar.shape[0]
    lam_y = eig_sym(y).lam
    x = np.zeros(m)
    x[:r] = 1.0
    y_vec = lam_y[np.argsort(abs(lam_y), kind="stable")]
    return x, y_vec, residual, vanishes, lam_y


def normal_cone_contains(xbar, y, s: int) -> MatrixConeReport:
    """Membership of ``Y`` in the normal cone to the PSD rank-at-most-``s``
    set at ``Xbar``.

    The cone is the union of directions annihilating ``Xbar`` that are either
    negative semidefinite or of rank at most ``m - s``: the annihilation
    check, then ``vector_sets.normal_cone_contains`` on the joint spectrum,
    whose nonpositive and sparsity branches are the NSD and low-rank ones.
    """
    x, y_vec, residual, vanishes, lam_y = _joint_spectrum(xbar, y, s)
    if not vanishes:
        return MatrixConeReport(False, "none", residual, lam_y, "Xbar @ Y is not zero")
    rep = vector_sets.normal_cone_contains(x, y_vec, s)
    branch = _BRANCHES.get(rep.branch, rep.branch)
    return MatrixConeReport(
        rep.is_member, branch, residual, lam_y, rep.violated_condition
    )


def low_rank_normal_cone_contains(xbar, y, s: int) -> bool:
    """Membership of ``Y`` in the normal cone to the sign-free rank-at-most-
    ``s`` set at ``Xbar``, which must have rank exactly ``s`` (the formula is
    only available at maximal rank): the condition is ``Xbar @ Y = 0``."""
    xbar = check_symmetric(xbar, "Xbar")
    _, _, vanishes = _annihilation(xbar, y)
    s = int(s)
    r = numerical_rank(eig_sym(xbar).lam)
    if r != s:
        raise PreconditionError(
            f"Xbar has rank {r} != s = {s}; the normal-cone formula requires "
            "maximal rank"
        )
    return bool(vanishes)


def prox_normal_cone_contains(xbar, y, s: int) -> bool:
    """Membership of ``Y`` in the proximal normal cone at ``Xbar``: below
    maximal rank this is the PSD-cone normal cone (``Xbar @ Y = 0`` and ``Y``
    NSD); at maximal rank only ``Xbar @ Y = 0`` is required.  The annihilation
    check, then ``vector_sets.prox_normal_cone_contains`` on the joint
    spectrum."""
    x, y_vec, _, vanishes, _ = _joint_spectrum(xbar, y, s)
    return vanishes and vector_sets.prox_normal_cone_contains(x, y_vec, s)
