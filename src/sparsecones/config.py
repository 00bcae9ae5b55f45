"""Global numerical tolerances.

A single zero tolerance governs every support / rank / sparsity decision in
the library, through two rules.  Supports: an entry of magnitude at most
``zero_tol() * (1 + scale)`` counts as zero, where ``scale`` is the max-norm
of the containing vector or matrix (:func:`zero_cutoff`; every normal-cone
test judges entries and eigenvalues by it).  Ranks: an eigenvalue or
singular value of magnitude at most ``zero_tol() * max(1, scale)`` counts as
zero, where ``scale`` is the largest magnitude (``linalg.numerical_rank``);
a PSD point's rank is that of its spectrum clamped at zero.  The default can
be overridden with the ``SPARSECONES_ZERO_TOL`` environment variable or
:func:`set_zero_tol`, which changes process-global state.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_ZERO_TOL = 1e-10

# Looser tolerance for residual-style checks: the PSD-point rule
# (matrix_sets.psd_spectrum), products and borders that should vanish in the
# matrix and EDM embedding cones, and eigenvalue ties (boundary_tie).
MEMBERSHIP_TOL = 1e-9

_zero_tol = float(os.environ.get("SPARSECONES_ZERO_TOL", DEFAULT_ZERO_TOL))
if _zero_tol <= 0.0:
    raise ValueError("SPARSECONES_ZERO_TOL must be positive")


def zero_tol() -> float:
    """Current global zero tolerance."""
    return _zero_tol


def set_zero_tol(value: float) -> None:
    """Override the global zero tolerance (must be positive)."""
    global _zero_tol
    value = float(value)
    if value <= 0.0:
        raise ValueError("zero tolerance must be positive")
    _zero_tol = value


def zero_cutoff(a) -> float:
    """Absolute cutoff below which entries of ``a`` count as zero."""
    scale = abs(np.asarray(a, dtype=float)).max(initial=0.0)
    return _zero_tol * (1.0 + float(scale))
