"""Low-rank Euclidean distance matrix completion.

A partial EDM instance holds squared distances for a known, symmetric index
set (the diagonal is always known and zero) together with a target embedding
dimension.  Completion is the two-set feasibility problem between the data
constraint (known entries fixed, everything nonnegative) and the geometry
constraint (the transformed upper-left block PSD of rank at most ``s``).  The
transform is conjugation by a fixed Householder reflector, a linear isometric
involution.  Whether the block is a PSD point, and its rank, is decided by
``matrix_sets.psd_spectrum``; the data normal cone is the vector orthant cone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .config import MEMBERSHIP_TOL, zero_cutoff
from .errors import PreconditionError
from . import matrix_sets, vector_sets
# eig_sym is not called here; perfbench's test_wrappers_patch_every_binding reads it
from .linalg import check_symmetric, eig_sym, symmetrize


@dataclass(frozen=True)
class HouseholderMap:
    """The linear isometry X -> Q(-X)Q with Q the Householder reflector for
    the all-ones-plus-corner vector.  Involution: applying it twice is the
    identity; it preserves the Frobenius norm."""

    dim: int
    q: np.ndarray

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim, self.dim)}, got {x.shape}")
        return -(self.q @ x @ self.q)


@lru_cache(maxsize=64)
def householder_map(n: int) -> HouseholderMap:
    """Cached reflector map for dimension ``n``."""
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    v = np.ones(n)
    v[-1] = 1.0 + np.sqrt(n)
    q = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    q.flags.writeable = False  # one cached array is shared by every caller
    return HouseholderMap(dim=n, q=q)


def transformed_block(x) -> np.ndarray:
    """Upper-left (n-1) x (n-1) block of the transformed matrix; PSD exactly
    when a hollow nonnegative ``x`` is a Euclidean distance matrix."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    y = householder_map(n).apply(x)
    return symmetrize(y[: n - 1, : n - 1])


@dataclass(frozen=True)
class PartialEdm:
    """A partially known matrix of squared distances.

    ``entries`` carries the known values (zeros elsewhere); ``known`` is the
    symmetric boolean mask, always containing the diagonal, with zero
    diagonal values; ``s`` is the target embedding dimension.  ``entries``
    is validated by :func:`check_symmetric`.
    """

    n_points: int
    entries: np.ndarray
    known: np.ndarray
    s: int

    def __post_init__(self):
        n = int(self.n_points)
        entries = np.asarray(self.entries, dtype=float)
        known = np.asarray(self.known, dtype=bool)
        if entries.shape != (n, n) or known.shape != (n, n):
            raise ValueError("entries and known must be n_points x n_points")
        entries = check_symmetric(entries, "entries")
        if not np.array_equal(known, known.T):
            raise ValueError("known mask must be symmetric")
        if not np.all(np.diag(known)):
            raise ValueError("diagonal entries must be known")
        if np.any(np.abs(np.diag(entries)) > 0.0):
            raise ValueError("diagonal of a squared-distance matrix must be zero")
        if np.any(entries[known] < 0.0):
            raise ValueError("known squared distances must be nonnegative")
        if not 0 <= int(self.s) <= n - 1:
            raise ValueError(f"s={self.s} out of range [0, {n - 1}]")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "s", int(self.s))

    def known_pairs(self) -> list:
        """Sorted strict upper-triangle (i, j) pairs with known entries."""
        i, j = np.nonzero(np.triu(self.known, 1))
        return list(zip(i.tolist(), j.tolist()))


def project_embedding_rank_core(n: int, s: int, x) -> np.ndarray:
    """Projection onto matrices whose transformed upper-left block is PSD of
    rank at most ``s``; border entries of the transform pass through.  ``x``
    is checked once, so the reflector is applied without the shape check of
    :meth:`HouseholderMap.apply`; a solver iterate, symmetric bit for bit,
    passes this check and the block's on the fast path of
    :func:`check_symmetric`."""
    x = check_symmetric(x, "X")
    if x.shape[0] != n:
        raise ValueError("dimension mismatch")
    q = householder_map(n).q
    y = -(q @ x @ q)
    block = symmetrize(y[: n - 1, : n - 1])
    y[: n - 1, : n - 1] = matrix_sets.project_psd_low_rank(block, s)
    return symmetrize(-(q @ y @ q))


class EdmCheck(NamedTuple):
    is_edm: bool
    embed_dim: int


def _block_spectrum(x) -> tuple:
    """:func:`matrix_sets.psd_spectrum` of the transformed block of ``x``,
    after checking that ``x`` is hollow and nonnegative (``ValueError``
    naming the offending entry)."""
    x = check_symmetric(x, "X")
    n = x.shape[0]
    cut = zero_cutoff(x)
    for i in range(n):
        if abs(x[i, i]) > cut:
            raise ValueError(f"matrix is not hollow: entry ({i},{i}) = {x[i, i]!r}")
    neg = np.argwhere(x < -cut)
    if neg.size:
        i, j = map(int, neg[0])
        raise ValueError(f"matrix has a negative entry: ({i},{j}) = {x[i, j]!r}")
    return matrix_sets.psd_spectrum(transformed_block(x))


def is_edm(x) -> EdmCheck:
    """Whether a hollow nonnegative matrix is a Euclidean distance matrix,
    and its irreducible embedding dimension: whether the transformed block
    is a PSD point, and its rank (:func:`matrix_sets.psd_spectrum`).

    Raises ``ValueError`` naming the offending entry when the input is not
    hollow or has a negative entry.
    """
    _, psd, rank = _block_spectrum(x)
    return EdmCheck(psd, rank)


def build_edm(points) -> np.ndarray:
    """Matrix of pairwise squared distances of a point configuration
    (points as rows)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("points must form a 2-d array (one point per row)")
    gram = pts @ pts.T
    sq = np.diag(gram)
    d = sq[:, None] + sq[None, :] - 2.0 * gram
    d = np.maximum(symmetrize(d), 0.0)
    np.fill_diagonal(d, 0.0)
    return d


def recover_points(x, s: int) -> np.ndarray:
    """Point configuration in R^s realizing the distance matrix ``x``.

    Factorizes the PSD transformed block (top-``s`` eigenpairs, scaled by
    1/sqrt(2) so the round trip through :func:`build_edm` reproduces ``x``)
    and maps back through the reflector.  The output is normalized: centroid
    at the origin, axes aligned with the principal directions (the Gram
    matrix of the coordinates is diagonal and non-increasing), first
    significant coordinate of each axis positive.
    """
    s = int(s)
    dec, psd, rank = _block_spectrum(x)
    if not psd:
        raise ValueError("matrix is not a Euclidean distance matrix")
    if rank > s:
        raise ValueError(f"embedding dimension {rank} exceeds requested s = {s}")
    n = dec.lam.size + 1
    if s == 0 or n == 1:
        return np.zeros((n, max(s, 0)))
    k = min(s, n - 1)
    lam = np.maximum(dec.lam[:k], 0.0)
    # rows of factor: sqrt(lam/2) * eigenvector; block = 2 * factor^T factor
    factor = np.zeros((s, n - 1))
    factor[:k] = np.sqrt(lam / 2.0)[:, None] * dec.u[:k]
    g = householder_map(n)
    # Q 1 = -sqrt(n) e_n, which the zero column drops, so the points are
    # centred; their Gram matrix factor factor^T = diag(lam / 2) is diagonal
    pts = (np.concatenate([factor, np.zeros((s, 1))], axis=1) @ g.q).T
    for j in range(s):
        col = pts[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-9 * (1.0 + np.max(np.abs(col))))
        if nz.size and col[nz[0]] < 0.0:
            pts[:, j] = -col
    return pts


def generate_instance(
    n_points: int, s: int, known_fraction: float, rng_seed: int
) -> tuple:
    """Random planted completion instance: points uniform in the unit cube of
    R^s, a symmetric Bernoulli mask of known pairs (diagonal always known).
    Returns ``(instance, ground_truth_points)``."""
    n = int(n_points)
    s = int(s)
    known_fraction = float(known_fraction)
    if not 0.0 < known_fraction <= 1.0:
        raise ValueError("known_fraction must lie in (0, 1]")
    if n < s + 1:
        raise ValueError("need at least s + 1 points")
    rng = np.random.default_rng(rng_seed)
    pts = rng.random((n, s))
    d = build_edm(pts)
    # one draw per upper-triangle pair in row-major order, as scalar draws
    iu, ju = np.triu_indices(n, 1)
    hit = rng.random(iu.size) < known_fraction
    known = np.eye(n, dtype=bool)
    known[iu[hit], ju[hit]] = known[ju[hit], iu[hit]] = True
    inst = PartialEdm(
        n_points=n, entries=np.where(known, d, 0.0), known=known, s=s
    )
    return inst, pts


def normal_cone_data_contains(inst: PartialEdm, xbar, w) -> bool:
    """Membership of ``w`` in the normal cone to the data constraint at
    ``xbar``: the orthant cone ``vector_sets.normal_cone_contains`` at full
    sparsity on the unknown entries, where ``xbar`` must be nonnegative."""
    xbar = check_symmetric(xbar, "Xbar")
    w = check_symmetric(w, "W")
    if xbar.shape[0] != inst.n_points or w.shape[0] != inst.n_points:
        raise ValueError("dimension mismatch with the instance")
    unknown = ~inst.known
    cone = vector_sets.normal_cone_contains(xbar[unknown], w[unknown], unknown.sum())
    return cone.is_member


def normal_cone_embedding_contains(inst: PartialEdm, xbar, w) -> bool:
    """Membership of ``w`` in the normal cone to the geometry constraint at
    ``xbar``: the transform of ``w`` must vanish outside the upper-left block
    and the block must lie in the normal cone to the PSD rank-``inst.s`` set
    at the transformed block of ``xbar``."""
    xbar = check_symmetric(xbar, "Xbar")
    w = check_symmetric(w, "W")
    n = inst.n_points
    if xbar.shape[0] != n or w.shape[0] != n:
        raise ValueError("dimension mismatch with the instance")
    g = householder_map(n)
    tw = g.apply(w)
    border = float(np.linalg.norm(tw[-1, :]))
    if border > MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(w))):
        return False
    block_x = transformed_block(xbar)
    block_w = symmetrize(tw[: n - 1, : n - 1])
    return matrix_sets.normal_cone_contains(block_x, block_w, inst.s).is_member


def validate_completion_point(inst: PartialEdm, xbar) -> np.ndarray:
    """Check that ``xbar`` solves the instance and satisfies the certifier
    preconditions; raises :class:`PreconditionError` naming the first
    violated condition.  Returns the transformed block."""
    xbar = check_symmetric(xbar, "Xbar")
    n = inst.n_points
    if xbar.shape[0] != n:
        raise PreconditionError("Xbar dimension does not match the instance")
    cut = zero_cutoff(xbar)
    if np.any(np.abs(np.diag(xbar)) > cut):
        raise PreconditionError("Xbar is not hollow")
    off = ~np.eye(n, dtype=bool)
    if np.any(xbar[off] <= cut):
        raise PreconditionError(
            "Xbar has off-diagonal entries that are not strictly positive "
            "(duplicate points)"
        )
    mismatch = inst.known & (np.abs(xbar - inst.entries) > 1e-8 * (1.0 + inst.entries))
    if np.any(mismatch):
        i, j = map(int, np.argwhere(mismatch)[0])
        raise PreconditionError(
            f"Xbar does not match the known data at entry ({i},{j})"
        )
    block = transformed_block(xbar)
    _, psd, rank = matrix_sets.psd_spectrum(block)
    if not psd:
        raise PreconditionError("transformed block of Xbar is not PSD (not an EDM)")
    if rank != inst.s:
        raise PreconditionError(
            f"transformed block has rank {rank}, expected s = {inst.s}"
        )
    return block


def instance_to_json(
    inst: PartialEdm,
    seed: Optional[int] = None,
    ground_truth: Optional[np.ndarray] = None,
) -> dict:
    """JSON-serializable form: known strict-upper-triangle values as sorted
    [i, j, value] triples (the zero diagonal is implicit)."""
    triples = [
        [i, j, float(inst.entries[i, j])] for (i, j) in inst.known_pairs()
    ]
    out = {
        "n_points": inst.n_points,
        "s": inst.s,
        "D": triples,
        "seed": seed,
    }
    if ground_truth is not None:
        out["ground_truth"] = np.asarray(ground_truth, dtype=float).tolist()
    return out


def instance_from_json(data: dict) -> tuple:
    """Inverse of :func:`instance_to_json`.

    Returns ``(instance, seed, ground_truth_points_or_None)``.
    """
    n = int(data["n_points"])
    s = int(data["s"])
    entries = np.zeros((n, n))
    known = np.eye(n, dtype=bool)
    for i, j, value in data["D"]:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad index pair ({i},{j}) in D")
        entries[i, j] = entries[j, i] = float(value)
        known[i, j] = known[j, i] = True
    inst = PartialEdm(n_points=n, entries=entries, known=known, s=s)
    seed = data.get("seed")
    gt = data.get("ground_truth")
    ground_truth = None if gt is None else np.asarray(gt, dtype=float)
    return inst, seed, ground_truth


def save_instance(path, inst: PartialEdm, seed=None, ground_truth=None) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst, seed, ground_truth), fh, indent=1)


def load_instance(path) -> tuple:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
