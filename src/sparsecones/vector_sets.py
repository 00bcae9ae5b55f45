"""Projections and normal cones for nonnegative sparse vectors.

The central set is the collection of nonnegative vectors with at most ``s``
nonzero entries.  Projections onto it are set-valued; results carry the full
(deduplicated) member set up to a cap, a deterministic canonical member, and
the common distance.  Normal-cone membership is decided by the two-branch
formula: directions that are complementary to the point and either
nonpositive or supported on at most ``m - s`` coordinates.  A vector with a
NaN or infinite entry raises :class:`PreconditionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from .config import zero_cutoff
from .errors import PreconditionError
from .linalg import check_finite

MEMBER_CAP = 512

_BRANCH_NONPOS = "nonpositive-branch"
_BRANCH_SPARSITY = "sparsity-branch"


def support_indices(x) -> np.ndarray:
    """Indices of entries that are nonzero under the global tolerance."""
    x = np.asarray(x, dtype=float)
    return np.flatnonzero(abs(x) > zero_cutoff(x))


def sparsity(x) -> int:
    """Number of nonzero entries under the global tolerance."""
    return int(support_indices(x).size)


def _as_vector(x) -> np.ndarray:
    return check_finite(np.asarray(x, dtype=float), "vector")


@dataclass(frozen=True)
class ProjectionResult:
    """Set-valued projection output.

    ``members`` holds the full deduplicated set when its size is at most
    ``MEMBER_CAP``, otherwise just the canonical member; ``member_count`` is always the
    true count.  All members are equidistant from the input.
    """

    members: tuple
    canonical: np.ndarray
    distance: float
    member_count: int

    @property
    def truncated(self) -> bool:
        return self.member_count > len(self.members)


def project_nonneg(x) -> np.ndarray:
    """Pointwise maximum with zero."""
    return np.maximum(_as_vector(x), 0.0)


def _require_s(s: int, m: int) -> int:
    s = int(s)
    if not 0 <= s <= m:
        raise ValueError(f"s={s} out of range [0, {m}]")
    return s


def _cut(v, s: int):
    """The ``s``-th largest entry of ``v`` (``inf`` for ``s == 0``)."""
    return np.partition(v, v.size - s)[v.size - s] if s else np.inf


def _top_s(v, s: int):
    """Select the ``s`` largest entries of ``v``, value descending and then
    index ascending: the canonical rule of every sparse projection.

    Returns ``(cut, above, tied, keep)``: the :func:`_cut` value, the masks
    of the entries above and equal to it, and the mask of the ``s`` kept
    entries, which is ``above`` plus the lowest-index ``tied`` entries.
    """
    cut = _cut(v, s)
    above = v > cut
    tied = v == cut
    keep = above | tied
    excess = np.count_nonzero(keep) - s
    if excess:
        keep[np.flatnonzero(tied)[-excess:]] = False
    return cut, above, tied, keep


def _enumerate_members(values, keep_always, tied, slots):
    """Member vectors keeping ``keep_always`` plus ``slots`` of ``tied``."""
    total = comb(len(tied), slots)
    if total > MEMBER_CAP:
        return None, total
    members = []
    for combo in combinations(tied, slots):
        y = np.zeros_like(values)
        y[keep_always] = values[keep_always]
        y[list(combo)] = values[list(combo)]
        members.append(y)
    return tuple(members), total


def project_sparse_nonneg(x, s: int) -> ProjectionResult:
    """Projection onto nonnegative vectors with at most ``s`` nonzeros.

    Equals the sparse projection of the nonnegative part: keep the ``s``
    largest entries of ``max(x, 0)`` and zero the rest, enumerating all exact
    value ties.  The canonical member breaks ties by the lowest index.
    """
    x = _as_vector(x)
    res = project_sparse(np.maximum(x, 0.0), s)
    return replace(res, distance=float(np.linalg.norm(x - res.canonical)))


def project_sparse(x, s: int) -> ProjectionResult:
    """Projection onto vectors with at most ``s`` nonzeros (no sign
    constraint): keep the ``s`` entries largest in magnitude, enumerating all
    exact magnitude ties."""
    x = _as_vector(x)
    s = _require_s(s, x.size)
    cut, above, tied, keep = _top_s(np.abs(x), s)
    if cut == 0.0:
        # at most s nonzeros: x is the only member
        y = x.copy()
        return ProjectionResult((y,), y, 0.0, 1)
    slots = s - np.count_nonzero(above)
    members, total = _enumerate_members(
        x, above, np.flatnonzero(tied).tolist(), slots
    )
    canonical = np.where(keep, x, 0.0)
    if members is None:
        members = (canonical,)
    distance = float(np.linalg.norm(x - canonical))
    return ProjectionResult(members, canonical, distance, total)


def top_s_nonneg(x, s: int) -> np.ndarray:
    """Canonical member of :func:`project_sparse_nonneg` without the
    set-valued bookkeeping (used in solver hot loops)."""
    x = _as_vector(x)
    xp = np.maximum(x, 0.0)
    return np.where(_top_s(xp, _require_s(s, x.size))[3], xp, 0.0)


def decomposition_check(x, y, s: int) -> bool:
    """Whether ``y`` splits off ``x`` as a projection onto the nonnegative
    ``s``-sparse set.

    With ``z = x - y``, tests the three conditions: ``y`` in the set, ``y``
    and ``z`` with disjoint supports, and the ``s``-th largest entry of ``y``
    at least the largest entry of ``z``.  Equivalent to membership of ``y``
    in the set-valued projection of ``x``.
    """
    x = _as_vector(x)
    y = _as_vector(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    s = _require_s(s, x.size)
    z = x - y
    cy = zero_cutoff(y)
    on_y = abs(y) > cy
    if s == 0:
        return not np.count_nonzero(on_y)
    # y in the set: nonnegative up to tolerance, at most s nonzeros
    if np.count_nonzero(y < -cy):
        return False
    if np.count_nonzero(on_y) > s:
        return False
    # disjoint supports
    if np.count_nonzero(on_y & (abs(z) > zero_cutoff(z))):
        return False
    slack = 1e-12 * (1.0 + float(abs(x).max()))
    return bool(_cut(y, s) >= float(z.max()) - slack)


def validate_nonneg_sparse(x, s: int, name: str = "xbar") -> np.ndarray:
    """Validate membership in the nonnegative ``s``-sparse set; return the
    point as a float vector.  Raises :class:`PreconditionError` naming the
    failed condition."""
    x = _as_vector(x)
    s = _require_s(s, x.size)
    if np.min(x, initial=0.0) < -zero_cutoff(x):
        raise PreconditionError(f"{name} has negative entries")
    if sparsity(x) > s:
        raise PreconditionError(f"{name} has more than s={s} nonzero entries")
    return x


def inverse_projection_contains(y, x, s: int) -> bool:
    """Whether ``x`` projects onto ``y`` (i.e. ``y`` is a member of the
    projection of ``x``): :func:`decomposition_check` of ``y``, which must
    lie in the set."""
    return decomposition_check(x, validate_nonneg_sparse(y, s, "y"), s)


@dataclass(frozen=True)
class ConeMembershipReport:
    """Outcome of a normal-cone membership test with the branch that holds."""

    is_member: bool
    branch: str  # "nonpositive-branch" | "sparsity-branch" | "both" | "none"
    violated_condition: Optional[str] = None


def normal_cone_contains(xbar, y, s: int) -> ConeMembershipReport:
    """Membership of ``y`` in the normal cone to the nonnegative
    ``s``-sparse set at ``xbar``.

    The cone is the union of two branches over directions complementary to
    ``xbar``: nonpositive directions, and directions with at most ``m - s``
    nonzero entries.  Reports every branch that holds.
    """
    xbar = validate_nonneg_sparse(xbar, s)
    y = _as_vector(y)
    if xbar.shape != y.shape:
        raise ValueError("xbar and y must have equal length")
    m = xbar.size
    s = int(s)
    cx = zero_cutoff(xbar)
    cy = zero_cutoff(y)
    shared = np.flatnonzero((np.abs(xbar) > cx) & (np.abs(y) > cy))
    if shared.size:
        j = int(shared[0])
        return ConeMembershipReport(
            False, "none", f"xbar and y are both nonzero at index {j}"
        )
    nonpos = bool(np.max(y, initial=0.0) <= cy)
    k = sparsity(y)
    sparse_ok = k <= m - s
    if nonpos and sparse_ok:
        return ConeMembershipReport(True, "both")
    if nonpos:
        return ConeMembershipReport(True, _BRANCH_NONPOS)
    if sparse_ok:
        return ConeMembershipReport(True, _BRANCH_SPARSITY)
    return ConeMembershipReport(
        False,
        "none",
        f"y has positive entries and {k} nonzeros > m - s = {m - s}",
    )


def prox_normal_cone_contains(xbar, y, s: int) -> bool:
    """Membership of ``y`` in the proximal normal cone at ``xbar``: the
    nonnegative-orthant cone below maximal sparsity, the full normal cone at
    maximal sparsity.  That is the normal cone without its sparsity branch
    below maximal sparsity; at maximal sparsity every complementary ``y``
    has at most ``m - s`` nonzeros, so the branches already agree."""
    rep = normal_cone_contains(xbar, y, s)
    return rep.is_member and (
        rep.branch != _BRANCH_SPARSITY or sparsity(xbar) == int(s)
    )
