"""Projection-based feasibility solvers over pairs of constraint sets.

Douglas-Rachford (averaged double reflections) and alternating projections,
with per-iteration traces, stall detection and an R-linear rate fit.  The
iteration is made single-valued by always selecting canonical projections,
so identical inputs yield bitwise-identical traces on one machine with one
numpy/BLAS build and BLAS thread count.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import edm as _edm
from . import matrix_sets, vector_sets
from .linalg import check_finite


class ConstraintSet:
    """A feasibility constraint exposing a canonical single-valued
    projection.  Subclasses set ``kind`` and implement :meth:`project`.
    Whether the set-valued projection is degenerate at a point is asked of
    the set's module: ``vector_sets.project_sparse_nonneg(...).member_count``
    or ``matrix_sets.boundary_tie``."""

    kind = "abstract"

    def project(self, x) -> np.ndarray:
        raise NotImplementedError


class AffineSet(ConstraintSet):
    """Solution set of a linear system ``A x = b``."""

    kind = "affine"

    def __init__(self, a, b):
        self.a = check_finite(np.atleast_2d(np.asarray(a, dtype=float)), "A")
        self.b = check_finite(np.atleast_1d(np.asarray(b, dtype=float)), "b")
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self._pinv = np.linalg.pinv(self.a)

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x - self._pinv @ (self.a @ x - self.b)


class NonnegSparseSet(ConstraintSet):
    """Nonnegative vectors with at most ``s`` nonzero entries."""

    kind = "nonneg-sparse"

    def __init__(self, s: int):
        self.s = int(s)

    def project(self, x) -> np.ndarray:
        return vector_sets.top_s_nonneg(x, self.s)


class PsdLowRankSet(ConstraintSet):
    """PSD matrices of rank at most ``s``."""

    kind = "psd-low-rank"

    def __init__(self, s: int):
        self.s = int(s)

    def project(self, x) -> np.ndarray:
        return matrix_sets.project_psd_low_rank(x, self.s)


class FixedEntriesNonnegSet(ConstraintSet):
    """Matrices agreeing with given values on a mask, nonnegative elsewhere.

    This is the data constraint of distance-matrix completion; the two
    conditions are separable per entry so the projection is exact.  A NaN or
    infinite value raises :class:`PreconditionError`.  :meth:`project` raises
    ``ValueError`` on an input whose shape differs from the mask's; it does
    not check finiteness, because the solver loop checks its start once and
    projections onto finite sets keep the iterates finite.
    """

    kind = "mask-nonneg"

    def __init__(self, values, mask):
        self.values = check_finite(np.asarray(values, dtype=float), "values")
        self.mask = np.asarray(mask, dtype=bool)
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask must have the same shape")

    @classmethod
    def from_partial_edm(cls, inst: "_edm.PartialEdm") -> "FixedEntriesNonnegSet":
        return cls(inst.entries, inst.known)

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.mask.shape:
            raise ValueError(f"expected shape {self.mask.shape}, got {x.shape}")
        return np.where(self.mask, self.values, np.maximum(x, 0.0))


class EmbeddingRankSet(ConstraintSet):
    """Matrices whose Householder-transformed upper-left block is PSD of
    rank at most ``s`` (the geometry constraint of completion problems)."""

    kind = "embedding-rank"

    def __init__(self, dim: int, s: int):
        self.dim = int(dim)
        self.s = int(s)

    @classmethod
    def from_partial_edm(cls, inst: "_edm.PartialEdm") -> "EmbeddingRankSet":
        return cls(inst.n_points, inst.s)

    def project(self, x) -> np.ndarray:
        return _edm.project_embedding_rank_core(self.dim, self.s, x)


def reflect(c: ConstraintSet, x) -> np.ndarray:
    """Reflection 2P - I across the set; public, as the paper writes DR with it."""
    x = np.asarray(x, dtype=float)
    return 2.0 * c.project(x) - x


def dr_step(c1: ConstraintSet, c2: ConstraintSet, x) -> np.ndarray:
    """One Douglas-Rachford step, the average of the identity and the
    composition of the two reflections, written ``x + P2(2p - x) - p`` with
    ``p = P1 x``: the update :func:`solve_dr` iterates, bit for bit."""
    x = np.asarray(x, dtype=float)
    return _dr_update(c2, x, c1.project(x))


def _dr_update(c2: ConstraintSet, x, p) -> np.ndarray:
    return x + c2.project(2.0 * p - x) - p


@dataclass(frozen=True)
class SolveConfig:
    tol: float = 1e-8
    maxiter: int = 100_000
    stall_window: int = 200

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")


class RateEstimate(NamedTuple):
    rho: float
    r2: float


@dataclass
class SolveTrace:
    """Per-iteration record of a feasibility solve.

    ``residuals[n]`` is the shadow infeasibility at iterate ``n`` (distance
    from the first-set projection of the iterate to the second set), the
    quantity used for termination; ``step_norms[n]`` is the fixed-point
    residual, the displacement produced by iteration ``n`` (zero on the
    terminal entry) and the quantity whose decay measures the iterate
    convergence rate; ``times_ms[n]`` elapsed wall time.
    """

    method: str
    residuals: np.ndarray
    step_norms: np.ndarray
    times_ms: np.ndarray
    status: str  # "converged" | "maxiter" | "stalled"

    @functools.cached_property
    def rate(self) -> Optional[RateEstimate]:
        """:func:`estimate_rate` of this trace, fitted when first read;
        ``None`` when the trace has too few step norms for the fit."""
        try:
            return estimate_rate(self)
        except ValueError:
            return None

    @property
    def iterations(self) -> int:
        return int(self.residuals.size)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "residual", "step_norm", "time_ms"])
            for i in range(self.iterations):
                writer.writerow(
                    [
                        i,
                        repr(float(self.residuals[i])),
                        repr(float(self.step_norms[i])),
                        repr(float(self.times_ms[i])),
                    ]
                )

    def summary(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "iterations": self.iterations,
            "final_residual": float(self.residuals[-1]) if self.iterations else None,
            "rate": None if self.rate is None else {
                "rho": self.rate.rho, "r2": self.rate.r2
            },
        }


def estimate_rate(trace: SolveTrace) -> RateEstimate:
    """Fitted R-linear rate of the iterate sequence.

    Least-squares slope of the log fixed-point residual (per-step
    displacement) versus iteration over the final half of the trace;
    ``rho = exp(slope)`` clipped to (0, 1], ``r2`` the fit quality.  The
    shadow infeasibility is not used here: it can oscillate while the
    iterates contract geometrically.  Requires at least 10 positive
    residuals below one.
    """
    res = np.asarray(trace.step_norms, dtype=float)
    if int(np.sum((res < 1.0) & (res > 0.0))) < 10:
        raise ValueError("insufficient data: need >= 10 positive residuals below 1")
    start = res.size // 2
    idx = np.arange(start, res.size)
    tail = res[start:]
    keep = tail > 0.0
    idx, tail = idx[keep], tail[keep]
    if idx.size < 2:
        return RateEstimate(rho=1.0, r2=1.0)
    logs = np.log(tail)
    slope, intercept = np.polyfit(idx, logs, 1)
    fit = slope * idx + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    rho = float(np.exp(slope))
    return RateEstimate(rho=min(rho, 1.0), r2=float(r2))


def _norm(v) -> float:
    """``float(np.linalg.norm(v))`` bit for bit (the same dot product and
    square root) without the dispatch, which costs more than both at n = 8."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _stalled(steps: list, window: int, x, anchor) -> bool:
    """Progress test on the fixed-point residual (step norms).

    Stalled when the iterate is numerically fixed, or, checked once per
    window of ``window`` steps, when the best step over the last window
    failed to improve by factor 0.999 on the window before it and the
    iterate did not drift: a window whose net displacement (from ``anchor``,
    the iterate at its start, to ``x``) is at least half its path length is
    steady motion and counts as progress even at a constant step norm.
    Windowed minima absorb the small plateaus slowly-converging runs show.
    """
    if steps and steps[-1] <= 1e-16 * (1.0 + _norm(x)):
        return True
    n = len(steps)
    if n < 2 * window or n % window:
        return False
    recent = min(steps[-window:])
    previous = min(steps[-2 * window : -window])
    if recent <= 0.999 * previous:
        return False
    return _norm(x - anchor) < 0.5 * sum(steps[-window:])


def _iterate(method: str, c1: ConstraintSet, c2: ConstraintSet, x0,
             cfg: SolveConfig, first, step):
    """The loop shared by DR and MAP.  ``first(n, x)`` is the first-set point
    of iterate ``n`` (the shadow) and ``step(n, x, p, q)`` the next iterate,
    given that point ``p`` and its second-set projection ``q``.  Runs until
    the shadow infeasibility ``|p - q|`` drops below tolerance, the iteration
    cap is reached, or the step norms stall; returns ``(shadow, trace)``.
    ``x0`` is checked for NaN and infinity once, here; each projection is
    the set's validating ``project``, whose symmetry check takes its fast
    path on the bitwise-symmetric iterates of a symmetric pair."""
    x = check_finite(np.asarray(x0, dtype=float), "x0").copy()
    residuals: list = []
    steps: list = []
    times: list = []
    status = "maxiter"
    anchor = x
    t0 = time.perf_counter()
    shadow = None
    for n in range(cfg.maxiter):
        p = first(n, x)
        q = c2.project(p)
        r = _norm(p - q)
        residuals.append(r)
        times.append((time.perf_counter() - t0) * 1e3)
        shadow = p
        if r <= cfg.tol:
            status = "converged"
            steps.append(0.0)
            break
        x_next = step(n, x, p, q)
        steps.append(_norm(x_next - x))
        x = x_next
        if _stalled(steps, cfg.stall_window, x, anchor):
            status = "stalled"
            break
        if len(steps) % cfg.stall_window == 0:
            anchor = x
    else:
        # cap reached without break; shadow of the final iterate
        shadow = c1.project(x)
    return shadow, SolveTrace(
        method=method,
        residuals=np.asarray(residuals),
        step_norms=np.asarray(steps),
        times_ms=np.asarray(times),
        status=status,
    )


def solve_dr(c1: ConstraintSet, c2: ConstraintSet, x0, cfg: SolveConfig | None = None):
    """Douglas-Rachford iteration until the shadow infeasibility drops below
    tolerance, the iteration cap is reached, or the residual stalls.

    Returns ``(shadow, trace)`` where ``shadow`` is the first-set projection
    of the final iterate (the feasibility candidate).
    """
    return _iterate(
        "dr", c1, c2, x0, cfg or SolveConfig(),
        lambda n, x: c1.project(x),
        lambda n, x, p, q: _dr_update(c2, x, p),
    )


def solve_map(c1: ConstraintSet, c2: ConstraintSet, x0, cfg: SolveConfig | None = None):
    """Alternating projections ``x -> P1(P2(x))`` with the same termination
    contract and trace format as :func:`solve_dr`."""
    # iterates lie in the first set from n = 1 on, so its projection is the
    # identity there and the residual projection can be reused
    return _iterate(
        "map", c1, c2, x0, cfg or SolveConfig(),
        lambda n, x: c1.project(x) if n == 0 else x,
        lambda n, x, p, q: c1.project(c2.project(x) if n == 0 else q),
    )


def solve(c1: ConstraintSet, c2: ConstraintSet, x0, method: str = "dr",
          cfg: SolveConfig | None = None):
    """Run :func:`solve_dr` (``method="dr"``) or :func:`solve_map`
    (``method="map"``) and return its ``(shadow, trace)``."""
    if method == "dr":
        return solve_dr(c1, c2, x0, cfg)
    if method == "map":
        return solve_map(c1, c2, x0, cfg)
    raise ValueError(f"unknown method {method!r}")


def complete_edm(
    inst: "_edm.PartialEdm",
    x0=None,
    method: str = "dr",
    cfg: SolveConfig | None = None,
):
    """Complete a partial distance matrix by two-set feasibility.

    The default start fills unknown entries with zero; the default tolerance
    is tight enough (1e-10) that a converged shadow passes the full
    distance-matrix check.  Returns ``(completed, trace)`` with ``completed``
    in the data constraint (known entries exact, hollow, nonnegative).
    """
    c1 = FixedEntriesNonnegSet.from_partial_edm(inst)
    c2 = EmbeddingRankSet.from_partial_edm(inst)
    if x0 is None:
        x0 = inst.entries
    if cfg is None:
        cfg = SolveConfig(tol=1e-10, maxiter=100_000)
    return solve(c1, c2, x0, method, cfg)


def plant_sparse_instance(m: int, s: int, p: int, rng_seed: int):
    """Random sparse-feasibility instance with a planted solution: Gaussian
    rows, a nonnegative ``s``-sparse solution with entries bounded away from
    zero, and consistent right-hand side.  Returns ``(A, b, x_true)``."""
    m, s, p = int(m), int(s), int(p)
    if not 1 <= s <= m:
        raise ValueError("need 1 <= s <= m")
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal((p, m))
    support = rng.choice(m, size=s, replace=False)
    x = np.zeros(m)
    x[support] = rng.uniform(0.5, 1.5, size=s)
    return a, a @ x, x
