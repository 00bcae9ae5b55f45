"""Seeded instance streams of the sparsecones benchmark and the independent
checks that judge each output.

Every workload is an endless stream: instance ``k`` of seed ``S`` is built
from ``SeedSequence((S, tag, k))`` alone, so a run may stop after any number
of instances without changing the instances it ran.  The library receives
only the generated inputs.  Each workload has three steps:

* ``make(seed, k)`` generates the inputs (library generators included; not
  timed as part of the instance);
* ``run(inputs)`` makes the library calls that the benchmark times;
* ``outcome(output)`` returns the exact-count fingerprint record, the steps
  of work the instance took and the failure cause the library reported
  (``None``, ``"stalled"``, ``"maxiter"`` or ``"undecided"``);

and ``check(inputs, output)`` recomputes the answer with the benchmark's own
code and returns an error message, or ``None`` when the output is right.
A step is one Douglas-Rachford iteration on the solver workloads and one
certificate on ``certify``.
"""

from __future__ import annotations

import itertools

import numpy as np

from sparsecones import edm, regularity, solvers

# Warm-up instances come from the same generator at indices no run reaches.
WARMUP_BASE = 1 << 40


def _entropy(seed: int, tag: int, k: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, tag, k) + extra)


def _int_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def pairwise_sq_dists(points) -> np.ndarray:
    """Squared distances between the rows of ``points``, from coordinate
    differences (the library builds its matrices from the Gram matrix)."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _dr_outcome(trace):
    record = {"status": trace.status, "iterations": trace.iterations}
    cause = None if trace.status == "converged" else trace.status
    return record, trace.iterations, cause


class EdmComplete:
    """Complete a planted 8-point distance matrix in the plane with 3 of its
    28 distances hidden, from the zero-filled start; then check and embed
    the result."""

    name = "edm-complete"
    tag = 1
    warmup = 1
    n_points = 8
    dim = 2
    # DR has no global guarantee on this nonconvex pair.  With Bernoulli
    # masks it stalled on instances with 4 or more hidden pairs.  With
    # exactly 3 hidden, the default 200-step stall window still stopped
    # about 1 instance in 150 at step 400, on a plateau; with a 1000-step
    # window all of 300 converged, within 962 steps.
    unknown_pairs = 3
    cfg = solvers.SolveConfig(tol=1e-10, maxiter=20_000, stall_window=1000)
    check_rtol = 1e-8

    def make(self, seed: int, k: int):
        full, _ = edm.generate_instance(
            self.n_points, self.dim, 1.0,
            rng_seed=_int_seed(_entropy(seed, self.tag, k)),
        )
        iu, ju = np.triu_indices(self.n_points, 1)
        rng = np.random.default_rng(_entropy(seed, self.tag, k, 1))
        hide = rng.choice(iu.size, self.unknown_pairs, replace=False)
        known = np.ones_like(full.known)
        known[iu[hide], ju[hide]] = known[ju[hide], iu[hide]] = False
        return edm.PartialEdm(
            n_points=self.n_points, entries=np.where(known, full.entries, 0.0),
            known=known, s=self.dim,
        )

    def run(self, inst):
        completed, trace = solvers.complete_edm(inst, cfg=self.cfg)
        if trace.status != "converged":
            return trace, None, None
        return trace, edm.is_edm(completed), edm.recover_points(completed, inst.s)

    def outcome(self, output):
        return _dr_outcome(output[0])

    def check(self, inst, output):
        trace, edm_check, points = output
        if trace.status != "converged":
            return f"solve {trace.status}"
        if not edm_check.is_edm or edm_check.embed_dim > self.dim:
            return f"completion is not a {self.dim}-dimensional EDM: {edm_check}"
        known = inst.known & ~np.eye(inst.n_points, dtype=bool)
        got = pairwise_sq_dists(points)[known]
        want = inst.entries[known]
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if not err.max() <= self.check_rtol:
            return f"recovered points miss a known distance by {err.max():.3e}"
        return None


class SparseDr:
    """Recover a planted nonnegative 20-sparse vector of length 2000 from 41
    Gaussian measurements, starting within 0.05 of it."""

    name = "sparse-dr"
    tag = 2
    warmup = 1
    m = 2000
    s = 20
    rows = 41
    start_radius = 0.05
    cfg = solvers.SolveConfig(tol=1e-10, maxiter=20_000)
    check_atol = 1e-8

    def make(self, seed: int, k: int):
        a, b, x_true = solvers.plant_sparse_instance(
            self.m, self.s, self.rows, rng_seed=_int_seed(_entropy(seed, self.tag, k))
        )
        delta = np.random.default_rng(_entropy(seed, self.tag, k, 1)).standard_normal(self.m)
        x0 = x_true + self.start_radius * delta / float(np.linalg.norm(delta))
        return a, b, x0

    def run(self, inputs):
        a, b, x0 = inputs
        sparse = solvers.NonnegSparseSet(self.s)
        shadow, trace = solvers.solve_dr(solvers.AffineSet(a, b), sparse, x0, self.cfg)
        return trace, sparse.project(shadow)

    def outcome(self, output):
        return _dr_outcome(output[0])

    def check(self, inputs, output):
        a, b, _ = inputs
        trace, q = output
        if trace.status != "converged":
            return f"solve {trace.status}"
        residual = float(np.linalg.norm(a @ q - b))
        if not residual <= self.check_atol:
            return f"||Aq - b|| = {residual:.3e}"
        if not q.min() >= 0.0:
            return f"q has a negative entry {q.min():.3e}"
        if np.count_nonzero(q) > self.s:
            return f"q has {np.count_nonzero(q)} nonzero entries > s = {self.s}"
        return None


def edm_violation_system(known, xbar) -> np.ndarray:
    """Float64 strong-regularity system of a completion instance, built from
    the closed form T(E_ij) = -(q_i q_j^T + q_j q_i^T) of the reflector
    transform (q_i the columns of the reflector) rather than from matrix
    products.  Columns: the known upper-triangle entries, diagonal included;
    rows: the border of the transform, then the block product."""
    n = xbar.shape[0]
    v = np.ones(n)
    v[-1] += np.sqrt(n)
    q = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    block = -(q @ xbar @ q)[: n - 1, : n - 1]
    iu, ju = np.nonzero(np.triu(known))
    qi, qj = q[:, iu].T, q[:, ju].T
    t = -(qi[:, :, None] * qj[:, None, :] + qj[:, :, None] * qi[:, None, :])
    t[iu == ju] *= 0.5  # a diagonal unknown is a single unit entry
    prod = block @ t[:, : n - 1, : n - 1]
    return np.concatenate([t[:, -1, :], prod.reshape(iu.size, -1)], axis=1).T


def _null_dim(system: np.ndarray) -> int:
    sv = np.linalg.svd(system, compute_uv=False)
    # measured gap on this family: kept values >= 5e-4 * sv[0], dropped
    # ones <= 4e-16 * sv[0]
    return system.shape[1] - int(np.sum(sv > 1e-9 * sv[0]))


def _nonneg_direction_lp(a, support) -> bool:
    """HiGHS: does the row space of ``a`` hold y >= 0, sum(y) = 1, vanishing
    on ``support``?"""
    from scipy.optimize import linprog

    p, m = a.shape
    a_eq = np.vstack([a.sum(axis=1)[None, :], a[:, support].T])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    res = linprog(np.zeros(p), A_ub=-a.T, b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * p, method="highs")
    return res.status == 0


def _sparse_branch_sets(a, support, s: int) -> tuple:
    """(sets checked, sets whose coordinate subspace meets the row space):
    every set of m - s coordinates off the support, by a batched rank test
    of the columns of ``a`` outside the set."""
    p, m = a.shape
    free = np.setdiff1d(np.arange(m), support)
    sets = np.asarray(list(itertools.combinations(free, m - s)))
    outside = np.ones((len(sets), m), dtype=bool)
    outside[np.arange(len(sets))[:, None], sets] = False
    cols = np.nonzero(outside)[1].reshape(len(sets), s)
    sub = np.moveaxis(a[:, cols], 1, 0)  # (sets, p, s)
    sv = np.linalg.svd(sub, compute_uv=False)
    rank = np.sum(sv > 1e-9 * sv[:, :1], axis=1)
    return len(sets), int(np.sum(rank < p))


class Certify:
    """Alternate the two exact certifiers: the completion certifier at the
    planted solution of a 40-point instance in the plane (even ``k``) and
    the affine/sparse certifier on 8 Gaussian rows of length 20, centred
    off the support of x̄, s = 8 (odd ``k``)."""

    name = "certify"
    tag = 3
    warmup = 2  # one of each certifier
    edm_points = 40
    edm_dim = 2
    # near 0.10 the pair is regular, above about 0.12 it is not
    fraction_range = (0.08, 0.16)
    m = 20
    s = 8
    rows = 8
    xbar_support = 2

    def make(self, seed: int, k: int):
        rng = np.random.default_rng(_entropy(seed, self.tag, k))
        if k % 2 == 0:
            fraction = float(rng.uniform(*self.fraction_range))
            inst, points = edm.generate_instance(
                self.edm_points, self.edm_dim, fraction,
                rng_seed=_int_seed(_entropy(seed, self.tag, k, 1)),
            )
            return "edm", inst, pairwise_sq_dists(points)
        a = rng.standard_normal((self.rows, self.m))
        support = rng.choice(self.m, self.xbar_support, replace=False)
        xbar = np.zeros(self.m)
        xbar[support] = rng.uniform(0.5, 1.5, self.xbar_support)
        # Rows that sum to zero off the support make the all-ones vector
        # there orthogonal to every normal direction vanishing on the
        # support, so by Stiemke's lemma none is nonnegative: the LP branch
        # is infeasible and every instance enumerates all coordinate sets,
        # instead of about 7% ending early at the LP.
        free = np.setdiff1d(np.arange(self.m), support)
        a[:, free] -= a[:, free].mean(axis=1, keepdims=True)
        return "affine", a, xbar

    def run(self, inputs):
        kind, first, xbar = inputs
        if kind == "edm":
            return regularity.certify_edm_completion(first, xbar)
        return regularity.certify_affine_sparse(first, xbar, self.s)

    def outcome(self, cert):
        diag = cert.diagnostics
        record = {"verdict": cert.verdict, "method": cert.method}
        if "null_dim" in diag:
            record.update(null_dim=diag["null_dim"], n_constraints=diag["n_constraints"])
        else:
            record.update(enumerated_sets=diag.get("enumerated_sets", 0))
        return record, 1, "undecided" if cert.verdict == "undecided" else None

    def check(self, inputs, cert):
        kind, first, xbar = inputs
        if kind == "edm":
            system = edm_violation_system(first.known, xbar)
            null_dim = _null_dim(system)
            want = "regular" if null_dim == 0 else "not_regular"
            if cert.verdict != want or cert.diagnostics.get("null_dim") != null_dim:
                return f"certificate {cert.verdict} {cert.diagnostics}, expected null_dim {null_dim}"
            if cert.witness is not None:
                w = cert.witness[np.triu(first.known)]
                if not np.linalg.norm(system @ w) <= 1e-8 * np.linalg.norm(w):
                    return "witness is not in the null space of the violation system"
            return None
        support = np.flatnonzero(xbar)
        if _nonneg_direction_lp(first, support):
            want, sets = "not_regular", None
        else:
            sets, hits = _sparse_branch_sets(first, support, self.s)
            want = "not_regular" if hits else "regular"
        if cert.verdict != want:
            return f"certificate {cert.verdict}, expected {want}"
        if want == "regular" and cert.diagnostics.get("enumerated_sets") != sets:
            return f"enumerated {cert.diagnostics.get('enumerated_sets')} sets, expected {sets}"
        return None


WORKLOADS = {w.name: w for w in (EdmComplete(), SparseDr(), Certify())}
