"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value comes from an independent oracle (support enumeration,
high-precision SVD, external LP) or from the constructive sequences behind
the formulas; tolerances are fixed here and nowhere else.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from sparsecones import edm, regularity, solvers, vector_sets as vs
from sparsecones import matrix_sets as ms
from sparsecones.errors import PreconditionError
from sparsecones.linalg import eig_sym

from oracles import (
    edm_violation_null_dim_mp,
    member_of,
    same_member_set,
    sparse_nonneg_projection_members,
)


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def mixed_vector(rng, m):
    style = rng.integers(0, 3)
    if style == 0:
        return rng.standard_normal(m)
    if style == 1:
        x = rng.standard_normal(m)
        x[rng.random(m) < 0.4] = 0.0
        return x
    return rng.integers(-2, 3, size=m).astype(float)


def test_criterion_1_projection_oracle_equivalence():
    """All (m, s) with m <= 8, 1000 seeded vectors each: the set-valued
    projection equals exhaustive support enumeration, tolerance 1e-10."""
    t0 = time.time()
    checked = 0
    for m in range(1, 9):
        for s in range(0, m + 1):
            rng = np.random.default_rng(100 * m + s)
            for _ in range(1000):
                x = mixed_vector(rng, m)
                res = vs.project_sparse_nonneg(x, s)
                oracle = sparse_nonneg_projection_members(tuple(x), s)
                assert same_member_set(list(res.members), oracle, tol=1e-10), (x, s)
                checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 60.0,
           f"{checked} projections match the enumeration oracle exactly "
           f"({elapsed:.1f} s < 60 s)")


def test_criterion_2_decomposition_lemma_iff():
    """1e5 seeded (x, y, s) triples: the split test agrees with membership in
    the oracle projection set, zero disagreements."""
    rng = np.random.default_rng(777)
    disagreements = 0
    for _ in range(100_000):
        m = int(rng.integers(1, 8))
        s = int(rng.integers(0, m + 1))
        x = mixed_vector(rng, m)
        oracle = sparse_nonneg_projection_members(tuple(x), s)
        scenario = rng.integers(0, 5)
        if scenario == 0:
            y = oracle[rng.integers(0, len(oracle))].copy()
        elif scenario == 1:
            y = oracle[0].copy()
            y[int(rng.integers(0, m))] += 0.25 * (1 + rng.random())
        elif scenario == 2:
            y = np.zeros(m)
            keep = rng.choice(m, size=s, replace=False) if s else []
            y[list(keep)] = np.maximum(x[list(keep)], 0.0)
        elif scenario == 3:
            y = np.maximum(x, 0.0)
        else:
            y = mixed_vector(rng, m)
        got = vs.decomposition_check(x, y, s)
        want = member_of(y, oracle, tol=1e-10)
        disagreements += got != want
    report(2, disagreements == 0,
           f"100000 triples, {disagreements} disagreements with the oracle")


def _member_sample(rng, m, s):
    """Point in the constraint set and a direction in its normal cone, with
    the branch that generated it."""
    k0 = int(rng.integers(0, s + 1))
    xbar = np.zeros(m)
    xbar[rng.choice(m, size=k0, replace=False)] = rng.uniform(0.5, 2.0, size=k0)
    free = np.flatnonzero(xbar == 0.0)
    if rng.random() < 0.5 or m - s == 0:
        y = np.zeros(m)
        take = rng.random(free.size) < 0.8
        y[free[take]] = -rng.uniform(0.1, 3.0, size=int(take.sum()))
        return xbar, y, "nonpos"
    support = np.flatnonzero(xbar)
    fill = free[: s - k0]
    j0 = np.concatenate([support, fill]).astype(int)
    off = np.setdiff1d(np.arange(m), j0)
    y = np.zeros(m)
    count = int(rng.integers(1, off.size + 1)) if off.size else 0
    take = off[rng.choice(off.size, size=count, replace=False)] if count else []
    y[take] = rng.uniform(0.1, 3.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    return xbar, y, "sparsity"


def _nonmember_sample(rng, m, s):
    """Point and a direction that fails the normal-cone formula, with all
    nonzero entries bounded away from zero."""
    if rng.random() < 0.5 or s < 1:
        k0 = int(rng.integers(1, s + 1))
        xbar = np.zeros(m)
        sup = rng.choice(m, size=k0, replace=False)
        xbar[sup] = rng.uniform(0.5, 2.0, size=k0)
        y = np.zeros(m)
        y[sup[0]] = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        others = np.setdiff1d(np.arange(m), [sup[0]])
        take = others[rng.random(others.size) < 0.5]
        y[take] = rng.uniform(0.05, 1.0, size=take.size) * rng.choice([-1.0, 1.0], size=take.size)
        return xbar, y
    k0 = int(rng.integers(0, s))  # below maximal sparsity
    xbar = np.zeros(m)
    xbar[rng.choice(m, size=k0, replace=False)] = rng.uniform(0.5, 2.0, size=k0)
    free = np.flatnonzero(xbar == 0.0)
    y = np.zeros(m)
    y[free] = rng.uniform(0.05, 1.0, size=free.size)  # all positive, full free support
    return xbar, y


def _sequence_residual(xbar, y, s, branch, k=10**4):
    """min over projection members of ||k (x_k - p) - y|| for the proof's
    sequence of the given branch."""
    m = xbar.size
    if branch == "nonpos":
        xk = xbar + y / k
    else:
        support = np.flatnonzero(xbar)
        free = np.setdiff1d(np.arange(m), support)
        fill = free[: s - support.size]
        j0 = np.concatenate([support, fill]).astype(int)
        w = np.zeros(m)
        w[j0] = 1.0
        xk = xbar + y / k + w / np.sqrt(k)
    res = vs.project_sparse_nonneg(xk, s)
    return min(float(np.max(np.abs(k * (xk - p) - y))) for p in res.members)


def test_criterion_3_normal_cone_constructive_validation():
    """1e3 cone members reproduced by the proof's sequences at k = 1e4
    within 1e-6; 1e3 non-members never reproduced within 1e-3."""
    rng = np.random.default_rng(31)
    worst_member = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        s = int(rng.integers(1, m + 1))
        xbar, y, branch = _member_sample(rng, m, s)
        assert vs.normal_cone_contains(xbar, y, s).is_member
        worst_member = max(worst_member, _sequence_residual(xbar, y, s, branch))
    ok_members = worst_member <= 1e-6

    worst_non = np.inf
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        s = int(rng.integers(1, m))
        xbar, y = _nonmember_sample(rng, m, s)
        assert not vs.normal_cone_contains(xbar, y, s).is_member
        d = min(
            _sequence_residual(xbar, y, s, "nonpos"),
            _sequence_residual(xbar, y, s, "sparsity"),
        )
        worst_non = min(worst_non, d)
    ok_non = worst_non > 1e-3
    report(3, ok_members and ok_non,
           f"members reproduced to {worst_member:.2e} (<=1e-6); non-members "
           f"kept {worst_non:.2e} away (>1e-3)")


def test_criterion_4_spectral_lifting():
    """500 random symmetric matrices (m <= 6): eigenvalues of the matrix
    projection match the vector oracle as multisets (1e-9) and the
    projection beats 1e4 random members of the set (slack 1e-9)."""
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 7))
        s = int(rng.integers(0, m + 1))
        a = rng.standard_normal((m, m))
        x = 0.5 * (a + a.T)
        p = ms.project_psd_low_rank(x, s)
        lam_x = eig_sym(x).lam
        want = np.sort(vs.project_sparse_nonneg(lam_x, s).canonical)
        got = np.sort(eig_sym(p).lam)
        assert np.max(np.abs(got - want)) <= 1e-9
        dp = np.linalg.norm(x - p)
        if s == 0:
            zs = np.zeros((1, m, m))
        else:
            v = rng.standard_normal((10_000, s, m))
            zs = np.einsum("ksm,ksn->kmn", v, v)
        dz = np.linalg.norm(x[None] - zs, axis=(1, 2))
        worst_gap = max(worst_gap, float(np.max(dp - dz)))
        assert dp <= float(np.min(dz)) + 1e-9
    report(4, True,
           f"eigenvalue multisets match the vector oracle; projections beat "
           f"10^4 sampled members (worst margin {worst_gap:.2e} <= 1e-9)")


def test_criterion_5_prox_regularity_dichotomy():
    """Every (m, s) with m <= 6, s in [1, m-1]: maximal-sparsity points are
    singleton-valued across the ball of the proof's radius; sub-maximal
    points produce multi-valued projections at k = 10.  Zero exceptions."""
    exceptions = 0
    combos = 0
    for m in range(2, 7):
        for s in range(1, m):
            combos += 1
            rng = np.random.default_rng(50 * m + s)
            for trial in range(10):
                xbar = np.zeros(m)
                xbar[rng.choice(m, size=s, replace=False)] = rng.uniform(0.3, 2.0, size=s)
                ev = regularity.prox_regularity_vector(xbar, s, rng_seed=trial)
                if not (ev.prox_regular and ev.all_singleton):
                    exceptions += 1
                k0 = int(rng.integers(0, s))
                sub = np.zeros(m)
                sub[rng.choice(m, size=k0, replace=False)] = rng.uniform(0.3, 2.0, size=k0)
                ev2 = regularity.prox_regularity_vector(sub, s, rng_seed=trial)
                if ev2.prox_regular or ev2.member_counts[0] < 2:
                    exceptions += 1
    report(5, exceptions == 0,
           f"{combos} (m, s) pairs x 10 points each way, {exceptions} exceptions")


def test_criterion_6_edm_certifier_oracle_agreement():
    """50 seeded instances (<= 9 points): the exact-linear verdict matches an
    independent doubled-precision null-space oracle; every witness passes the
    normal-cone membership tests of both constraint sets."""
    agree = 0
    witnesses = 0
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(4, 10))
        frac = float(rng.uniform(0.35, 1.0))
        inst, pts = edm.generate_instance(n, 2, frac, 600 + seed)
        xbar = edm.build_edm(pts)
        try:
            cert = regularity.certify_edm_completion(inst, xbar)
        except PreconditionError:
            continue
        done += 1
        null_dim = edm_violation_null_dim_mp(inst, xbar)
        if (cert.diagnostics["null_dim"] == null_dim) and (
            (cert.verdict == "regular") == (null_dim == 0)
        ):
            agree += 1
        if cert.verdict == "not_regular":
            w = cert.witness
            assert edm.normal_cone_data_contains(inst, xbar, w)
            assert edm.normal_cone_embedding_contains(inst, xbar, -w)
            witnesses += 1
    report(6, agree == 50,
           f"{agree}/50 verdicts match the doubled-precision oracle; "
           f"{witnesses} witnesses re-verified")


def test_criterion_7_dr_local_linear_convergence():
    """20 certifier-passing instances (4-8 points, s = 2, fraction >= 0.6):
    DR from the solution plus a perturbation of norm <= 0.01 reaches shadow
    residual 1e-8 within 1e4 iterations in >= 18 cases, with a linear rate
    fit rho < 1, r^2 >= 0.9.  Total runtime < 5 minutes."""
    t0 = time.time()
    successes = 0
    found = 0
    seed = 0
    while found < 20 and seed < 500:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        frac = float(rng.uniform(0.6, 0.75))
        inst, pts = edm.generate_instance(n, 2, frac, seed)
        xbar = edm.build_edm(pts)
        try:
            cert = regularity.certify_edm_completion(inst, xbar)
        except PreconditionError:
            continue
        if cert.verdict != "regular":
            continue
        found += 1
        delta = rng.standard_normal((n, n))
        delta = delta + delta.T
        delta *= 0.01 / np.linalg.norm(delta)
        _, trace = solvers.solve_dr(
            solvers.FixedEntriesNonnegSet.from_partial_edm(inst),
            solvers.EmbeddingRankSet.from_partial_edm(inst),
            xbar + delta,
            solvers.SolveConfig(tol=1e-8, maxiter=10_000),
        )
        rate = trace.rate
        if (
            trace.status == "converged"
            and trace.residuals[-1] <= 1e-8
            and rate is not None
            and rate.rho < 1.0
            and rate.r2 >= 0.9
        ):
            successes += 1
    elapsed = time.time() - t0
    report(7, found == 20 and successes >= 18 and elapsed < 300.0,
           f"{successes}/{found} runs converged with certified linear rate "
           f"({elapsed:.0f} s < 300 s)")


def test_criterion_8_sparse_linear_feasibility():
    """20 planted instances (m <= 12, s <= 4, Gaussian rows p = 2s+1): DR
    from a start within 0.05 of the planted solution returns a feasible,
    nonnegative, s-sparse point in >= 16 cases."""
    successes = 0
    for i in range(20):
        rng = np.random.default_rng(8000 + i)
        m = int(rng.integers(8, 13))
        s = int(rng.integers(2, 5))
        p = 2 * s + 1
        a, b, x_true = solvers.plant_sparse_instance(m, s, p, rng_seed=8000 + i)
        delta = rng.standard_normal(m)
        x0 = x_true + 0.05 * rng.random() * delta / np.linalg.norm(delta)
        c1 = solvers.AffineSet(a, b)
        c2 = solvers.NonnegSparseSet(s)
        shadow, trace = solvers.solve_dr(
            c1, c2, x0, solvers.SolveConfig(tol=1e-10, maxiter=50_000)
        )
        q = c2.project(shadow)
        if (
            trace.status == "converged"
            and np.linalg.norm(a @ q - b) <= 1e-8
            and np.min(q) >= 0.0
            and vs.sparsity(q) <= s
        ):
            successes += 1
    report(8, successes >= 16, f"{successes}/20 planted instances recovered")


def test_criterion_9_isometry_involution_suite():
    """The reflector conjugation is an involutive isometry to 1e-9 on 100
    random matrices for every dimension from 3 to 20."""
    worst_inv = 0.0
    worst_iso = 0.0
    for n in range(3, 21):
        g = edm.householder_map(n)
        rng = np.random.default_rng(900 + n)
        for _ in range(100):
            a = rng.standard_normal((n, n))
            x = 0.5 * (a + a.T)
            gx = g.apply(x)
            worst_inv = max(
                worst_inv,
                float(np.linalg.norm(g.apply(gx) - x)) / (1 + float(np.linalg.norm(x))),
            )
            worst_iso = max(
                worst_iso,
                abs(float(np.linalg.norm(gx)) - float(np.linalg.norm(x)))
                / (1 + float(np.linalg.norm(x))),
            )
    ok = worst_inv <= 1e-9 and worst_iso <= 1e-9
    report(9, ok,
           f"round-trip error {worst_inv:.2e}, norm drift {worst_iso:.2e} "
           f"(both <= 1e-9) across dims 3..20")
