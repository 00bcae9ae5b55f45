import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecones import edm, matrix_sets, solvers, vector_sets
from sparsecones.errors import PreconditionError
from sparsecones.solvers import (
    AffineSet,
    EmbeddingRankSet,
    FixedEntriesNonnegSet,
    NonnegSparseSet,
    PsdLowRankSet,
    RateEstimate,
    SolveConfig,
    SolveTrace,
    dr_step,
    estimate_rate,
    reflect,
    solve_dr,
    solve_map,
    _stalled,
)

from conftest import random_symmetric
from oracles import sparse_nonneg_projection_members

DATA = Path(__file__).parent / "data"


def make_trace(residuals, steps=None):
    residuals = np.asarray(residuals, dtype=float)
    if steps is None:
        steps = residuals
    return SolveTrace(
        method="dr",
        residuals=residuals,
        step_norms=np.asarray(steps, dtype=float),
        times_ms=np.zeros(residuals.size),
        status="converged",
    )


class TestReflect:
    def test_orthant_reflection(self):
        class Orthant:
            kind = "nonneg"

            def project(self, x):
                return np.maximum(np.asarray(x, float), 0.0)

        assert np.allclose(reflect(Orthant(), np.array([-1.0, 2.0])), [1.0, 2.0])

    def test_fixed_point(self):
        c = AffineSet([[1.0, 1.0]], [1.0])
        x = np.array([0.5, 0.5])
        assert np.allclose(reflect(c, x), x)

    def test_affine_mirror(self):
        c = AffineSet([[0.0, 1.0]], [0.0])  # the line y = 0
        assert np.allclose(reflect(c, np.array([3.0, 4.0])), [3.0, -4.0])

    def test_involution_for_affine(self, rng):
        c = AffineSet(rng.standard_normal((2, 5)), rng.standard_normal(2))
        x = rng.standard_normal(5)
        assert np.allclose(reflect(c, reflect(c, x)), x, atol=1e-9)


class _Recording(solvers.ConstraintSet):
    """A set that records every point it is asked to project."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def project(self, x):
        self.seen.append(np.array(x, dtype=float))
        return self.inner.project(x)


class TestDrStep:
    @pytest.mark.parametrize("pair", ["edm", "sparse"])
    def test_is_one_solve_dr_update(self, pair):
        if pair == "edm":
            inst, _ = edm.generate_instance(8, 2, 0.7, rng_seed=3)
            c1 = FixedEntriesNonnegSet.from_partial_edm(inst)
            c2 = EmbeddingRankSet.from_partial_edm(inst)
            x0 = inst.entries
        else:
            a, b, x_true = solvers.plant_sparse_instance(40, 4, 20, rng_seed=3)
            c1, c2 = AffineSet(a, b), NonnegSparseSet(4)
            x0 = x_true + 0.3 * np.random.default_rng(4).standard_normal(40)
        rec = _Recording(c1)
        solve_dr(rec, c2, x0, SolveConfig(maxiter=2))
        # the first projection of iteration 1 receives the first update
        assert rec.seen[1].tobytes() == dr_step(c1, c2, x0).tobytes()

    def test_identity_on_full_space(self, rng):
        c = AffineSet(np.zeros((1, 3)), [0.0])  # the whole space
        x = rng.standard_normal(3)
        assert np.allclose(dr_step(c, c, x), x, atol=1e-12)

    def test_perpendicular_lines_one_step(self):
        c1 = AffineSet([[0.0, 1.0]], [0.0])
        c2 = AffineSet([[1.0, 0.0]], [0.0])
        assert np.allclose(dr_step(c1, c2, np.array([3.0, 4.0])), 0.0, atol=1e-12)

    def test_feasible_fixed_point(self, rng):
        a = rng.standard_normal((2, 5))
        x_true = rng.standard_normal(5)
        c1 = AffineSet(a, a @ x_true)
        c2 = AffineSet(a[:1], a[:1] @ x_true)
        assert np.allclose(dr_step(c1, c2, x_true), x_true, atol=1e-10)

    def test_fixed_point_maps_to_feasibility(self, rng):
        # near-fixed points of the operator have nearly feasible shadows
        c1 = AffineSet([[1.0, 1.0]], [1.0])
        c2 = NonnegSparseSet(1)
        x, tr = solve_dr(c1, c2, rng.standard_normal(2), SolveConfig(tol=1e-13, maxiter=5000))
        if tr.status == "converged":
            step = dr_step(c1, c2, x)  # shadow is near a fixed point cluster
            p = c1.project(x)
            assert np.linalg.norm(p - c2.project(p)) <= 1e-6


class TestSolveDr:
    def test_convex_halfspaces(self, rng):
        c1 = AffineSet([[1.0, 0.0]], [0.3])
        c2 = AffineSet([[0.0, 1.0]], [-0.2])
        x, tr = solve_dr(c1, c2, rng.standard_normal(2))
        assert tr.status == "converged"
        assert np.allclose(x, [0.3, -0.2], atol=1e-6)
        assert tr.residuals[-1] <= 1e-8

    def test_planted_sparse_recovery(self):
        a, b, x_true = solvers.plant_sparse_instance(5, 2, 4, rng_seed=3)
        rng = np.random.default_rng(4)
        x0 = x_true + 0.02 * rng.standard_normal(5)
        shadow, tr = solve_dr(
            AffineSet(a, b), NonnegSparseSet(2), x0, SolveConfig(tol=1e-10)
        )
        assert tr.status == "converged"
        q = NonnegSparseSet(2).project(shadow)
        assert np.linalg.norm(a @ q - b) <= 1e-8
        assert vector_sets.sparsity(q) <= 2
        assert np.min(q) >= 0.0

    def test_disjoint_never_converges(self):
        c1 = AffineSet([[0.0, 1.0]], [0.0])
        c2 = AffineSet([[0.0, 1.0]], [1.0])
        _, tr = solve_dr(c1, c2, np.array([0.1, 0.9]), SolveConfig(maxiter=3000))
        assert tr.status in ("maxiter", "stalled")

    def test_monotone_toward_fixed_point_convex(self, rng):
        # firmly nonexpansive steps never move away from a fixed point
        c1 = AffineSet([[1.0, 2.0, 0.0]], [1.0])
        c2 = AffineSet([[0.0, 1.0, 1.0]], [0.5])
        xfix, tr = solve_dr(c1, c2, rng.standard_normal(3), SolveConfig(tol=1e-12))
        assert tr.status == "converged"
        # recover the actual fixed point by iterating once more
        x = rng.standard_normal(3)
        xstar = x
        for _ in range(2000):
            xstar = dr_step(c1, c2, xstar)
        dist = np.linalg.norm(x - xstar)
        for _ in range(50):
            x = dr_step(c1, c2, x)
            d = np.linalg.norm(x - xstar)
            assert d <= dist + 1e-10
            dist = d

    def test_deterministic_traces(self, rng):
        a, b, _ = solvers.plant_sparse_instance(6, 2, 5, rng_seed=8)
        x0 = rng.standard_normal(6)
        s1, t1 = solve_dr(AffineSet(a, b), NonnegSparseSet(2), x0)
        s2, t2 = solve_dr(AffineSet(a, b), NonnegSparseSet(2), x0.copy())
        assert np.array_equal(s1, s2)
        assert np.array_equal(t1.residuals, t2.residuals)
        assert np.array_equal(t1.step_norms, t2.step_norms)

    def test_deterministic_completion_traces(self):
        # the eigensolver is on this path, unlike the sparse pair above
        inst, _ = edm.generate_instance(8, 2, 0.85, rng_seed=0)
        s1, t1 = solvers.complete_edm(inst)
        s2, t2 = solvers.complete_edm(inst)
        assert t1.status == "converged"
        assert np.array_equal(s1, s2)
        assert np.array_equal(t1.residuals, t2.residuals)
        assert np.array_equal(t1.step_norms, t2.step_norms)

    def test_converged_invariant(self, rng):
        c1 = AffineSet([[1.0, 0.0]], [0.0])
        c2 = AffineSet([[0.0, 1.0]], [0.0])
        _, tr = solve_dr(c1, c2, rng.standard_normal(2), SolveConfig(tol=1e-9))
        assert tr.status == "converged"
        assert tr.residuals[-1] <= 1e-9
        assert np.all(tr.residuals >= 0.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(maxiter=0)
        with pytest.raises(ValueError):
            SolveConfig(stall_window=0)


class TestStallRule:
    def test_plateau_without_drift_stalls(self):
        x = np.ones(3)
        steps = [1e-3] * 400
        assert _stalled(steps, 200, x, x)
        assert not _stalled(steps[:399], 200, x, x)  # only at window ends

    def test_steady_drift_is_progress(self):
        # 200 equal steps along one line move the iterate 200 step lengths
        steps = [1e-3] * 400
        assert not _stalled(steps, 200, np.array([0.2, 0.0]), np.zeros(2))

    @pytest.mark.parametrize("name", ["edm_drift_seed5_k268", "edm_drift_seed9_k556"])
    def test_drifting_completion_converges(self, name):
        # the shadow stays frozen for thousands of steps while the iterate
        # moves along a line at constant step norm; DR converges afterwards
        inst, _, _ = edm.load_instance(DATA / f"{name}.json")
        cfg = SolveConfig(tol=1e-10, maxiter=20_000, stall_window=1000)
        _, tr = solvers.complete_edm(inst, cfg=cfg)
        assert tr.status == "converged"


class TestSolveMap:
    def test_two_lines(self, rng):
        c1 = AffineSet([[1.0, -1.0]], [0.0])
        c2 = AffineSet([[1.0, 1.0]], [2.0])
        x, tr = solve_map(c1, c2, rng.standard_normal(2))
        assert tr.status == "converged"
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)

    def test_feasible_start_immediate(self):
        c1 = AffineSet([[1.0, 0.0]], [1.0])
        c2 = AffineSet([[0.0, 1.0]], [2.0])
        x0 = np.array([1.0, 2.0])
        x, tr = solve_map(c1, c2, x0)
        assert tr.status == "converged"
        assert tr.iterations == 1
        assert np.allclose(x, x0)

    def test_planted_instance(self):
        a, b, x_true = solvers.plant_sparse_instance(6, 2, 5, rng_seed=21)
        rng = np.random.default_rng(22)
        x0 = x_true + 0.02 * rng.standard_normal(6)
        shadow, tr = solve_map(
            AffineSet(a, b), NonnegSparseSet(2), x0, SolveConfig(tol=1e-10)
        )
        assert tr.status == "converged"
        q = NonnegSparseSet(2).project(shadow)
        assert np.linalg.norm(a @ q - b) <= 1e-8


class TestEstimateRate:
    def test_exact_geometric(self):
        tr = make_trace(0.5 ** np.arange(40))
        est = estimate_rate(tr)
        assert np.isclose(est.rho, 0.5, atol=1e-12)
        assert np.isclose(est.r2, 1.0)

    def test_constant_residuals(self):
        tr = make_trace(np.full(40, 0.3))
        est = estimate_rate(tr)
        assert est.rho == 1.0

    def test_noisy_geometric(self):
        rng = np.random.default_rng(5)
        n = np.arange(60)
        vals = 0.7**n * rng.uniform(0.9, 1.1, size=60)
        est = estimate_rate(make_trace(vals))
        assert 0.65 <= est.rho <= 0.75

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            estimate_rate(make_trace([0.5, 0.25]))
        with pytest.raises(ValueError, match="insufficient"):
            estimate_rate(make_trace(np.full(30, 2.0)))  # nothing below 1

    def test_rho_capped_at_one(self):
        tr = make_trace(0.9 ** -np.arange(-30, 10))  # growing tail
        est = estimate_rate(tr)
        assert est.rho <= 1.0


class TestConstraintSets:
    def test_projection_idempotence(self, rng):
        inst, _ = edm.generate_instance(5, 2, 0.6, 31)
        sets = [
            AffineSet(rng.standard_normal((2, 6)), rng.standard_normal(2)),
            NonnegSparseSet(2),
            PsdLowRankSet(2),
            FixedEntriesNonnegSet.from_partial_edm(inst),
            EmbeddingRankSet.from_partial_edm(inst),
        ]
        points = [
            rng.standard_normal(6),
            rng.standard_normal(8),
            random_symmetric(rng, 4),
            random_symmetric(rng, 5),
            random_symmetric(rng, 5),
        ]
        for c, x in zip(sets, points):
            p = c.project(x)
            assert np.linalg.norm(c.project(p) - p) <= 1e-9 * (1 + np.linalg.norm(p))

    def test_affine_projection_solves(self, rng):
        a = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        c = AffineSet(a, b)
        p = c.project(rng.standard_normal(7))
        assert np.linalg.norm(a @ p - b) <= 1e-9

    def test_sampled_optimality(self, rng):
        c = NonnegSparseSet(2)
        x = rng.standard_normal(6)
        p = c.project(x)
        d = np.linalg.norm(x - p)
        for _ in range(500):
            z = np.zeros(6)
            idx = rng.choice(6, size=2, replace=False)
            z[idx] = np.abs(rng.standard_normal(2))
            assert d <= np.linalg.norm(x - z) + 1e-9

    def test_tie_flags(self):
        project = vector_sets.project_sparse_nonneg
        assert project(np.array([1.0, 1.0]), 1).member_count > 1
        assert not project(np.array([2.0, 1.0]), 1).member_count > 1
        assert matrix_sets.boundary_tie(np.diag([2.0, 2.0, 0.0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_affine_rejects_non_finite(self, bad):
        with pytest.raises(PreconditionError, match="A has a NaN or infinite"):
            AffineSet([[bad, 1.0]], [1.0])
        with pytest.raises(PreconditionError, match="b has a NaN or infinite"):
            AffineSet([[1.0, 1.0]], [bad])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.just(-0.0)),
                    min_size=1, max_size=7).flatmap(
        lambda x: st.tuples(st.just(x), st.integers(0, len(x)))
    ))
    def test_sparse_tie_flag_matches_oracle(self, case):
        x, s = case
        x = np.asarray(x, dtype=float)
        members = sparse_nonneg_projection_members(x, s)
        res = vector_sets.project_sparse_nonneg(x, s)
        assert res.member_count == len(members)
        top = vector_sets.top_s_nonneg(x, s)
        assert np.array_equal(top, res.canonical)
        assert np.array_equal(np.signbit(top), np.signbit(res.canonical))
        # ties go to the lowest indices: the smallest support in
        # lexicographic order
        first = min(members, key=lambda mem: tuple(np.flatnonzero(mem)))
        assert np.array_equal(res.canonical, first)

    def test_complete_edm_output_contract(self):
        inst, pts = edm.generate_instance(6, 2, 0.7, 33)
        completed, tr = solvers.complete_edm(inst)
        if tr.status == "converged":
            assert np.allclose(
                completed[inst.known], inst.entries[inst.known], atol=1e-8
            )
            chk = edm.is_edm(completed)
            assert chk.is_edm and chk.embed_dim <= inst.s


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path, rng):
        c1 = AffineSet([[1.0, 0.0]], [0.0])
        c2 = AffineSet([[0.0, 1.0]], [0.0])
        _, tr = solve_dr(c1, c2, rng.standard_normal(2))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == tr.iterations
        assert float(rows[-1]["residual"]) == tr.residuals[-1]
        assert rows[0].keys() == {"iteration", "residual", "step_norm", "time_ms"}

    def test_summary(self, rng):
        c1 = AffineSet([[1.0, 0.0]], [0.0])
        c2 = AffineSet([[0.0, 1.0]], [0.0])
        _, tr = solve_dr(c1, c2, rng.standard_normal(2))
        s = tr.summary()
        assert s["status"] == "converged"
        assert s["iterations"] == tr.iterations


def _reference_dr(c1, c2, x0, cfg):
    """The DR loop written out over the sets' public ``project``, with the
    stall rule of ``_stalled`` and numpy's norm: ``(shadow, residuals,
    step_norms, status)``."""
    x = np.array(x0, dtype=float)
    residuals, steps = [], []
    anchor = x
    for _ in range(cfg.maxiter):
        p = c1.project(x)
        q = c2.project(p)
        residuals.append(float(np.linalg.norm(p - q)))
        if residuals[-1] <= cfg.tol:
            return p, residuals, steps + [0.0], "converged"
        x_next = x + c2.project(2.0 * p - x) - p
        steps.append(float(np.linalg.norm(x_next - x)))
        x = x_next
        k, w = len(steps), cfg.stall_window
        if steps[-1] <= 1e-16 * (1.0 + float(np.linalg.norm(x))):
            return p, residuals, steps, "stalled"
        if k >= 2 * w and k % w == 0:
            if min(steps[-w:]) > 0.999 * min(steps[-2 * w : -w]) and (
                float(np.linalg.norm(x - anchor)) < 0.5 * sum(steps[-w:])
            ):
                return p, residuals, steps, "stalled"
        if k % w == 0:
            anchor = x
    return c1.project(x), residuals, steps, "maxiter"


def _hidden_pairs_instance(seed, n=8, hidden=3):
    """A planted planar instance with ``hidden`` distances unknown, as in
    the edm-complete benchmark."""
    full, _ = edm.generate_instance(n, 2, 1.0, seed)
    iu, ju = np.triu_indices(n, 1)
    hide = np.random.default_rng(seed).choice(iu.size, hidden, replace=False)
    known = np.ones((n, n), dtype=bool)
    known[iu[hide], ju[hide]] = known[ju[hide], iu[hide]] = False
    return edm.PartialEdm(n, np.where(known, full.entries, 0.0), known, 2)


class TestLoopMatchesReference:
    """The solver loop against the loop written out in the test: the same
    residuals, step norms, status and shadow, bit for bit."""

    CASES = (
        [(_hidden_pairs_instance(k), SolveConfig(tol=1e-10, stall_window=1000),
          "converged") for k in range(20)]
        + [(edm.generate_instance(30, 2, 0.8, 1)[0], SolveConfig(tol=1e-10), "converged"),
           (edm.generate_instance(8, 2, 0.6, 5)[0], SolveConfig(tol=1e-10), "stalled"),
           (_hidden_pairs_instance(3), SolveConfig(tol=1e-10, maxiter=40), "maxiter")]
    )

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_solve_dr_and_complete_edm(self, case):
        inst, cfg, status = self.CASES[case]
        c1 = FixedEntriesNonnegSet.from_partial_edm(inst)
        c2 = EmbeddingRankSet.from_partial_edm(inst)
        ref_shadow, residuals, steps, ref_status = _reference_dr(c1, c2, inst.entries, cfg)
        assert ref_status == status
        for shadow, trace in (solve_dr(c1, c2, inst.entries, cfg),
                              solvers.complete_edm(inst, cfg=cfg)):
            assert trace.status == status
            assert np.array_equal(trace.residuals, residuals)
            assert np.array_equal(trace.step_norms, steps)
            assert shadow.tobytes() == ref_shadow.tobytes()


_CHILD_SOLVES = """
import json
import numpy as np
from sparsecones import edm, solvers
a, b, x = solvers.plant_sparse_instance(200, 5, 40, rng_seed=3)
x0 = x + 0.05 * np.random.default_rng(4).standard_normal(200) / np.sqrt(200)
runs = {
    "sparse-dr": solvers.solve_dr(
        solvers.AffineSet(a, b), solvers.NonnegSparseSet(5), x0,
        solvers.SolveConfig(tol=1e-10, maxiter=20_000)),
    "complete-edm": solvers.complete_edm(edm.generate_instance(8, 2, 0.8, rng_seed=1)[0]),
}
print(json.dumps({
    name: [trace.status, trace.iterations]
    + [v.tobytes().hex() for v in (trace.residuals, trace.step_norms, shadow)]
    for name, (shadow, trace) in runs.items()
}))
"""


def test_solves_identical_across_processes():
    # the scope the module docstring states: one build, one BLAS thread count
    import os
    import subprocess
    import sys

    import sparsecones

    src = str(Path(sparsecones.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs = [
        subprocess.run([sys.executable, "-c", _CHILD_SOLVES], env=env, check=True,
                       capture_output=True, text=True, timeout=60).stdout
        for _ in range(2)
    ]
    first = json.loads(outputs[0])
    assert [first[name][0] for name in ("sparse-dr", "complete-edm")] == ["converged"] * 2
    assert outputs[1] == outputs[0]


class TestBoundaryChecks:
    def test_non_finite_values_rejected_at_construction(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 0] = np.nan
        with pytest.raises(PreconditionError, match="values has a NaN"):
            FixedEntriesNonnegSet(values, np.ones((3, 3), dtype=bool))
        values[0, 1] = values[1, 0] = np.inf
        with pytest.raises(PreconditionError, match="values has a NaN"):
            FixedEntriesNonnegSet(values, np.ones((3, 3), dtype=bool))

    def test_shape_mismatch_rejected_at_projection(self):
        c1 = FixedEntriesNonnegSet(np.zeros((3, 3)), np.eye(3, dtype=bool))
        with pytest.raises(ValueError, match=r"expected shape \(3, 3\), got \(3,\)"):
            c1.project(np.array([1.0, -2.0, 3.0]))

    def test_asymmetric_pair_fails_before_the_loop(self):
        mask = np.eye(3, dtype=bool)
        mask[0, 1] = True
        c1 = FixedEntriesNonnegSet(np.arange(9.0).reshape(3, 3), mask)
        with pytest.raises(ValueError, match="X is not symmetric"):
            solve_dr(c1, EmbeddingRankSet(3, 1), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("known", [True, False])
    def test_non_finite_start(self, bad, known):
        # rejected also on a known entry, which the first projection overwrites
        inst = _hidden_pairs_instance(0)
        i, j = np.argwhere((inst.known == known) & ~np.eye(8, dtype=bool))[0]
        x0 = inst.entries.copy()
        x0[i, j] = x0[j, i] = bad
        with pytest.raises(PreconditionError, match="x0 has a NaN"):
            solvers.complete_edm(inst, x0=x0)

    def test_asymmetric_start(self):
        inst = _hidden_pairs_instance(0)
        i, j = np.argwhere(~inst.known)[0]
        x0 = inst.entries.copy()
        x0[i, j] = 1.0
        with pytest.raises(ValueError, match="X is not symmetric"):
            solvers.complete_edm(inst, x0=x0)
