"""Tests of the benchmark harness: tracing must not change what the library
computes, must reach every layer on the workload that serves it, and must
leave no wrapper behind."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing, workloads  # noqa: E402
from sparsecones import edm, linalg, matrix_sets, regularity, solvers  # noqa: E402

SEED = 3
# the first instances of each stream; certify needs both certifiers and a
# not_regular completion verdict (instance 0 of this seed)
COUNTS = {"edm-complete": 1, "sparse-dr": 1, "certify": 2}

# the layer -> workload table of perfbench/README.md
SERVES = {
    "edm-complete": (
        "linalg.eig_sym", "linalg.check_symmetric", "linalg.symmetrize",
        "edm.HouseholderMap.apply", "edm.project_embedding_rank_core",
        "matrix_sets.project_psd_low_rank", "solvers.solve_dr",
        "solvers.complete_edm", "solvers.project.mask-nonneg",
        "solvers.project.embedding-rank", "edm.generate_instance",
        "edm.is_edm", "edm.recover_points",
    ),
    "sparse-dr": (
        "solvers.solve_dr", "solvers.project.affine",
        "solvers.project.nonneg-sparse", "vector_sets.top_s_nonneg",
        "solvers.plant_sparse_instance",
    ),
    "certify": (
        "regularity.certify_edm_completion", "edm.validate_completion_point",
        "matrix_sets.normal_cone_contains", "regularity.certify_affine_sparse",
        "linalg.null_intersection_basis", "linalg.lp_cone_point",
        "edm.generate_instance",
    ),
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, count in COUNTS.items():
        workload = workloads.WORKLOADS[name]
        untraced = harness.run_pass(workload, SEED, count=count)
        with tracing.Tracer() as tracer:
            traced = harness.run_pass(workload, SEED, count=count, tracer=tracer)
        for res in (untraced, traced):
            harness.check_pass(workload, SEED, res)
        out[name] = untraced, traced, tracer
    return out


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_traced_and_untraced_fingerprints_identical(runs, name):
    untraced, traced, _ = runs[name]
    assert untraced.records == traced.records
    assert harness.fingerprint(untraced) == harness.fingerprint(traced)
    assert untraced.causes == traced.causes == [None] * COUNTS[name]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_served_layers_are_called(runs, name):
    calls = runs[name][2].aggregate()["calls"]
    assert {fn: calls[fn] for fn in SERVES[name] if calls[fn] == 0} == {}


def test_table_covers_every_target():
    served = {fn for fns in SERVES.values() for fn in fns}
    assert served == {name for name, _, _ in tracing.TARGETS}


def test_sparse_dr_makes_no_eigendecomposition(runs):
    assert runs["sparse-dr"][2].aggregate()["calls"]["linalg.eig_sym"] == 0


def test_dr_makes_three_projections_per_iteration(runs):
    _, traced, tracer = runs["edm-complete"]
    metrics = harness.per_layer(tracer, traced, traced)
    iterations = metrics["solvers.iterations"]
    # one first-set and two second-set projections, minus the reflection
    # the converged final iteration skips
    assert metrics["solvers.projections_per_iteration"] == (3 * iterations - 1) / iterations


def test_wrappers_patch_every_binding():
    original = linalg.eig_sym
    with tracing.Tracer():
        for mod in (linalg, matrix_sets, edm, regularity):
            assert mod.eig_sym is not original
            assert mod.eig_sym.__wrapped__ is original
        assert solvers.AffineSet.project.__wrapped__ is not None


def test_wrappers_removed_after_traced_run(runs):
    for _, _, tracer in runs.values():
        assert tracer.restored()
    for mod in (matrix_sets, edm, regularity):
        assert mod.eig_sym is linalg.eig_sym
        assert mod.check_symmetric is linalg.check_symmetric
        assert mod.symmetrize is linalg.symmetrize
    for name, module, path in tracing.TARGETS:
        _, _, fn = tracing._resolve(module, path)
        assert not hasattr(fn, "__wrapped__"), name


def test_stream_instance_depends_only_on_seed_and_index():
    workload = workloads.WORKLOADS["certify"]
    later = workload.make(SEED, 3)
    for k in range(3):
        workload.make(SEED, k)
    again = workload.make(SEED, 3)
    assert (later[1] == again[1]).all() and (later[2] == again[2]).all()
    other = workload.make(SEED + 1, 3)
    assert not (later[1] == other[1]).all()


def test_declared_metrics_are_computed(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced, traced, tracer = runs["certify"]
    layer = harness.per_layer(tracer, traced, untraced)
    assert {m["name"] for m in spec["per_layer"]} == set(layer)
    e2e = harness.end_to_end(untraced, [0.1], harness.peak_rss_mb(), [0.005])
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert all(e2e[m["name"]][0] > 0 for m in spec["end_to_end"])


def test_fails_without_library_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
