"""Timed passes over a workload stream, the metrics computed from them and
the record of the environment they ran in."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

from perfbench import BLAS_THREAD_VARS, workloads

FAILURE_CAUSES = ("check", "stalled", "maxiter", "exception", "undecided")
SETUP_REPEATS = 7
FINGERPRINT_PREFIX = 10
P90_MIN_SAMPLES = 100
# One reference-kernel run per half second of timed work, and the kernel's
# time on the 2-core, 2.1 GHz virtual machine the benchmark was sized on.
REFERENCE_INTERVAL_S = 0.5
REFERENCE_NOMINAL_S = 0.006

# A fresh interpreter that imports the library and generates the first
# instance, what a user pays before the first solve, then prints the
# monotonic clock (system-wide on Linux) at that point.
_SETUP_CHILD = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "from perfbench import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].make(int(sys.argv[4]), 0); "
    "print(time.monotonic())"
)


@dataclass
class PassResult:
    """Instances of one pass, in stream order."""

    records: list = field(default_factory=list)
    durations: list = field(default_factory=list)  # seconds, timed calls only
    steps: list = field(default_factory=list)
    causes: list = field(default_factory=list)  # failure cause or None
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0  # generation plus timed calls

    def __len__(self) -> int:
        return len(self.records)


def run_pass(workload, seed: int, seconds=None, count=None, tracer=None,
             between=None) -> PassResult:
    """Closed loop over the stream: the next instance starts when the
    previous one returns.  Stops once the timed calls have taken
    ``seconds``, or after ``count`` instances.  ``between(timed_s)`` runs
    before each instance, outside the timed calls."""
    res = PassResult()
    timed = 0.0
    t_start = perf_counter()
    k = 0
    while (timed < seconds) if count is None else (k < count):
        if between is not None:
            between(timed)
        if tracer is not None:
            tracer.instance = k
        inputs = workload.make(seed, k)
        t0 = perf_counter()
        try:
            output = workload.run(inputs)
        except Exception:
            dt = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            res.records.append({"exception": traceback.format_exc(limit=1).strip()})
            res.steps.append(0)
            res.causes.append("exception")
            output = None
        else:
            dt = perf_counter() - t0
            record, steps, cause = workload.outcome(output)
            res.records.append(record)
            res.steps.append(steps)
            res.causes.append(cause)
        res.durations.append(dt)
        res.outputs.append(output)
        timed += dt
        k += 1
    res.wall_s = perf_counter() - t_start
    return res


def check_pass(workload, seed: int, res: PassResult) -> None:
    """Judge every completed output with the workload's own check; inputs
    are regenerated from the seed rather than kept through the timed pass."""
    for k, (output, cause) in enumerate(zip(res.outputs, res.causes)):
        if cause is not None:
            continue
        error = workload.check(workload.make(seed, k), output)
        if error is not None:
            print(f"check failed: {workload.name} seed {seed} instance {k}: {error}",
                  file=sys.stderr)
            res.causes[k] = "check"
    res.outputs.clear()


def warm_up(workload, seed: int) -> float:
    t0 = perf_counter()
    for j in range(workload.warmup):
        workload.run(workload.make(seed, workloads.WARMUP_BASE + j))
    return perf_counter() - t0


class SetupSampler:
    """Seconds from spawning a fresh interpreter to the point where it has
    imported the library and generated the first instance.  The child
    reports that point itself, so neither its exit nor the parent's wait
    is counted.  Called as ``between`` of a timed pass, it takes its
    ``SETUP_REPEATS`` samples spread evenly over the pass, so that they see
    the same machine as the timed instances rather than only its start."""

    def __init__(self, root: Path, workload, seed: int, seconds: float):
        self.cmd = [sys.executable, "-c", _SETUP_CHILD, str(root / "src"), str(root),
                    workload.name, str(seed)]
        self.seconds = seconds
        self.times: list = []

    def sample(self) -> None:
        t0 = monotonic()
        child = subprocess.run(self.cmd, check=True, timeout=120, capture_output=True,
                               text=True)
        self.times.append(float(child.stdout) - t0)

    def __call__(self, timed_s: float) -> None:
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * timed_s / self.seconds))
        while len(self.times) < due:
            self.sample()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


class ReferenceClock:
    """Probe of the machine's speed during a timed pass: a fixed kernel of
    small numpy operations in a Python loop, a stable argsort and small
    SVDs (the kinds of work the workloads do), independent of sparsecones.
    Called as ``between`` of a timed pass, it runs the kernel once per
    ``REFERENCE_INTERVAL_S`` of timed work, outside the timed calls.

    On a shared machine the speed of the same code drifts by 20% over
    minutes; dividing by the kernel's time in the same run removes most of
    that drift, and leaves any change in sparsecones whole."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 7))
        self.a = a + a.T
        self.v = rng.standard_normal(2000)
        self.b = rng.standard_normal((8, 8))
        self.covered = 0.0
        self.times: list = []

    def kernel(self) -> float:
        a = self.a.copy()
        acc = 0.0
        for i in range(200):
            p = i % 6
            col = a[:, p].copy()
            a[:, p] = 0.995 * col - 0.0998 * a[:, p + 1]
            a[:, p + 1] = 0.0998 * col + 0.995 * a[:, p + 1]
            acc += float(np.linalg.norm(a))
        for _ in range(20):
            np.argsort(-self.v, kind="stable")
        for _ in range(50):
            np.linalg.svd(self.b)
        return acc

    def __call__(self, timed_s: float) -> None:
        while self.covered <= timed_s:
            t0 = perf_counter()
            self.kernel()
            self.times.append(perf_counter() - t0)
            self.covered += REFERENCE_INTERVAL_S


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(res: PassResult) -> dict:
    """Digests of the exact-count records: over the first
    ``FINGERPRINT_PREFIX`` instances, so that runs that got through
    different numbers of instances still compare, and over the whole
    pass."""
    def digest(records):
        blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    prefix = res.records[:FINGERPRINT_PREFIX]
    return {
        "prefix_len": len(prefix),
        "prefix_sha256": digest(prefix),
        "all_len": len(res),
        "all_sha256": digest(res.records),
    }


def failure_counts(res: PassResult) -> dict:
    return {cause: res.causes.count(cause) for cause in FAILURE_CAUSES}


def end_to_end(res: PassResult, setup_times: list, rss_mb: float,
               reference_times: list) -> dict:
    """Every end-to-end metric as ``name -> (value, unit, note)``; ``value``
    is None where the run has too few samples."""
    ok = [i for i, cause in enumerate(res.causes) if cause is None]
    timed_s = sum(res.durations)
    steps_per_s = sum(res.steps[i] for i in ok) / timed_s
    reference_s = statistics.fmean(reference_times)
    ms = [1e3 * res.durations[i] for i in ok]
    fails = failure_counts(res)
    n_failed = sum(fails.values())
    p90 = None
    if len(ms) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(ms, n=10)[-1]
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters"),
        "instances_per_s": (len(ok) / timed_s, "1/s", f"n={len(ok)}"),
        "steps_per_s_normalized": (
            steps_per_s * reference_s / REFERENCE_NOMINAL_S, "1/s",
            f"steps_per_s x reference_ms / {1e3 * REFERENCE_NOMINAL_S:g}"),
        "steps_per_s": (steps_per_s, "1/s", f"n={sum(res.steps[i] for i in ok)} steps"),
        "reference_ms": (1e3 * reference_s, "ms",
                         f"mean of {len(reference_times)} reference-kernel runs"),
        "instance_ms_p50": (statistics.median(ms) if ms else None, "ms", f"n={len(ms)}"),
        "instance_ms_p90": (p90, "ms", f"n={len(ms)}, needs >= {P90_MIN_SAMPLES}"),
        "failed_frac": (n_failed / len(res), "fraction",
                        f"{n_failed}/{len(res)}: "
                        + ", ".join(f"{c} {n}" for c, n in fails.items())),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the timed pass"),
    }


def per_layer(tracer, traced: PassResult, untraced: PassResult) -> dict:
    """Per-layer metrics of a traced pass as ``name -> value``."""
    agg = tracer.aggregate()
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = agg["calls"][name]
        out[f"{name}.self_s"] = agg["self_s"][name]
        out[f"{name}.share"] = agg["self_s"][name] / traced.wall_s
    iterations = sum(r.get("iterations", 0) for r in traced.records)
    dr_projections = sum(
        n for name, n in agg["calls_in_dr"].items() if name.startswith("solvers.project.")
    )
    out["solvers.iterations"] = iterations
    out["solvers.projections_per_iteration"] = dr_projections / iterations if iterations else 0.0
    out["solvers.iteration_us"] = (
        1e6 * agg["span_s"]["solvers.solve_dr"] / iterations if iterations else 0.0
    )
    out["regularity.edm_constraint_rows"] = sum(
        r.get("n_constraints", 0) for r in traced.records
    )
    out["regularity.enumerated_sets"] = sum(
        r.get("enumerated_sets", 0) for r in traced.records
    )
    for verdict in ("regular", "not_regular", "undecided"):
        out[f"regularity.verdict.{verdict}"] = sum(
            r.get("verdict") == verdict for r in traced.records
        )
    ips_traced = len(traced) / sum(traced.durations)
    ips_untraced = len(untraced) / sum(untraced.durations)
    out["trace.overhead_instances_per_s"] = ips_traced - ips_untraced
    out["trace.spans"] = len(tracer)
    return out


def _openblas() -> dict:
    """Runtime OpenBLAS configuration and thread count, read from the
    library numpy loaded; falls back to numpy's build record."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return {"config": get_config().decode(), "threads": get_threads()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"config": f"{blas.get('name')} {blas.get('version')}", "threads": None}


def _git_commit(root: Path):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def environment(root: Path, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "sparsecones").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }
