"""Run one workload of the sparsecones benchmark and print its metrics.

    python3 perfbench/run.py --workload edm-complete --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing.
With ``--trace 1`` it runs an untraced pass for half the time, then the same
instances again with every layer boundary traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics named in BENCHMARK.json for that mode).  Per-instance records,
the environment and, for a traced run, the spans are written under
``perfbench/out/``.  Exits 2 without a result when the library sources are
not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("edm-complete", "sparse-dr", "certify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _load_library():
    """Import the library from this checkout's ``src``, never from an
    installed copy; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "sparsecones" / "__init__.py").is_file():
        print(f"run.py: no library sources at {src / 'sparsecones'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import sparsecones

    if Path(sparsecones.__file__).resolve().parent != (src / "sparsecones").resolve():
        print(f"run.py: imported sparsecones from {sparsecones.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def _print_metric(name, value, unit, note=""):
    shown = "-" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {shown:>14} {unit:<9} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    # one BLAS thread, set before numpy loads OpenBLAS: a second thread
    # oversubscribes the 2-core machine the benchmark was sized on
    sys.path.insert(0, str(ROOT))
    from perfbench import BLAS_THREAD_VARS

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _load_library()
    from perfbench import harness, tracing, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    env = harness.environment(ROOT, args.seed)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 process")
    print("environment " + json.dumps(env, sort_keys=True))

    warmup_s = harness.warm_up(workload, args.seed)
    setup_times = None
    if args.trace == 0:
        sampler = harness.SetupSampler(ROOT, workload, args.seed, args.seconds)
        reference = harness.ReferenceClock()

        def between(timed_s):
            sampler(timed_s)
            reference(timed_s)

        passes = [harness.run_pass(workload, args.seed, seconds=args.seconds, between=between)]
        rss = harness.peak_rss_mb()
        reference(sum(passes[0].durations))
        setup_times = sampler.finish()
    else:
        untraced = harness.run_pass(workload, args.seed, seconds=args.seconds / 2)
        with tracing.Tracer() as tracer:
            traced = harness.run_pass(workload, args.seed, count=len(untraced), tracer=tracer)
        passes = [untraced, traced]
    for res in passes:
        harness.check_pass(workload, args.seed, res)
    res = passes[-1]

    fp = [harness.fingerprint(r) for r in passes]
    correct = all(
        cause not in ("check", "exception") for r in passes for cause in r.causes
    )
    if args.trace == 1:
        same = passes[0].records == passes[1].records
        restored = tracer.restored()
        print(f"traced pass: fingerprint {'identical' if same else 'DIFFERS'}, "
              f"wrappers {'removed' if restored else 'STILL INSTALLED'}, "
              f"{len(tracer)} spans, untraced targets: {tracer.missing or 'none'}")
        correct = correct and same and restored
        computed = harness.per_layer(tracer, traced, untraced)
        declared = spec["per_layer"]
        print("per-layer metrics (traced pass):")
        for m in declared:
            _print_metric(m["name"], computed[m["name"]], m["unit"])
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    else:
        rows = harness.end_to_end(res, setup_times, rss, reference.times)
        computed = {name: value for name, (value, _, _) in rows.items()}
        print(f"end-to-end metrics (untraced; warm-up {warmup_s:.3f} s excluded):")
        for name, (value, unit, note) in rows.items():
            _print_metric(name, value, unit, note)
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(f"fingerprint first {fp[-1]['prefix_len']}: {fp[-1]['prefix_sha256']}  "
          f"all {fp[-1]['all_len']}: {fp[-1]['all_sha256']}")
    for k, record in enumerate(res.records):
        print(f"  instance {k}: " + " ".join(f"{key}={record[key]}" for key in sorted(record)))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        tracer.save(stem.with_suffix(".spans.npz"))
    failures = harness.failure_counts(res)
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_times,
        "warmup_s": warmup_s, "metrics": computed, "failures": failures,
        "reference_s": None if args.trace else reference.times,
        "fingerprints": fp, "records": [r.records for r in passes],
        "durations_s": [r.durations for r in passes],
    }, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(res),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
