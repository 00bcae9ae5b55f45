"""Command-line surface.

One binary with subcommands: ``project`` (set projections), ``cone-check``
(normal-cone membership), ``certify`` (strong-regularity certificates),
``solve`` (feasibility solvers on instance files), ``edm-generate`` /
``edm-complete`` (distance-matrix workflows) and ``bench`` (seeded serial
sweeps).

Exit codes: 0 success (certify: regular; solve: converged), 2 invalid input
or precondition failure, 3 not regular, 4 undecided, 5 not converged.  All
flags are long-form; every random choice requires an explicit seed.  Files
carry machine data (JSON, CSV); stdout carries one-line human summaries.
The ``SPARSECONES_ZERO_TOL`` environment variable overrides the global zero
tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import edm as edm_mod
from . import matrix_sets, regularity, solvers, vector_sets
from .errors import NumericalError, PreconditionError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_REGULAR = 3
EXIT_UNDECIDED = 4
EXIT_NOT_CONVERGED = 5


class CliError(Exception):
    """Input problem reported to the user with exit code 2."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _finite(arr, path):
    if not np.all(np.isfinite(arr)):
        raise PreconditionError(f"{path}: NaN or infinite entry")
    return arr


def _as_vector(data, path):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise CliError(f"{path}: expected a flat JSON array (vector)")
    return _finite(arr, path)


def _as_matrix(data, path):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CliError(f"{path}: expected a square row-major JSON array of arrays")
    return _finite(arr, path)


def _as_system_matrix(data, path):
    """The ``A`` field of a linear instance as a finite 2-D array."""
    return _finite(np.atleast_2d(np.asarray(_field(data, "A", path), dtype=float)), path)


def _field(data, key, path):
    if key not in data:
        raise CliError(f"{path}: missing field {key!r}")
    return data[key]


# ---------------------------------------------------------------- project

_VECTOR_SETS = ("nonneg-sparse", "sparse", "nonneg")
_MATRIX_SETS = ("psd-low-rank", "low-rank", "psd")


def _cmd_project(args) -> int:
    data = _load_json(args.input)
    vector = args.set in _VECTOR_SETS
    x = _as_vector(data, args.input) if vector else _as_matrix(data, args.input)
    member_count, tie = 1, False
    if args.set == "nonneg":
        y = vector_sets.project_nonneg(x)
    elif args.set == "psd":
        y = matrix_sets.project_psd(x)
    elif args.s is None:
        raise CliError(f"--s is required for the {args.set} set")
    elif vector:
        fn = (
            vector_sets.project_sparse_nonneg
            if args.set == "nonneg-sparse"
            else vector_sets.project_sparse
        )
        res = fn(x, args.s)
        y, member_count = res.canonical, res.member_count
        tie = member_count > 1
    else:
        fn, tie_fn = (
            (matrix_sets.project_psd_low_rank, matrix_sets.boundary_tie)
            if args.set == "psd-low-rank"
            else (matrix_sets.project_low_rank, matrix_sets.low_rank_tie)
        )
        y = fn(x, args.s)
        tie = tie_fn(x, args.s)
        # a tie at the cut makes the projection a continuum of members
        member_count = None if tie else 1
    out = {
        "canonical": y.tolist(),
        "member_count": member_count,
        "distance": float(np.linalg.norm(x - y)),
        "boundary_tie": tie,
    }
    _write_json(args.output, out)
    print(f"project {args.set}: wrote {args.output} "
          f"(members={out['member_count']}, distance={out['distance']:.6g})")
    return EXIT_OK


# ------------------------------------------------------------- cone-check

def _cmd_cone_check(args) -> int:
    data = _load_json(args.input)
    kind = _field(data, "kind", args.input)
    s = int(_field(data, "s", args.input))
    prox = bool(data.get("prox", False))
    if kind == "nonneg-sparse":
        xbar = _as_vector(_field(data, "xbar", args.input), args.input)
        y = _as_vector(_field(data, "y", args.input), args.input)
        if prox:
            member = vector_sets.prox_normal_cone_contains(xbar, y, s)
            out = {"is_member": bool(member), "cone": "proximal"}
        else:
            rep = vector_sets.normal_cone_contains(xbar, y, s)
            out = {
                "is_member": rep.is_member,
                "branch": rep.branch,
                "violated_condition": rep.violated_condition,
                "cone": "limiting",
            }
    elif kind == "psd-low-rank":
        xbar = _as_matrix(_field(data, "Xbar", args.input), args.input)
        y = _as_matrix(_field(data, "Y", args.input), args.input)
        if prox:
            member = matrix_sets.prox_normal_cone_contains(xbar, y, s)
            out = {"is_member": bool(member), "cone": "proximal"}
        else:
            rep = matrix_sets.normal_cone_contains(xbar, y, s)
            out = {
                "is_member": rep.is_member,
                "branch": rep.branch,
                "residual": rep.residual,
                "y_eigenvalues": rep.y_eigenvalues.tolist(),
                "violated_condition": rep.violated_condition,
                "cone": "limiting",
            }
    elif kind == "low-rank":
        xbar = _as_matrix(_field(data, "Xbar", args.input), args.input)
        y = _as_matrix(_field(data, "Y", args.input), args.input)
        member = matrix_sets.low_rank_normal_cone_contains(xbar, y, s)
        out = {"is_member": bool(member), "cone": "limiting"}
    else:
        raise CliError(f"unknown cone kind {kind!r}")
    _write_json(args.output, out)
    print(f"cone-check {kind}: member={out['is_member']}")
    return EXIT_OK


# ---------------------------------------------------------------- certify

def _cmd_certify(args) -> int:
    data = _load_json(args.instance)
    if args.mode == "affine-sparse":
        a = _as_system_matrix(data, args.instance)
        xbar = _as_vector(_field(data, "xbar", args.instance), args.instance)
        s = int(_field(data, "s", args.instance))
        cert = regularity.certify_affine_sparse(
            a, xbar, s, max_enum_dim=args.max_enum, rng_seed=args.seed
        )
    elif args.mode == "span-rank":
        mats = [
            _as_matrix(m, args.instance)
            for m in _field(data, "As", args.instance)
        ]
        xbar = _as_matrix(_field(data, "Xbar", args.instance), args.instance)
        s = int(_field(data, "s", args.instance))
        cert = regularity.certify_span_low_rank_psd(
            mats, xbar, s, rng_seed=args.seed,
            n_starts=args.starts, n_steps=args.steps,
        )
    elif args.mode == "edm":
        inst, _, ground_truth = edm_mod.instance_from_json(data)
        if "Xbar" in data and data["Xbar"] is not None:
            xbar = _as_matrix(data["Xbar"], args.instance)
        elif ground_truth is not None:
            xbar = edm_mod.build_edm(ground_truth)
        else:
            raise CliError(
                "edm certification needs a solution: provide 'Xbar' or "
                "'ground_truth' in the instance file"
            )
        cert = regularity.certify_edm_completion(inst, xbar)
    else:  # pragma: no cover
        raise CliError(f"unknown mode {args.mode!r}")
    cert.save(args.output)
    print(f"certify {args.mode}: {cert.verdict} ({cert.method}) -> {args.output}")
    if cert.verdict == "regular":
        return EXIT_OK
    if cert.verdict == "not_regular":
        return EXIT_NOT_REGULAR
    return EXIT_UNDECIDED


# ------------------------------------------------------------------ solve

def _solve_cfg(args) -> solvers.SolveConfig:
    return solvers.SolveConfig(
        tol=args.tol, maxiter=args.maxiter, stall_window=args.stall_window
    )


def _start_vector(x_default, args, shape):
    if args.x0_file is not None:
        x0 = _finite(np.asarray(_load_json(args.x0_file), dtype=float), args.x0_file)
        if x0.shape != shape:
            raise CliError(f"{args.x0_file}: start has shape {x0.shape}, expected {shape}")
        return x0
    x0 = np.asarray(x_default, dtype=float)
    if args.perturb > 0.0:
        if args.seed is None:
            raise CliError("--seed is required with --perturb")
        rng = np.random.default_rng(args.seed)
        delta = rng.standard_normal(shape)
        if len(shape) == 2:
            delta = 0.5 * (delta + delta.T)
        x0 = x0 + args.perturb * delta / float(np.linalg.norm(delta))
    return x0


def _cmd_solve(args) -> int:
    data = _load_json(args.instance)
    cfg = _solve_cfg(args)
    if "A" in data:  # sparse linear feasibility
        a = _as_system_matrix(data, args.instance)
        b = _as_vector(_field(data, "b", args.instance), args.instance)
        s = int(_field(data, "s", args.instance))
        c1 = solvers.AffineSet(a, b)
        c2 = solvers.NonnegSparseSet(s)
        x_default = np.linalg.pinv(a) @ b  # deterministic least-norm start
        x0 = _start_vector(x_default, args, (a.shape[1],))
        shadow, trace = solvers.solve(c1, c2, x0, args.method, cfg)
        sparse_point = c2.project(shadow)
        result = {
            "status": trace.status,
            "shadow": shadow.tolist(),
            "sparse_point": sparse_point.tolist(),
            "residual_Ax_b": float(np.linalg.norm(a @ sparse_point - b)),
            "summary": trace.summary(),
        }
    elif "n_points" in data:  # EDM completion instance
        inst, _, _ = edm_mod.instance_from_json(data)
        x0 = _start_vector(inst.entries, args, (inst.n_points, inst.n_points))
        shadow, trace = solvers.complete_edm(inst, x0=x0, method=args.method, cfg=cfg)
        result = {
            "status": trace.status,
            "completed_matrix": shadow.tolist(),
            "summary": trace.summary(),
        }
    else:
        raise CliError(
            f"{args.instance}: unrecognized instance (need 'A'/'b'/'s' or an "
            "EDM instance with 'n_points')"
        )
    _write_json(args.output_result, result)
    trace.to_csv(args.output_trace)
    print(
        f"solve {args.method}: {trace.status} after {trace.iterations} iterations "
        f"(final residual {trace.residuals[-1]:.3e}) -> {args.output_result}"
    )
    return EXIT_OK if trace.status == "converged" else EXIT_NOT_CONVERGED


# ----------------------------------------------------------- edm commands

def _cmd_edm_generate(args) -> int:
    inst, points = edm_mod.generate_instance(
        args.points, args.dim, args.fraction, args.seed
    )
    edm_mod.save_instance(args.output, inst, seed=args.seed, ground_truth=points)
    print(
        f"edm-generate: {args.points} points in R^{args.dim}, "
        f"{len(inst.known_pairs())} known pairs -> {args.output}"
    )
    return EXIT_OK


def _cmd_edm_complete(args) -> int:
    data = _load_json(args.instance)
    inst, _, ground_truth = edm_mod.instance_from_json(data)
    shadow, trace = solvers.complete_edm(
        inst, method=args.method, cfg=_solve_cfg(args)
    )
    result = {
        "status": trace.status,
        "completed_matrix": shadow.tolist(),
        "summary": trace.summary(),
        "certificate": None,
    }
    if trace.status == "converged":
        check = edm_mod.is_edm(shadow)
        result["is_edm"] = check.is_edm
        result["embed_dim"] = check.embed_dim
        if check.is_edm and check.embed_dim <= inst.s:
            result["points"] = edm_mod.recover_points(shadow, inst.s).tolist()
    if args.certificate_out is not None:
        try:
            cert = regularity.certify_edm_completion(inst, shadow)
            cert.save(args.certificate_out)
            result["certificate"] = args.certificate_out
        except PreconditionError as exc:
            result["certificate_error"] = str(exc)
    _write_json(args.output_result, result)
    if args.output_trace is not None:
        trace.to_csv(args.output_trace)
    print(
        f"edm-complete: {trace.status} after {trace.iterations} iterations "
        f"-> {args.output_result}"
    )
    return EXIT_OK if trace.status == "converged" else EXIT_NOT_CONVERGED


# ------------------------------------------------------------------ bench

def _bench_row(seed, trace, **extra) -> dict:
    rate = trace.rate
    return {
        "seed": seed,
        "converged": int(trace.status == "converged"),
        **extra,
        "iterations": trace.iterations,
        "final_residual": float(trace.residuals[-1]),
        "rho": "" if rate is None else rate.rho,
        "r2": "" if rate is None else rate.r2,
        "wall_ms": float(trace.times_ms[-1]),
    }


def _bench_edm_one(seed, args):
    inst, _ = edm_mod.generate_instance(args.points, args.dim, args.fraction, seed)
    cfg = solvers.SolveConfig(tol=args.tol, maxiter=args.maxiter)
    _, trace = solvers.complete_edm(inst, method=args.method, cfg=cfg)
    return _bench_row(seed, trace)


def _bench_sparse_one(seed, args):
    m, s = args.m, args.s
    a, b, x_true = solvers.plant_sparse_instance(m, s, 2 * s + 1, seed)
    rng = np.random.default_rng(seed + 1)
    delta = rng.standard_normal(m)
    x0 = x_true + 0.05 * delta / float(np.linalg.norm(delta))
    c1 = solvers.AffineSet(a, b)
    c2 = solvers.NonnegSparseSet(s)
    cfg = solvers.SolveConfig(tol=args.tol, maxiter=args.maxiter)
    shadow, trace = solvers.solve(c1, c2, x0, args.method, cfg)
    q = c2.project(shadow)
    recovered = int(
        trace.status == "converged"
        and np.linalg.norm(a @ q - b) <= 1e-8
        and vector_sets.sparsity(q) <= s
    )
    return _bench_row(seed, trace, recovered=recovered)


def _cmd_bench(args) -> int:
    import csv as _csv

    worker = _bench_edm_one if args.kind == "edm" else _bench_sparse_one
    rows = [worker(args.seed + i, args) for i in range(args.count)]
    with open(args.output_csv, "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    n_conv = sum(r["converged"] for r in rows)
    print(f"bench {args.kind}: {n_conv}/{len(rows)} converged -> {args.output_csv}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecones",
        description="Projections, normal cones, regularity certificates and "
        "feasibility solvers for sparsity and rank constrained problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a vector or matrix onto a set")
    p.add_argument("--input", required=True)
    p.add_argument("--set", required=True, choices=_VECTOR_SETS + _MATRIX_SETS)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cone-check", help="normal-cone membership test")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_cone_check)

    p = sub.add_parser("certify", help="strong-regularity certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", required=True, choices=("affine-sparse", "span-rank", "edm"))
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=regularity.FALSIFICATION_STARTS)
    p.add_argument("--steps", type=int, default=regularity.FALSIFICATION_STEPS)
    p.add_argument("--max-enum", type=int, default=regularity.MAX_ENUM_DIM)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("solve", help="feasibility solve on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=("dr", "map"))
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--maxiter", type=int, default=100_000)
    p.add_argument("--stall-window", type=int, default=200)
    p.add_argument("--x0-file", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--output-result", required=True)
    p.add_argument("--output-trace", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("edm-generate", help="generate a planted completion instance")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_edm_generate)

    p = sub.add_parser("edm-complete", help="complete a partial distance matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", default="dr", choices=("dr", "map"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--maxiter", type=int, default=100_000)
    p.add_argument("--stall-window", type=int, default=200)
    p.add_argument("--output-result", required=True)
    p.add_argument("--output-trace", default=None)
    p.add_argument("--certificate-out", default=None)
    p.set_defaults(func=_cmd_edm_complete)

    p = sub.add_parser("bench", help="seeded benchmark sweep")
    p.add_argument("--kind", required=True, choices=("edm", "sparse"))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", default="dr", choices=("dr", "map"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--maxiter", type=int, default=20_000)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--output-csv", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PreconditionError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:  # console-script wrapper
    sys.exit(main())
