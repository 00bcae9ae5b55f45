import csv
import json

import numpy as np
import pytest

from sparsecones import cli, edm


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read(path):
    return json.loads(path.read_text())


class TestProject:
    def test_vector_projection(self, tmp_path):
        inp = write(tmp_path / "v.json", [3.0, -1.0, 2.0, 5.0])
        out = tmp_path / "out.json"
        rc = cli.main(["project", "--input", inp, "--set", "nonneg-sparse",
                       "--s", "2", "--output", str(out)])
        assert rc == 0
        data = read(out)
        assert data["canonical"] == [3.0, 0.0, 0.0, 5.0]
        assert data["member_count"] == 1
        assert np.isclose(data["distance"], np.sqrt(5))

    def test_matrix_projection(self, tmp_path):
        inp = write(tmp_path / "m.json", [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "out.json"
        rc = cli.main(["project", "--input", inp, "--set", "psd-low-rank",
                       "--s", "1", "--output", str(out)])
        assert rc == 0
        data = read(out)
        assert np.allclose(data["canonical"], [[0.5, 0.5], [0.5, 0.5]])
        assert data["boundary_tie"] is False

    @pytest.mark.parametrize("kind, diag, tie", [
        ("low-rank", [2.0, -2.0, 0.0], True),
        ("low-rank", [2.0, -1.0, 0.0], False),
        ("psd-low-rank", [2.0, 2.0, 1.0], True),
        ("psd-low-rank", [2.0, -2.0, 0.0], False),
    ])
    def test_matrix_tie_reporting(self, tmp_path, kind, diag, tie):
        inp = write(tmp_path / "m.json", np.diag(diag).tolist())
        out = tmp_path / "out.json"
        rc = cli.main(["project", "--input", inp, "--set", kind,
                       "--s", "1", "--output", str(out)])
        assert rc == 0
        data = read(out)
        assert data["boundary_tie"] is tie
        # a tie makes the matrix projection a continuum of members
        assert data["member_count"] == (None if tie else 1)

    def test_invalid_s_exit_code(self, tmp_path, capsys):
        inp = write(tmp_path / "v.json", [1.0, 2.0])
        rc = cli.main(["project", "--input", inp, "--set", "nonneg-sparse",
                       "--s", "7", "--output", str(tmp_path / "o.json")])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_bad_json_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        rc = cli.main(["project", "--input", str(p), "--set", "nonneg",
                       "--output", str(tmp_path / "o.json")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, payload", [
        ("nonneg", "[NaN, 1.0]"),
        ("psd", "[[1.0, Infinity], [Infinity, 0.0]]"),
    ], ids=["nan-vector", "inf-matrix"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, kind, payload):
        p = tmp_path / "bad.json"
        p.write_text(payload)
        rc = cli.main(["project", "--input", str(p), "--set", kind,
                       "--output", str(tmp_path / "o.json")])
        assert rc == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        rc = cli.main(["project", "--input", str(tmp_path / "none.json"),
                       "--set", "nonneg", "--output", str(tmp_path / "o.json")])
        assert rc == 2


class TestConeCheck:
    def test_member(self, tmp_path):
        inp = write(tmp_path / "c.json", {
            "kind": "nonneg-sparse", "xbar": [1.0, 0.0, 0.0],
            "y": [0.0, 1.0, 1.0], "s": 1,
        })
        out = tmp_path / "r.json"
        assert cli.main(["cone-check", "--input", inp, "--output", str(out)]) == 0
        data = read(out)
        assert data["is_member"] is True
        assert data["branch"] == "sparsity-branch"

    def test_matrix_and_prox(self, tmp_path):
        inp = write(tmp_path / "c.json", {
            "kind": "psd-low-rank",
            "Xbar": [[1.0, 0.0], [0.0, 0.0]],
            "Y": [[0.0, 0.0], [0.0, -3.0]], "s": 1,
        })
        out = tmp_path / "r.json"
        assert cli.main(["cone-check", "--input", inp, "--output", str(out)]) == 0
        assert read(out)["branch"] == "both"
        inp2 = write(tmp_path / "c2.json", {
            "kind": "nonneg-sparse", "xbar": [2.0, 0.0, 0.0],
            "y": [0.0, 1.0, 0.0], "s": 2, "prox": True,
        })
        assert cli.main(["cone-check", "--input", inp2, "--output", str(out)]) == 0
        assert read(out)["is_member"] is False

    def test_unknown_kind(self, tmp_path):
        inp = write(tmp_path / "c.json", {"kind": "nope", "s": 1})
        assert cli.main(["cone-check", "--input", inp,
                         "--output", str(tmp_path / "r.json")]) == 2


class TestCertify:
    def test_affine_sparse_regular(self, tmp_path):
        inp = write(tmp_path / "i.json", {"A": [[1.0, 1.0]], "xbar": [1.0, 0.0], "s": 1})
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", "--instance", inp, "--mode", "affine-sparse",
                       "--output", str(out)])
        assert rc == 0
        assert read(out)["verdict"] == "regular"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_affine_sparse_non_finite_a(self, tmp_path, capsys, bad):
        inp = write(tmp_path / "i.json", {"A": [[bad, 1.0]], "xbar": [1.0, 0.0], "s": 1})
        rc = cli.main(["certify", "--instance", inp, "--mode", "affine-sparse",
                       "--output", str(tmp_path / "cert.json")])
        assert rc == 2
        assert f"{inp}: NaN or infinite" in capsys.readouterr().err

    def test_affine_sparse_not_regular(self, tmp_path):
        inp = write(tmp_path / "i.json", {"A": [[0.0, 1.0]], "xbar": [1.0, 0.0], "s": 1})
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", "--instance", inp, "--mode", "affine-sparse",
                       "--output", str(out)])
        assert rc == 3
        data = read(out)
        assert data["verdict"] == "not_regular"
        assert data["witness"] is not None

    def test_span_rank_undecided(self, tmp_path):
        inp = write(tmp_path / "i.json", {
            "As": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]],
            "Xbar": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "s": 1,
        })
        out = tmp_path / "cert.json"
        rc = cli.main(["certify", "--instance", inp, "--mode", "span-rank",
                       "--output", str(out), "--starts", "40", "--steps", "20"])
        assert rc == 4
        assert read(out)["verdict"] == "undecided"

    def test_edm_deterministic(self, tmp_path):
        inst, pts = edm.generate_instance(5, 2, 0.7, 3)
        inp = tmp_path / "inst.json"
        edm.save_instance(inp, inst, seed=3, ground_truth=pts)
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        rc1 = cli.main(["certify", "--instance", str(inp), "--mode", "edm",
                        "--output", str(out1)])
        rc2 = cli.main(["certify", "--instance", str(inp), "--mode", "edm",
                        "--output", str(out2)])
        assert rc1 == rc2
        assert read(out1) == read(out2)

    def test_edm_needs_solution(self, tmp_path):
        inst, _ = edm.generate_instance(5, 2, 0.7, 3)
        inp = tmp_path / "inst.json"
        edm.save_instance(inp, inst)  # no ground truth
        rc = cli.main(["certify", "--instance", str(inp), "--mode", "edm",
                       "--output", str(tmp_path / "c.json")])
        assert rc == 2

    def test_edm_precondition_exit(self, tmp_path):
        inst, pts = edm.generate_instance(5, 2, 0.7, 3)
        data = edm.instance_to_json(inst, ground_truth=pts)
        data["s"] = 1  # wrong embedding rank
        inp = write(tmp_path / "inst.json", data)
        rc = cli.main(["certify", "--instance", inp, "--mode", "edm",
                       "--output", str(tmp_path / "c.json")])
        assert rc == 2


class TestSolve:
    def test_sparse_linear_converges(self, tmp_path):
        from sparsecones import solvers

        a, b, x_true = solvers.plant_sparse_instance(8, 2, 5, rng_seed=5)
        inp = write(tmp_path / "lin.json", {"A": a.tolist(), "b": b.tolist(), "s": 2})
        res, tr = tmp_path / "r.json", tmp_path / "t.csv"
        rc = cli.main(["solve", "--instance", inp, "--method", "dr",
                       "--tol", "1e-10",
                       "--output-result", str(res), "--output-trace", str(tr)])
        assert rc == 0
        data = read(res)
        assert data["status"] == "converged"
        assert data["residual_Ax_b"] <= 1e-8
        with open(tr) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == data["summary"]["iterations"]

    def test_maxiter_exit_code(self, tmp_path):
        inp = write(tmp_path / "lin.json", {
            "A": [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], "b": [1.0, 1.0], "s": 1,
        })
        rc = cli.main(["solve", "--instance", inp, "--method", "dr",
                       "--maxiter", "1",
                       "--output-result", str(tmp_path / "r.json"),
                       "--output-trace", str(tmp_path / "t.csv")])
        assert rc == 5

    def test_perturb_requires_seed(self, tmp_path, capsys):
        inp = write(tmp_path / "lin.json", {"A": [[1.0, 0.0]], "b": [1.0], "s": 1})
        rc = cli.main(["solve", "--instance", inp, "--method", "dr",
                       "--perturb", "0.1",
                       "--output-result", str(tmp_path / "r.json"),
                       "--output-trace", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["A", "x0"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, field, bad):
        a = [[bad, 1.0]] if field == "A" else [[1.0, 1.0]]
        inp = write(tmp_path / "lin.json", {"A": a, "b": [1.0], "s": 1})
        x0 = write(tmp_path / "x0.json", [bad if field == "x0" else 0.0, 0.0])
        rc = cli.main(["solve", "--instance", inp, "--method", "dr",
                       "--x0-file", x0,
                       "--output-result", str(tmp_path / "r.json"),
                       "--output-trace", str(tmp_path / "t.csv")])
        assert rc == 2
        # rejected while loading, naming the offending file
        bad_file = inp if field == "A" else x0
        assert f"{bad_file}: NaN or infinite" in capsys.readouterr().err

    def test_unrecognized_instance(self, tmp_path):
        inp = write(tmp_path / "x.json", {"foo": 1})
        rc = cli.main(["solve", "--instance", inp, "--method", "dr",
                       "--output-result", str(tmp_path / "r.json"),
                       "--output-trace", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_edm_instance_solve(self, tmp_path):
        inst, pts = edm.generate_instance(5, 2, 0.7, 8)
        inp = tmp_path / "inst.json"
        edm.save_instance(inp, inst, seed=8, ground_truth=pts)
        res = tmp_path / "r.json"
        rc = cli.main(["solve", "--instance", str(inp), "--method", "map",
                       "--tol", "1e-9",
                       "--output-result", str(res),
                       "--output-trace", str(tmp_path / "t.csv")])
        data = read(res)
        assert rc in (0, 5)
        assert data["status"] in ("converged", "maxiter", "stalled")


class TestZeroTolEnv:
    def test_env_var_overrides_global_tolerance(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sparsecones

        code = (
            "import sparsecones; import sys; "
            "sys.exit(0 if sparsecones.zero_tol() == 1e-6 else 1)"
        )
        # the child imports the same package as this process, installed or not
        src = str(Path(sparsecones.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, SPARSECONES_ZERO_TOL="1e-6", PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0

    def test_set_zero_tol_validates(self):
        from sparsecones import config

        old = config.zero_tol()
        try:
            with pytest.raises(ValueError):
                config.set_zero_tol(-1.0)
            config.set_zero_tol(1e-9)
            assert config.zero_tol() == 1e-9
        finally:
            config.set_zero_tol(old)


class TestEdmWorkflow:
    def test_generate_complete_certify(self, tmp_path):
        inp = tmp_path / "inst.json"
        rc = cli.main(["edm-generate", "--points", "5", "--dim", "2",
                       "--fraction", "0.7", "--seed", "3", "--output", str(inp)])
        assert rc == 0
        # round trip through the loader equals the generator output
        inst, seed, pts = edm.load_instance(inp)
        inst2, pts2 = edm.generate_instance(5, 2, 0.7, 3)
        assert seed == 3
        assert np.array_equal(inst.entries, inst2.entries)
        assert np.allclose(np.asarray(pts), pts2)

        res = tmp_path / "res.json"
        cert = tmp_path / "cert.json"
        rc = cli.main(["edm-complete", "--instance", str(inp),
                       "--output-result", str(res),
                       "--output-trace", str(tmp_path / "tr.csv"),
                       "--certificate-out", str(cert)])
        assert rc == 0
        data = read(res)
        assert data["status"] == "converged"
        assert data["is_edm"] is True
        assert data["embed_dim"] <= 2
        assert data["points"] is not None
        assert data["certificate"] == str(cert)
        completed = np.asarray(data["completed_matrix"])
        assert np.allclose(completed[inst.known], inst.entries[inst.known], atol=1e-8)

    def test_bench_sparse(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--kind", "sparse", "--count", "3", "--seed", "5",
                       "--m", "8", "--s", "2", "--output-csv", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [int(r["seed"]) for r in rows] == [5, 6, 7]
