import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecones import edm
from sparsecones.errors import PreconditionError
from sparsecones.linalg import eig_sym, symmetrize
from sparsecones.solvers import EmbeddingRankSet, FixedEntriesNonnegSet

from conftest import psd_low_rank_lift, random_symmetric, symmetric_matrices


class TestHouseholderMap:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_involution_isometry(self, rng, n):
        g = edm.householder_map(n)
        assert np.max(np.abs(g.q @ g.q - np.eye(n))) <= 1e-10
        for _ in range(5):
            x = random_symmetric(rng, n)
            assert np.linalg.norm(g.apply(g.apply(x)) - x) <= 1e-9 * (1 + np.linalg.norm(x))
            assert abs(np.linalg.norm(g.apply(x)) - np.linalg.norm(x)) <= 1e-9
        assert np.allclose(g.apply(np.zeros((n, n))), 0.0)

    def test_dim_mismatch(self):
        g = edm.householder_map(4)
        with pytest.raises(ValueError):
            g.apply(np.zeros((3, 3)))


class TestBuildAndCheck:
    def test_two_points(self):
        d = edm.build_edm([[0.0], [1.0]])
        assert np.allclose(d, [[0.0, 1.0], [1.0, 0.0]])
        chk = edm.is_edm(d)
        assert chk.is_edm and chk.embed_dim == 1

    def test_single_point(self):
        assert np.allclose(edm.build_edm([[0.3, 0.7]]), [[0.0]])

    def test_zero_matrix(self):
        chk = edm.is_edm(np.zeros((4, 4)))
        assert chk.is_edm and chk.embed_dim == 0

    def test_collinear_points_embed_dim(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.5, 3.5]])
        chk = edm.is_edm(edm.build_edm(pts))
        assert chk.is_edm and chk.embed_dim == 1

    def test_embed_dim_equals_affine_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, 4))
            pts = rng.standard_normal((n, q))
            chk = edm.is_edm(edm.build_edm(pts))
            centered = pts - pts.mean(axis=0)
            affine_rank = np.linalg.matrix_rank(centered, tol=1e-9)
            assert chk.is_edm
            assert chk.embed_dim == affine_rank

    def test_invalid_inputs_named(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            edm.is_edm(bad)
        with pytest.raises(ValueError, match="hollow"):
            edm.is_edm(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_edm_detected(self):
        # violates the triangle structure badly: three mutually distant
        # points with one tiny distance cannot embed
        x = np.array(
            [[0.0, 100.0, 0.01], [100.0, 0.0, 100.0], [0.01, 100.0, 0.0]]
        )
        chk = edm.is_edm(symmetrize(x))
        assert chk.is_edm  # actually embeddable (isosceles); use a real violation
        y = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
        assert not edm.is_edm(y).is_edm


class TestRecoverPoints:
    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, 4))
            pts = rng.random((n, q))
            d = edm.build_edm(pts)
            rec = edm.recover_points(d, q)
            assert rec.shape == (n, q)
            err = np.linalg.norm(edm.build_edm(rec) - d)
            assert err <= 1e-6 * (1 + np.linalg.norm(d))

    def test_line_distance_preserved(self):
        d = edm.build_edm([[0.0], [1.0]])
        rec = edm.recover_points(d, 1)
        assert np.isclose(np.linalg.norm(rec[0] - rec[1]), 1.0)

    def test_zero_matrix_origin(self):
        rec = edm.recover_points(np.zeros((3, 3)), 2)
        assert np.allclose(rec, 0.0)

    def test_normalization_deterministic(self, rng):
        pts = rng.random((6, 2))
        d = edm.build_edm(pts)
        a = edm.recover_points(d, 2)
        b = edm.recover_points(d.copy(), 2)
        assert np.array_equal(a, b)
        assert np.allclose(a.mean(axis=0), 0.0, atol=1e-9)

    def test_rejects_non_edm(self):
        y = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            edm.recover_points(y, 2)

    def test_rejects_too_small_dim(self, rng):
        pts = rng.random((5, 3))
        d = edm.build_edm(pts)
        with pytest.raises(ValueError, match="embedding dimension"):
            edm.recover_points(d, 1)


class TestPartialEdm:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            edm.PartialEdm(2, np.zeros((2, 2)), np.zeros((2, 2), bool), 1)
        bad_mask = np.eye(3, dtype=bool)
        bad_mask[0, 1] = True  # asymmetric
        with pytest.raises(ValueError, match="symmetric"):
            edm.PartialEdm(3, np.zeros((3, 3)), bad_mask, 1)
        entries = np.zeros((2, 2))
        entries[0, 1] = entries[1, 0] = -1.0
        mask = np.ones((2, 2), bool)
        with pytest.raises(ValueError, match="nonnegative"):
            edm.PartialEdm(2, entries, mask, 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_rejected(self, bad):
        entries = np.zeros((3, 3))
        entries[0, 1] = entries[1, 0] = bad
        with pytest.raises(PreconditionError, match="entries has a NaN"):
            edm.PartialEdm(3, entries, np.ones((3, 3), bool), 1)

    @pytest.mark.parametrize(
        "n, fraction, seed", [(3, 0.5, 0), (5, 0.7, 3), (8, 0.3, 11), (30, 0.9, 7), (41, 0.5, 2)]
    )
    def test_generate_matches_scalar_draws(self, n, fraction, seed):
        # the mask as a scalar draw per upper-triangle pair, row by row
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        known = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < fraction:
                    known[i, j] = known[j, i] = True
        inst, got_pts = edm.generate_instance(n, 2, fraction, seed)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(inst.known, known)
        assert np.array_equal(inst.entries, np.where(known, edm.build_edm(pts), 0.0))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if known[i, j]]
        assert inst.known_pairs() == pairs
        assert all(type(i) is int and type(j) is int for i, j in inst.known_pairs())

    def test_generate_deterministic(self):
        a, pa = edm.generate_instance(6, 2, 0.7, 42)
        b, pb = edm.generate_instance(6, 2, 0.7, 42)
        assert np.array_equal(a.entries, b.entries)
        assert np.array_equal(a.known, b.known)
        assert np.array_equal(pa, pb)

    def test_generate_validates(self):
        with pytest.raises(ValueError):
            edm.generate_instance(4, 2, 0.0, 1)
        with pytest.raises(ValueError):
            edm.generate_instance(2, 2, 0.5, 1)

    def test_ground_truth_is_edm(self):
        inst, pts = edm.generate_instance(5, 2, 0.7, 3)
        d = edm.build_edm(pts)
        assert edm.is_edm(d).is_edm
        assert np.allclose(d[inst.known], inst.entries[inst.known])

    def test_full_fraction_fixes_everything(self, rng):
        inst, pts = edm.generate_instance(5, 2, 1.0, 4)
        d = edm.build_edm(pts)
        x = random_symmetric(rng, 5)
        assert np.allclose(FixedEntriesNonnegSet.from_partial_edm(inst).project(x), d)

    def test_serialization_round_trip(self, tmp_path):
        inst, pts = edm.generate_instance(6, 2, 0.6, 9)
        path = tmp_path / "inst.json"
        edm.save_instance(path, inst, seed=9, ground_truth=pts)
        inst2, seed, gt = edm.load_instance(path)
        assert seed == 9
        assert np.array_equal(inst.entries, inst2.entries)
        assert np.array_equal(inst.known, inst2.known)
        assert inst2.s == inst.s and inst2.n_points == inst.n_points
        assert np.array_equal(np.asarray(gt), pts)
        # canonical form: triples sorted by (i, j)
        data = json.loads(path.read_text())
        assert data["D"] == sorted(data["D"], key=lambda t: (t[0], t[1]))


class TestProjections:
    def test_known_entries_projection(self, rng):
        inst, pts = edm.generate_instance(5, 2, 0.5, 11)
        x = random_symmetric(rng, 5)
        p = FixedEntriesNonnegSet.from_partial_edm(inst).project(x)
        assert np.allclose(p[inst.known], inst.entries[inst.known])
        assert np.min(p) >= 0.0
        assert np.allclose(FixedEntriesNonnegSet.from_partial_edm(inst).project(p), p)

    def test_known_entries_clamp_example(self):
        inst = edm.PartialEdm(3, np.zeros((3, 3)), np.eye(3, dtype=bool), 1)
        x = -np.ones((3, 3))
        np.fill_diagonal(x, -1.0)
        assert np.allclose(FixedEntriesNonnegSet.from_partial_edm(inst).project(x), 0.0)

    def test_embedding_projection_fixed_point(self, rng):
        inst, pts = edm.generate_instance(6, 2, 0.7, 5)
        d = edm.build_edm(pts)
        assert np.linalg.norm(EmbeddingRankSet.from_partial_edm(inst).project(d) - d) <= 1e-9

    def test_embedding_projection_idempotent(self, rng):
        inst, _ = edm.generate_instance(5, 2, 0.7, 6)
        x = random_symmetric(rng, 5)
        p = EmbeddingRankSet.from_partial_edm(inst).project(x)
        assert np.linalg.norm(EmbeddingRankSet.from_partial_edm(inst).project(p) - p) <= 1e-9

    def test_projection_optimality_sampled(self, rng):
        # projections never beaten by sampled members of their own set
        inst, pts = edm.generate_instance(5, 2, 0.6, 8)
        x = random_symmetric(rng, 5)
        p1 = FixedEntriesNonnegSet.from_partial_edm(inst).project(x)
        d1 = np.linalg.norm(x - p1)
        for _ in range(300):
            z = np.where(inst.known, inst.entries, np.abs(random_symmetric(rng, 5)))
            assert d1 <= np.linalg.norm(x - z) + 1e-9
        p2 = EmbeddingRankSet.from_partial_edm(inst).project(x)
        d2 = np.linalg.norm(x - p2)
        g = edm.householder_map(5)
        for _ in range(300):
            v = rng.standard_normal((2, 4))
            block = v.T @ v
            t = random_symmetric(rng, 5)
            t[:4, :4] = block
            z = g.apply(t)
            assert d2 <= np.linalg.norm(x - z) + 1e-9


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_embedding_projection_is_the_spectral_lift(self, data):
        # the block is either random or built with repeated eigenvalues and
        # sent back through the reflector, so its ties survive up to roundoff
        n = data.draw(st.integers(2, 8))
        s = data.draw(st.integers(0, n - 1))
        g = edm.householder_map(n)
        if data.draw(st.booleans()):
            x = data.draw(symmetric_matrices(n, n))
        else:
            y = data.draw(symmetric_matrices(n, n))
            y[: n - 1, : n - 1] = data.draw(symmetric_matrices(n - 1, n - 1))
            x = symmetrize(g.apply(y))
        y = g.apply(x)
        y[: n - 1, : n - 1] = psd_low_rank_lift(symmetrize(y[: n - 1, : n - 1]), s)
        want = symmetrize(g.apply(y))
        assert np.array_equal(edm.project_embedding_rank_core(n, s, x), want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_embedding_projection_matches_checked_steps(self, data):
        # the projection against its steps written out as before the fast
        # paths: the input and the block averaged with their transposes,
        # the shape-checked reflector and the array tie test on the top
        # s + 1 eigenvalues
        n = data.draw(st.integers(2, 8))
        s = data.draw(st.integers(0, n - 1))
        g = edm.householder_map(n)
        kind = data.draw(st.sampled_from(["random", "near-ties", "zero", "border"]))
        if kind == "random":
            x = data.draw(symmetric_matrices(n, n))
        elif kind == "near-ties":
            y = data.draw(symmetric_matrices(n, n))
            y[: n - 1, : n - 1] = data.draw(symmetric_matrices(n - 1, n - 1))
            x = symmetrize(g.apply(y))
        elif kind == "zero":
            # every eigenvalue of the block is exactly zero: the tie path
            x = np.zeros((n, n))
        else:
            a = np.array(data.draw(st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)))
            ones = np.ones(n)
            x = 1e4 * (np.outer(ones, a) + np.outer(a, ones))
            x += symmetrize(data.draw(symmetric_matrices(n, n)))
        y = g.apply(symmetrize(x))
        block = symmetrize(y[: n - 1, : n - 1])
        lam, w = np.linalg.eigh(block)
        top = lam[-(s + 1):]
        if (top[1:] == top[:-1]).any():
            dec = eig_sym(block)
            lam, u = dec.lam[:s], dec.u[:s]
        else:
            lam, u = lam[::-1][:s], np.ascontiguousarray(w.T[::-1][:s])
        y[: n - 1, : n - 1] = symmetrize((u.T * np.maximum(lam, 0.0)) @ u)
        want = symmetrize(g.apply(y))
        got = edm.project_embedding_rank_core(n, s, x)
        assert got.tobytes() == want.tobytes()
        assert EmbeddingRankSet(n, s).project(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", ["core", "set"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_embedding_projection_rejects_non_finite_border(self, rng, entry, bad):
        # the border of the input is invisible to the block's own check
        x = random_symmetric(rng, 5)
        x[4, 1] = x[1, 4] = bad
        with pytest.raises(PreconditionError, match="X has a NaN or infinite entry"):
            self._embedding_projection(entry)(x)

    @pytest.mark.parametrize("entry", ["core", "set"])
    def test_embedding_projection_rejects_asymmetric_border(self, rng, entry):
        x = random_symmetric(rng, 5)
        x[4, 1] += 1e-3
        with pytest.raises(ValueError, match="X is not symmetric"):
            self._embedding_projection(entry)(x)

    @pytest.mark.parametrize("entry", ["core", "set"])
    def test_embedding_projection_accepts_large_border_part(self, rng, entry):
        # 1 a^T + a 1^T transforms to zero on the block, so the block is the
        # roundoff of a large product; it must not be judged asymmetric
        n = 8
        ones, a = np.ones(n), rng.standard_normal(n)
        for _ in range(20):
            x = 1e4 * (np.outer(ones, a) + np.outer(a, ones))
            x += 1e-3 * random_symmetric(rng, n)
            z = self._embedding_projection(entry, n)(x)
            assert np.array_equal(z, z.T)

    @staticmethod
    def _embedding_projection(entry, n=5):
        if entry == "core":
            return lambda x: edm.project_embedding_rank_core(n, 2, x)
        return EmbeddingRankSet(n, 2).project


class TestNormalCones:
    def test_data_cone_membership(self):
        inst, pts = edm.generate_instance(5, 2, 0.5, 13)
        xbar = edm.build_edm(pts)
        w = np.zeros((5, 5))
        pairs = inst.known_pairs()
        i, j = pairs[0]
        w[i, j] = w[j, i] = 3.0  # free on known entries
        assert edm.normal_cone_data_contains(inst, xbar, w)
        unknown = [(a, b) for a in range(5) for b in range(a + 1, 5) if not inst.known[a, b]]
        if unknown:
            a, b = unknown[0]
            w2 = np.zeros((5, 5))
            w2[a, b] = w2[b, a] = 1.0  # positive where xbar > 0 and unknown
            assert not edm.normal_cone_data_contains(inst, xbar, w2)

    def test_embedding_cone_membership(self, rng):
        inst, pts = edm.generate_instance(5, 2, 0.6, 14)
        xbar = edm.build_edm(pts)
        g = edm.householder_map(5)
        block_x = edm.transformed_block(xbar)
        # build a member: block annihilating the solution block, zero border
        from sparsecones.linalg import eig_sym

        dec = eig_sym(block_x)
        null_vec = dec.u[-1]  # eigenvector of the (near) zero eigenvalue
        block_y = np.outer(null_vec, null_vec)
        t = np.zeros((5, 5))
        t[:4, :4] = block_y
        y = g.apply(t)
        assert edm.normal_cone_embedding_contains(inst, xbar, y)
        assert edm.normal_cone_embedding_contains(inst, xbar, -y)
        # nonzero border fails
        t2 = t.copy()
        t2[4, 0] = t2[0, 4] = 1.0
        assert not edm.normal_cone_embedding_contains(inst, xbar, g.apply(t2))

    def test_validate_completion_point(self):
        inst, pts = edm.generate_instance(5, 2, 0.6, 15)
        xbar = edm.build_edm(pts)
        block = edm.validate_completion_point(inst, xbar)
        assert block.shape == (4, 4)
        bad = xbar.copy()
        i, j = inst.known_pairs()[0]
        bad[i, j] = bad[j, i] = xbar[i, j] + 1.0
        with pytest.raises(PreconditionError, match="known data"):
            edm.validate_completion_point(inst, bad)
        dup = np.zeros((5, 5))
        with pytest.raises(PreconditionError, match="strictly positive"):
            edm.validate_completion_point(inst, dup)
