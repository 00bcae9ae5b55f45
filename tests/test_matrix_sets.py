import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecones import matrix_sets as ms
from sparsecones import vector_sets as vs
from sparsecones.errors import PreconditionError
from sparsecones.linalg import eig_sym

from conftest import psd_low_rank_lift, random_symmetric, symmetric_matrices


def random_psd_low_rank(rng, m, s, scale=1.0):
    if s == 0:
        return np.zeros((m, m))
    v = rng.standard_normal((s, m))
    return scale * (v.T @ v)


class TestProjections:
    def test_diagonal_case(self):
        assert np.allclose(
            ms.project_psd_low_rank(np.diag([2.0, 1.0, -1.0]), 1), np.diag([2.0, 0.0, 0.0])
        )

    def test_rank_one_pair(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(ms.project_psd_low_rank(x, 1), [[0.5, 0.5], [0.5, 0.5]])

    def test_fixed_point(self, rng):
        x = random_psd_low_rank(rng, 5, 2)
        assert np.allclose(ms.project_psd_low_rank(x, 2), x, atol=1e-9)

    def test_low_rank_magnitude(self):
        assert np.allclose(
            ms.project_low_rank(np.diag([2.0, 1.0, -3.0]), 1), np.diag([0.0, 0.0, -3.0])
        )

    def test_low_rank_full_s(self, rng):
        x = random_symmetric(rng, 4)
        assert np.allclose(ms.project_low_rank(x, 4), x, atol=1e-10)
        assert np.allclose(ms.project_low_rank(np.zeros((3, 3)), 1), 0.0)

    def test_psd_examples(self):
        assert np.allclose(ms.project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))
        assert np.allclose(ms.project_psd(-np.eye(3)), 0.0)

    def test_psd_fixed_point(self, rng):
        x = random_psd_low_rank(rng, 4, 4)
        assert np.allclose(ms.project_psd(x), x, atol=1e-9)

    def test_idempotent(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(0, m + 1))
            x = random_symmetric(rng, m)
            p = ms.project_psd_low_rank(x, s)
            assert np.linalg.norm(ms.project_psd_low_rank(p, s) - p) <= 1e-9

    def test_spectral_lifting(self, rng):
        # eigenvalues of the matrix projection match the canonical vector
        # projection of the eigenvalues, as multisets
        for _ in range(60):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(0, m + 1))
            x = random_symmetric(rng, m)
            lam = eig_sym(x).lam
            want = np.sort(vs.project_sparse_nonneg(lam, s).canonical)
            got = np.sort(eig_sym(ms.project_psd_low_rank(x, s)).lam)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_diagonal_equivariance(self, rng):
        # on diagonal matrices the matrix path reduces exactly to the vector
        # path, including the tie-break
        for _ in range(50):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(0, m + 1))
            x = np.round(rng.standard_normal(m), 1)
            got = ms.project_psd_low_rank(np.diag(x), s)
            want = np.diag(vs.project_sparse_nonneg(x, s).canonical)
            assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_psd_low_rank_is_the_spectral_lift(self, data):
        # the top-eigenpair kernel gives the bits of the full lift through
        # eig_sym, including the tie order on exactly repeated eigenvalues
        x = data.draw(symmetric_matrices())
        s = data.draw(st.integers(0, x.shape[0]))
        assert np.array_equal(ms.project_psd_low_rank(x, s), psd_low_rank_lift(x, s))
        assert np.array_equal(ms.project_psd(x), psd_low_rank_lift(x, x.shape[0]))

    def test_psd_low_rank_is_the_spectral_lift_at_n34(self, rng):
        # at this size and s >= 32, BLAS sums a product of strided
        # eigenvector views in another order than the full lift
        x = random_symmetric(rng, 34)
        for s in range(35):
            assert np.array_equal(ms.project_psd_low_rank(x, s), psd_low_rank_lift(x, s))

    def test_sampling_optimality(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(0, m + 1))
            x = random_symmetric(rng, m)
            p = ms.project_psd_low_rank(x, s)
            dp = np.linalg.norm(x - p)
            v = rng.standard_normal((500, s, m)) if s else None
            if s == 0:
                assert dp <= np.linalg.norm(x) + 1e-9
                continue
            z = np.einsum("ksm,ksn->kmn", v, v)
            dz = np.linalg.norm(x[None] - z, axis=(1, 2))
            assert np.all(dp <= dz + 1e-9)

    def test_boundary_tie(self):
        assert ms.boundary_tie(np.diag([2.0, 2.0, 1.0]), 1)
        assert not ms.boundary_tie(np.diag([2.0, 1.0, 0.5]), 1)
        assert not ms.boundary_tie(np.diag([2.0, 0.0, 0.0]), 2)  # tie at zero
        assert not ms.boundary_tie(np.diag([2.0, 1.0]), 2)  # s = m

    def test_low_rank_tie(self):
        # ties are between eigenvalue magnitudes, whatever their signs
        assert ms.low_rank_tie(np.diag([2.0, -2.0, 0.0]), 1)
        assert ms.low_rank_tie(np.diag([-1.0, 3.0, -3.0]), 1)
        assert not ms.low_rank_tie(np.diag([2.0, -1.0, 0.0]), 1)
        assert not ms.low_rank_tie(np.diag([2.0, 0.0, 0.0]), 2)  # tie at zero
        assert not ms.low_rank_tie(np.diag([2.0, -2.0]), 2)  # s = m

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            ms.project_psd_low_rank(np.eye(2), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            ms.project_psd_low_rank(np.array([[bad, 1.0], [1.0, 0.0]]), 1)


class TestPsdPoint:
    def test_rank_counts_the_clamped_spectrum(self):
        # -5e-10 passes the PSD threshold -1e-9 * (1 + |x|_F); clamped at
        # zero it adds nothing to the rank, as the projection drops it
        x, _, rank = ms.validate_psd_low_rank(np.diag([1.0, -5e-10, 0.0]), 1)
        assert rank == 1
        assert ms.psd_spectrum(x)[1:] == (True, 1)
        assert np.array_equal(ms.project_psd_low_rank(x, 1), np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(PreconditionError, match="positive semidefinite"):
            ms.validate_psd_low_rank(np.diag([1.0, -5e-9, 0.0]), 1)

    def test_empty_matrix_is_a_psd_point(self):
        assert ms.psd_spectrum(np.zeros((0, 0)))[1:] == (True, 0)


class TestNormalCone:
    def test_branch_examples(self):
        xbar = np.diag([1.0, 0.0])
        rep = ms.normal_cone_contains(xbar, np.diag([0.0, -3.0]), 1)
        assert rep.is_member and rep.branch == "both"
        rep = ms.normal_cone_contains(xbar, np.diag([0.0, 3.0]), 1)
        assert rep.is_member and rep.branch == "low-rank-branch"
        rep = ms.normal_cone_contains(xbar, np.diag([1.0, 0.0]), 1)
        assert not rep.is_member and rep.residual > 0.5

    def test_rejects_xbar_outside(self):
        with pytest.raises(PreconditionError):
            ms.normal_cone_contains(np.diag([1.0, 1.0]), np.zeros((2, 2)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        xbar = np.diag([1.0, 0.0])
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            ms.normal_cone_contains(xbar, np.diag([0.0, bad]), 1)
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            ms.normal_cone_contains(np.diag([1.0, bad]), np.zeros((2, 2)), 1)
        with pytest.raises(PreconditionError):
            ms.normal_cone_contains(np.diag([-1.0, 0.0]), np.zeros((2, 2)), 1)

    def test_member_implies_commutation(self, rng):
        for trial in range(100):
            m = int(rng.integers(2, 6))
            s = int(rng.integers(1, m + 1))
            xbar = random_psd_low_rank(rng, m, int(rng.integers(0, s + 1)))
            y = random_symmetric(rng, m)
            rep = ms.normal_cone_contains(xbar, y, s)
            if rep.is_member:
                comm = np.linalg.norm(xbar @ y - y @ xbar)
                assert comm <= 1e-8 * (1 + np.linalg.norm(xbar) * np.linalg.norm(y))

    def test_diagonal_equivariance(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 6))
            s = int(rng.integers(1, m + 1))
            k = int(rng.integers(0, s + 1))
            xv = np.zeros(m)
            xv[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
            yv = rng.standard_normal(m)
            yv[rng.random(m) < 0.4] = 0.0
            want = vs.normal_cone_contains(xv, yv, s)
            got = ms.normal_cone_contains(np.diag(xv), np.diag(yv), s)
            assert got.is_member == want.is_member

    def test_nsd_tolerance_is_the_vector_zero_cutoff(self):
        # 5e-10 lies above the vector cutoff zero_tol * (1 + max|y|) = 2e-10,
        # so the lift reads it as a positive eigenvalue: Y is neither NSD
        # nor of rank at most m - s = 1
        xbar = np.diag([1.0, 0.0, 0.0])
        y = np.diag([0.0, 5e-10, -1.0])
        rep = ms.normal_cone_contains(xbar, y, 2)
        assert not rep.is_member and rep.branch == "none"
        assert not ms.prox_normal_cone_contains(xbar, y, 2)
        assert not vs.normal_cone_contains([1.0, 0.0, 0.0], [0.0, 5e-10, -1.0], 2).is_member

    def test_eigenvalues_on_the_range_of_xbar_must_vanish(self):
        # the rank rule counts 5e-10, so rank(Xbar) = 2; the residual 5e-10
        # passes the annihilation tolerance, yet Y is -1 or 1 on that
        # eigenvector of Xbar, so Y does not vanish on its range
        xbar = np.diag([1.0, 5e-10, 0.0])
        for yv in ([0.0, 1.0, 1.0], [0.0, -1.0, -1.0]):
            rep = ms.normal_cone_contains(xbar, np.diag(yv), 2)
            assert rep.residual <= 1e-9 and not rep.is_member and rep.branch == "none"
            assert not ms.prox_normal_cone_contains(xbar, np.diag(yv), 2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_is_the_vector_cone_on_the_joint_spectrum(self, data):
        """Signed-permutation conjugates of integer diagonals, mixed by the
        exact orthogonal half-Hadamard on four coordinates when drawn."""
        m = data.draw(st.integers(1, 6))
        s = data.draw(st.integers(0, m))
        k = data.draw(st.integers(0, s))
        xv = np.zeros(m)
        xv[:k] = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        yv = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
                      dtype=float)
        if data.draw(st.booleans()):
            yv[:k] = 0.0  # annihilating
        perm = data.draw(st.permutations(range(m)))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
        q = np.eye(m)[perm] * np.array(signs)[:, None]
        if m >= 4 and data.draw(st.booleans()):
            h = np.eye(m)
            h[:4, :4] = 0.5 * np.array(
                [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
            )
            q = q @ h
        xbar, y = q @ np.diag(xv) @ q.T, q @ np.diag(yv) @ q.T
        want = vs.normal_cone_contains(xv, yv, s)
        got = ms.normal_cone_contains(xbar, y, s)
        branches = {"nonpositive-branch": "nsd-branch", "sparsity-branch": "low-rank-branch"}
        assert got.is_member == want.is_member
        assert got.branch == branches.get(want.branch, want.branch)
        assert ms.prox_normal_cone_contains(xbar, y, s) == vs.prox_normal_cone_contains(xv, yv, s)


class TestLowRankNormalCone:
    def test_examples(self):
        xbar = np.diag([1.0, 0.0])
        assert ms.low_rank_normal_cone_contains(xbar, np.diag([0.0, 7.0]), 1)
        assert not ms.low_rank_normal_cone_contains(xbar, np.eye(2), 1)
        assert ms.low_rank_normal_cone_contains(xbar, np.zeros((2, 2)), 1)

    def test_signs_allowed_in_base_point(self):
        # the sign-free set admits indefinite base points at maximal rank
        xbar = np.diag([1.0, -2.0, 0.0])
        assert ms.low_rank_normal_cone_contains(xbar, np.diag([0.0, 0.0, 5.0]), 2)

    def test_rejects_below_maximal_rank(self):
        with pytest.raises(PreconditionError, match="rank"):
            ms.low_rank_normal_cone_contains(np.diag([1.0, 0.0]), np.zeros((2, 2)), 2)


class TestProxNormalCone:
    def test_below_maximal_needs_nsd(self):
        xbar = np.diag([1.0, 0.0, 0.0])
        y = np.diag([0.0, 1.0, 0.0])
        assert not ms.prox_normal_cone_contains(xbar, y, 2)
        assert ms.prox_normal_cone_contains(xbar, -y, 2)

    def test_at_maximal_matches_low_rank_cone(self, rng):
        xbar = random_psd_low_rank(rng, 4, 2)
        for _ in range(50):
            y = random_symmetric(rng, 4)
            got = ms.prox_normal_cone_contains(xbar, y, 2)
            want = ms.low_rank_normal_cone_contains(xbar, y, 2)
            assert got == want

    def test_maximal_rank_is_the_rank_rule(self):
        # the rank rule counts 1.5e-10 (rank 2 = s) though it lies under the
        # zero cutoff 2e-10 of the spectrum; at maximal rank Xbar @ Y = 0 is
        # the whole condition
        xbar = np.diag([1.0, 1.5e-10, 0.0])
        y = np.diag([0.0, 0.0, 1.0])
        assert ms.low_rank_normal_cone_contains(xbar, y, 2)
        assert ms.prox_normal_cone_contains(xbar, y, 2)

    def test_zero_member(self, rng):
        xbar = random_psd_low_rank(rng, 3, 1)
        assert ms.prox_normal_cone_contains(xbar, np.zeros((3, 3)), 2)

    def test_inclusion_in_limiting_cone(self, rng):
        for _ in range(200):
            m = int(rng.integers(2, 6))
            s = int(rng.integers(1, m + 1))
            xbar = random_psd_low_rank(rng, m, int(rng.integers(0, s + 1)))
            y = random_symmetric(rng, m)
            if ms.prox_normal_cone_contains(xbar, y, s):
                assert ms.normal_cone_contains(xbar, y, s).is_member
