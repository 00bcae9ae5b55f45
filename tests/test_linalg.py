import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecones import linalg
from sparsecones.config import zero_tol
from sparsecones.errors import PreconditionError

from conftest import random_symmetric
from oracles import nonneg_direction_exists_lp


class TestCheckSymmetric:
    def test_messages(self):
        with pytest.raises(ValueError, match=r"^X must be square, got shape \(2, 3\)$"):
            linalg.check_symmetric(np.zeros((2, 3)), "X")
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(4,\)$"):
            linalg.check_symmetric(np.zeros(4))
        with pytest.raises(PreconditionError, match="^X has a NaN or infinite entry$"):
            linalg.check_symmetric(np.array([[0.0, np.nan], [np.nan, 0.0]]), "X")
        with pytest.raises(PreconditionError, match="^X has a NaN or infinite entry$"):
            linalg.check_symmetric(np.diag([1.0, -np.inf]), "X")
        with pytest.raises(
            ValueError, match=r"^X is not symmetric \(max asymmetry 5\.000e-01\)$"
        ):
            linalg.check_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]), "X")

    def test_empty(self):
        out = linalg.check_symmetric(np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == float

    def test_roundoff_averaged_like_symmetrize(self, rng):
        x = random_symmetric(rng, 6)
        x[0, 5] += 1e-14
        out = linalg.check_symmetric(x)
        assert np.array_equal(out, linalg.symmetrize(x))
        assert np.array_equal(out, out.T)
        assert out is not x


    # entries whose squares overflow take the full check, after numpy's
    # overflow warning from the fast path's dot product
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_bits_on_every_path(self, data):
        # inputs symmetric bit for bit (signed zeros, subnormals and entries
        # whose squares overflow included) or off by roundoff; the fast path
        # must return what the averaging returns
        m = data.draw(st.integers(0, 6))
        entries = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1.7e308]),
        )
        a = np.array(data.draw(st.lists(entries, min_size=m * m, max_size=m * m)))
        x = np.triu(a.reshape(m, m))
        x = x + np.triu(x, 1).T
        if m > 1 and data.draw(st.booleans()):
            x[0, 1] = np.nextafter(x[0, 1], np.inf)
        want = 0.5 * (x + x.T)
        if not np.isfinite(want).all() or np.abs(x - x.T).max(initial=0.0) > 1e-12 * (
            1.0 + np.abs(x).max(initial=0.0)
        ):
            return
        out = linalg.check_symmetric(x)
        assert out.tobytes() == want.tobytes()
        assert out is not x


class TestEigSym:
    def test_diagonal(self):
        dec = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.lam, [3.0, 2.0, 1.0])
        # eigenvectors of a diagonal matrix form a signed permutation
        assert np.allclose(np.abs(dec.u), np.eye(3)[[0, 2, 1]])

    def test_offdiagonal_pair(self):
        # characteristic polynomial t^2 - 1: eigenvalues +1, -1
        dec = linalg.eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.lam, [1.0, -1.0], atol=1e-12)

    def test_identity(self):
        dec = linalg.eig_sym(np.eye(5))
        assert np.allclose(dec.lam, np.ones(5))
        assert np.allclose(dec.u, np.eye(5))

    def test_round_trip_and_orthogonality(self, rng):
        for n in (1, 2, 3, 6, 10, 25):
            x = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            dec = linalg.eig_sym(x)
            assert np.all(np.diff(dec.lam) <= 1e-12)
            assert np.max(np.abs(dec.u @ dec.u.T - np.eye(n))) <= 1e-10
            err = np.linalg.norm((dec.u.T * dec.lam) @ dec.u - x)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(x))

    def test_deterministic(self, rng):
        x = random_symmetric(rng, 7)
        d1 = linalg.eig_sym(x)
        d2 = linalg.eig_sym(x.copy())
        assert np.array_equal(d1.lam, d2.lam)
        assert np.array_equal(d1.u, d2.u)

    def test_sign_convention(self, rng):
        for _ in range(20):
            x = random_symmetric(rng, 5)
            dec = linalg.eig_sym(x)
            for row in dec.u:
                nz = np.flatnonzero(np.abs(row) > 1e-12)
                assert row[nz[0]] > 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            linalg.eig_sym(x)

    def test_fan_inequality(self, rng):
        # matrix distance dominates eigenvalue distance
        for _ in range(200):
            n = int(rng.integers(1, 7))
            x = random_symmetric(rng, n)
            y = random_symmetric(rng, n)
            lx = linalg.eig_sym(x).lam
            ly = linalg.eig_sym(y).lam
            assert np.linalg.norm(x - y) >= np.linalg.norm(lx - ly) - 1e-9


class TestNumericalRank:
    def test_relative_cutoff(self):
        tol = zero_tol()
        assert linalg.numerical_rank([3.0, 1.0, 0.0]) == 2
        assert linalg.numerical_rank([1e6, 1e6 * tol * 0.5, -1.0]) == 2
        assert linalg.numerical_rank([1e6, -1e6 * tol * 2.0]) == 2

    def test_scale_floor_of_one(self):
        tol = zero_tol()
        # below magnitude 1 the cutoff stays absolute
        assert linalg.numerical_rank([1e-3, 0.5 * tol]) == 1
        assert linalg.numerical_rank([2.0 * tol]) == 1
        assert linalg.numerical_rank([0.5 * tol]) == 0
        assert linalg.numerical_rank([]) == 0

    def test_stack_ranks_each_row(self, rng):
        tol = zero_tol()
        stack = np.array([
            [3.0, 1.0, 0.0],
            [1e6, 1e6 * tol * 0.5, -1.0],  # cutoff relative to the largest
            [1e-3, 0.5 * tol, 0.0],  # cutoff floored at max(1, largest)
            [2.0 * tol, 0.0, -0.5 * tol],
            [0.0, 0.0, 0.0],
        ])
        ranks = linalg.numerical_rank(stack)
        assert ranks.tolist() == [linalg.numerical_rank(row) for row in stack]
        assert ranks.tolist() == [2, 2, 1, 1, 0]
        sv = np.linalg.svd(rng.integers(-1, 2, size=(50, 3, 4)).astype(float)).S
        assert linalg.numerical_rank(sv).tolist() == [linalg.numerical_rank(r) for r in sv]
        assert linalg.numerical_rank(np.zeros((4, 0))).tolist() == [0, 0, 0, 0]
        assert linalg.numerical_rank(np.zeros((0, 3))).shape == (0,)
        assert type(linalg.numerical_rank(stack[0])) is int
        assert type(linalg.numerical_rank([])) is int

    def test_null_space(self, rng):
        a = rng.standard_normal((2, 5))
        a = np.vstack([a, a[0] - 2.0 * a[1]])
        null = linalg.null_space(a)
        assert null.shape == (3, 5)
        assert np.max(np.abs(a @ null.T)) <= 1e-10
        assert np.max(np.abs(null @ null.T - np.eye(3))) <= 1e-10
        assert linalg.null_space(np.eye(3)).shape == (0, 3)

    @pytest.mark.parametrize("rows,cols,rank", [
        (300, 40, 33),  # tall: the thin SVD
        (25, 25, 20),  # square
        (12, 30, 9),  # wide: the full SVD
    ], ids=["tall", "square", "wide"])
    def test_null_space_matches_full_svd(self, rng, rows, cols, rank):
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        null = linalg.null_space(a)
        sv, vt = np.linalg.svd(a, full_matrices=True)[1:]
        full = vt[linalg.numerical_rank(sv):]
        assert null.shape == (cols - linalg.numerical_rank(sv), cols) == (cols - rank, cols)
        assert np.max(np.abs(null @ null.T - np.eye(cols - rank))) <= 1e-12
        assert np.max(np.abs(a @ null.T)) <= 1e-10 * np.max(np.abs(a))
        # the bits of the basis depend on the BLAS build; its projector does not
        assert np.max(np.abs(null.T @ null - full.T @ full)) <= 1e-12


class TestSubspace:
    def test_span_orthonormal(self, rng):
        vecs = rng.standard_normal((3, 6))
        v = linalg.Subspace.span(np.vstack([vecs, vecs[0] + vecs[1]]))
        assert v.dim == 3
        assert np.max(np.abs(v.basis @ v.basis.T - np.eye(3))) <= 1e-10

    def test_projection_invariant(self, rng):
        v = linalg.Subspace.span(rng.standard_normal((2, 5)))
        y = rng.standard_normal(5)
        p = v.project(y)
        assert np.allclose(v.project(p), p)
        assert v.contains(p)

    def test_respan_invariant(self, rng):
        v = linalg.Subspace.span(rng.standard_normal((3, 6)))
        w = linalg.Subspace.span(v.basis)
        assert w.dim == v.dim
        y = rng.standard_normal(6)
        assert np.allclose(v.project(y), w.project(y), atol=1e-10)

    def test_null_intersection_examples(self):
        e1 = linalg.Subspace.span([[1.0, 0.0]])
        assert linalg.null_intersection_basis(e1, {0}).shape[0] == 1
        assert linalg.null_intersection_basis(e1, {1}).shape[0] == 0
        v = linalg.Subspace.span([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert linalg.null_intersection_basis(v, {0, 1}).shape[0] == 1

    def test_null_intersection_monotone(self, rng):
        v = linalg.Subspace.span(rng.standard_normal((3, 7)))
        coords = set()
        last = linalg.null_intersection_basis(v, coords).shape[0]
        for j in range(7):
            coords.add(j)
            cur = linalg.null_intersection_basis(v, coords).shape[0]
            assert cur >= last
            last = cur
        assert last == v.dim

    def test_null_intersection_of_the_zero_subspace(self):
        v = linalg.Subspace.span(np.zeros((1, 4)))
        for coords in (set(), {1, 2}, range(4)):
            assert linalg.null_intersection_basis(v, coords).shape == (0, 4)

    def test_null_intersection_with_every_coordinate_is_v(self, rng):
        v = linalg.Subspace.span(rng.standard_normal((3, 6)))
        basis = linalg.null_intersection_basis(v, range(6))
        assert basis.shape == (3, 6)
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        y = rng.standard_normal(6)
        assert np.allclose(linalg.Subspace(6, basis).project(y), v.project(y), atol=1e-12)

    def test_coords_out_of_range(self):
        v = linalg.Subspace.span([[1.0, 0.0]])
        with pytest.raises(ValueError):
            linalg.null_intersection_basis(v, {5})


class TestLpCone:
    def test_examples(self):
        assert linalg.lp_cone_point(linalg.Subspace.span([[1.0, 0.0]])) is not None
        assert linalg.lp_cone_point(linalg.Subspace.span([[1.0, -1.0]])) is None
        v = linalg.Subspace.span([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        assert linalg.lp_cone_point(v, zero_coords={2}) is not None

    def test_point_is_feasible(self, rng):
        v = linalg.Subspace.span(rng.standard_normal((2, 5)))
        y = linalg.lp_cone_point(v, zero_coords={1})
        if y is not None:
            assert np.min(y) >= -1e-9
            assert abs(np.sum(y) - 1.0) <= 1e-9
            assert abs(y[1]) <= 1e-9
            assert v.contains(y, tol=1e-7)

    def test_trivial_subspace(self):
        v = linalg.Subspace.span(np.zeros((1, 4)))
        assert v.dim == 0
        assert linalg.lp_cone_point(v) is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(2, 6).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                 min_size=1, max_size=m),
        st.sets(st.integers(0, m - 1), max_size=m - 1),
    )))
    # the standard form's edge cases: every coordinate zero; no direction
    # vanishing on the zero coordinates; directions spanning every free
    # coordinate, so that the LP has the sum row alone
    @example(([[1, 0], [0, 1]], {0, 1}))
    @example(([[1, 2, 3]], {0}))
    @example(([[1, 0, 0], [0, 1, 0]], {2}))
    @example(([[1, -1], [1, 1]], set()))
    def test_point_matches_external_lp(self, case):
        rows, zero = case
        v = linalg.Subspace.span(np.array(rows, dtype=float))
        y = linalg.lp_cone_point(v, zero_coords=zero)
        assert (y is not None) == nonneg_direction_exists_lp(v.basis, frozenset(zero))
        if y is not None:
            assert np.min(y) >= -1e-9
            assert abs(np.sum(y) - 1.0) <= 1e-9
            assert v.contains(y, tol=1e-7)
            assert np.max(np.abs(y[sorted(zero)]), initial=0.0) <= 1e-9

    def test_against_external_lp(self, rng):
        # cross-check the hand-rolled simplex against an independent solver:
        # Gaussian rows with m <= 6, then rows of small integers with m <= 24,
        # whose ties and degenerate pivots Gaussian rows almost never give
        for trial in range(300):
            integer = trial >= 150
            m = int(rng.integers(2, 25 if integer else 7))
            k = int(rng.integers(1, m + 1))
            if integer:
                basis_raw = rng.integers(-2, 3, (k, m)).astype(float)
            else:
                basis_raw = rng.standard_normal((k, m))
            n_zero = int(rng.integers(0, m))
            zero = set(map(int, rng.choice(m, size=n_zero, replace=False)))
            v = linalg.Subspace.span(basis_raw)
            got = linalg.lp_cone_point(v, zero_coords=zero) is not None
            want = nonneg_direction_exists_lp(v.basis, frozenset(zero))
            assert got == want, (trial, v.basis, zero)
