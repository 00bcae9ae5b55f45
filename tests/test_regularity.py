from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsecones import edm, linalg, matrix_sets, regularity, vector_sets
from sparsecones.errors import PreconditionError

from conftest import random_symmetric
from oracles import edm_violation_null_dim_mp, nonneg_direction_exists_lp


def brute_force_affine_sparse(a, xbar, s):
    """Independent decision of the vector strong-regularity condition:
    external LP for the nonnegative branch, numpy rank computations over all
    coordinate sets for the sparsity branch."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m = a.shape[1]
    v = linalg.Subspace.span(a)
    if v.dim == 0:
        return True
    support = set(np.flatnonzero(np.abs(xbar) > 1e-10))
    if nonneg_direction_exists_lp(v.basis, frozenset(support)):
        return False
    free = sorted(set(range(m)) - support)
    need = m - s
    if need == 0:
        return True
    for coords in combinations(free, need):
        complement = sorted(set(range(m)) - set(coords))
        mat = v.basis[:, complement]
        null_dim = v.dim - np.linalg.matrix_rank(mat, tol=1e-10)
        if null_dim > 0:
            return False
    return True


def per_set_enumeration(a, xbar, s):
    """The sparsity branch of the affine/sparse certifier as one
    ``null_intersection_basis`` call per coordinate set, in ``combinations``
    order: ``(verdict, enumerated_sets, witness)``."""
    v = linalg.Subspace.span(a)
    if v.dim == 0:
        return "regular", None, None
    m = a.shape[1]
    free = sorted(set(range(m)) - set(np.flatnonzero(xbar).tolist()))
    checked = 0
    for coords in combinations(free, m - s):
        checked += 1
        basis = linalg.null_intersection_basis(v, coords)
        if basis.shape[0] > 0:
            return "not_regular", checked, regularity._vec_witness(v, xbar, s, basis[0])
    return "regular", checked, None


@st.composite
def lp_infeasible_instances(draw):
    """Small integer ``(A, xbar, s)`` with s < m whose rows sum to zero off
    the support of ``xbar``, so no nonnegative normal direction vanishes on
    the support (Stiemke) and the certifier always reaches the enumeration.
    Zeroed columns make coordinate sets meet the row space."""
    m = draw(st.integers(2, 9))
    s = draw(st.integers(0, m - 1))
    support = draw(st.lists(st.integers(0, m - 1), max_size=s, unique=True))
    rows = draw(st.integers(1, max(s, 1)))
    a = np.array(draw(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 0]), min_size=m, max_size=m),
        min_size=rows, max_size=rows,
    )), dtype=float)
    a[:, draw(st.lists(st.integers(0, m - 1), max_size=m // 2, unique=True))] = 0.0
    free = [j for j in range(m) if j not in support]
    a[:, free[-1]] -= a[:, free].sum(axis=1)
    xbar = np.zeros(m)
    xbar[support] = draw(st.lists(
        st.integers(1, 3), min_size=len(support), max_size=len(support)))
    return a, xbar, s


@st.composite
def trivially_complementary_instances(draw):
    """Small integer ``(A, xbar, s)`` with s < m and at most as many rows as
    ``xbar`` has support coordinates, so that usually no nonzero row-space
    direction vanishes on the support."""
    m = draw(st.integers(2, 9))
    s = draw(st.integers(1, m - 1))
    support = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=s, unique=True))
    rows = draw(st.integers(1, len(support)))
    a = np.array(draw(st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 0]), min_size=m, max_size=m),
        min_size=rows, max_size=rows,
    )), dtype=float)
    xbar = np.zeros(m)
    xbar[support] = draw(st.lists(
        st.integers(1, 3), min_size=len(support), max_size=len(support)))
    return a, xbar, s


class TestAffineSparse:
    @pytest.mark.parametrize("chunk", [1, 3, regularity.ENUM_CHUNK])
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(lp_infeasible_instances())
    def test_batched_enumeration_matches_per_set_loop(self, chunk, case):
        a, xbar, s = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "ENUM_CHUNK", chunk)
            cert = regularity.certify_affine_sparse(a, xbar, s)
        verdict, checked, witness = per_set_enumeration(a, xbar, s)
        assert cert.verdict == verdict
        assert cert.method == "exact-combinatorial"
        assert cert.diagnostics.get("enumerated_sets") == checked
        if witness is None:
            assert cert.witness is None
        else:
            assert np.array_equal(cert.witness, witness)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trivially_complementary_instances())
    def test_exact_regular_without_complementary_directions(self, case):
        # the shortcut above max_enum_dim agrees with the enumeration below it
        a, xbar, s = case
        enumerated = regularity.certify_affine_sparse(a, xbar, s)
        assume(enumerated.diagnostics.get("complementary_dim") == 0)
        shortcut = regularity.certify_affine_sparse(a, xbar, s, max_enum_dim=0)
        assert enumerated.method == "exact-combinatorial"
        assert shortcut.method == "exact-linear"
        assert shortcut.verdict == enumerated.verdict == "regular"
        assert shortcut.witness is None
        assert brute_force_affine_sparse(a, xbar, s)

    def test_exact_regular_above_enumeration_cap(self):
        # the only row-space direction (all ones) does not vanish at
        # coordinate 0, so neither branch can hit: exact without enumerating
        xbar = np.zeros(25)
        xbar[0] = 1.0
        cert = regularity.certify_affine_sparse(np.ones((1, 25)), xbar, 1)
        assert (cert.verdict, cert.method) == ("regular", "exact-linear")
        assert cert.diagnostics["complementary_dim"] == 0
        assert "enumerated_sets" not in cert.diagnostics

    @pytest.mark.parametrize("rejected,checked,coords", [
        ((), 1, (1, 2, 3)),
        (((1, 2, 3),), 2, (1, 2, 4)),
        (((1, 2, 3), (1, 2, 4), (1, 2, 5)), 10, None),
    ], ids=["first-confirmed", "first-skipped", "all-skipped"])
    def test_screened_set_that_fails_confirmation_is_skipped(self, rejected, checked, coords):
        # the only normal direction vanishing on coordinate 0 is (0, 1, -1,
        # 0, 0, 0), so of the 10 sets of 3 free coordinates, (1, 2, 3),
        # (1, 2, 4) and (1, 2, 5) pass the screen; a confirmation that comes
        # back empty (a disagreement at the cutoff) moves on to the next one
        a = np.array([[0.0, 1.0, -1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0, -1.0, 0.0]])
        xbar = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        confirm = linalg.null_intersection_basis

        def disagreeing(v, sel):
            return np.zeros((0, v.ambient_dim)) if tuple(sel) in rejected else confirm(v, sel)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "null_intersection_basis", disagreeing)
            cert = regularity.certify_affine_sparse(a, xbar, 3)
        assert cert.diagnostics["enumerated_sets"] == checked
        if coords is None:
            assert cert.verdict == "regular"
            assert cert.witness is None
        else:
            assert cert.verdict == "not_regular"
            assert str(list(coords)) in cert.details
            assert np.allclose(np.abs(cert.witness), [0.0, 2 ** -0.5, 2 ** -0.5, 0.0, 0.0, 0.0])

    def test_early_hit_screens_only_the_first_chunk(self):
        # row 0 of A lives on the first coordinate set of m - s = 12 free
        # coordinates, so set 1 meets the row space; its rows sum to zero
        # off the support, so the LP branch is infeasible (Stiemke)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 18))
        a[:, 17] = 0.0
        a[0, 12:] = 0.0
        a[:, :17] -= a[:, :17].mean(axis=1, keepdims=True)
        a[0, :12] -= a[0, :12].mean()
        xbar = np.zeros(18)
        xbar[17] = 1.0
        cert = regularity.certify_affine_sparse(a, xbar, 6)
        assert (cert.verdict, cert.method) == ("not_regular", "exact-combinatorial")
        assert cert.diagnostics["enumerated_sets"] == 1
        sets = combinations(range(17), 12)
        checked, coords, _ = regularity._first_meeting_set(linalg.Subspace.span(a), sets)
        assert (checked, coords) == (1, tuple(range(12)))
        # only the first, small chunk was drawn from the iterator
        drawn = comb(17, 12) - len(list(sets))
        assert drawn == regularity.ENUM_FIRST_CHUNK < regularity.ENUM_CHUNK

    def test_zero_witness_is_rejected_before_scaling(self):
        v = linalg.Subspace.span([[1.0, 0.0, 0.0]])
        with pytest.raises(AssertionError, match="witness too small"):
            regularity._vec_witness(v, np.array([0.0, 1.0, 0.0]), 1, np.zeros(3))

    def test_regular_example(self):
        cert = regularity.certify_affine_sparse([[1.0, 1.0]], [1.0, 0.0], 1)
        assert cert.verdict == "regular"
        assert cert.witness is None

    def test_not_regular_witness(self):
        cert = regularity.certify_affine_sparse([[0.0, 1.0]], [1.0, 0.0], 1)
        assert cert.verdict == "not_regular"
        assert np.allclose(np.abs(cert.witness), [0.0, 1.0], atol=1e-9)

    def test_complementary_dim(self):
        # the only row-space directions vanishing on coordinate 0 are
        # multiples of (0, 1, -1); a set meeting them is a hit
        cert = regularity.certify_affine_sparse([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]],
                                                [1.0, 0.0, 0.0], 1)
        assert cert.diagnostics["complementary_dim"] == 1
        assert cert.verdict == "not_regular"
        assert np.allclose(np.abs(cert.witness), [0.0, 2 ** -0.5, 2 ** -0.5])
        cert = regularity.certify_affine_sparse([[1.0, 1.0]], [1.0, 0.0], 1)
        assert cert.diagnostics["complementary_dim"] == 0

    def test_full_rank_never_regular(self, rng):
        for m in (3, 4, 5):
            xbar = np.zeros(m)
            xbar[0] = 1.0
            cert = regularity.certify_affine_sparse(np.eye(m), xbar, 1)
            assert cert.verdict == "not_regular"

    def test_witness_soundness(self, rng):
        for trial in range(60):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(1, m + 1))
            p = int(rng.integers(1, m + 1))
            a = rng.standard_normal((p, m))
            xbar = np.zeros(m)
            k = int(rng.integers(0, s + 1))
            xbar[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
            cert = regularity.certify_affine_sparse(a, xbar, s)
            if cert.verdict == "not_regular":
                y = cert.witness
                assert np.linalg.norm(y) >= 1e-6
                v = linalg.Subspace.span(a)
                assert v.contains(y, tol=1e-7)
                assert vector_sets.normal_cone_contains(xbar, -y, s).is_member

    def test_matches_bruteforce(self, rng):
        for trial in range(120):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(1, m + 1))
            p = int(rng.integers(1, m))
            a = rng.standard_normal((p, m))
            xbar = np.zeros(m)
            k = int(rng.integers(0, s + 1))
            xbar[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
            cert = regularity.certify_affine_sparse(a, xbar, s)
            want = brute_force_affine_sparse(a, xbar, s)
            assert (cert.verdict == "regular") == want, (a, xbar, s)

    def test_oversized_undecided_or_witness(self, rng):
        a = rng.standard_normal((3, 25))
        xbar = np.zeros(25)
        xbar[0] = 1.0
        cert = regularity.certify_affine_sparse(a, xbar, 1, max_enum_dim=20)
        assert cert.verdict in ("not_regular", "undecided")
        assert cert.method in ("lp", "falsification-search")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            regularity.certify_affine_sparse([[bad, 1.0, 0.0]], [1.0, 0.0, 0.0], 1)

    def test_certificate_serialization(self, tmp_path):
        cert = regularity.certify_affine_sparse([[0.0, 1.0]], [1.0, 0.0], 1)
        path = tmp_path / "cert.json"
        cert.save(path)
        import json

        data = json.loads(path.read_text())
        assert data["verdict"] == "not_regular"
        assert data["witness"] is not None
        assert data["method"] == "lp"


class TestSpanLowRankPsd:
    def test_regular_when_annihilator_trivial(self):
        xbar = np.diag([1.0, 0.0])
        a1 = np.array([[1.0, 1.0], [1.0, 0.0]])  # Xbar @ A1 != 0
        cert = regularity.certify_span_low_rank_psd([a1], xbar, 1, n_starts=10, n_steps=10)
        assert cert.verdict == "regular"
        assert cert.method == "exact-linear"

    def test_psd_witness(self):
        cert = regularity.certify_span_low_rank_psd(
            [np.diag([0.0, 1.0])], np.diag([1.0, 0.0]), 1, n_starts=10, n_steps=10
        )
        assert cert.verdict == "not_regular"

    def test_exact_witness_at_maximal_rank(self):
        # rank(Xbar) = s: the annihilator diag(0, 1, -1) has its range in
        # null(Xbar), so it has rank 2 = m - s and is a witness without a search
        xbar = np.diag([1.0, 0.0, 0.0])
        cert = regularity.certify_span_low_rank_psd(
            [np.diag([0.0, 1.0, -1.0]), np.eye(3)], xbar, 1, n_starts=0, n_steps=0
        )
        assert (cert.verdict, cert.method) == ("not_regular", "exact-linear")
        assert cert.seed is None
        assert cert.diagnostics["annihilator_dim"] == 1
        assert np.allclose(np.abs(cert.witness), np.diag([0.0, 2 ** -0.5, 2 ** -0.5]))
        assert matrix_sets.normal_cone_contains(xbar, -cert.witness, 1).is_member

    def test_search_accepts_psd_by_the_cone_cutoff(self):
        # the one annihilating direction has an eigenvalue -5e-10, below the
        # cone test's zero cutoff 2e-10: it is not PSD, so the search finds
        # no witness, where a 1e-9 acceptance rule built one that the
        # normal-cone re-check then rejects
        cert = regularity.certify_span_low_rank_psd(
            [np.diag([0.0, 1.0, -5e-10])], np.diag([1.0, 0.0, 0.0]), 2,
            n_starts=4, n_steps=20,
        )
        assert cert.verdict == "undecided"

    def test_search_hits_what_the_cone_test_accepts(self):
        # 1.5e-10 is a nonzero eigenvalue under the rank rule (rank 3 > m - s)
        # but zero under the cone's cutoff 1.7e-10: the basis element is in
        # the normal cone, so the search returns it
        xbar = np.diag([1.0, 0.0, 0.0, 0.0])
        y = np.diag([0.0, 0.7, 1.5e-10, -0.7])
        assert matrix_sets.normal_cone_contains(xbar, -y, 2).is_member
        cert = regularity.certify_span_low_rank_psd([y], xbar, 2, n_starts=20, n_steps=50)
        assert cert.verdict == "not_regular"
        assert np.allclose(np.abs(cert.witness), np.abs(y) / np.linalg.norm(y))

    def test_two_matrix_span(self):
        cert = regularity.certify_span_low_rank_psd(
            [np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
            np.diag([1.0, 0.0]),
            1,
            n_starts=50,
            n_steps=20,
        )
        assert cert.verdict == "not_regular"
        assert cert.diagnostics["annihilator_dim"] == 1

    def test_witness_soundness(self, rng):
        found = 0
        for trial in range(40):
            m = int(rng.integers(2, 5))
            s = int(rng.integers(1, m))
            r = int(rng.integers(1, s + 1))
            v = rng.standard_normal((r, m))
            xbar = v.T @ v
            mats = [random_symmetric(rng, m) for _ in range(int(rng.integers(1, 4)))]
            cert = regularity.certify_span_low_rank_psd(
                mats, xbar, s, rng_seed=trial, n_starts=100, n_steps=40
            )
            if cert.verdict == "not_regular":
                found += 1
                y = cert.witness
                assert np.linalg.norm(y) >= 1e-6
                assert matrix_sets.normal_cone_contains(xbar, -y, s).is_member
        assert found >= 1

    def test_never_claims_regular_from_search(self, rng):
        # a kernel that contains neither PSD nor low-rank nonzero elements
        # must yield "undecided", not "regular"
        xbar = np.zeros((3, 3))  # annihilates everything
        y = np.diag([1.0, 1.0, -1.0])  # indefinite, full rank
        cert = regularity.certify_span_low_rank_psd(
            [y], xbar, 1, n_starts=60, n_steps=30
        )
        assert cert.verdict == "undecided"
        assert "search" in cert.method

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            regularity.certify_span_low_rank_psd(
                [np.eye(3)], np.diag([1.0, 0.0]), 1
            )


class TestProxRegularityProbes:
    @pytest.mark.parametrize("m,s", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
    def test_vector_dichotomy(self, rng, m, s):
        xbar = np.zeros(m)
        xbar[rng.choice(m, size=s, replace=False)] = rng.uniform(0.5, 2.0, size=s)
        ev = regularity.prox_regularity_vector(xbar, s, rng_seed=1)
        assert ev.prox_regular
        assert ev.all_singleton
        assert np.isclose(ev.delta, 0.5 * np.min(xbar[xbar > 0]))
        sub = np.zeros(m)
        k = int(rng.integers(0, s))
        sub[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
        ev2 = regularity.prox_regularity_vector(sub, s, rng_seed=1)
        assert not ev2.prox_regular
        assert all(c >= 2 for c in ev2.member_counts)

    def test_spec_examples(self):
        ev = regularity.prox_regularity_vector([2.0, 0.0, 0.0], 1)
        assert ev.prox_regular and np.isclose(ev.delta, 1.0)
        ev = regularity.prox_regularity_vector([2.0, 0.0, 0.0], 2)
        assert not ev.prox_regular and ev.member_counts[0] == 2
        ev = regularity.prox_regularity_vector([0.0, 0.0, 0.0], 1)
        assert not ev.prox_regular

    def test_range_validation(self):
        with pytest.raises(ValueError):
            regularity.prox_regularity_vector([1.0, 0.0], 2)  # s = m excluded
        with pytest.raises(ValueError):
            regularity.prox_regularity_vector([1.0], 1)  # m < 2

    def test_matrix_dichotomy(self, rng):
        v = rng.standard_normal((1, 3))
        xbar = v.T @ v
        ev = regularity.prox_regularity_matrix(xbar, 1, rng_seed=2)
        assert ev.prox_regular and ev.rank_or_sparsity == 1
        ev2 = regularity.prox_regularity_matrix(xbar, 2, rng_seed=2)
        assert not ev2.prox_regular
        assert all(c >= 2 for c in ev2.member_counts)
        ev3 = regularity.prox_regularity_matrix(np.zeros((2, 2)), 1, rng_seed=2)
        assert not ev3.prox_regular

    def test_matrix_range_validation(self):
        with pytest.raises(ValueError):
            regularity.prox_regularity_matrix(np.diag([3.0, 2.0]), 2)


class TestEdmCertifier:
    def _passing_instance(self, seed, n=5, frac=0.6):
        inst, pts = edm.generate_instance(n, 2, frac, seed)
        return inst, edm.build_edm(pts)

    def test_regular_and_not_regular_occur(self):
        verdicts = set()
        for seed in range(30):
            try:
                inst, xbar = self._passing_instance(seed, n=5, frac=0.5 + 0.02 * (seed % 5))
                cert = regularity.certify_edm_completion(inst, xbar)
            except PreconditionError:
                continue
            verdicts.add(cert.verdict)
        assert "regular" in verdicts and "not_regular" in verdicts

    @pytest.mark.parametrize("chunk", [7, regularity.EDM_UNIT_CHUNK])
    def test_chunked_system_matches_one_batch(self, chunk):
        # 423 unknowns: two default chunks, the second one partial
        inst, pts = edm.generate_instance(30, 2, 0.9, rng_seed=1)
        block = edm.validate_completion_point(inst, edm.build_edm(pts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "EDM_UNIT_CHUNK", 10 ** 6)
            whole, (iu, ju) = regularity._completion_constraint_matrix(inst, block)
            mp.setattr(regularity, "EDM_UNIT_CHUNK", chunk)
            chunked, index = regularity._completion_constraint_matrix(inst, block)
        assert iu.size == 423
        assert np.array_equal(index[0], iu) and np.array_equal(index[1], ju)
        assert chunked.shape == whole.shape and chunked.strides == whole.strides
        assert chunked.tobytes() == whole.tobytes()

    def test_system_memory_is_bounded_by_the_chunk(self):
        import tracemalloc

        inst, pts = edm.generate_instance(60, 2, 0.9, rng_seed=7)
        block = edm.validate_completion_point(inst, edm.build_edm(pts))
        tracemalloc.start()
        try:
            system, (iu, _) = regularity._completion_constraint_matrix(inst, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iu.size == 1658 and system.nbytes > 46e6
        # one batch of all unknowns peaked at 189 MB
        assert peak <= 100e6

    def test_full_mask_certificate(self):
        inst, pts = edm.generate_instance(5, 2, 1.0, 2)
        xbar = edm.build_edm(pts)
        cert = regularity.certify_edm_completion(inst, xbar)
        # with every entry known the violation space is large
        assert cert.verdict == "not_regular"
        assert cert.method == "exact-linear"

    def test_witness_reverified(self):
        for seed in range(10):
            inst, xbar = self._passing_instance(seed, n=6, frac=0.8)
            try:
                cert = regularity.certify_edm_completion(inst, xbar)
            except PreconditionError:
                continue
            if cert.verdict == "not_regular":
                w = cert.witness
                assert np.linalg.norm(w) >= 1e-6
                assert edm.normal_cone_data_contains(inst, xbar, w)
                assert edm.normal_cone_embedding_contains(inst, xbar, -w)

    def test_matches_high_precision_oracle(self):
        done = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 8))
            frac = float(rng.uniform(0.4, 0.95))
            inst, pts = edm.generate_instance(n, 2, frac, 1000 + seed)
            xbar = edm.build_edm(pts)
            try:
                cert = regularity.certify_edm_completion(inst, xbar)
            except PreconditionError:
                continue
            null_dim = edm_violation_null_dim_mp(inst, xbar)
            assert cert.diagnostics["null_dim"] == null_dim
            assert (cert.verdict == "regular") == (null_dim == 0)
            done += 1
            if done >= 12:
                break
        assert done >= 12

    def test_permutation_invariance(self):
        inst, pts = edm.generate_instance(6, 2, 0.65, 77)
        xbar = edm.build_edm(pts)
        cert = regularity.certify_edm_completion(inst, xbar)
        rng = np.random.default_rng(7)
        perm = rng.permutation(6)
        inst_p = edm.PartialEdm(
            6,
            inst.entries[np.ix_(perm, perm)],
            inst.known[np.ix_(perm, perm)],
            inst.s,
        )
        cert_p = regularity.certify_edm_completion(inst_p, xbar[np.ix_(perm, perm)])
        assert cert.verdict == cert_p.verdict
        assert cert.diagnostics["null_dim"] == cert_p.diagnostics["null_dim"]

    def test_null_dim_monotone_in_mask(self):
        # removing known pairs removes unknowns: the null space cannot grow
        inst, pts = edm.generate_instance(6, 2, 0.9, 13)
        xbar = edm.build_edm(pts)
        cert = regularity.certify_edm_completion(inst, xbar)
        pairs = inst.known_pairs()
        known = inst.known.copy()
        for (i, j) in pairs[: len(pairs) // 2]:
            known[i, j] = known[j, i] = False
        smaller = edm.PartialEdm(6, np.where(known, inst.entries, 0.0), known, 2)
        cert2 = regularity.certify_edm_completion(smaller, xbar)
        assert cert2.diagnostics["null_dim"] <= cert.diagnostics["null_dim"]

    def test_precondition_failures_named(self):
        inst, pts = edm.generate_instance(5, 2, 0.7, 3)
        xbar = edm.build_edm(pts)
        with pytest.raises(PreconditionError, match="strictly positive"):
            regularity.certify_edm_completion(inst, np.zeros((5, 5)))
        wrong_rank = edm.PartialEdm(5, inst.entries, inst.known, 3)
        with pytest.raises(PreconditionError, match="rank"):
            regularity.certify_edm_completion(wrong_rank, xbar)
