import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecones import vector_sets as vs
from sparsecones.errors import PreconditionError

from oracles import member_of, same_member_set, sparse_nonneg_projection_members


def random_vector(rng, m):
    """Mixed draw: continuous, zero-inflated and integer-valued vectors so
    that exact ties and clamped zeros both occur."""
    style = rng.integers(0, 3)
    if style == 0:
        return rng.standard_normal(m)
    if style == 1:
        x = rng.standard_normal(m)
        x[rng.random(m) < 0.4] = 0.0
        return x
    return rng.integers(-2, 3, size=m).astype(float)


def top_s_oracle(x, s, key):
    """Order the indices by ``(-key(x_i), i)``, keep the first ``s`` and
    zero the rest (``+0.0``): the canonical selection, written out."""
    order = sorted(range(len(x)), key=lambda i: (-key(x[i]), i))
    out = np.zeros(len(x))
    for i in order[:s]:
        out[i] = x[i]
    return out


def clamp(v):
    """``max(v, 0.0)`` with ``+0.0`` for ``-0.0``."""
    return v if v > 0.0 else 0.0


@st.composite
def vectors_and_s(draw):
    """Short vectors of small integers (ties at the cut), ``-0.0`` and
    continuous values, sometimes all nonpositive, with ``s`` in
    ``[0, m]`` and its two ends drawn often."""
    x = draw(st.lists(st.one_of(
        st.integers(-3, 3).map(float), st.just(-0.0),
        st.floats(-10.0, 10.0, allow_nan=False, width=64),
    ), max_size=12))
    if draw(st.booleans()):
        x = [-abs(v) for v in x]
    s = draw(st.one_of(st.sampled_from([0, len(x)]), st.integers(0, len(x))))
    return x, s


class TestProjectSparseNonneg:
    def test_spec_vector(self):
        res = vs.project_sparse_nonneg([3.0, -1.0, 2.0, 5.0], 2)
        assert np.allclose(res.canonical, [3.0, 0.0, 0.0, 5.0])
        assert res.member_count == 1
        assert np.isclose(res.distance, np.sqrt(5.0))

    def test_tie_enumeration(self):
        res = vs.project_sparse_nonneg([1.0, 1.0, 1.0], 2)
        assert res.member_count == 3
        expected = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert same_member_set([np.array(e, float) for e in expected], list(res.members))

    def test_fixed_point(self):
        x = np.array([0.0, 2.0, 0.0, 1.0])
        res = vs.project_sparse_nonneg(x, 2)
        assert res.member_count == 1
        assert np.allclose(res.canonical, x)
        assert res.distance == 0.0

    def test_all_negative(self):
        res = vs.project_sparse_nonneg([-1.0, -2.0], 1)
        assert np.allclose(res.canonical, [0.0, 0.0])
        assert res.member_count == 1

    def test_s_bounds(self):
        with pytest.raises(ValueError):
            vs.project_sparse_nonneg([1.0], 2)
        with pytest.raises(ValueError):
            vs.project_sparse_nonneg([1.0], -1)

    def test_member_cap(self):
        # 20 tied entries, keep 10: binomial(20, 10) members, far beyond cap
        res = vs.project_sparse_nonneg(np.ones(20), 10)
        assert res.truncated
        assert res.member_count == 184756
        assert len(res.members) == 1
        assert np.allclose(res.members[0], res.canonical)

    def test_matches_oracle(self, rng):
        for _ in range(400):
            m = int(rng.integers(1, 8))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            res = vs.project_sparse_nonneg(x, s)
            oracle = sparse_nonneg_projection_members(tuple(x), s)
            assert same_member_set(list(res.members), oracle), (x, s)
            for mem in res.members:
                assert np.isclose(np.linalg.norm(x - mem), res.distance, atol=1e-10)

    def test_equals_projection_of_positive_part(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 8))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            a = vs.project_sparse_nonneg(x, s)
            b = vs.project_sparse_nonneg(np.maximum(x, 0.0), s)
            assert same_member_set(list(a.members), list(b.members))

    def test_support_inside_positive_support(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 8))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            pos = set(np.flatnonzero(x > 0.0))
            for mem in vs.project_sparse_nonneg(x, s).members:
                assert set(np.flatnonzero(mem)) <= pos

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(vectors_and_s())
    def test_top_s_bytes_match_oracle(self, case):
        x, s = case
        want = top_s_oracle([clamp(v) for v in x], s, key=float).tobytes()
        assert vs.top_s_nonneg(np.array(x), s).tobytes() == want
        assert vs.project_sparse_nonneg(x, s).canonical.tobytes() == want
        # the same kernel on magnitudes; -0.0 may survive there, so by value
        assert np.array_equal(
            vs.project_sparse(x, s).canonical, top_s_oracle(x, s, key=abs)
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_top_s_near_overflow(self):
        # the sum of squares overflows; the full finite check then passes
        x = [1e200, -1e200, 3e199, 1e200, 1.0, 0.0]
        want = top_s_oracle([clamp(v) for v in x], 3, key=float)
        assert vs.top_s_nonneg(x, 3).tobytes() == want.tobytes()

    def test_top_s_matches_canonical(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 9))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            assert np.array_equal(
                vs.top_s_nonneg(x, s), vs.project_sparse_nonneg(x, s).canonical
            )


class TestProjectNonneg:
    def test_examples(self):
        assert np.allclose(vs.project_nonneg([-1.0, 2.0]), [0.0, 2.0])
        assert np.allclose(vs.project_nonneg([0.0, 0.0]), [0.0, 0.0])
        assert np.allclose(vs.project_nonneg([5.0, -5.0, 0.0]), [5.0, 0.0, 0.0])


class TestProjectSparse:
    def test_magnitude_selection(self):
        res = vs.project_sparse([3.0, -4.0, 1.0], 1)
        assert np.allclose(res.canonical, [0.0, -4.0, 0.0])
        assert res.member_count == 1

    def test_magnitude_tie(self):
        res = vs.project_sparse([1.0, -1.0], 1)
        assert res.member_count == 2
        expected = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        assert same_member_set(expected, list(res.members))

    def test_full_s_identity(self, rng):
        x = rng.standard_normal(5)
        res = vs.project_sparse(x, 5)
        assert res.member_count == 1
        assert np.allclose(res.canonical, x)

    def test_matches_bruteforce(self, rng):
        from itertools import combinations

        for _ in range(200):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            best, dmin = [], np.inf
            for combo in combinations(range(m), s):
                y = np.zeros(m)
                y[list(combo)] = x[list(combo)]
                d = np.linalg.norm(x - y)
                if d < dmin - 1e-12:
                    best, dmin = [y], d
                elif d <= dmin + 1e-12:
                    if not any(np.allclose(y, b, atol=1e-12) for b in best):
                        best.append(y)
            res = vs.project_sparse(x, s)
            assert same_member_set(list(res.members), best), (x, s)


class TestDecompositionCheck:
    def test_spec_examples(self):
        x = [3.0, -1.0, 2.0, 5.0]
        assert vs.decomposition_check(x, [3.0, 0.0, 0.0, 5.0], 2)
        assert not vs.decomposition_check(x, [3.0, 0.0, 2.0, 0.0], 2)
        y = np.array([1.0, 2.0, 0.0])
        assert vs.decomposition_check(y, y, 2)

    def test_iff_projection_membership(self, rng):
        disagreements = 0
        for _ in range(2000):
            m = int(rng.integers(1, 8))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            oracle = sparse_nonneg_projection_members(tuple(x), s)
            scenario = rng.integers(0, 4)
            if scenario == 0:
                y = oracle[rng.integers(0, len(oracle))].copy()
            elif scenario == 1:
                y = oracle[0].copy()
                j = int(rng.integers(0, m))
                y[j] += 0.25 * (1 + rng.random())
            elif scenario == 2:
                y = np.zeros(m)
                keep = rng.choice(m, size=s, replace=False) if s else []
                y[list(keep)] = np.maximum(x[list(keep)], 0.0)
            else:
                y = random_vector(rng, m)
            got = vs.decomposition_check(x, y, s)
            want = member_of(y, oracle)
            disagreements += got != want
        assert disagreements == 0

    def test_s_zero(self):
        assert vs.decomposition_check([1.0, -1.0], [0.0, 0.0], 0)
        assert not vs.decomposition_check([1.0, -1.0], [1.0, 0.0], 0)


class TestInverseProjection:
    def test_maximal_sparsity_formula(self):
        assert vs.inverse_projection_contains([2.0, 0.0], [2.0, 1.0], 1)
        assert not vs.inverse_projection_contains([2.0, 0.0], [2.0, 3.0], 1)

    def test_below_maximal(self):
        assert vs.inverse_projection_contains([0.0, 0.0], [-4.0, -7.0], 1)
        assert not vs.inverse_projection_contains([0.0, 0.0], [-4.0, 1.0], 1)

    def test_rejects_outside_set(self):
        with pytest.raises(ValueError):
            vs.inverse_projection_contains([1.0, 1.0], [1.0, 1.0], 1)

    def test_agrees_with_projection(self, rng):
        # members of the projection of x, and points of the set that are not
        outcomes = []
        for _ in range(1200):
            m = int(rng.integers(1, 7))
            s = int(rng.integers(0, m + 1))
            x = random_vector(rng, m)
            oracle = sparse_nonneg_projection_members(tuple(x), s)
            y = oracle[rng.integers(0, len(oracle))].copy()
            scenario = rng.integers(0, 4)
            if scenario == 1 and np.any(y):
                y[rng.choice(np.flatnonzero(y))] += 0.25 * (1 + rng.random())
            elif scenario == 2:
                y = np.zeros(m)
                keep = list(rng.choice(m, size=s, replace=False))
                y[keep] = np.maximum(x[keep], 0.0)
            elif scenario == 3:
                y = np.zeros(m)
                y[list(rng.choice(m, size=s, replace=False))] = rng.integers(0, 3, size=s)
            got = vs.inverse_projection_contains(y, x, s)
            assert got == member_of(y, oracle), (x, y, s)
            outcomes.append(got)
        assert 0 < sum(outcomes) < len(outcomes)


class TestNormalCone:
    def test_branch_reports(self):
        xbar = [1.0, 0.0, 0.0]
        rep = vs.normal_cone_contains(xbar, [0.0, -1.0, -2.0], 1)
        assert rep.is_member and rep.branch == "both"
        rep = vs.normal_cone_contains(xbar, [0.0, 1.0, 1.0], 1)
        assert rep.is_member and rep.branch == "sparsity-branch"
        rep = vs.normal_cone_contains(xbar, [1.0, 0.0, 0.0], 1)
        assert not rep.is_member and rep.branch == "none"
        assert "index 0" in rep.violated_condition

    def test_boundary_sparsity_count(self):
        # m=4, s=1: three nonzeros meet the bound m - s = 3 exactly
        rep = vs.normal_cone_contains([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0], 1)
        assert rep.is_member and rep.branch == "sparsity-branch"

    def test_nonneg_orthant_reduction(self, rng):
        # s = m: the sparsity branch collapses, leaving the orthant cone
        m = 5
        xbar = np.abs(rng.standard_normal(m))
        xbar[rng.random(m) < 0.5] = 0.0
        for _ in range(50):
            y = rng.standard_normal(m)
            rep = vs.normal_cone_contains(xbar, y, m)
            free = xbar == 0.0
            expected = bool(np.all(y[~free] == 0.0) and np.all(y[free] <= 0.0)) or np.all(y == 0.0)
            assert rep.is_member == expected

    def test_maximal_sparsity_reduction(self, rng):
        # at maximal sparsity only complementarity matters
        xbar = np.array([2.0, 0.0, 3.0, 0.0])
        for _ in range(50):
            y = rng.standard_normal(4)
            y[[0, 2]] = 0.0
            assert vs.normal_cone_contains(xbar, y, 2).is_member

    def test_rejects_xbar_outside(self):
        with pytest.raises(ValueError):
            vs.normal_cone_contains([1.0, 1.0], [0.0, 0.0], 1)
        with pytest.raises(ValueError):
            vs.normal_cone_contains([-1.0, 0.0], [0.0, 0.0], 1)


class TestProxNormalCone:
    def test_below_maximal_requires_nonpositive(self):
        xbar = [2.0, 0.0, 0.0]
        assert not vs.prox_normal_cone_contains(xbar, [0.0, 1.0, 0.0], 2)
        assert vs.prox_normal_cone_contains(xbar, [0.0, -1.0, 0.0], 2)

    def test_at_maximal_equals_full_cone(self, rng):
        xbar = np.array([2.0, 0.0, 0.0])
        for _ in range(100):
            y = rng.standard_normal(3)
            if rng.random() < 0.5:
                y[0] = 0.0
            assert vs.prox_normal_cone_contains(xbar, y, 1) == vs.normal_cone_contains(
                xbar, y, 1
            ).is_member

    def test_zero_always_member(self, rng):
        xbar = np.array([1.0, 0.0, 2.0, 0.0])
        for s in (2, 3, 4):
            assert vs.prox_normal_cone_contains(xbar, np.zeros(4), s)

    def test_inclusion_in_limiting_cone(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(1, m + 1))
            xbar = np.zeros(m)
            k = int(rng.integers(0, s + 1))
            xbar[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
            y = rng.standard_normal(m)
            if vs.prox_normal_cone_contains(xbar, y, s):
                assert vs.normal_cone_contains(xbar, y, s).is_member


class TestValidation:
    def test_validate_nonneg_sparse(self):
        x = vs.validate_nonneg_sparse([2, 0, 1], 2, "xbar")
        assert x.dtype == float and np.array_equal(x, [2.0, 0.0, 1.0])
        with pytest.raises(PreconditionError, match="xbar has negative"):
            vs.validate_nonneg_sparse([2.0, -1.0], 2, "xbar")
        with pytest.raises(PreconditionError, match="y has more than s=1"):
            vs.validate_nonneg_sparse([2.0, 1.0], 1, "y")
        with pytest.raises(ValueError, match="out of range"):
            vs.validate_nonneg_sparse([2.0, 1.0], 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        x = [bad, 1.0, 2.0]
        calls = [
            lambda: vs.project_sparse_nonneg(x, 1),
            lambda: vs.project_sparse(x, 1),
            lambda: vs.top_s_nonneg(x, 1),
            lambda: vs.project_nonneg(x),
            lambda: vs.normal_cone_contains([1.0, 0.0, 0.0], [0.0, bad, 1.0], 1),
            lambda: vs.normal_cone_contains(x, [0.0, 0.0, 0.0], 3),
            lambda: vs.decomposition_check([1.0, 0.0, 0.0], x, 1),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="NaN or infinite"):
                call()


class TestLimitingSequences:
    """The constructive sequences behind the normal-cone formula."""

    def test_nonpositive_branch_sequence(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(1, m))
            xbar = np.zeros(m)
            k = int(rng.integers(0, s + 1))
            xbar[rng.choice(m, size=k, replace=False)] = rng.uniform(0.5, 2.0, size=k)
            free = np.flatnonzero(xbar == 0.0)
            y = np.zeros(m)
            y[free] = -np.abs(rng.standard_normal(free.size))
            k_big = 10**4
            xk = xbar + y / k_big
            res = vs.project_sparse_nonneg(xk, s)
            assert res.member_count == 1
            assert np.allclose(res.canonical, xbar, atol=1e-12)
            assert np.max(np.abs(k_big * (xk - res.canonical) - y)) <= 1e-8

    def test_sparsity_branch_sequence(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 7))
            s = int(rng.integers(1, m))
            xbar = np.zeros(m)
            k = int(rng.integers(0, s + 1))
            support = rng.choice(m, size=k, replace=False)
            xbar[support] = rng.uniform(0.5, 2.0, size=k)
            free = np.setdiff1d(np.arange(m), support)
            # index set of size s containing the support; y supported off it
            fill = free[: s - k]
            j0 = np.concatenate([support, fill]).astype(int)
            off = np.setdiff1d(np.arange(m), j0)
            cap = m - s
            y = np.zeros(m)
            take = off[:cap]
            y[take] = rng.standard_normal(take.size)
            w = np.zeros(m)
            w[j0] = 1.0
            k_big = 10**4
            xk = xbar + y / k_big + w / np.sqrt(k_big)
            res = vs.project_sparse_nonneg(xk, s)
            expected = xbar + w / np.sqrt(k_big)
            assert res.member_count == 1
            assert np.max(np.abs(res.canonical - expected)) <= 1e-10
            assert np.max(np.abs(k_big * (xk - res.canonical) - y)) <= 1e-8
