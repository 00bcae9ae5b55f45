import numpy as np
import pytest
from hypothesis import strategies as st

from sparsecones import vector_sets
from sparsecones.linalg import eig_sym, symmetrize


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


@st.composite
def symmetric_matrices(draw, max_dim=8, min_dim=1):
    """Random float symmetric matrices, or small integer ones with exactly
    repeated eigenvalues: a diagonal with repeats conjugated by a signed
    permutation."""
    m = draw(st.integers(min_dim, max_dim))
    if draw(st.booleans()):
        entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        a = np.array(draw(st.lists(entries, min_size=m * m, max_size=m * m)))
        return a.reshape(m, m) + a.reshape(m, m).T
    d = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    p = np.eye(m)[draw(st.permutations(range(m)))] * signs
    return p @ np.diag(d) @ p.T


def psd_low_rank_lift(x, s):
    """The PSD rank-``s`` projection as the spectral lift of the vector
    routine: the normal-form decomposition, ``top_s_nonneg`` on its spectrum,
    reassembled with the same eigenvectors."""
    dec = eig_sym(x)
    lam = vector_sets.top_s_nonneg(dec.lam, s)
    return symmetrize((dec.u.T * lam) @ dec.u)
