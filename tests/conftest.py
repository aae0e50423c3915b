"""Shared finite-difference oracles, random inputs and pattern strategies."""
import numpy as np
import pytest
from hypothesis import strategies as st

from fishervi.linalg import build_pattern


def central_diff_grad(f, x, h=1e-5):
    """Central differences with per-coordinate step h * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += hi
        xm = x.copy()
        xm[i] -= hi
        g[i] = (f(xp) - f(xm)) / (2.0 * hi)
    return g


def central_diff_hess(grad, x, h=1e-5):
    """Finite differences of an analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    d = x.size
    hess = np.zeros((d, d))
    for i in range(d):
        hi = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += hi
        xm = x.copy()
        xm[i] -= hi
        hess[:, i] = (grad(xp) - grad(xm)) / (2.0 * hi)
    return 0.5 * (hess + hess.T)


def hess_dense(model, theta):
    """The dense Hessian, column j being the product with the j-th unit vector."""
    return np.column_stack([model.hess_log_h(theta, e) for e in np.eye(model.dim)])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_spd(rng, d, jitter=None):
    a = rng.standard_normal((d, d))
    m = a @ a.T
    m += (jitter if jitter is not None else 0.5 * d) * np.eye(d)
    return m


@st.composite
def block_patterns(draw):
    n_blocks = draw(st.integers(1, 6))
    block_dims = draw(st.lists(st.integers(1, 4), min_size=n_blocks, max_size=n_blocks))
    global_dim = draw(st.integers(0, 4))
    markov_order = draw(st.integers(0, n_blocks - 1))
    return build_pattern(n_blocks, block_dims, global_dim, markov_order)
