"""Shared finite-difference oracles, random inputs and pattern strategies."""
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from fishervi.linalg import build_pattern

# one profile for the whole suite: no per-example deadline, no example
# database, and a fixed seed, so every run draws the same examples
settings.register_profile("fishervi", deadline=None, database=None, derandomize=True)
settings.load_profile("fishervi")


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


def logistic_sweep_config(tmp_path, rng, max_iter=200):
    """A config with the keys of the benchmark's logistic SDr sweep configs, on
    a 40-row numeric CSV (cells written from Python floats), in tmp_path."""
    x = rng.standard_normal((40, 2))
    y = (x[:, 0] + rng.standard_normal(40) > 0).astype(int)
    with open(tmp_path / "data.csv", "w") as fh:
        fh.write("a,b,y\n" + "".join(f"{a!r},{b!r},{v}\n"
                                     for (a, b), v in zip(x.tolist(), y)))
    cfg = tmp_path / "logit.cfg"
    cfg.write_text("model.kind = logistic\nmodel.data_csv = data.csv\n"
                   "model.response = y\nmodel.sigma0_sq = 100.0\ndivergence = SDr\n"
                   f"optimizer.max_iter = {max_iter}\noptimizer.window = 50\n"
                   "optimizer.adadelta_eps = 1e-07\nseed = 3\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    return cfg


@st.composite
def block_patterns(draw):
    n_blocks = draw(st.integers(1, 6))
    block_dims = draw(st.lists(st.integers(1, 4), min_size=n_blocks, max_size=n_blocks))
    global_dim = draw(st.integers(0, 4))
    markov_order = draw(st.integers(0, n_blocks - 1))
    return build_pattern(n_blocks, block_dims, global_dim, markov_order)
