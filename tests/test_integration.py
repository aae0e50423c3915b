"""End-to-end smoke runs of every optimizer on every structured model kind."""
import numpy as np
import pytest

from conftest import hess_dense
from fishervi.optimizers import FitConfig, VariationalState, fit, step
from fishervi.targets import GlmmModel, SvModel


@pytest.fixture
def glmm(rng):
    n, p, r = 5, 2, 2
    xb = [rng.standard_normal((4, p)) for _ in range(n)]
    zb = [rng.standard_normal((4, r)) * 0.5 for _ in range(n)]
    yb = [rng.poisson(1.5, 4).astype(float) for _ in range(n)]
    return GlmmModel("poisson-log", xb, zb, yb)


@pytest.fixture
def sv(rng):
    return SvModel(rng.standard_normal(12) * 0.8)


class TestStructuredModels:
    def test_alg1_steps_all_divergences(self, glmm, sv, rng):
        for model in (glmm, sv):
            pattern = model.sparsity_hint()
            for div in ("KLD", "FDr", "SDr"):
                state = VariationalState.initial(pattern)
                r = np.random.default_rng(3)
                for _ in range(30):
                    state, _ = step(state, model, div, 1, r)
                assert np.all(np.isfinite(state.mu))
                assert np.all(state.factor.diag > 0)
                dense = state.factor.as_dense()
                mask = np.zeros_like(dense, dtype=bool)
                mask[pattern.rows, pattern.cols] = True
                assert np.all(dense[~mask] == 0.0)

    def test_alg2_steps(self, glmm, sv):
        for model in (glmm, sv):
            state = VariationalState.initial(model.sparsity_hint())
            r = np.random.default_rng(4)
            for _ in range(30):
                state, _ = step(state, model, "SDb", 5, r)
            assert np.all(np.isfinite(state.mu))

    def test_sdb_fit_improves_lower_bound(self, glmm):
        res = fit(glmm, FitConfig(divergence="SDb", seed=2, max_iter=4000,
                                  window=500, batch_size=5))
        assert len(res.lb_trace) >= 2
        assert res.lb_trace[-1] > res.lb_trace[0]

    def test_sv_kld_fit_runs(self, sv):
        # the one-sample bound is very heavy-tailed for volatility models
        # (exponentials of latent states), so compare window medians
        res = fit(sv, FitConfig(divergence="KLD", seed=2, max_iter=12_000,
                                window=1000))
        assert res.rejected_steps == 0
        assert np.median(res.lb_trace[-3:]) > np.median(res.lb_trace[:3])

    def test_glmm_pattern_matches_hessian_support(self, glmm, rng):
        pattern = glmm.sparsity_hint()
        theta = rng.standard_normal(glmm.dim) * 0.2
        hess = hess_dense(glmm, theta)
        allowed = np.zeros_like(hess, dtype=bool)
        allowed[pattern.rows, pattern.cols] = True
        allowed |= allowed.T
        assert np.all(hess[~allowed] == 0.0)
