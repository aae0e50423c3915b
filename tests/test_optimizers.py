import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_patterns, random_spd
from fishervi.linalg import (
    SINGULAR_TOL,
    CholFactor,
    build_dense_pattern,
    build_pattern,
    vech_gather,
)
from fishervi.optimizers import (
    DIVERGENCES,
    AdadeltaState,
    FitAbortedError,
    FitConfig,
    FitResult,
    IllConditionedUpdate,
    VariationalState,
    adadelta_update,
    bam_step,
    bam_update_from_stats,
    compute_batch_stats,
    fit,
    gradient_alg1,
    gradient_alg2,
    gradient_sd_experiment,
    lower_bound,
    sdb_natural_step,
    step,
)
from fishervi.targets import GaussianTarget, GlmmModel, LogisticModel, SvModel
from oracles import bam_objective, batch_objective_direct, batch_objective_trace

# the four causes for which `step` rejects a step, as FitAbortedError names
# the last one
STEP_CAUSES = ("non-finite lower bound", "non-finite gradient estimate",
               "non-finite parameter update", "non-finite Adadelta state")
LAST_REJECTION = "last rejection: (" + "|".join(STEP_CAUSES) + ")$"


def random_state(rng, pattern, t_scale=1.0):
    values = rng.standard_normal(pattern.nnz) * 0.2
    values[pattern.diag_slots] = t_scale * (0.8 + 0.4 * rng.random(pattern.diag_slots.size))
    factor = CholFactor.from_values(pattern, values)
    return rng.standard_normal(pattern.dim) * 0.5, factor


def dense_alg1_reference(mu, factor, target, z):
    """{divergence: (desc_mu, desc_t)} from the dense Algorithm-1 displays, for a
    Gaussian target (Hessian -Lambda) and one draw z."""
    pattern = factor.pattern
    t = factor.as_dense()
    t_inv = np.linalg.inv(t)
    sigma = t_inv.T @ t_inv
    u = t_inv.T @ z
    theta = mu + u
    gh = target.grad_log_h(theta)
    hess = -target.lamb
    g = gh + t @ t.T @ (theta - mu)
    dscale = np.ones(pattern.nnz)
    dscale[pattern.diag_slots] = factor.diag

    def vech(m):
        return m[pattern.rows, pattern.cols]

    # KLD: ascent estimates g_mu = g, g_T = -u v^t with v = T^{-1} g
    v = t_inv @ g
    return {"KLD": (-g, dscale * vech(np.outer(u, v))),
            # FDr: grad_mu = 2 H g; grad_T = 2 vech{g z^t - T^{-t} z g^t H T^{-t}}
            "FDr": (2.0 * hess @ g,
                    2.0 * dscale * vech(np.outer(g, z) - np.outer(u, t_inv @ (hess @ g)))),
            # SDr (two-term supplement display, independent of the
            # transformed-variable route used by the implementation):
            # grad_mu = 2 H Sigma g
            # grad_T = -2 vech{Sigma g gh^t T^{-t} + T^{-t} z g^t Sigma H T^{-t}}
            "SDr": (2.0 * hess @ sigma @ g,
                    -2.0 * dscale * vech(np.outer(sigma @ g, t_inv @ gh)
                                         + np.outer(u, t_inv @ (hess @ (sigma @ g)))))}


def dense_alg2_reference(mu, factor, target, z):
    """{divergence: (desc_mu, desc_t)} from the dense summary-statistic displays."""
    pattern = factor.pattern
    t = factor.as_dense()
    t_inv = np.linalg.inv(t)
    sigma = t_inv.T @ t_inv
    theta = mu[:, None] + t_inv.T @ z
    g = np.stack([target.grad_log_h(theta[:, i]) for i in range(z.shape[1])], axis=1)
    stats = compute_batch_stats(theta, g)
    u = stats.u_mat(mu)
    v = stats.v_mat()
    w = stats.c_thetag - np.outer(mu - stats.theta_bar, stats.g_bar)
    prec = t @ t.T
    g_mu = 2 * prec @ (mu - stats.theta_bar) - 2 * stats.g_bar
    dscale = np.ones(pattern.nnz)
    dscale[pattern.diag_slots] = factor.diag

    def vech(m):
        return m[pattern.rows, pattern.cols]

    return {"SDb": (g_mu, 2 * dscale * vech(u @ t - sigma @ v @ t_inv.T)),
            "FDb": (prec @ g_mu, 2 * dscale * vech((w + w.T + prec @ u + u @ prec) @ t))}


class TestAdadelta:
    def test_zero_gradient_zero_step(self):
        st = AdadeltaState.zeros(4)
        step, st2 = adadelta_update(st, np.zeros(4))
        np.testing.assert_array_equal(step, 0.0)

    def test_step_opposes_gradient(self, rng):
        st = AdadeltaState.zeros(6)
        g = rng.standard_normal(6)
        step, _ = adadelta_update(st, g)
        assert np.all(np.sign(step) == -np.sign(g))

    def test_constant_gradient_fixed_point(self):
        # iterating with unit gradient approaches the RMS-ratio step magnitude
        st = AdadeltaState.zeros(1)
        g = np.ones(1)
        for _ in range(1000):
            step, st = adadelta_update(st, g)
        expected = np.sqrt(st.edx2 + st.eps) / np.sqrt(st.eg2 + st.eps)
        np.testing.assert_allclose(-step, expected, rtol=1e-3)


class TestAlgorithm1:
    def test_zero_gradients_at_truth_with_z_zero(self):
        # Gaussian target, state at (nu, T T^t = Lambda), z = 0: all gradients vanish
        rng = np.random.default_rng(0)
        lamb = random_spd(rng, 4)
        nu = rng.standard_normal(4)
        target = GaussianTarget(nu, lamb)
        pattern = build_dense_pattern(4)
        t_chol = np.linalg.cholesky(lamb)
        factor = CholFactor.from_values(pattern, vech_gather(t_chol, pattern)[0])
        for div in ("KLD", "FDr", "SDr"):
            d_mu, d_t, _ = gradient_alg1(nu, factor, target, div, np.zeros(4))
            np.testing.assert_allclose(d_mu, 0.0, atol=1e-12)
            np.testing.assert_allclose(d_t, 0.0, atol=1e-12)

    def test_scalar_hand_case(self):
        # d=1 Gaussian nu=0, Lambda=1, mu=0, T=1, z=0.5:
        # g = grad log h(0.5) + T z = -0.5 + 0.5 = 0, so FDr g_T = 0
        target = GaussianTarget(np.zeros(1), np.eye(1))
        factor = CholFactor.identity(build_dense_pattern(1))
        d_mu, d_t, theta = gradient_alg1(np.zeros(1), factor, target, "FDr",
                                         np.array([0.5]))
        np.testing.assert_allclose(theta, [0.5])
        np.testing.assert_allclose(d_mu, 0.0, atol=1e-15)
        np.testing.assert_allclose(d_t, 0.0, atol=1e-15)

    def test_dense_oracle_all_divergences(self, rng):
        # evaluate the analytic gradient displays with explicit dense inverses
        d = 5
        lamb = random_spd(rng, d)
        target = GaussianTarget(rng.standard_normal(d), lamb)
        pattern = build_dense_pattern(d)
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal(d)
        for div, (ref_mu, ref_t) in dense_alg1_reference(mu, factor, target, z).items():
            d_mu, d_t, _ = gradient_alg1(mu, factor, target, div, z)
            np.testing.assert_allclose(d_mu, ref_mu, atol=1e-11)
            np.testing.assert_allclose(d_t, ref_t, atol=1e-11)

    @settings(max_examples=150)
    @given(pattern=st.one_of(block_patterns(), st.integers(1, 8).map(build_dense_pattern)),
           divergence=st.sampled_from(["KLD", "FDr", "SDr"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_displays(self, pattern, divergence, seed):
        # the slot algebra and the triangular solves against dense inverses
        # over random patterns
        rng = np.random.default_rng(seed)
        target = GaussianTarget(rng.standard_normal(pattern.dim), random_spd(rng, pattern.dim))
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal(pattern.dim)
        ref_mu, ref_t = dense_alg1_reference(mu, factor, target, z)[divergence]
        d_mu, d_t, _ = gradient_alg1(mu, factor, target, divergence, z)
        for got, ref in ((d_mu, ref_mu), (d_t, ref_t)):  # 1e-10 of the largest entry
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    @settings(max_examples=100)
    @given(pattern=block_patterns(), divergence=st.sampled_from(["KLD", "FDr", "SDr"]),
           logistic=st.booleans(), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_columns_match_one_draw_calls(self, pattern, divergence, logistic, k, seed):
        # z of shape (d, K) gives, column by column, the K one-draw results
        rng = np.random.default_rng(seed)
        d = pattern.dim
        if logistic:
            x = rng.standard_normal((12, d))
            target = LogisticModel(x, (rng.random(12) < 0.5).astype(float))
        else:
            target = GaussianTarget(rng.standard_normal(d), random_spd(rng, d))
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal((d, k))
        batched = gradient_alg1(mu, factor, target, divergence, z)
        for got, shape in zip(batched, ((d, k), (pattern.nnz, k), (d, k))):
            assert got.shape == shape
        for j in range(k):
            for got, ref in zip(batched, gradient_alg1(mu, factor, target, divergence, z[:, j])):
                np.testing.assert_allclose(got[:, j], ref, rtol=1e-12,
                                           atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    def test_one_kld_step_matches_dense_reference(self, rng):
        # full step including Adadelta, replicated with plain dense algebra
        d = 5
        lamb = random_spd(rng, d)
        target = GaussianTarget(rng.standard_normal(d), lamb)
        pattern = build_dense_pattern(d)
        mu, factor = random_state(rng, pattern)
        state = VariationalState(mu.copy(), factor, AdadeltaState.zeros(d + pattern.nnz))
        rng_step = np.random.default_rng(99)
        new, _ = step(state, target, "KLD", 1, rng_step)

        z = np.random.default_rng(99).standard_normal(d)
        t = factor.as_dense()
        t_inv = np.linalg.inv(t)
        u = t_inv.T @ z
        theta = mu + u
        g = target.grad_log_h(theta) + t @ z
        v = t_inv @ g
        dscale = np.ones(pattern.nnz)
        dscale[pattern.diag_slots] = factor.diag
        grad = np.concatenate([-g, dscale * (np.outer(u, v)[pattern.rows, pattern.cols])])
        rho, eps = 0.95, 1e-6
        eg2 = (1 - rho) * grad ** 2
        ad_step = -np.sqrt(eps) / np.sqrt(eg2 + eps) * grad
        np.testing.assert_allclose(new.mu, mu + ad_step[:d], atol=1e-12)
        np.testing.assert_allclose(new.factor.star_values,
                                   factor.star_values + ad_step[d:], atol=1e-12)

    def test_pattern_preservation(self, rng):
        pattern = build_pattern(4, [2, 1, 2, 1], 2, 1)
        target = GaussianTarget(rng.standard_normal(pattern.dim),
                                random_spd(rng, pattern.dim))
        state = VariationalState.initial(pattern)
        rng_step = np.random.default_rng(5)
        for _ in range(50):
            state, _ = step(state, target, "KLD", 1, rng_step)
        dense = state.factor.as_dense()
        mask = np.zeros_like(dense, dtype=bool)
        mask[pattern.rows, pattern.cols] = True
        assert np.all(dense[~mask] == 0.0)


class TestAlgorithm2:
    def test_hand_case_at_truth(self):
        # d=1, target N(0,1), mu=0, T=1, samples {-1, 1}:
        # U=1, V=1, W=-1, so both gradients vanish
        target = GaussianTarget(np.zeros(1), np.eye(1))
        factor = CholFactor.identity(build_dense_pattern(1))
        z = np.array([[-1.0, 1.0]])  # theta = mu + T^{-t} z = z
        for div in ("SDb", "FDb"):
            d_mu, d_t, theta = gradient_alg2(np.zeros(1), factor, target, div, z)
            np.testing.assert_allclose(theta, [[-1.0, 1.0]])
            np.testing.assert_allclose(d_mu, 0.0, atol=1e-14)
            np.testing.assert_allclose(d_t, 0.0, atol=1e-14)

    def test_hand_case_mean_offset(self):
        # same batch with mu = 0.5: g_mu = 2*1*(0.5 - 0) - 0 = 1
        target = GaussianTarget(np.zeros(1), np.eye(1))
        factor = CholFactor.identity(build_dense_pattern(1))
        mu = np.array([0.5])
        z = np.array([[-1.5, 0.5]])  # theta = {-1, 1}
        d_mu, _, theta = gradient_alg2(mu, factor, target, "SDb", z)
        np.testing.assert_allclose(theta, [[-1.0, 1.0]])
        np.testing.assert_allclose(d_mu, [1.0], atol=1e-14)

    def test_zero_gradient_when_q_equals_p(self, rng):
        # with q = p the scores satisfy g_h = -Sigma^{-1}(theta - mu) exactly,
        # so the batch objectives and their gradients vanish for any batch
        d = 4
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        pattern = build_dense_pattern(d)
        factor = CholFactor.from_values(
            pattern, vech_gather(np.linalg.cholesky(lamb), pattern)[0])
        z = rng.standard_normal((d, 6))
        for div in ("FDb", "SDb"):
            d_mu, d_t, theta = gradient_alg2(nu, factor, target, div, z)
            np.testing.assert_allclose(d_mu, 0.0, atol=1e-10)
            np.testing.assert_allclose(d_t, 0.0, atol=1e-10)
            g = np.stack([target.grad_log_h(theta[:, i]) for i in range(6)], axis=1)
            stats = compute_batch_stats(theta, g)
            assert abs(batch_objective_trace(stats, nu, factor, div)) < 1e-10

    def test_dense_summary_gradient_oracle(self, rng):
        # gradients from the summary-statistic displays with dense matrices
        d = 5
        lamb = random_spd(rng, d)
        target = GaussianTarget(rng.standard_normal(d), lamb)
        pattern = build_pattern(5, [1] * 5, 0, 1)
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal((d, 7))
        for div, (ref_mu, ref_t) in dense_alg2_reference(mu, factor, target, z).items():
            d_mu, d_t, _ = gradient_alg2(mu, factor, target, div, z)
            np.testing.assert_allclose(d_mu, ref_mu, atol=1e-10)
            np.testing.assert_allclose(d_t, ref_t, atol=1e-10)

    @settings(max_examples=150)
    @given(pattern=st.one_of(block_patterns(), st.integers(1, 8).map(build_dense_pattern)),
           b=st.integers(2, 6), divergence=st.sampled_from(["FDb", "SDb"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_summary_formulas(self, pattern, b, divergence, seed):
        # the rank-(B+1) slot algebra against dense U, V, W over random patterns
        rng = np.random.default_rng(seed)
        target = GaussianTarget(rng.standard_normal(pattern.dim), random_spd(rng, pattern.dim))
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal((pattern.dim, b))
        ref_mu, ref_t = dense_alg2_reference(mu, factor, target, z)[divergence]
        d_mu, d_t, _ = gradient_alg2(mu, factor, target, divergence, z)
        for got, ref in ((d_mu, ref_mu), (d_t, ref_t)):  # 1e-10 of the largest entry
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    @pytest.mark.parametrize("divergence, products", [
        ("SDb", [("matvec", 1), ("solve_lower", 4), ("solve_upper_transpose", 4),
                 ("solve_upper_transpose", 4)]),
        ("FDb", [("matvec", 1), ("matvec", 4), ("rmatvec", 1), ("rmatvec", 4),
                 ("solve_upper_transpose", 4)]),
    ])
    def test_triangular_products_per_gradient(self, divergence, products, monkeypatch):
        # (method, columns) of every product with T or its inverse, batch B = 4
        calls = []
        for name in ("solve_lower", "solve_upper_transpose", "matvec", "rmatvec"):
            def counted(self, x, _name=name, _raw=getattr(CholFactor, name)):
                calls.append((_name, 1 if np.ndim(x) == 1 else np.shape(x)[1]))
                return _raw(self, x)
            monkeypatch.setattr(CholFactor, name, counted)
        model = SvModel(np.linspace(-1.0, 1.0, 20))
        factor = CholFactor.identity(model.sparsity_hint(), 3.0)
        z = np.random.default_rng(0).standard_normal((model.dim, 4))
        gradient_alg2(np.zeros(model.dim), factor, model, divergence, z)
        assert sorted(calls) == products

    def test_batch_objective_two_routes_agree(self, rng):
        d = 6
        lamb = random_spd(rng, d)
        target = GaussianTarget(rng.standard_normal(d), lamb)
        pattern = build_pattern(3, [2, 2, 2], 0, 1)
        mu, factor = random_state(rng, pattern)
        z = rng.standard_normal((d, 9))
        theta = mu[:, None] + factor.solve_upper_transpose(z)
        g = np.stack([target.grad_log_h(theta[:, i]) for i in range(9)], axis=1)
        stats = compute_batch_stats(theta, g)
        for div in ("FDb", "SDb"):
            trace_form = batch_objective_trace(stats, mu, factor, div)
            direct = batch_objective_direct(theta, g, mu, factor, div)
            np.testing.assert_allclose(trace_form, direct, atol=1e-10, rtol=1e-10)


class TestUnbiasedness:
    def test_mu_gradient_means(self, rng):
        # empirical mean of the mu gradient matches its analytic expectation
        d = 4
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        pattern = build_dense_pattern(d)
        mu, factor = random_state(rng, pattern)
        t = factor.as_dense()
        sigma = np.linalg.inv(t @ t.T)
        expected = {"KLD": lamb @ (mu - nu),
                    "FDr": 2.0 * lamb @ lamb @ (mu - nu),
                    "SDr": 2.0 * lamb @ sigma @ lamb @ (mu - nu)}
        n = 20_000
        zs = rng.standard_normal((n, d))
        for div, mean_true in expected.items():
            samples = gradient_alg1(mu, factor, target, div, zs.T)[0]  # (d, n)
            est = samples.mean(axis=1)
            se = samples.std(axis=1, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(est - mean_true) <= 4.0 * se + 1e-12), div


class TestFit:
    def _target(self, rng, d=5):
        lamb = random_spd(rng, d)
        return GaussianTarget(rng.standard_normal(d), lamb)

    def test_deterministic_replay(self, rng):
        target = self._target(rng)
        cfg = FitConfig(divergence="SDb", seed=7, max_iter=600, window=100,
                        batch_size=3)
        r1 = fit(target, cfg)
        r2 = fit(target, cfg)
        assert r1.to_json() == r2.to_json()
        assert r1.lb_trace == r2.lb_trace

    def test_kld_converges_small_gaussian(self, rng):
        target = self._target(rng)
        cfg = FitConfig(divergence="KLD", seed=3, max_iter=20_000, window=500)
        res = fit(target, cfg)
        assert np.max(np.abs(res.state.mu - target.nu)) < 0.1
        prec = res.state.factor.as_dense() @ res.state.factor.as_dense().T
        assert np.linalg.norm(prec - target.lamb) / np.linalg.norm(target.lamb) < 0.2

    def test_stop_reason_and_trace_shape(self, rng):
        target = self._target(rng)
        for max_iter in (2_000, 2_150):  # second case leaves a partial window
            cfg = FitConfig(divergence="KLD", seed=3, max_iter=max_iter, window=400)
            res = fit(target, cfg)
            assert res.stop_reason in ("plateau", "max_iter")
            assert len(res.lb_trace) == -(-res.iterations // 400)

    def test_json_roundtrip(self, rng):
        target = self._target(rng)
        cfg = FitConfig(divergence="KLD", seed=5, max_iter=300, window=100)
        res = fit(target, cfg)
        doc = json.loads(res.to_json())
        mu, factor = FitResult.factor_from_json(doc)
        np.testing.assert_allclose(mu, res.state.mu)
        np.testing.assert_allclose(factor.values, res.state.factor.values)

    def test_abort_after_consecutive_rejects(self):
        class BrokenModel:
            dim = 2

            def sparsity_hint(self):
                return build_dense_pattern(2)

            def log_h(self, theta):
                raise FloatingPointError("always broken")

            def grad_log_h(self, theta):
                raise FloatingPointError("always broken")

            def hess_log_h(self, theta, v):
                raise FloatingPointError("always broken")

        cfg = FitConfig(divergence="KLD", seed=0, max_iter=200, window=50)
        with pytest.raises(FitAbortedError):
            fit(BrokenModel(), cfg)

    @pytest.mark.parametrize("divergence", ["KLD", "SDb"])
    def test_singular_initial_factor_aborts(self, divergence):
        # T = 1e-305 I is below SINGULAR_TOL: solves compute through to
        # overflowed draws, every step is rejected for its non-finite bound,
        # none ever succeeds, and the fit aborts
        target = GaussianTarget(np.zeros(3), np.eye(3))
        cfg = FitConfig(divergence, seed=0, init_t_scale=1e-305)
        abort = "no step succeeded; last rejection: non-finite lower bound$"
        with pytest.raises(FitAbortedError, match=abort) as info:
            fit(target, cfg)
        assert isinstance(info.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("divergence", ["FDr", "SDr"])
    def test_infinite_score_aborts(self, divergence):
        # a non-finite score reaches the Hessian-vector product as g_eff;
        # every step must end as a rejection in the advance, never as a
        # ValueError from the target
        class InfiniteScore(GaussianTarget):
            def grad_log_h(self, theta):
                return np.full(np.shape(theta), np.inf)

        target = InfiniteScore(np.zeros(2), np.eye(2))
        cfg = FitConfig(divergence, seed=0, max_iter=200, window=50)
        with np.errstate(invalid="ignore"), pytest.raises(FitAbortedError):
            fit(target, cfg)

    @pytest.mark.parametrize("divergence", ["KLD", "SDb"])
    def test_rejected_step_leaves_state(self, divergence):
        # a step whose lower bound is non-finite is rejected before the
        # Adadelta advance: (mu, T) stay at the initial state and each
        # rejected iteration counts once
        class InfiniteLogH(GaussianTarget):
            def log_h(self, theta):
                return np.inf

        target = InfiniteLogH(np.ones(2), 2.0 * np.eye(2))
        cfg = FitConfig(divergence, seed=0, max_iter=20, window=5,
                        batch_size=3 if divergence == "SDb" else None)
        res = fit(target, cfg)
        assert res.rejected_steps == 20
        np.testing.assert_array_equal(res.state.mu, 0.0)
        np.testing.assert_array_equal(res.state.factor.values, [1.0, 0.0, 1.0])
        assert res.iterations == 20

    def test_overflowing_adadelta_state_rejected(self):
        # a score of 1e200 gives a finite gradient whose square overflows
        # E[g^2]; the step is rejected, the state stays, and no warning escapes
        class HugeScore(GaussianTarget):
            def grad_log_h(self, theta):
                return np.full(np.shape(theta), 1e200)

        target = HugeScore(np.zeros(2), np.eye(2))
        cfg = FitConfig("KLD", seed=0, max_iter=20, window=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(target, cfg)
        assert res.rejected_steps == 20
        np.testing.assert_array_equal(res.state.mu, 0.0)
        np.testing.assert_array_equal(res.state.factor.values, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(res.state.adadelta.eg2, 0.0)

    def test_init_mu_length_checked(self):
        target = GaussianTarget(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="init_mu"):
            fit(target, FitConfig("SDb", seed=0, init_mu=np.zeros(1)))

    def test_default_batch_size_from_target(self):
        # fit resolves an unset FDb/SDb batch from the target, else 5, and
        # echoes it; Algorithm 1 resolves none
        logistic = LogisticModel(np.ones((2, 1)), np.array([0.0, 1.0]))
        glmm = GlmmModel("poisson-log", [np.ones((1, 1))], [np.ones((1, 1))], [np.ones(1)])
        sv = SvModel(np.ones(3))
        gauss = GaussianTarget(np.zeros(2), np.eye(2))
        assert not hasattr(gauss, "default_batch_size")

        def echoed(model, divergence, batch_size=None):
            cfg = FitConfig(divergence, seed=0, max_iter=2, window=1, batch_size=batch_size)
            return fit(model, cfg).config_echo["batch_size"]

        assert [echoed(m, "SDb") for m in (logistic, glmm, sv, gauss)] == [3, 5, 10, 5]
        assert echoed(gauss, "FDb") == 5
        assert echoed(sv, "FDb", batch_size=7) == 7  # the config's comes first
        assert echoed(sv, "KLD") is None
        assert echoed(sv, "SDr", batch_size=1) == 1
        cfg = FitConfig("SDb", seed=0, max_iter=2, window=1)
        fit(sv, cfg)
        assert cfg.batch_size is None  # resolved without writing it into the config

    @pytest.mark.parametrize("divergence", ["FDb", "SDb"])
    def test_target_default_batch_held_to_fit_config_rule(self, divergence):
        # a target default of 1 ran Algorithm 2 with B=1 and echoed it,
        # where FitConfig(divergence, batch_size=1) is rejected
        class OneDrawTarget(GaussianTarget):
            default_batch_size = 1

        target = OneDrawTarget(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError) as given:
            FitConfig(divergence, seed=0, batch_size=1)
        with pytest.raises(ValueError) as resolved:
            fit(target, FitConfig(divergence, seed=0, max_iter=2, window=1))
        assert str(resolved.value) == str(given.value)
        assert f"batch_size must be at least 2 for {divergence}" in str(given.value)

    def test_lower_bound_estimate(self, rng):
        # at q = p the one-sample lower bound equals log p(y) = 0 for a
        # normalized Gaussian target, for every draw
        d = 3
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        pattern = build_dense_pattern(d)
        factor = CholFactor.from_values(
            pattern, vech_gather(np.linalg.cholesky(lamb), pattern)[0])
        for _ in range(5):
            theta = nu + factor.solve_upper_transpose(rng.standard_normal(d))
            np.testing.assert_allclose(lower_bound(nu, factor, target, theta),
                                       0.0, atol=1e-10)


class SpoiledTarget(GaussianTarget):
    """N(0, I) whose score and / or log h return `bad` on every `every`-th call."""

    def __init__(self, dim, spoiled, bad, every):
        super().__init__(np.zeros(dim), np.eye(dim))
        self.spoiled, self.bad, self.every = spoiled, bad, every
        self.calls = 0

    def _spoil(self, method, value):
        self.calls += 1
        if method not in self.spoiled or self.calls % self.every:
            return value
        return np.full(np.shape(value), self.bad) if np.ndim(value) else self.bad

    def log_h(self, theta):
        return self._spoil("log_h", super().log_h(theta))

    def grad_log_h(self, theta):
        return self._spoil("score", super().grad_log_h(theta))


class TestFailureSemantics:
    @pytest.mark.parametrize("divergence", DIVERGENCES)
    @settings(max_examples=100)
    @given(init_mu=st.lists(st.floats(-1.7976e308, 1.7976e308), min_size=3, max_size=3),
           init_t_scale=st.floats(math.log(SINGULAR_TOL), math.log(1e300)).map(math.exp),
           spoiled=st.sampled_from([(), ("score",), ("log_h",), ("score", "log_h")]),
           bad=st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300]),
           every=st.integers(1, 5))
    # a finite state whose theta overflows: the targets used to raise
    # ValueError for the non-finite theta, and it escaped `fit`
    @example(init_mu=[1.7976e308] * 3, init_t_scale=1e-304, spoiled=(), bad=np.nan, every=1)
    def test_fit_returns_or_aborts(self, divergence, init_mu, init_t_scale, spoiled, bad,
                                   every):
        # from an adversarial start or target, a fit ends in a FitResult or
        # a FitAbortedError; any other exception or RuntimeWarning fails here
        target = SpoiledTarget(3, spoiled, bad, every)
        cfg = FitConfig(divergence, seed=0, max_iter=80, window=20,
                        init_mu=np.array(init_mu), init_t_scale=init_t_scale)
        try:
            assert isinstance(fit(target, cfg), FitResult)
        except FitAbortedError as exc:
            assert re.search(LAST_REJECTION, str(exc)), str(exc)
            assert str(exc.__cause__) in STEP_CAUSES

    @pytest.mark.parametrize("divergence", ["KLD", "SDb"])
    def test_overflowing_theta_aborts(self, divergence):
        # the example above: every theta, score or bound overflows, so no
        # step succeeds and the fit aborts
        target = GaussianTarget(np.zeros(3), np.eye(3))
        cfg = FitConfig(divergence, seed=0, init_mu=np.full(3, 1.7976e308),
                        init_t_scale=1e-304)
        with pytest.raises(FitAbortedError, match="no step succeeded; " + LAST_REJECTION):
            fit(target, cfg)


class TestFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("divergence", "KL"),
        ("max_iter", 0),
        ("window", 0),
        ("batch_size", 1),
        ("adadelta_rho", 1.0),
        ("adadelta_eps", 0.0),
        ("init_t_scale", np.inf),
        ("init_mu", [0.0, np.nan]),
        ("window", 2.5),
        ("max_iter", 10.5),
        ("seed", 1.5),
        ("batch_size", 2.5),
        ("max_iter", True),
        ("seed", np.float64(3.0)),
        ("seed", -1),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{"divergence": "SDb", "seed": 0, field: value})

    def test_batch_size_ignored_for_algorithm_1(self):
        assert FitConfig("KLD", seed=0, batch_size=1).batch_size == 1

    @pytest.mark.parametrize("divergence", ["KLD", "FDr", "SDr"])
    def test_algorithm_1_rejects_a_batch(self, divergence):
        # Algorithm 1 takes one draw per step; a batch of 4 would be ignored
        with pytest.raises(ValueError, match=f"batch_size must be unset or 1 for {divergence}"):
            FitConfig(divergence, seed=0, batch_size=4)

    def test_numpy_integers_accepted(self):
        cfg = FitConfig("SDb", seed=np.uint32(3), max_iter=np.int64(10),
                        window=np.int32(5), batch_size=np.int64(4))
        assert [type(v) for v in (cfg.seed, cfg.max_iter, cfg.window, cfg.batch_size)] == [int] * 4
        target = GaussianTarget(np.zeros(2), np.eye(2))
        assert json.loads(fit(target, cfg).to_json())["iterations"] == 10


class TestBam:
    def test_grid_oracle_1d(self):
        # fixed two-point batch; the closed-form update must match a refined
        # grid search over (mu, sigma) of the proximal objective
        target = GaussianTarget(np.zeros(1), np.eye(1))
        theta = np.array([[0.5, 1.9]])
        g = np.stack([target.grad_log_h(theta[:, i]) for i in range(2)], axis=1)
        stats = compute_batch_stats(theta, g)
        mu_t, sigma_t, rho = np.array([0.3]), np.array([[0.8]]), 1.7
        mu_n, sig_n = bam_update_from_stats(stats, mu_t, sigma_t, rho)

        mu_grid = np.linspace(-1.0, 2.0, 41)
        s_grid = np.linspace(0.05, 3.0, 41)
        best = (None, None, np.inf)
        for _ in range(5):
            for m in mu_grid:
                for s in s_grid:
                    val = bam_objective(stats, mu_t, sigma_t, rho,
                                        np.array([m]), np.array([[s]]))
                    if val < best[2]:
                        best = (m, s, val)
            dm = mu_grid[1] - mu_grid[0]
            ds = s_grid[1] - s_grid[0]
            mu_grid = np.linspace(best[0] - dm, best[0] + dm, 41)
            s_grid = np.linspace(max(best[1] - ds, 1e-6), best[1] + ds, 41)
        assert abs(mu_n[0] - best[0]) < 1e-6
        assert abs(sig_n[0, 0] - best[1]) < 1e-6

    def test_objective_decreases(self, rng):
        d = 4
        target = GaussianTarget(rng.standard_normal(d), random_spd(rng, d))
        mu_t = rng.standard_normal(d)
        sigma_t = random_spd(rng, d, jitter=1.0)
        chol = np.linalg.cholesky(sigma_t)
        theta = (mu_t[None, :] + rng.standard_normal((30, d)) @ chol.T).T
        g = np.stack([target.grad_log_h(theta[:, i]) for i in range(30)], axis=1)
        stats = compute_batch_stats(theta, g)
        for rho in (0.5, 3.0, 50.0):
            mu_n, sig_n = bam_update_from_stats(stats, mu_t, sigma_t, rho)
            assert (bam_objective(stats, mu_t, sigma_t, rho, mu_n, sig_n)
                    <= bam_objective(stats, mu_t, sigma_t, rho, mu_t, sigma_t) + 1e-9)

    def test_proximal_fixed_point_as_rho_vanishes(self, rng):
        # learning rate B d / t vanishes for large t, so the update collapses
        # onto the current iterate, with error shrinking linearly in rho
        d = 3
        target = GaussianTarget(rng.standard_normal(d), random_spd(rng, d))
        mu_t = rng.standard_normal(d)
        sigma_t = random_spd(rng, d, jitter=1.0)
        diffs = {}
        for t_iter in (10 ** 9, 10 ** 11):
            rng_fixed = np.random.default_rng(11)  # common batch for both t
            mu_n, sig_n = bam_step(mu_t, sigma_t, target, 64, t=t_iter, rng=rng_fixed)
            diffs[t_iter] = max(np.max(np.abs(mu_n - mu_t)),
                                np.max(np.abs(sig_n - sigma_t)))
        assert diffs[10 ** 9] < 0.05
        assert diffs[10 ** 11] < diffs[10 ** 9] / 20.0

    def test_large_batch_statistical_fixed_point(self, rng):
        d = 3
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        sigma = np.linalg.inv(lamb)
        mu_n, sig_n = bam_step(nu, sigma, target, 4000, t=5, rng=rng)
        assert np.linalg.norm(mu_n - nu) < 0.05
        assert np.linalg.norm(sig_n - sigma) / np.linalg.norm(sigma) < 0.1

    def test_ill_conditioned_update_rejected(self, rng):
        target = GaussianTarget(np.zeros(2), np.diag([1e-14, 1e14]))
        with pytest.raises(IllConditionedUpdate):
            bam_step(np.zeros(2), np.eye(2), target, 50, t=1, rng=rng)


class TestNaturalStep:
    def test_matches_recursion_after_change_of_variables(self, rng):
        from fishervi.meanfield import natural_gradient_recursion

        for d in (1, 3):
            lamb = random_spd(rng, d)
            nu = rng.standard_normal(d)
            target = GaussianTarget(nu, lamb)
            sigma0 = random_spd(rng, d, jitter=1.0)
            mu0 = rng.standard_normal(d)
            rho = 0.08
            vals, vecs = np.linalg.eigh(lamb)
            lam_half = (vecs * np.sqrt(vals)) @ vecs.T
            lam_mhalf = np.linalg.inv(lam_half)
            j0 = lam_mhalf @ np.linalg.inv(sigma0) @ lam_mhalf
            eps0 = lam_half @ (mu0 - nu)
            tr = natural_gradient_recursion(j0, eps0, 1.0 - 2.0 * rho, 1)
            mu1, sig1 = sdb_natural_step(mu0, sigma0, target, rho)
            np.testing.assert_allclose(lam_mhalf @ np.linalg.inv(sig1) @ lam_mhalf,
                                       tr.final_J, atol=1e-12)
            np.testing.assert_allclose(lam_half @ (mu1 - nu), tr.final_eps,
                                       atol=1e-12)

    def test_rho_zero_identity(self, rng):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        sigma0 = random_spd(rng, 2, jitter=1.0)
        mu0 = rng.standard_normal(2)
        mu1, sig1 = sdb_natural_step(mu0, sigma0, target, 0.0)
        np.testing.assert_allclose(mu1, mu0, atol=1e-14)
        np.testing.assert_allclose(sig1, sigma0, atol=1e-12)

    def test_finite_batch_near_infinite_batch(self, rng):
        d = 2
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        sigma0 = random_spd(rng, d, jitter=1.0)
        mu0 = rng.standard_normal(d)
        rho = 0.1
        mu_inf, sig_inf = sdb_natural_step(mu0, sigma0, target, rho)
        reps = 12
        mus = np.empty((reps, d))
        sigs = np.empty((reps, d, d))
        for r in range(reps):
            mus[r], sigs[r] = sdb_natural_step(mu0, sigma0, target, rho,
                                               batch_size=20_000, rng=rng)
        se_mu = mus.std(axis=0, ddof=1) / np.sqrt(reps)
        se_sig = sigs.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mus.mean(axis=0) - mu_inf) <= 3.5 * se_mu + 1e-6)
        assert np.all(np.abs(sigs.mean(axis=0) - sig_inf) <= 3.5 * se_sig + 1e-6)

    def test_rho_validation(self, rng):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            sdb_natural_step(np.zeros(2), np.eye(2), target, 0.3)


class TestGradientSpreadExperiment:
    def test_ordering_on_stored_precision(self):
        from fishervi.cli import load_reference_precision

        nu, lamb = load_reference_precision()
        assert lamb.shape == (49, 49)
        spreads = gradient_sd_experiment(lamb, nu, t_scale=10.0, n_draws=300, seed=0)
        med_mu = {k: np.median(v[0]) for k, v in spreads.items()}
        med_t = {k: np.median(v[1]) for k, v in spreads.items()}
        assert med_mu["KLD"] < med_mu["SDr"] < med_mu["FDr"]
        assert med_t["KLD"] < med_t["SDr"] < med_t["FDr"]
