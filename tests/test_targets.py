import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff_grad, central_diff_hess, hess_dense, random_spd
from fishervi.targets import LOG_2PI, GaussianTarget, GlmmModel, LogisticModel, SvModel
from oracles import glmm_hess_reference, sv_hess_reference


def make_models(rng, k):
    """One instance of each model kind with fresh random data."""
    d = 4
    gauss = GaussianTarget(rng.standard_normal(d), random_spd(rng, d))
    X = rng.standard_normal((25, 5))
    y = (rng.random(25) < 0.5).astype(float)
    logistic = LogisticModel(X, y, sigma0_sq=50.0)
    n, p, r = 3, 2, 2
    xb = [rng.standard_normal((4, p)) for _ in range(n)]
    zb = [rng.standard_normal((4, r)) for _ in range(n)]
    if k % 2:
        yb = [rng.poisson(1.5, 4).astype(float) for _ in range(n)]
        glmm = GlmmModel("poisson-log", xb, zb, yb)
    else:
        yb = [(rng.random(4) < 0.5).astype(float) for _ in range(n)]
        glmm = GlmmModel("bernoulli-logit", xb, zb, yb)
    sv = SvModel(rng.standard_normal(6) * 0.8)
    return [gauss, logistic, glmm, sv]


class TestGaussianTarget:
    def test_grad_zero_at_mean(self, rng):
        t = GaussianTarget(rng.standard_normal(3), random_spd(rng, 3))
        np.testing.assert_allclose(t.grad_log_h(t.nu), 0.0, atol=1e-14)

    def test_hessian_is_minus_precision(self, rng):
        lamb = random_spd(rng, 3)
        t = GaussianTarget(np.zeros(3), lamb)
        np.testing.assert_array_equal(hess_dense(t, rng.standard_normal(3)), -lamb)

    def test_log_h_quadratic_contract(self, rng):
        # at nu = 0: log h(theta) - log h(0) = -theta^t Lambda theta / 2
        lamb = random_spd(rng, 4)
        t = GaussianTarget(np.zeros(4), lamb)
        theta = rng.standard_normal(4)
        np.testing.assert_allclose(t.log_h(theta) - t.log_h(np.zeros(4)),
                                   -0.5 * theta @ lamb @ theta, rtol=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            GaussianTarget(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("where", ["nu", "lambda"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_inputs(self, where, bad):
        # a NaN in Lambda read "precision must be symmetric"; one in nu was kept
        nu, lamb = np.zeros(2), np.eye(2)
        (nu if where == "nu" else lamb)[1, ...] = bad
        with pytest.raises(ValueError, match="^mean and precision must be finite$"):
            GaussianTarget(nu, lamb)


class TestPriorVariances:
    @pytest.mark.parametrize("make, name", [
        (lambda s: LogisticModel(np.ones((2, 1)), np.array([0.0, 1.0]), sigma0_sq=s),
         "sigma0_sq"),
        (lambda s: SvModel(np.ones(3), sigma0_sq=s), "sigma0_sq"),
        (lambda s: GlmmModel("bernoulli-logit", [np.ones((2, 1))], [np.ones((2, 1))],
                             [np.array([0.0, 1.0])], sigma_beta_sq=s), "sigma_beta_sq"),
        (lambda s: GlmmModel("poisson-log", [np.ones((2, 1))], [np.ones((2, 1))],
                             [np.array([0.0, 3.0])], sigma_zeta_sq=s), "sigma_zeta_sq"),
    ], ids=["logistic", "sv", "glmm-beta", "glmm-zeta"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_value_not_finite_and_positive(self, make, name, bad):
        # logistic 0 ended in a ZeroDivisionError out of log_h; the others
        # aborted the fit on a non-finite lower bound
        make(2.5)
        with pytest.raises(ValueError) as exc:
            make(bad)
        assert str(exc.value) == f"{name} must be finite and positive, got {float(bad)!r}"


class TestLogisticModel:
    def test_hand_values_at_zero(self):
        # X=[[1]], y=[1], sigma0^2=100: log h(0) = -log 2 - log(200 pi)/2,
        # grad = 0.5, hess = -0.25 - 0.01
        m = LogisticModel(np.array([[1.0]]), np.array([1.0]), 100.0)
        np.testing.assert_allclose(m.log_h(np.zeros(1)),
                                   -math.log(2.0) - 0.5 * math.log(200.0 * math.pi))
        np.testing.assert_allclose(m.grad_log_h(np.zeros(1)), [0.5])
        np.testing.assert_allclose(hess_dense(m, np.zeros(1)), [[-0.26]])

    def test_large_logits_stable(self):
        m = LogisticModel(np.array([[30.0], [-30.0]]), np.array([1.0, 0.0]))
        theta = np.array([20.0])
        assert np.isfinite(m.log_h(theta))
        assert np.all(np.isfinite(m.grad_log_h(theta)))

    def test_sparse_design_matches_dense(self, rng):
        X = rng.standard_normal((20, 4))
        X[rng.random((20, 4)) < 0.5] = 0.0
        y = (rng.random(20) < 0.5).astype(float)
        dense = LogisticModel(X, y)
        sparse = LogisticModel(scipy.sparse.csr_matrix(X), y)
        theta = rng.standard_normal(4)
        np.testing.assert_allclose(sparse.log_h(theta), dense.log_h(theta))
        np.testing.assert_allclose(sparse.grad_log_h(theta), dense.grad_log_h(theta))
        np.testing.assert_allclose(hess_dense(sparse, theta), hess_dense(dense, theta))

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            LogisticModel(np.ones((2, 1)), np.array([0.0, 2.0]))


class TestFiniteDifferenceAgreement:
    def test_all_models_many_draws(self, rng):
        # >= 20 random (theta, data) draws spread over the four model kinds
        checked = 0
        for k in range(6):
            for model in make_models(rng, k):
                theta = rng.standard_normal(model.dim) * 0.4
                g = model.grad_log_h(theta)
                g_fd = central_diff_grad(model.log_h, theta)
                np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-5)
                checked += 1
        assert checked >= 20

    def test_hessians_match_grad_differences(self, rng):
        for k in range(2):
            for model in make_models(rng, k):
                theta = rng.standard_normal(model.dim) * 0.3
                h = hess_dense(model, theta)
                h_fd = central_diff_hess(model.grad_log_h, theta)
                np.testing.assert_allclose(h, h_fd, atol=1e-4)
                np.testing.assert_allclose(h, h.T, atol=1e-12)

    def test_hessian_confined_to_hint_pattern(self, rng):
        for model in make_models(rng, 1)[2:]:  # glmm and sv carry real sparsity
            theta = rng.standard_normal(model.dim) * 0.3
            h = hess_dense(model, theta)
            pat = model.sparsity_hint()
            allowed = np.zeros((model.dim, model.dim), dtype=bool)
            allowed[pat.rows, pat.cols] = True
            allowed |= allowed.T
            assert np.all(h[~allowed] == 0.0)


class TestGlmmStructure:
    def test_beta_zeta_cross_block_zero(self, rng):
        n, p, r = 3, 2, 2
        m = GlmmModel("poisson-log",
                      [rng.standard_normal((4, p)) for _ in range(n)],
                      [rng.standard_normal((4, r)) for _ in range(n)],
                      [rng.poisson(1.0, 4).astype(float) for _ in range(n)])
        theta = rng.standard_normal(m.dim) * 0.3
        h = hess_dense(m, theta)
        nb = n * r
        np.testing.assert_array_equal(h[nb:nb + p, nb + p:], 0.0)

    def test_zeta_b_cross_block_vs_fd(self, rng):
        # poisson, n = 1, r = 1, p = 1 with trivial data
        m = GlmmModel("poisson-log", [np.array([[1.0]])], [np.array([[1.0]])],
                      [np.array([2.0])])
        theta = np.array([0.2, -0.1, 0.3])
        h = hess_dense(m, theta)
        h_fd = central_diff_hess(m.grad_log_h, theta)
        np.testing.assert_allclose(h[2, 0], h_fd[2, 0], atol=1e-6)

    def test_dimension_layout(self, rng):
        n, p, r = 4, 3, 2
        m = GlmmModel("bernoulli-logit",
                      [rng.standard_normal((2, p)) for _ in range(n)],
                      [rng.standard_normal((2, r)) for _ in range(n)],
                      [np.zeros(2) for _ in range(n)])
        assert m.dim == n * r + p + r * (r + 1) // 2


class TestSvStructure:
    def test_psi_lambda_and_psi_alpha_zero(self, rng):
        m = SvModel(rng.standard_normal(7))
        theta = rng.standard_normal(m.dim) * 0.5
        h = hess_dense(m, theta)
        n = m.n
        assert h[n + 2, n + 1] == 0.0  # psi-lambda
        assert h[n + 2, n] == 0.0      # psi-alpha

    def test_latent_offdiagonal_is_phi(self, rng):
        from scipy.special import expit

        m = SvModel(rng.standard_normal(6))
        theta = rng.standard_normal(m.dim) * 0.5
        phi = expit(theta[m.n + 2])
        h = hess_dense(m, theta)
        for i in range(m.n):
            for j in range(m.n):
                if abs(i - j) == 1:
                    np.testing.assert_allclose(h[i, j], phi)
                elif abs(i - j) > 1:
                    assert h[i, j] == 0.0

    def test_n1_hand_substitution(self):
        # n=1, y1=0, theta=0: only the state prior, the data normalization and
        # the global priors survive; written out by scalar substitution
        m = SvModel(np.array([0.0]), sigma0_sq=10.0)
        phi = 1.0 / (1.0 + math.exp(0.0))
        expected = (
            -0.5 * math.log(2 * math.pi)            # y_1 | b_1 with y_1 = 0
            - 0.5 * math.log(2 * math.pi) + 0.5 * math.log(1 - phi ** 2)  # b_1
            - 1.5 * math.log(2 * math.pi * 10.0)    # three global priors
        )
        np.testing.assert_allclose(m.log_h(np.zeros(4)), expected, rtol=1e-12)

    def test_non_finite_reported(self):
        # an overflow comes back as a non-finite value, not as an exception:
        # rejecting it is the fit step's job
        m = SvModel(np.array([1.0, -1.0]))
        theta = np.zeros(5)
        theta[0] = -1.0
        theta[2] = 400.0  # alpha: exp(-lambda - sigma b_1) overflows
        with np.errstate(over="ignore"):
            assert not np.isfinite(m.log_h(theta))


GLMM_SIZES = [4, 1, 0, 6]  # unequal subject sizes and one subject without rows


def glmm_blocks(rng, family, sizes, p=3, r=2):
    xb = [rng.standard_normal((k, p)) for k in sizes]
    zb = [rng.standard_normal((k, r)) for k in sizes]
    if family == "poisson-log":
        yb = [rng.poisson(1.5, k).astype(float) for k in sizes]
    else:
        yb = [(rng.random(k) < 0.5).astype(float) for k in sizes]
    return xb, zb, yb


def batched_model(kind, rng):
    if kind == "gaussian":
        return GaussianTarget(rng.standard_normal(4), random_spd(rng, 4))
    if kind.startswith("logistic"):
        X = rng.standard_normal((30, 5))
        X[rng.random(X.shape) < 0.5] = 0.0
        y = (rng.random(30) < 0.5).astype(float)
        return LogisticModel(scipy.sparse.csr_matrix(X) if kind.endswith("sparse") else X, y)
    if kind.startswith("glmm"):  # r = 2 unless the kind ends in -r<r>
        family = "poisson-log" if "poisson" in kind else "bernoulli-logit"
        r = int(kind.rsplit("-r", 1)[1]) if "-r" in kind else 2
        return GlmmModel(family, *glmm_blocks(rng, family, GLMM_SIZES, r=r))
    return SvModel(rng.standard_normal(int(kind.split("-")[1])) * 0.8)


BATCHED_KINDS = ["gaussian", "logistic-dense", "logistic-sparse", "glmm-bernoulli",
                 "glmm-poisson", "glmm-bernoulli-r1", "glmm-poisson-r3", "sv-1", "sv-2",
                 "sv-50"]


class TestBatchedScore:
    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_columns_match_single_theta(self, kind, rng):
        model = batched_model(kind, rng)
        theta = rng.standard_normal((model.dim, 7)) * 0.4
        g = model.grad_log_h(theta)
        assert g.shape == theta.shape
        single = [model.grad_log_h(theta[:, j]) for j in range(theta.shape[1])]
        assert all(gj.shape == (model.dim,) for gj in single)
        np.testing.assert_allclose(g, np.stack(single, axis=1), rtol=1e-12)
        assert model.grad_log_h(theta[:, :1]).shape == (model.dim, 1)

    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_malformed_batch_rejected(self, kind, rng):
        model = batched_model(kind, rng)
        d = model.dim
        for bad in (np.zeros((d + 1, 3)), np.zeros((d, 3, 1))):
            with pytest.raises(ValueError, match="theta has shape"):
                model.grad_log_h(bad)
        with pytest.raises(ValueError, match="theta has shape"):  # log_h takes a single theta
            model.log_h(np.zeros((d, 3)))
        # only the shape is checked: a NaN makes its own column's score
        # non-finite and leaves the other columns as they are
        theta = rng.standard_normal((d, 3)) * 0.4
        theta[-1, 2] = np.nan
        g = model.grad_log_h(theta)
        assert not np.isfinite(g[:, 2]).all()
        for j in (0, 1):
            np.testing.assert_allclose(g[:, j], model.grad_log_h(theta[:, j]), rtol=1e-12)

    @pytest.mark.parametrize("family", GlmmModel.FAMILIES)
    def test_glmm_subject_without_rows(self, family, rng):
        # a subject without rows adds only its random-effect prior to log h,
        # log|W| - |W^t b|^2 / 2 - r log(2 pi) / 2, and the score agrees
        # with differences of log h
        xb, zb, yb = glmm_blocks(rng, family, GLMM_SIZES)
        empty = GLMM_SIZES.index(0)
        full = GlmmModel(family, xb, zb, yb)
        kept = [i for i in range(len(GLMM_SIZES)) if i != empty]
        reduced = GlmmModel(family, [xb[i] for i in kept], [zb[i] for i in kept],
                            [yb[i] for i in kept])
        r = full.r
        theta = rng.standard_normal(full.dim) * 0.4
        b_empty = theta[empty * r:(empty + 1) * r]
        w, _ = full.w_matrix(theta[-full.n_zeta:])
        prior = (float(np.sum(np.log(np.diag(w)))) - 0.5 * float(np.sum((w.T @ b_empty) ** 2))
                 - 0.5 * r * LOG_2PI)
        theta_reduced = np.delete(theta, np.arange(empty * r, (empty + 1) * r))
        np.testing.assert_allclose(full.log_h(theta), reduced.log_h(theta_reduced) + prior,
                                   rtol=1e-12)
        np.testing.assert_allclose(full.grad_log_h(theta),
                                   central_diff_grad(full.log_h, theta), rtol=1e-5, atol=1e-5)

    def test_bernoulli_response_checked_in_last_block(self, rng):
        xb, zb, yb = glmm_blocks(rng, "bernoulli-logit", GLMM_SIZES)
        yb[-1] = yb[-1].copy()
        yb[-1][-1] = 2.0
        with pytest.raises(ValueError, match="binary"):
            GlmmModel("bernoulli-logit", xb, zb, yb)

    @pytest.mark.parametrize("bad", [-1.0, 1.5, np.inf, np.nan])
    def test_poisson_response_checked_in_last_block(self, rng, bad):
        # y = -1 gave log h = -inf at every theta
        xb, zb, yb = glmm_blocks(rng, "poisson-log", GLMM_SIZES)
        GlmmModel("poisson-log", xb, zb, yb)
        yb[-1] = yb[-1].copy()
        yb[-1][-1] = bad
        with pytest.raises(ValueError, match="poisson responses must be non-negative integers"):
            GlmmModel("poisson-log", xb, zb, yb)


class TestHessianVectorProduct:
    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_matches_directional_difference_of_score(self, kind, rng):
        # H(theta) v = (g(theta + eps v) - g(theta - eps v)) / (2 eps) + O(eps^2)
        model = batched_model(kind, rng)
        theta = rng.standard_normal(model.dim) * 0.4
        eps = 1e-5
        for _ in range(3):
            v = rng.standard_normal(model.dim)
            fd = (model.grad_log_h(theta + eps * v) - model.grad_log_h(theta - eps * v)) / (2 * eps)
            hv = model.hess_log_h(theta, v)
            assert hv.shape == (model.dim,)
            np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-6)

    @settings(max_examples=100)
    @given(kind=st.sampled_from(BATCHED_KINDS), k=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_match_single_products(self, kind, k, seed):
        # column j of the batched product is the product at theta[:, j], v[:, j]
        rng = np.random.default_rng(seed)
        model = batched_model(kind, rng)
        theta = rng.standard_normal((model.dim, k)) * 0.4
        v = rng.standard_normal((model.dim, k))
        hv = model.hess_log_h(theta, v)
        assert hv.shape == theta.shape
        for j in range(k):
            ref = model.hess_log_h(theta[:, j], v[:, j])
            np.testing.assert_allclose(hv[:, j], ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("kind", BATCHED_KINDS)
    def test_direction_shape_checked(self, kind, rng):
        model = batched_model(kind, rng)
        d = model.dim
        theta = rng.standard_normal(d) * 0.4
        for bad in (np.zeros(d + 1), np.zeros((d, 1)), np.zeros((d, 2))):
            with pytest.raises(ValueError, match="v has shape"):
                model.hess_log_h(theta, bad)
        # a batch of theta takes a v of the same width
        for bad in (np.zeros((d, 2)), np.zeros(d)):
            with pytest.raises(ValueError, match="v has shape"):
                model.hess_log_h(np.zeros((d, 3)), bad)
        # only the shape is checked: a non-finite v is left for the fit
        # loop to reject as a step, so no ValueError here
        v = np.zeros(d)
        v[0] = np.nan
        with np.errstate(invalid="ignore"):
            assert model.hess_log_h(theta, v).shape == (d,)

# the hand-derived products of tests/oracles.py; 1 <= r <= 3 for the GLMMs
ORACLE_KINDS = (["sv-1", "sv-2", "sv-3", "sv-7", "sv-50"]
                + [f"glmm-{family}-r{r}" for family in ("bernoulli", "poisson") for r in (1, 2, 3)])

# largest column error of the complex-step product against the oracle,
# max |Hv - Hv_ref| / max |Hv_ref|, measured at 4.8e-15 over 33,000 random
# (model, theta ~ N(0, 0.4^2), v scaled by 10^k, k in [-8, 8]) cases
ORACLE_RTOL = 2e-14


class TestComplexStepProduct:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(ORACLE_KINDS), width=st.integers(0, 4),
           k=st.integers(-8, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_hand_derived_oracle(self, kind, width, k, seed):
        # width 0 is a single theta, shape (dim,)
        rng = np.random.default_rng(seed)
        model = batched_model(kind, rng)
        shape = (model.dim,) if width == 0 else (model.dim, width)
        theta = rng.standard_normal(shape) * 0.4
        v = rng.standard_normal(shape) * 10.0 ** k
        reference = sv_hess_reference if kind.startswith("sv") else glmm_hess_reference
        hv, ref = model.hess_log_h(theta, v), reference(model, theta, v)
        assert hv.shape == shape
        err = np.max(np.abs(hv - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.all(err <= ORACLE_RTOL), err

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_zero_direction_gives_exact_zeros(self, kind, rng):
        model = batched_model(kind, rng)
        theta = rng.standard_normal((model.dim, 3)) * 0.4
        v = rng.standard_normal((model.dim, 3))
        v[:, 1] = 0.0
        hv = model.hess_log_h(theta, v)
        assert np.all(hv[:, 1] == 0.0)
        assert np.all(model.hess_log_h(theta[:, 1], v[:, 1]) == 0.0)
