import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import polygamma

from fishervi.unilab import (
    LogInvGamma,
    QuadratureError,
    SkewNormal,
    StudentT,
    _objective_and_grad,
    accuracy,
    lambert_w0,
    loggamma_closed_forms,
    make_target,
    uni_fit,
    uni_objective,
)
from oracles import loggamma_fd_closed, stationarity_check_t

STUDENT_WINDOWS = {3: (-5.0, 5.0), 5: (-4.5, 4.5), 10: (-4.5, 4.5)}


class TestTargets:
    def test_densities_normalized(self, rng):
        for target, span in ((StudentT(4), 500), (LogInvGamma(3.0, 20.0), 60),
                             (SkewNormal(0.5, 1.2, 2.0), 60)):
            total, _ = integrate.quad(lambda th: math.exp(target.log_pdf(th)),
                                      -span, span, limit=500)
            np.testing.assert_allclose(total, 1.0, atol=1e-7)

    def test_scores_match_logpdf_derivative(self, rng):
        h = 1e-6
        for target in (StudentT(4), LogInvGamma(3.0, 20.0), SkewNormal(0.5, 1.2, 2.0)):
            for th in rng.standard_normal(8) * 2:
                fd = (target.log_pdf(th + h) - target.log_pdf(th - h)) / (2 * h)
                np.testing.assert_allclose(target.score(th), fd, atol=1e-5)
                fd2 = (target.score(th + h) - target.score(th - h)) / (2 * h)
                np.testing.assert_allclose(target.score_deriv(th), fd2, atol=1e-4)

    def test_loggamma_moments(self):
        t = LogInvGamma(4.0, 30.0)
        assert t.mode == pytest.approx(math.log(30.0 / 4.0))
        np.testing.assert_allclose(t.variance, float(polygamma(1, 4.0)))
        mean_quad, _ = integrate.quad(lambda th: th * math.exp(t.log_pdf(th)), -20, 20)
        np.testing.assert_allclose(t.mean, mean_quad, atol=1e-9)

    def test_skew_moments_and_mode(self):
        t = SkewNormal(0.0, 1.0, 2.0)
        mean_quad, _ = integrate.quad(lambda th: th * math.exp(t.log_pdf(th)), -15, 15)
        np.testing.assert_allclose(t.mean, mean_quad, atol=1e-10)
        m = t.mode
        eps = 1e-4
        assert t.log_pdf(m) >= max(t.log_pdf(m - eps), t.log_pdf(m + eps))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogInvGamma(0.4, 1.0)
        with pytest.raises(ValueError):
            SkewNormal(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            make_target("cauchy")


class TestObjectives:
    def test_fd_zero_when_target_is_gaussian(self):
        # skew_normal(0, 1, 0) is N(0, 1); q = p gives zero divergence
        t = SkewNormal(0.0, 1.0, 0.0)
        assert abs(uni_objective(t, "FD", 0.0, 1.0)) < 1e-12
        assert abs(uni_objective(t, "SD", 0.0, 1.0)) < 1e-12
        assert abs(uni_objective(t, "KLD", 0.0, 1.0)) < 1e-10

    def test_loggamma_closed_form_matches_quadrature(self, rng):
        for _ in range(10):
            a1 = 0.6 + rng.random() * 10
            b1 = math.exp(rng.uniform(-1, 3))
            mu = rng.uniform(-2, 2)
            s2 = math.exp(rng.uniform(-3, 0.5))
            t = LogInvGamma(a1, b1)
            quad_val = uni_objective(t, "FD", mu, s2)
            closed = loggamma_fd_closed(a1, b1, mu, s2)
            np.testing.assert_allclose(quad_val, closed, rtol=1e-8)

    def test_sd_equals_sigma_sq_times_fd(self, rng):
        for _ in range(10):
            t = StudentT(3 + rng.random() * 5)
            mu = rng.uniform(-1, 1)
            s2 = math.exp(rng.uniform(-2, 1))
            fd = uni_objective(t, "FD", mu, s2)
            sd = uni_objective(t, "SD", mu, s2)
            np.testing.assert_allclose(sd, s2 * fd, rtol=1e-12)

    def test_quadrature_error_carries_node(self):
        t = LogInvGamma(1.0, 1e6)
        with pytest.raises(QuadratureError, match="node"):
            uni_objective(t, "FD", -700.0, 4.0)

    def test_sigma_positive_required(self):
        with pytest.raises(ValueError):
            uni_objective(StudentT(4), "FD", 0.0, -1.0)

    def test_rule_doubles_while_orders_disagree(self):
        # here the 200-node rule is ~1e-6 off; 400 nodes disagree with it by
        # more than QUAD_AGREE_TOL, so uni_objective goes on to 800 nodes
        t = StudentT(9.840435159562496)
        mu, s2 = -0.08498784700926532, 22.55377989617991

        def integrand(th):
            g = t.score(th) + (th - mu) / s2
            return g * g * math.exp(-0.5 * (th - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)

        ref, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=0, epsrel=1e-13, limit=500)
        fixed, _, _ = _objective_and_grad(t, "FD", mu, math.log(s2))
        assert abs(fixed - ref) > 1e-7 * ref
        np.testing.assert_allclose(uni_objective(t, "FD", mu, s2), ref, rtol=1e-12)


class TestUniFit:
    def test_student_t_table_points(self):
        paper = {3: ((0.529, 0.428, 0.372), (92.18, 93.66, 92.62)),
                 5: ((0.818, 0.728, 0.681), (94.72, 95.82, 95.97)),
                 10: ((0.950, 0.909, 0.889), (97.01, 97.55, 97.73))}
        for nu, (ratios, accs) in paper.items():
            t = StudentT(nu)
            for div, ratio, acc in zip(("KLD", "FD", "SD"), ratios, accs):
                fit = uni_fit(t, div, accuracy_window=STUDENT_WINDOWS[nu])
                assert fit.metrics["var_ratio"] == pytest.approx(ratio, abs=0.01)
                assert 100 * fit.metrics["accuracy"] == pytest.approx(acc, abs=0.15)
                assert fit.grad_norm < 1e-8

    def test_gaussian_target_recovered_exactly(self):
        t = SkewNormal(0.7, 1.3, 0.0)
        for div in ("KLD", "FD", "SD"):
            fit = uni_fit(t, div, with_metrics=False)
            assert fit.mu == pytest.approx(0.7, abs=1e-6)
            assert fit.sigma_sq == pytest.approx(1.3 ** 2, abs=1e-6)

    def test_skew_table_row_1_1(self):
        t = SkewNormal(0.0, 1.0, 1.0)
        paper = {"KLD": (0.001, 0.070, 0.992, 98.27),
                 "FD": (0.003, 0.067, 0.984, 98.31),
                 "SD": (0.004, 0.066, 0.979, 98.32)}
        for div, (mdiff, modediff, ratio, acc) in paper.items():
            fit = uni_fit(t, div)
            assert fit.metrics["mean_diff"] == pytest.approx(mdiff, abs=0.005)
            assert fit.metrics["mode_diff"] == pytest.approx(modediff, abs=0.005)
            assert fit.metrics["var_ratio"] == pytest.approx(ratio, abs=0.01)
            assert 100 * fit.metrics["accuracy"] == pytest.approx(acc, abs=0.2)

    def test_sd_collapse_for_strong_skew(self):
        fit = uni_fit(SkewNormal(0.0, 5.0, 5.0), "SD")
        assert fit.metrics["var_ratio"] < 0.02  # severe variance shrinkage


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        np.testing.assert_allclose(lambert_w0(math.e), 1.0, atol=1e-13)
        np.testing.assert_allclose(lambert_w0(-1.0 / math.e), -1.0, atol=1e-12)

    def test_against_bisection(self):
        # root of w e^w = -0.25 on [-1, 0]; w e^w is increasing there
        lo, hi = -1.0, 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < -0.25:
                lo = mid
            else:
                hi = mid
        np.testing.assert_allclose(lambert_w0(-0.25), 0.5 * (lo + hi), atol=1e-13)

    def test_residuals_across_domain(self, rng):
        for x in np.concatenate([np.linspace(-1 / math.e + 1e-9, 10, 50),
                                 [1e-12, 50.0, 1e4]]):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) < 1e-13 * max(1.0, abs(x))
            assert w >= -1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)


class TestLogGammaClosedForms:
    def test_matches_numerical_fit(self):
        sol = loggamma_closed_forms(3.01, 700.0)
        t = LogInvGamma(3.01, 700.0)
        pairs = {"KLD": (sol.mu_kl, sol.sigma_sq_kl),
                 "FD": (sol.mu_fd, sol.sigma_sq_fd),
                 "SD": (sol.mu_sd, sol.sigma_sq_sd)}
        for div, (mu_c, s2_c) in pairs.items():
            fit = uni_fit(t, div, with_metrics=False)
            assert fit.mu == pytest.approx(mu_c, abs=1e-5)
            assert fit.sigma_sq == pytest.approx(s2_c, abs=1e-5)

    def test_ordering_chain_100_random(self, rng):
        for _ in range(100):
            a1 = 0.5 + float(rng.random()) * 49.5
            b1 = math.exp(float(rng.uniform(-1, 7)))
            s = loggamma_closed_forms(a1, b1)
            assert s.sigma_sq_sd < s.sigma_sq_fd < s.sigma_sq_kl < s.variance
            assert s.mode < s.mu_sd < s.mu_fd < s.mu_kl < s.mean

    def test_fd_sigma_in_0_2(self, rng):
        for _ in range(50):
            a1 = 0.501 + float(rng.random()) * 60
            s = loggamma_closed_forms(a1, 1.0)
            assert 0.0 < s.sigma_sq_fd < 2.0

    def test_kl_sigma_large_a1_limit(self):
        s = loggamma_closed_forms(1e8, 1.0)
        np.testing.assert_allclose(s.sigma_sq_kl * 1e8, 1.0)

    def test_trigamma_exceeds_reciprocal(self):
        x = np.linspace(0.01, 100.0, 500)
        assert np.all(polygamma(1, x) > 1.0 / x)


class TestStationarity:
    def test_univariate_stationary_at_mode(self):
        for nu in (3, 5):
            grads = stationarity_check_t(nu, d=1)
            for div, g in grads.items():
                assert g < 1e-6, (nu, div, g)

    def test_shifted_target_not_stationary(self):
        # gradient at mu = 0 for a skewed target is clearly nonzero
        t = SkewNormal(0.0, 1.0, 3.0)
        for div in ("KLD", "FD", "SD"):
            _, d_mu, _ = _objective_and_grad(t, div, 0.0, 0.0)
            assert abs(d_mu) > 0.01

    def test_multivariate_monte_carlo(self, rng):
        out = stationarity_check_t(4.0, d=3, sigma_sq=0.8, n_samples=60_000, seed=3)
        for div, (est, se) in out.items():
            assert np.all(np.abs(est) <= 3.0 * se + 1e-6), (div, est, se)


class TestAccuracy:
    def test_equal_densities_give_one(self):
        t = SkewNormal(0.0, 1.0, 0.0)
        np.testing.assert_allclose(accuracy(0.0, 1.0, t), 1.0, atol=1e-9)

    def test_disjoint_supports_near_zero(self):
        t = SkewNormal(0.0, 0.05, 0.0)
        assert accuracy(50.0, 0.0025, t) < 1e-6

    def test_student5_kld_accuracy(self):
        fit = uni_fit(StudentT(5), "KLD", accuracy_window=STUDENT_WINDOWS[5])
        assert 100 * fit.metrics["accuracy"] == pytest.approx(94.72, abs=0.15)
