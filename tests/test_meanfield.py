import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import random_spd
from fishervi.meanfield import (
    BatchLimits,
    batch_limits,
    batch_meanfield,
    coupled_precision_3d,
    sd_fd_region_sweep,
    grad_variance_formulas,
    meanfield_fd,
    meanfield_kl,
    meanfield_sd_nqp,
    meanfield_weighted,
    nqp_h_matrix,
    solve_nqp,
    variance_ordering_check,
    natural_gradient_recursion,
    weighted_fd_gaussians,
)
from oracles import batch_stats_limit_check

# positive-definite points of the default region-sweep grid (step 0.02) at
# which coordinate 0 of coupled_precision_3d(a, b, c) collapses
_COLLAPSING_3D = [
    (float(a), float(b), c)
    for c in (0.3, 0.5, 0.7)
    for a in np.round(np.arange(-1.0, 1.01, 0.02), 2)
    for b in np.round(np.arange(-1.0, 1.01, 0.02), 2)
    if a * a + b * b > 1.0 + c * c + 1e-9
    and 1.0 - a * a - b * b - c * c + 2.0 * a * b * c > 1e-9
]


class TestWeightedDivergence:
    def test_zero_at_equality(self, rng):
        lamb = random_spd(rng, 3)
        sigma = np.linalg.inv(lamb)
        mu = rng.standard_normal(3)
        for m in (np.eye(3), sigma, np.diag(rng.random(3) + 0.1)):
            assert abs(weighted_fd_gaussians(mu, sigma, mu, lamb, m)) < 1e-10

    def test_scalar_hand_value(self):
        # d=1, Lambda=2, Sigma=1, mu=nu, M=1: 1 + 4 - 4 = 1
        v = weighted_fd_gaussians(np.zeros(1), np.eye(1), np.zeros(1),
                                  2.0 * np.eye(1), np.eye(1))
        np.testing.assert_allclose(v, 1.0)

    def test_monte_carlo_oracle_d2(self, rng):
        lamb = random_spd(rng, 2)
        sigma = random_spd(rng, 2)
        mu, nu = rng.standard_normal(2), rng.standard_normal(2)
        m = np.diag(rng.random(2) + 0.5)
        n = 200_000
        chol = np.linalg.cholesky(sigma)
        th = mu + rng.standard_normal((n, 2)) @ chol.T
        diff = -(th - mu) @ np.linalg.inv(sigma) + (th - nu) @ lamb
        vals = np.einsum("ij,jk,ik->i", diff, m, diff)
        mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(n)
        cf = weighted_fd_gaussians(mu, sigma, nu, lamb, m)
        assert abs(cf - mc) < 3 * se

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            weighted_fd_gaussians(np.zeros(2), np.eye(2), np.zeros(2),
                                  np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


class TestMeanFieldSolvers:
    def test_kl_examples(self):
        np.testing.assert_allclose(meanfield_kl(np.eye(3)).sigma_diag, 1.0)
        np.testing.assert_allclose(meanfield_kl(np.diag([2.0, 5.0])).sigma_diag,
                                   [0.5, 0.2])
        np.testing.assert_allclose(meanfield_kl(coupled_precision_3d(0.3, 0.3, 0.3)).sigma_diag,
                                   1.0)

    def test_weighted_reduces_to_kl_in_1d(self, rng):
        for _ in range(5):
            lam = rng.random() * 5 + 0.1
            m = rng.random() * 5 + 0.1
            sol = meanfield_weighted(np.array([[lam]]), np.array([m]))
            np.testing.assert_allclose(sol.sigma_diag, 1.0 / lam)

    def test_fd_hand_value(self):
        lamb = np.array([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(meanfield_fd(lamb).sigma_diag,
                                   1.0 / np.sqrt(1.25))

    def test_weighted_hand_value(self):
        lamb = np.array([[1.0, 0.5], [0.5, 1.0]])
        sol = meanfield_weighted(lamb, np.array([1.0, 4.0]))
        np.testing.assert_allclose(sol.sigma_diag[0], np.sqrt(1.0 / 2.0))

    def test_weighted_against_numerical_minimizer(self, rng):
        # minimize the closed-form divergence value over diagonal Sigma directly
        d = 3
        lamb = random_spd(rng, d)
        m_diag = rng.random(d) + 0.5
        m = np.diag(m_diag)
        nu = np.zeros(d)

        def obj(log_s):
            return weighted_fd_gaussians(nu, np.diag(np.exp(log_s)), nu, lamb, m)

        res = optimize.minimize(obj, np.zeros(d), method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-14,
                                         "maxiter": 5000})
        sol = meanfield_weighted(lamb, m_diag)
        np.testing.assert_allclose(np.exp(res.x), sol.sigma_diag, atol=1e-6)

    def test_nqp_diagonal_recovers_kl(self, rng):
        lamb = np.diag(rng.random(4) + 0.5)
        sol = meanfield_sd_nqp(lamb)
        np.testing.assert_allclose(sol.sigma_diag, meanfield_kl(lamb).sigma_diag,
                                   rtol=1e-10)
        assert sol.kkt_cases == ["inactive"] * 4

    def test_nqp_hand_value(self):
        # H = [[1, .25], [.25, 1]], interior solution H s = 1: s = 0.8
        lamb = np.array([[1.0, 0.5], [0.5, 1.0]])
        sol = meanfield_sd_nqp(lamb)
        np.testing.assert_allclose(sol.sigma_diag, 0.8, rtol=1e-8)

    def test_nqp_collapse_against_grid_oracle(self):
        # a strongly coupled configuration where one coordinate collapses
        lamb = coupled_precision_3d(-0.95, -0.55, 0.3)
        assert np.min(np.linalg.eigvalsh(lamb)) > 0
        sol = meanfield_sd_nqp(lamb)
        assert "active" in sol.kkt_cases
        h = nqp_h_matrix(lamb)
        s = sol.sigma_diag * np.diag(lamb)
        hs = h @ s
        for i, case in enumerate(sol.kkt_cases):
            if case == "active":
                assert s[i] == 0.0 and hs[i] > 1.0
            else:
                assert s[i] > 0.0 and abs(hs[i] - 1.0) <= 1e-7

        # refined lattice search, effective step below 1e-3
        grid = np.linspace(0.0, 2.0, 41)
        pts = np.array(list(itertools.product(grid, grid, grid)))
        step = grid[1] - grid[0]
        for _ in range(3):
            f = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) - pts.sum(axis=1)
            best = pts[f.argmin()]
            axes = [np.clip(np.linspace(v - step, v + step, 41), 0.0, None)
                    for v in best]
            pts = np.array(list(itertools.product(*axes)))
            step = axes[0][1] - axes[0][0]
        f = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) - pts.sum(axis=1)
        best = pts[f.argmin()]
        np.testing.assert_allclose(s, best, atol=2e-3)

    @settings(max_examples=150)
    @given(d=st.integers(2, 30), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_nqp_solver_contract(self, d, data, seed):
        # Lambda = A A^t + jitter I with A of rank k: low rank and small jitter
        # give H entries near 1, where coordinates collapse
        k = data.draw(st.integers(1, d))
        jitter = data.draw(st.floats(1e-4, 10.0))
        a = np.random.default_rng(seed).standard_normal((d, k))
        h = nqp_h_matrix(a @ a.T + jitter * np.eye(d))
        s = solve_nqp(h)
        hs = h @ s
        assert np.all(s >= 0.0)
        assert np.all(s[hs > 1.0 + 1e-12] == 0.0)  # exact zeros where the bound binds
        resid = np.where(s > 0, np.abs(hs - 1.0), np.maximum(0.0, 1.0 - hs))
        assert resid.max() <= 1e-12

    @settings(max_examples=100)
    @given(point=st.sampled_from(_COLLAPSING_3D), perm=st.permutations(range(3)))
    def test_nqp_collapse_closed_form(self, point, perm):
        # with unit diagonal, coordinate 0 collapses iff a^2 + b^2 > 1 + c^2;
        # then s = (0, t, t), t = 1 / (1 + c^2), meets KKT and is the unique optimum
        a, b, c = point
        order = list(perm)
        lamb = coupled_precision_3d(a, b, c)[np.ix_(order, order)]
        h = nqp_h_matrix(lamb)
        s = solve_nqp(h)
        expect = np.array([0.0, 1.0, 1.0])[order] / (1.0 + c * c)
        assert s[order.index(0)] == 0.0
        np.testing.assert_allclose(s, expect, rtol=0, atol=1e-14)
        resid = np.where(s > 0, np.abs(h @ s - 1.0), np.maximum(0.0, 1.0 - h @ s))
        assert resid.max() <= 1e-12
        cases = meanfield_sd_nqp(lamb).kkt_cases
        assert cases == ["active" if i == 0 else "inactive" for i in order]


class TestVarianceOrdering:
    def test_diagonal_equalities(self, rng):
        lamb = np.diag(rng.random(4) + 0.5)
        rep = variance_ordering_check(lamb)
        np.testing.assert_allclose(rep.sigma_m, rep.sigma_kl)
        np.testing.assert_allclose(rep.sigma_sd, rep.sigma_kl, rtol=1e-9)

    def test_random_orderings(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 9))
            lamb = random_spd(rng, d, jitter=0.6 * d)
            rep = variance_ordering_check(lamb, rng.random(d) + 0.3)
            assert rep.m_le_kl and rep.sd_le_kl
            assert rep.strict_somewhere
            assert rep.sqrt2_bound_holds

    def test_sd_fd_row_bound(self, rng):
        # Sigma^S_ii <= Sigma^F_ii * sqrt(sum_j Lambda_ij^2) / Lambda_ii
        for _ in range(20):
            d = int(rng.integers(2, 7))
            lamb = random_spd(rng, d, jitter=0.7 * d)
            sd = meanfield_sd_nqp(lamb).sigma_diag
            fd = meanfield_fd(lamb).sigma_diag
            bound = fd * np.sqrt(np.sum(lamb ** 2, axis=1)) / np.diag(lamb)
            assert np.all(sd <= bound + 1e-10)

    def test_sd_fd_region_sweep(self):
        rows = sd_fd_region_sweep(c_values=(0.3,), step=0.1)
        cases = {r[3] for r in rows}
        assert "none" not in cases     # never S > F in every coordinate
        assert {"all", "indefinite"} <= cases
        assert cases & {"two", "one"}  # strong couplings flip some coordinates
        by_ab = {(round(r[0], 3), round(r[1], 3)): r[3] for r in rows}
        assert by_ab[(0.0, 0.0)] == "all"  # weak coupling keeps S below F


class TestGradVarianceFormulas:
    def test_zero_at_convergence(self, rng):
        lam = rng.random(4) + 0.5
        t = np.sqrt(lam)
        mu = rng.standard_normal(4)
        gv = grad_variance_formulas(lam, t, mu, mu)
        for arr in (gv.kl_mu, gv.fd_mu, gv.sd_mu, gv.kl_t, gv.fd_t, gv.sd_t):
            np.testing.assert_allclose(arr, 0.0, atol=1e-12)

    def test_hand_values(self):
        gv = grad_variance_formulas(np.array([2.0]), np.array([1.0]),
                                    np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(gv.kl_mu, 1.0)   # 1 - 4 + 4
        np.testing.assert_allclose(gv.fd_mu, 16.0)  # 4 * 4 * 1
        np.testing.assert_allclose(gv.sd_mu, 16.0)  # (4 * 4 / 1) * 1

    def test_fd_t_inflation_identity(self, rng):
        lam = rng.random(5) + 0.2
        t = rng.random(5) + 0.3
        mu, nu = rng.standard_normal(5), rng.standard_normal(5)
        gv = grad_variance_formulas(lam, t, mu, nu)
        np.testing.assert_allclose(gv.fd_t, 4.0 * (t ** 2 + lam) ** 2 * gv.kl_t,
                                   rtol=1e-12)

    def test_monte_carlo_agreement(self, rng):
        lam, t = np.array([2.0]), np.array([1.0])
        mu, nu = np.array([0.3]), np.array([0.0])
        gv = grad_variance_formulas(lam, t, mu, nu)
        n = 400_000
        z = rng.standard_normal(n)
        a = t[0] - lam[0] / t[0]
        me = mu[0] - nu[0]
        g_kl = a * z - lam[0] * me
        g_t_kl = (lam[0] * me / t[0] ** 2) * z + (-1 / t[0] + lam[0] / t[0] ** 3) * z ** 2
        g_t_sd = (2 * lam[0] ** 2 * me ** 2 / t[0] ** 3
                  + 2 * z * me * (-lam[0] / t[0] ** 2 + 3 * lam[0] ** 2 / t[0] ** 4)
                  + 4 * z ** 2 * (-lam[0] / t[0] ** 3 + lam[0] ** 2 / t[0] ** 5))
        np.testing.assert_allclose(g_kl.var(ddof=1), gv.kl_mu[0], rtol=0.02)
        np.testing.assert_allclose(g_t_kl.var(ddof=1), gv.kl_t[0], rtol=0.02)
        np.testing.assert_allclose(g_t_sd.var(ddof=1), gv.sd_t[0], rtol=0.02)


class TestBatchMeanField:
    def _batch(self, rng, d=3, b=40):
        lamb = random_spd(rng, d)
        nu = rng.standard_normal(d)
        mu_hat = rng.standard_normal(d)
        s_hat = rng.random(d) + 0.5
        th = mu_hat + np.sqrt(s_hat) * rng.standard_normal((b, d))
        g = -(th - nu) @ lamb
        return lamb, nu, th, g

    def test_batch_meanfield_against_numerical_minimizer(self, rng):
        # the diagonal batch objectives separate across coordinates, so the
        # oracle is d independent 2-d minimizations in (mu_i, log Sigma_ii)
        lamb, nu, th, g = self._batch(rng)
        tb, gb = th.mean(axis=0), g.mean(axis=0)
        ct = ((th - tb) ** 2).mean(axis=0)
        cg = ((g - gb) ** 2).mean(axis=0)
        ctg = ((th - tb) * (g - gb)).mean(axis=0)
        sol = batch_meanfield(tb, gb, ct, cg, ctg)
        assert np.all(sol.fd_defined)

        for i in range(nu.size):
            ti, gi = th[:, i], g[:, i]

            def obj_sd(x):
                mu, s = x[0], np.exp(x[1])
                return np.mean(gi ** 2 * s + 2 * gi * (ti - mu) + (ti - mu) ** 2 / s)

            def obj_fd(x):
                mu, s = x[0], np.exp(x[1])
                return np.mean(2 * gi * (ti - mu) / s + (ti - mu) ** 2 / s ** 2)

            for obj, s_exp, mu_exp in ((obj_sd, sol.sigma_sd[i], sol.mu_sd[i]),
                                       (obj_fd, sol.sigma_fd[i], sol.mu_fd[i])):
                res = optimize.minimize(obj, [tb[i], np.log(ct[i])],
                                        method="Nelder-Mead",
                                        options={"xatol": 1e-12, "fatol": 1e-14,
                                                 "maxiter": 10000})
                np.testing.assert_allclose(np.exp(res.x[1]), s_exp, atol=1e-6)
                np.testing.assert_allclose(res.x[0], mu_exp, atol=1e-6)

    def test_batch_stats_hand_example(self):
        from fishervi.optimizers import compute_batch_stats

        th = np.array([[0.0, 2.0]])  # (d=1, B=2)
        g = -th  # target N(0, 1)
        st = compute_batch_stats(th, g)
        np.testing.assert_allclose(st.theta_bar, [1.0])
        np.testing.assert_allclose(st.c_theta, [[1.0]])
        np.testing.assert_allclose(st.g_bar, [-1.0])
        np.testing.assert_allclose(st.c_g, [[1.0]])
        np.testing.assert_allclose(st.c_thetag, [[-1.0]])

    def test_c_thetag_identity_any_batch(self, rng):
        # for a Gaussian target C_theta_g = -C_theta Lambda exactly at any B
        from fishervi.optimizers import compute_batch_stats

        lamb, nu, th, g = self._batch(rng, d=4, b=7)
        st = compute_batch_stats(th.T, g.T)
        np.testing.assert_allclose(st.c_thetag, -st.c_theta @ lamb, atol=1e-12)
        np.testing.assert_allclose(st.c_g, lamb @ st.c_theta @ lamb, atol=1e-12)

    def test_limits_diagonal_mean_recovery(self, rng):
        lamb = np.diag(rng.random(3) + 0.5)
        nu = rng.standard_normal(3)
        lims = batch_limits(lamb, nu, rng.standard_normal(3), rng.random(3) + 0.2)
        np.testing.assert_allclose(lims.mu_fd, nu, atol=1e-12)

    def test_limits_hand_value(self):
        lamb = np.array([[1.0, 0.5], [0.5, 1.0]])
        lims = batch_limits(lamb, np.zeros(2), np.zeros(2), np.ones(2))
        np.testing.assert_allclose(lims.sigma_sd, np.sqrt(1.0 / 1.25))
        np.testing.assert_allclose(lims.sigma_fd, 1.0)
        assert np.all(lims.sigma_sd <= lims.sigma_fd)
        np.testing.assert_allclose(lims.sigma_fd, lims.sigma_kl)

    def test_batch_stats_deviations_shrink(self, rng):
        lamb = random_spd(rng, 3)
        nu = rng.standard_normal(3)
        mu_hat = rng.standard_normal(3)
        s_hat = rng.random(3) + 0.5
        dev_small = batch_stats_limit_check(lamb, nu, mu_hat, s_hat, 2_000, rng)
        dev_big = batch_stats_limit_check(lamb, nu, mu_hat, s_hat, 200_000, rng)
        for key in dev_small:
            assert dev_big[key] < dev_small[key]


class TestRecursion:
    def test_fixed_point(self):
        tr = natural_gradient_recursion(np.eye(3), np.zeros(3), 0.8, 50)
        np.testing.assert_allclose(tr.eps_norms, 0.0, atol=1e-15)
        np.testing.assert_allclose(tr.delta_norms, 0.0, atol=1e-14)

    def test_scalar_hand_step(self):
        # J1 = 0.9*2 + 0.1*(0.5 + 1) = 1.95; eps1 = 1 - 0.1/1.95
        tr = natural_gradient_recursion(np.array([[2.0]]), np.array([1.0]), 0.9, 1)
        np.testing.assert_allclose(tr.final_J, [[1.95]])
        np.testing.assert_allclose(tr.eps_norms[1], 1.0 - 0.1 / 1.95)

    def test_convergence_bounds_sandwich(self, rng):
        for beta in (0.6, 0.8, 0.9):
            d = int(rng.integers(1, 6))
            a = rng.standard_normal((d, d))
            j0 = a @ a.T / d + 0.5 * np.eye(d)
            eps0 = rng.standard_normal(d) * 0.7
            tr = natural_gradient_recursion(j0, eps0, beta, 500)
            assert tr.eps_norms[-1] < 1e-6
            assert tr.delta_norms[-1] < 1e-4
            assert np.all(tr.eps_norms <= tr.eps_bounds + 1e-10)
            assert np.all(tr.delta_norms[1:] <= tr.delta_bounds[1:] + 1e-10)
            assert tr.sandwich_margins.min() > -1e-12

    def test_monotone_error_norm(self, rng):
        tr = natural_gradient_recursion(np.diag([2.0, 0.7]), np.array([0.5, -0.3]), 0.7, 100)
        assert np.all(np.diff(tr.eps_norms) <= 1e-15)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            natural_gradient_recursion(np.eye(2), np.zeros(2), 0.4, 10)
        with pytest.raises(ValueError):
            natural_gradient_recursion(np.eye(2), np.zeros(2), 1.0, 10)
