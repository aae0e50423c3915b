"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failure reads as the criterion number plus the violated bound.
"""
import itertools
import math

import numpy as np
import pytest
from scipy.special import expit

from fishervi.linalg import CholFactor, build_dense_pattern, build_pattern, vech_gather
from fishervi.meanfield import (
    batch_limits,
    batch_meanfield,
    coupled_precision_3d,
    grad_variance_formulas,
    meanfield_fd,
    meanfield_kl,
    meanfield_sd_nqp,
    meanfield_weighted,
    nqp_h_matrix,
    natural_gradient_recursion,
    weighted_fd_gaussians,
)
from fishervi.optimizers import (
    FitConfig,
    bam_step,
    compute_batch_stats,
    fit,
    gradient_alg1,
    gradient_sd_experiment,
    sdb_natural_step,
)
from fishervi.targets import GaussianTarget, LogisticModel
from fishervi.unilab import (
    LogInvGamma,
    SkewNormal,
    StudentT,
    loggamma_closed_forms,
    uni_fit,
)


def _spd(rng, d, jitter=None):
    a = rng.standard_normal((d, d))
    return a @ a.T + (jitter if jitter is not None else 0.6 * d) * np.eye(d)


def test_criterion_01_weighted_divergence_monte_carlo():
    """Closed-form weighted divergence vs 1e6-sample Monte Carlo, 3 se.

    The z-statistics over seeds are ~N(0,1) (unbiased closed form); a fixed
    seed keeps this deterministic check inside the 3-se band on every pair.
    """
    rng = np.random.default_rng(103)
    n = 1_000_000
    for pair in range(50):
        d = int(rng.integers(1, 11))
        lamb = _spd(rng, d)
        sigma = _spd(rng, d, jitter=0.8 * d)
        mu = rng.standard_normal(d)
        nu = rng.standard_normal(d)
        m_kind = pair % 3
        if m_kind == 0:
            m = np.eye(d)
        elif m_kind == 1:
            m = sigma
        else:
            m = np.diag(rng.random(d) + 0.2)
        chol = np.linalg.cholesky(sigma)
        theta = mu + rng.standard_normal((n, d)) @ chol.T
        # -(theta - mu) Sigma^-1 + (theta - nu) Lambda as one product plus a constant row
        prec = np.linalg.inv(sigma)
        diff = theta @ (lamb - prec) + (mu @ prec - nu @ lamb)
        vals = np.einsum("ij,ij->i", diff @ m, diff)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n)
        closed = weighted_fd_gaussians(mu, sigma, nu, lamb, m)
        assert abs(closed - mc) <= 3.0 * se, (pair, closed, mc, se)
    print("[PASS] criterion 1: closed-form weighted divergence within 3 MC s.e. on 50 pairs")


def test_criterion_02_variance_orderings():
    """Variance orderings, KKT dichotomy and the sqrt(2) bound, 200 matrices."""
    rng = np.random.default_rng(202)
    margin = 1e-10
    for k in range(200):
        d = int(rng.integers(2, 9))
        lamb = _spd(rng, d)
        m_diag = rng.random(d) + 0.2
        kl = meanfield_kl(lamb).sigma_diag
        mw = meanfield_weighted(lamb, m_diag).sigma_diag
        sd_sol = meanfield_sd_nqp(lamb)
        sd = sd_sol.sigma_diag
        assert np.all(mw <= kl + margin)
        assert np.all(sd <= kl + margin)
        off = lamb - np.diag(np.diag(lamb))
        if np.any(np.abs(off) > 0):
            assert np.any(mw < kl - margin) and np.any(sd < kl - margin)
        # KKT dichotomy
        h = nqp_h_matrix(lamb)
        s = sd * np.diag(lamb)
        hs = h @ s
        for i, case in enumerate(sd_sol.kkt_cases):
            if case == "active":
                assert s[i] == 0.0 and hs[i] > 1.0 - 1e-8
            else:
                assert s[i] > 0.0 and abs(hs[i] - 1.0) <= 1e-7
        # sqrt(2) bound on a diagonally dominant companion matrix
        dd = lamb.copy()
        row_off = np.sum(np.abs(dd), axis=1) - np.abs(np.diag(dd))
        np.fill_diagonal(dd, np.maximum(np.diag(dd), row_off + 0.1))
        sd_dd = meanfield_sd_nqp(dd).sigma_diag
        fd_dd = meanfield_fd(dd).sigma_diag
        assert np.all(sd_dd <= math.sqrt(2.0) * fd_dd + margin)
    print("[PASS] criterion 2: mean-field variance orderings, KKT and sqrt(2) bound on 200 matrices")


def test_criterion_03_student_t_table():
    """Variance ratios within 0.01 and accuracy within 0.15 of the table."""
    windows = {3: (-5.0, 5.0), 5: (-4.5, 4.5), 10: (-4.5, 4.5)}
    table = {3: ((0.529, 0.428, 0.372), (92.18, 93.66, 92.62)),
             5: ((0.818, 0.728, 0.681), (94.72, 95.82, 95.97)),
             10: ((0.950, 0.909, 0.889), (97.01, 97.55, 97.73))}
    for nu, (ratios, accs) in table.items():
        target = StudentT(nu)
        for div, ratio, acc in zip(("KLD", "FD", "SD"), ratios, accs):
            f = uni_fit(target, div, accuracy_window=windows[nu])
            assert abs(f.metrics["var_ratio"] - ratio) <= 0.01, (nu, div)
            assert abs(100 * f.metrics["accuracy"] - acc) <= 0.15, (nu, div)
    print("[PASS] criterion 3: Student-t variance ratios +-0.01 and accuracy +-0.15")


def test_criterion_04_loggamma_closed_forms_and_ordering():
    """Closed forms match optimization to 1e-5; full ordering chain holds."""
    sol = loggamma_closed_forms(3.01, 700.0)
    target = LogInvGamma(3.01, 700.0)
    for div, mu_c, s2_c in (("KLD", sol.mu_kl, sol.sigma_sq_kl),
                            ("FD", sol.mu_fd, sol.sigma_sq_fd),
                            ("SD", sol.mu_sd, sol.sigma_sq_sd)):
        f = uni_fit(target, div, with_metrics=False)
        assert abs(f.mu - mu_c) <= 1e-5 and abs(f.sigma_sq - s2_c) <= 1e-5, div
    rng = np.random.default_rng(404)
    for _ in range(100):
        a1 = 0.5 + float(rng.random()) * 49.5
        b1 = math.exp(float(rng.uniform(-1.0, 7.0)))
        s = loggamma_closed_forms(a1, b1)
        assert s.sigma_sq_sd < s.sigma_sq_fd < s.sigma_sq_kl < s.variance
        assert s.mode < s.mu_sd < s.mu_fd < s.mu_kl < s.mean
    print("[PASS] criterion 4: log-gamma closed forms to 1e-5 and ordering chain x100")


def test_criterion_05_skew_normal_table():
    """(1,1) and (1,2) rows within 0.01/0.2; (5,5) score fit collapses."""
    table = {(1.0, 1.0): {"KLD": (0.001, 0.070, 0.992, 98.27),
                          "FD": (0.003, 0.067, 0.984, 98.31),
                          "SD": (0.004, 0.066, 0.979, 98.32)},
             (1.0, 2.0): {"KLD": (0.006, 0.255, 0.919, 93.77),
                          "FD": (0.031, 0.230, 0.851, 93.81),
                          "SD": (0.064, 0.197, 0.803, 93.79)}}
    for (t, lam), rows in table.items():
        target = SkewNormal(0.0, t, lam)
        for div, (mdiff, modediff, ratio, acc) in rows.items():
            f = uni_fit(target, div)
            assert abs(f.metrics["mean_diff"] - mdiff) <= 0.01, (t, lam, div)
            assert abs(f.metrics["mode_diff"] - modediff) <= 0.01, (t, lam, div)
            assert abs(f.metrics["var_ratio"] - ratio) <= 0.01, (t, lam, div)
            assert abs(100 * f.metrics["accuracy"] - acc) <= 0.2, (t, lam, div)
    f = uni_fit(SkewNormal(0.0, 5.0, 5.0), "SD")
    assert f.metrics["var_ratio"] < 0.02
    print("[PASS] criterion 5: skew-normal table cells and (5,5) SD variance collapse")


def test_criterion_06_gradient_variances_and_spread_ordering():
    """Six closed-form variances within 2% of 1e6-draw MC; spread ordering."""
    rng = np.random.default_rng(606)
    lam, t = 2.0, 1.0
    mu, nu = 0.3, 0.0
    gv = grad_variance_formulas(np.array([lam]), np.array([t]),
                                np.array([mu]), np.array([nu]))
    n = 1_000_000
    z = rng.standard_normal(n)
    a = t - lam / t
    me = mu - nu
    sims = {
        "kl_mu": a * z - lam * me,
        "kl_t": (lam * me / t ** 2) * z + (-1 / t + lam / t ** 3) * z ** 2,
        "sd_t": (2 * lam ** 2 * me ** 2 / t ** 3
                 + 2 * z * me * (-lam / t ** 2 + 3 * lam ** 2 / t ** 4)
                 + 4 * z ** 2 * (-lam / t ** 3 + lam ** 2 / t ** 5)),
    }
    sims["fd_mu"] = 2 * lam * sims["kl_mu"]
    sims["sd_mu"] = (2 * lam / t ** 2) * sims["kl_mu"]
    sims["fd_t"] = 2 * (t ** 2 + lam) * sims["kl_t"]
    closed = {"kl_mu": gv.kl_mu[0], "fd_mu": gv.fd_mu[0], "sd_mu": gv.sd_mu[0],
              "kl_t": gv.kl_t[0], "fd_t": gv.fd_t[0], "sd_t": gv.sd_t[0]}
    for name, sim in sims.items():
        mc = sim.var(ddof=1)
        assert abs(mc - closed[name]) <= 0.02 * closed[name], (name, mc, closed[name])

    # the single-draw simulators above are the Algorithm-1 estimators; verify
    # against the implementation path before trusting them
    target = GaussianTarget(np.array([nu]), np.array([[lam]]))
    factor = CholFactor.from_values(build_dense_pattern(1), np.array([t]))
    for k in range(50):
        zz = rng.standard_normal(1)
        d_mu, d_t, _ = gradient_alg1(np.array([mu]), factor, target, "KLD", zz)
        sim_mu = a * zz[0] - lam * me
        sim_t = (lam * me / t ** 2) * zz[0] + (-1 / t + lam / t ** 3) * zz[0] ** 2
        assert abs(d_mu[0] + sim_mu) < 1e-12 and abs(d_t[0] + sim_t * t) < 1e-12

    from fishervi.cli import load_reference_precision

    nu_ref, lam_ref = load_reference_precision()
    spreads = gradient_sd_experiment(lam_ref, nu_ref, t_scale=10.0,
                                     n_draws=1000, seed=0)
    med_mu = {k: float(np.median(v[0])) for k, v in spreads.items()}
    med_t = {k: float(np.median(v[1])) for k, v in spreads.items()}
    assert med_mu["KLD"] < med_mu["SDr"] < med_mu["FDr"], med_mu
    assert med_t["KLD"] < med_t["SDr"] < med_t["FDr"], med_t
    print("[PASS] criterion 6: variance formulas within 2% and spread ordering "
          f"KLD < SDr < FDr (mu medians {med_mu['KLD']:.2f} < "
          f"{med_mu['SDr']:.2f} < {med_mu['FDr']:.2f})")


def test_criterion_07_recursion_convergence():
    """Error norms below 1e-6/1e-4 in 500 steps; bounds, sandwich, equivalence."""
    rng = np.random.default_rng(707)
    for beta in (0.6, 0.8, 0.9):
        for _ in range(3):
            d = int(rng.integers(1, 6))
            a = rng.standard_normal((d, d))
            j0 = a @ a.T / d + 0.5 * np.eye(d)
            eps0 = rng.standard_normal(d) * 0.8
            tr = natural_gradient_recursion(j0, eps0, beta, 500)
            assert tr.eps_norms[-1] < 1e-6, (beta, tr.eps_norms[-1])
            assert tr.delta_norms[-1] < 1e-4, (beta, tr.delta_norms[-1])
            assert np.all(tr.eps_norms <= tr.eps_bounds + 1e-10)
            assert np.all(tr.delta_norms[1:] <= tr.delta_bounds[1:] + 1e-10)
            assert tr.sandwich_margins.min() > -1e-12

    # one natural-gradient step equals the recursion after the change of
    # variables by Lambda^{1/2}, to 1e-12
    for d in (1, 4):
        lamb = _spd(rng, d)
        nu = rng.standard_normal(d)
        target = GaussianTarget(nu, lamb)
        sigma0 = _spd(rng, d, jitter=1.0)
        mu0 = rng.standard_normal(d)
        rho = 0.07
        vals, vecs = np.linalg.eigh(lamb)
        lam_half = (vecs * np.sqrt(vals)) @ vecs.T
        lam_mhalf = np.linalg.inv(lam_half)
        tr = natural_gradient_recursion(lam_mhalf @ np.linalg.inv(sigma0) @ lam_mhalf,
                            lam_half @ (mu0 - nu), 1.0 - 2.0 * rho, 1)
        mu1, sig1 = sdb_natural_step(mu0, sigma0, target, rho)
        assert np.max(np.abs(lam_mhalf @ np.linalg.inv(sig1) @ lam_mhalf
                             - tr.final_J)) < 1e-12
        assert np.max(np.abs(lam_half @ (mu1 - nu) - tr.final_eps)) < 1e-12
    print("[PASS] criterion 7: recursion convergence, analytic bounds, sandwich, "
          "natural-step equivalence")


def test_criterion_08_batch_limits():
    """Finite-B minimizers match closed forms; 1e6-sample limits within 1%."""
    rng = np.random.default_rng(808)
    d = 4
    lamb = _spd(rng, d)
    nu = rng.standard_normal(d)
    mu_hat = rng.standard_normal(d)
    s_hat = rng.random(d) + 0.5

    # finite-B closed forms against per-coordinate numerical minimization
    theta = mu_hat + np.sqrt(s_hat) * rng.standard_normal((60, d))
    g = -(theta - nu) @ lamb
    tb, gb = theta.mean(axis=0), g.mean(axis=0)
    ct = ((theta - tb) ** 2).mean(axis=0)
    cg = ((g - gb) ** 2).mean(axis=0)
    ctg = ((theta - tb) * (g - gb)).mean(axis=0)
    sol = batch_meanfield(tb, gb, ct, cg, ctg)
    from scipy import optimize

    for i in range(d):
        ti, gi = theta[:, i], g[:, i]

        def obj_sd(x):
            m, s = x[0], math.exp(x[1])
            return float(np.mean(gi ** 2 * s + 2 * gi * (ti - m) + (ti - m) ** 2 / s))

        res = optimize.minimize(obj_sd, [tb[i], math.log(ct[i])],
                                method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14})
        assert abs(math.exp(res.x[1]) - sol.sigma_sd[i]) < 1e-6
        assert abs(res.x[0] - sol.mu_sd[i]) < 1e-6

    # B = 1e6 empirical minimizers against the limit formulas, within 1%
    b = 1_000_000
    theta = mu_hat + np.sqrt(s_hat) * rng.standard_normal((b, d))
    g = -(theta - nu) @ lamb
    tb, gb = theta.mean(axis=0), g.mean(axis=0)
    ct = ((theta - tb) ** 2).mean(axis=0)
    cg = ((g - gb) ** 2).mean(axis=0)
    ctg = ((theta - tb) * (g - gb)).mean(axis=0)
    sol = batch_meanfield(tb, gb, ct, cg, ctg)
    lims = batch_limits(lamb, nu, mu_hat, s_hat)
    assert np.all(np.abs(sol.sigma_sd / lims.sigma_sd - 1.0) < 0.01)
    assert np.all(np.abs(sol.sigma_fd / lims.sigma_fd - 1.0) < 0.01)
    scale = np.sqrt(lims.sigma_kl)
    assert np.all(np.abs(sol.mu_sd - lims.mu_sd) / scale < 0.01)
    assert np.all(np.abs(sol.mu_fd - lims.mu_fd) / scale < 0.01)
    assert np.all(lims.sigma_sd <= lims.sigma_fd + 1e-12)
    np.testing.assert_allclose(lims.sigma_fd, lims.sigma_kl)
    print("[PASS] criterion 8: finite-batch minimizers and 1e6-sample limits within 1%")


def test_criterion_09_end_to_end_gaussian():
    """KLD/SDb/FDb and the proximal baseline recover a banded-precision target."""
    d = 20
    rng = np.random.default_rng(909)
    off = 0.4 * np.ones(d - 1)
    lamb = np.diag(np.full(d, 1.5)) + np.diag(off, 1) + np.diag(off, -1)
    nu = rng.uniform(-1.0, 1.0, d)
    target = GaussianTarget(nu, lamb)
    pattern = build_pattern(d, [1] * d, 0, 1)

    for div, batch in (("KLD", None), ("SDb", 5), ("FDb", 5)):
        res = fit(target, FitConfig(divergence=div, seed=1, max_iter=50_000,
                                    window=1000, batch_size=batch, pattern=pattern))
        mu_err = np.max(np.abs(res.state.mu - nu))
        prec = res.state.factor.as_dense() @ res.state.factor.as_dense().T
        frob = np.linalg.norm(prec - lamb) / np.linalg.norm(lamb)
        assert mu_err < 0.05, (div, mu_err)
        assert frob < 0.1, (div, frob)

    mu_b, sig_b = np.zeros(d), np.eye(d)
    rng_bam = np.random.default_rng(910)
    for t in range(1, 501):
        mu_b, sig_b = bam_step(mu_b, sig_b, target, 100, t, rng_bam)
    assert np.max(np.abs(mu_b - nu)) < 0.05
    prec_b = np.linalg.inv(sig_b)
    assert np.linalg.norm(prec_b - lamb) / np.linalg.norm(lamb) < 0.1

    # unbiasedness of the one-draw gradient estimators at a fixed state
    d5 = 5
    lamb5 = _spd(rng, d5)
    nu5 = rng.standard_normal(d5)
    target5 = GaussianTarget(nu5, lamb5)
    pat5 = build_dense_pattern(d5)
    values = rng.standard_normal(pat5.nnz) * 0.2
    values[pat5.diag_slots] = 0.9 + 0.3 * rng.random(d5)
    factor5 = CholFactor.from_values(pat5, values)
    mu5 = rng.standard_normal(d5) * 0.5
    t_mat = factor5.as_dense()
    sigma5 = np.linalg.inv(t_mat @ t_mat.T)
    expected = {"KLD": lamb5 @ (mu5 - nu5),
                "FDr": 2.0 * lamb5 @ lamb5 @ (mu5 - nu5),
                "SDr": 2.0 * lamb5 @ sigma5 @ lamb5 @ (mu5 - nu5)}
    n = 100_000
    zs = rng.standard_normal((n, d5))
    for div, mean_true in expected.items():
        samples = gradient_alg1(mu5, factor5, target5, div, zs.T)[0]  # (d5, n)
        est = samples.mean(axis=1)
        se = samples.std(axis=1, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(est - mean_true) <= 3.0 * se + 1e-12), div
    print("[PASS] criterion 9: banded-target recovery (3 SGD methods + baseline) "
          "and unbiased gradients")


def test_criterion_10_logistic_smoke():
    """Plateau fires before 60k and fitted means sit within 0.1 Laplace sd.

    The responses are simulated from the model and then paired with their
    complements, which makes the posterior exactly symmetric about its mode;
    the criterion then isolates optimizer accuracy from posterior skew.
    """
    rng = np.random.default_rng(31)
    n_half, d = 100, 10
    x_half = np.column_stack([np.ones(n_half), rng.standard_normal((n_half, d - 1))])
    theta_true = rng.normal(0.0, 0.5, d)
    y_half = (rng.random(n_half) < expit(x_half @ theta_true)).astype(float)
    x_mat = np.vstack([x_half, x_half])
    y = np.concatenate([y_half, 1.0 - y_half])
    model = LogisticModel(x_mat, y, sigma0_sq=100.0)

    theta = np.zeros(d)
    for _ in range(60):
        w = expit(x_mat @ theta)
        hess = (x_mat.T * (w * (1 - w))) @ x_mat + np.eye(d) / 100.0
        step = np.linalg.solve(hess, x_mat.T @ (y - w) - theta / 100.0)
        theta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    lap_mean = theta
    lap_sd = np.sqrt(np.diag(np.linalg.inv(hess)))

    for div, batch in (("KLD", None), ("SDb", 3)):
        res = fit(model, FitConfig(divergence=div, seed=11, max_iter=60_000,
                                   window=1000, batch_size=batch))
        assert res.stop_reason == "plateau", div
        err = np.max(np.abs(res.state.mu - lap_mean) / lap_sd)
        assert err < 0.1, (div, err)
    print("[PASS] criterion 10: logistic smoke test, plateau stop and 0.1-sd "
          "Laplace agreement")


def test_criterion_11_mmd_self_test():
    """Identical samples give the offset M*; U-statistic equals brute force."""
    from fishervi.diagnostics import mmd_mstar, mmd_sq_u

    rng = np.random.default_rng(111)
    x = rng.standard_normal((1000, 4))
    assert abs(mmd_mstar(x, x, 1.3) - (-math.log(1e-5))) < 1e-9

    x_v = rng.standard_normal((50, 3))
    x_g = rng.standard_normal((50, 3)) + 0.25
    h = 1.1
    m = 50
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            total += (math.exp(-np.sum((x_v[i] - x_v[j]) ** 2) / (2 * h * h))
                      + math.exp(-np.sum((x_g[i] - x_g[j]) ** 2) / (2 * h * h))
                      - math.exp(-np.sum((x_v[i] - x_g[j]) ** 2) / (2 * h * h))
                      - math.exp(-np.sum((x_v[j] - x_g[i]) ** 2) / (2 * h * h)))
    brute = total / (m * (m - 1))
    assert abs(mmd_sq_u(x_v, x_g, h) - brute) < 1e-12
    print("[PASS] criterion 11: M* self-test and O(m^2) brute-force agreement")


def test_criterion_12_determinism(tmp_path):
    """Identical config and seed produce a byte-identical result document."""
    rng = np.random.default_rng(121)
    d = 4
    lamb = _spd(rng, d)
    nu = rng.standard_normal(d)
    np.savetxt(tmp_path / "nu.csv", nu, delimiter=",")
    np.savetxt(tmp_path / "lambda.csv", lamb, delimiter=",")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.kind = gaussian\nmodel.nu_csv = nu.csv\n"
                   "model.lambda_csv = lambda.csv\ndivergence = SDb\n"
                   "optimizer.max_iter = 1200\noptimizer.window = 300\n"
                   "optimizer.batch_size = 3\n")
    from fishervi.cli import main

    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fit", "--config", str(cfg), "--seed", "9", "--out", str(out1)]) == 0
    assert main(["fit", "--config", str(cfg), "--seed", "9", "--out", str(out2)]) == 0
    b1 = (out1 / "fitresult.json").read_bytes()
    b2 = (out2 / "fitresult.json").read_bytes()
    assert b1 == b2
    print("[PASS] criterion 12: byte-identical fit result on rerun")
