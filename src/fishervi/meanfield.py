"""Closed-form Gaussian-target analytics.

Everything here is exact linear algebra on a Gaussian target N(nu, Lambda^{-1})
approximated by a Gaussian q: the weighted-divergence value between two
Gaussians, mean-field optima for the KL / weighted-Fisher / score divergences
(the latter via a non-negative quadratic program with KKT verification),
variance orderings, gradient-variance formulas of the reparameterization-trick
estimators, limits of the batch-approximated objectives, and the
natural-gradient convergence recursion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

KKT_TOL = 1e-8


def _as_spd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    return mat


def weighted_fd_gaussians(mu, sigma, nu, lamb, m) -> float:
    """M-weighted Fisher divergence between N(mu, Sigma) and N(nu, Lambda^{-1}).

    Equals tr(Sigma^{-1} M) + tr(Lambda M Lambda Sigma) - 2 tr(M Lambda)
    + (mu - nu)^t Lambda M Lambda (mu - nu); zero iff the Gaussians coincide
    (for positive definite M).
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    sigma = _as_spd(sigma, "Sigma")
    lamb = _as_spd(lamb, "Lambda")
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError("M must be symmetric")
    if np.any(np.linalg.eigvalsh(m) < -1e-10):
        raise ValueError("M must be positive semi-definite")
    sigma_inv = np.linalg.inv(sigma)
    lml = lamb @ m @ lamb
    diff = mu - nu
    return float(
        np.trace(sigma_inv @ m)
        + np.trace(lml @ sigma)
        - 2.0 * np.trace(m @ lamb)
        + diff @ lml @ diff
    )


@dataclass
class MeanFieldSolution:
    """Optimal diagonal Gaussian approximation for one divergence."""

    divergence: str
    sigma_diag: np.ndarray
    mu: np.ndarray | None = None
    # per coordinate: "active" (s_i = 0), "inactive" (s_i > 0), "n/a"
    kkt_cases: list = field(default_factory=list)


def meanfield_kl(lamb) -> MeanFieldSolution:
    """KL optimum under mean-field: Sigma_ii = 1 / Lambda_ii, mean recovered."""
    lamb = _as_spd(lamb, "Lambda")
    d = lamb.shape[0]
    return MeanFieldSolution("KL", 1.0 / np.diag(lamb), kkt_cases=["n/a"] * d)


def meanfield_weighted(lamb, m_diag) -> MeanFieldSolution:
    """Mean-field optimum for a diagonal weight matrix M independent of Sigma.

    Sigma_ii = sqrt(M_ii / sum_j M_jj Lambda_ij^2); M = I gives the Fisher
    divergence optimum 1 / sqrt(sum_j Lambda_ij^2).
    """
    lamb = _as_spd(lamb, "Lambda")
    m_diag = np.asarray(m_diag, dtype=float)
    if m_diag.shape != (lamb.shape[0],):
        raise ValueError("M diagonal has wrong length")
    if np.any(m_diag <= 0):
        raise ValueError("M diagonal must be strictly positive")
    return _meanfield_weighted(lamb, m_diag, "M-weighted")


def _meanfield_weighted(lamb, m_diag, divergence) -> MeanFieldSolution:
    # core of meanfield_weighted / meanfield_fd: lamb and m_diag already checked
    denom = (lamb ** 2) @ m_diag
    sol = np.sqrt(m_diag / denom)
    return MeanFieldSolution(divergence, sol, kkt_cases=["n/a"] * lamb.shape[0])


def meanfield_fd(lamb) -> MeanFieldSolution:
    lamb = _as_spd(lamb, "Lambda")
    return _meanfield_weighted(lamb, np.ones(lamb.shape[0]), "FD")


def nqp_h_matrix(lamb) -> np.ndarray:
    """H with H_ij = Lambda_ij^2 / (Lambda_ii Lambda_jj); SPD when Lambda is."""
    lamb = np.asarray(lamb, dtype=float)
    d = np.diag(lamb)
    return (lamb ** 2) / np.outer(d, d)


def solve_nqp(h) -> np.ndarray:
    """Minimize 1/2 s^t H s - 1^t s subject to s >= 0, for SPD H.

    With H = L L^t the objective is 1/2 ||L^t s - L^{-1} 1||^2 up to a
    constant, so the minimizer is scipy's nnls(L^t, L^{-1} 1): the exact
    active-set solve of Lawson & Hanson (1974).  Coordinates on the bound
    come back as exact zeros.
    """
    from scipy.optimize import nnls
    chol = np.linalg.cholesky(np.asarray(h, dtype=float))
    rhs = solve_triangular(chol, np.ones(chol.shape[0]), lower=True)
    return nnls(chol.T, rhs)[0]


def meanfield_sd_nqp(lamb) -> MeanFieldSolution:
    """Score-divergence mean-field optimum via the non-negative quadratic program.

    Solves for s_i = Sigma_ii Lambda_ii >= 0 and verifies the KKT dichotomy:
    either s_i = 0 with (Hs)_i > 1 (variational collapse) or s_i > 0 with
    (Hs)_i = 1.
    """
    return _meanfield_sd_nqp(_as_spd(lamb, "Lambda"))


def _meanfield_sd_nqp(lamb) -> MeanFieldSolution:
    # core of meanfield_sd_nqp: lamb already checked symmetric positive definite
    h = nqp_h_matrix(lamb)
    s = solve_nqp(h)
    cases = ["active" if si == 0.0 else "inactive" for si in s]
    hs = h @ s
    for i, case in enumerate(cases):
        ok = (hs[i] > 1.0 - KKT_TOL) if case == "active" else (abs(hs[i] - 1.0) <= 10 * KKT_TOL)
        if not ok:
            raise RuntimeError(f"KKT violation at coordinate {i}: case={case}, (Hs)_i={hs[i]}")
    sigma = s / np.diag(lamb)
    return MeanFieldSolution("SD", sigma, kkt_cases=cases)


@dataclass
class VarianceOrderingReport:
    sigma_kl: np.ndarray
    sigma_m: np.ndarray
    sigma_sd: np.ndarray
    m_le_kl: bool
    sd_le_kl: bool
    strict_somewhere: bool
    diagonally_dominant: bool
    sqrt2_bound_holds: bool
    kkt_cases: list


def variance_ordering_check(lamb, m_diag=None) -> VarianceOrderingReport:
    """Variance-ordering report: weighted/score optima never exceed the KL optimum.

    Also evaluates the sqrt(2) bound on Sigma^S_ii / Sigma^F_ii when Lambda is
    diagonally dominant.  Comparisons allow a 1e-10 margin.
    """
    margin = 1e-10
    lamb = _as_spd(lamb, "Lambda")
    d = lamb.shape[0]
    if m_diag is None:
        m_diag = np.ones(d)
    kl = meanfield_kl(lamb).sigma_diag
    mw = meanfield_weighted(lamb, m_diag).sigma_diag
    sd_sol = meanfield_sd_nqp(lamb)
    sd = sd_sol.sigma_diag
    fd = meanfield_fd(lamb).sigma_diag

    m_le_kl = bool(np.all(mw <= kl + margin))
    sd_le_kl = bool(np.all(sd <= kl + margin))
    off = lamb - np.diag(np.diag(lamb))
    has_off = bool(np.any(np.abs(off) > 0))
    strict = bool(np.any(mw < kl - margin) and np.any(sd < kl - margin)) if has_off else True

    row_off = np.sum(np.abs(off), axis=1)
    dd = bool(np.all(row_off <= np.abs(np.diag(lamb))))
    sqrt2 = bool(np.all(sd <= np.sqrt(2.0) * fd + margin)) if dd else True
    return VarianceOrderingReport(kl, mw, sd, m_le_kl, sd_le_kl, strict, dd, sqrt2,
                          sd_sol.kkt_cases)


def coupled_precision_3d(a, b, c) -> np.ndarray:
    return np.array([[1.0, a, b], [a, 1.0, c], [b, c, 1.0]])


def sd_fd_region_sweep(c_values=(0.3, 0.5, 0.7), step: float = 0.02):
    """Classify the (a, b) plane by how many coordinates have Sigma^S <= Sigma^F.

    Returns rows (a, b, c, case) with case in {all, two, one, none, indefinite};
    positive definiteness is gated by a Cholesky attempt.
    """
    grid = np.arange(-1.0, 1.0 + step / 2, step)
    rows = []
    for c in c_values:
        for a in grid:
            for b in grid:
                lamb = coupled_precision_3d(a, b, c)
                try:
                    np.linalg.cholesky(lamb)
                except np.linalg.LinAlgError:
                    rows.append((a, b, c, "indefinite"))
                    continue
                # symmetric by construction and positive definite by the
                # Cholesky above: the cores skip the public functions' checks
                fd = _meanfield_weighted(lamb, np.ones(3), "FD").sigma_diag
                sd = _meanfield_sd_nqp(lamb).sigma_diag
                n_le = int(np.sum(sd <= fd + 1e-10))
                case = {3: "all", 2: "two", 1: "one", 0: "none"}[n_le]
                rows.append((float(a), float(b), float(c), case))
    return rows


@dataclass
class GradVariances:
    """Per-coordinate gradient-estimate variances for diagonal Lambda and T."""

    kl_mu: np.ndarray
    fd_mu: np.ndarray
    sd_mu: np.ndarray
    kl_t: np.ndarray
    fd_t: np.ndarray
    sd_t: np.ndarray


def grad_variance_formulas(lam_diag, t_diag, mu, nu) -> GradVariances:
    """Closed-form single-sample gradient variances (diagonal Lambda, T).

    Var(g_mu^KL) = T^2 - 2 Lam + Lam^2/T^2, with FD and SD inflating by
    4 Lam^2 and 4 Lam^2 / T^4; the T-gradient variances carry the mean error
    (mu - nu).  All six vanish at mu = nu, T^2 = Lam.
    """
    lam = np.asarray(lam_diag, dtype=float)
    t = np.asarray(t_diag, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not (lam.shape == t.shape == mu.shape == nu.shape):
        raise ValueError("all inputs must share one length")
    if np.any(lam <= 0) or np.any(t <= 0):
        raise ValueError("Lambda and T diagonals must be positive")
    me2 = (mu - nu) ** 2
    kl_mu = t ** 2 - 2.0 * lam + lam ** 2 / t ** 2
    fd_mu = 4.0 * lam ** 2 * kl_mu
    sd_mu = (4.0 * lam ** 2 / t ** 4) * kl_mu
    kl_t = (lam ** 2 * me2 + 2.0 * (t - lam / t) ** 2) / t ** 4
    fd_t = 4.0 * (t ** 2 + lam) ** 2 * kl_t
    sd_t = (4.0 * lam ** 2 / t ** 8) * ((3.0 * lam - t ** 2) ** 2 * me2
                                        + 8.0 * (t - lam / t) ** 2)
    return GradVariances(kl_mu, fd_mu, sd_mu, kl_t, fd_t, sd_t)


@dataclass
class BatchMeanField:
    """Finite-batch mean-field minimizers of the batch objectives.

    sigma_sd always exists for B > 1; sigma_fd requires every diagonal entry of
    C_theta_g to be negative ("variance explosion" otherwise, left as NaN).
    """

    sigma_sd: np.ndarray
    mu_sd: np.ndarray
    sigma_fd: np.ndarray
    mu_fd: np.ndarray
    fd_defined: np.ndarray


def batch_meanfield(theta_bar, g_bar, c_theta_diag, c_g_diag, c_thetag_diag) -> BatchMeanField:
    theta_bar = np.asarray(theta_bar, dtype=float)
    g_bar = np.asarray(g_bar, dtype=float)
    ct = np.asarray(c_theta_diag, dtype=float)
    cg = np.asarray(c_g_diag, dtype=float)
    ctg = np.asarray(c_thetag_diag, dtype=float)
    sigma_sd = np.sqrt(ct / cg)
    mu_sd = theta_bar + g_bar * sigma_sd
    ok = ctg < 0
    sigma_fd = np.where(ok, -ct / np.where(ok, ctg, 1.0), np.nan)
    mu_fd = np.where(ok, theta_bar + g_bar * sigma_fd, np.nan)
    return BatchMeanField(sigma_sd, mu_sd, sigma_fd, mu_fd, ok)


@dataclass
class BatchLimits:
    """Infinite-batch limits of the batch-approximated mean-field optima."""

    sigma_sd: np.ndarray
    mu_sd: np.ndarray
    sigma_fd: np.ndarray
    mu_fd: np.ndarray
    sigma_kl: np.ndarray


def batch_limits(lamb, nu, mu_hat, sigma_hat_diag) -> BatchLimits:
    """Limits as B -> infinity when sampling from N(mu_hat, diag(sigma_hat)).

    Sigma^S_ii -> sqrt(sigma_hat_ii / sum_j sigma_hat_jj Lambda_ij^2),
    Sigma^F_ii -> 1/Lambda_ii (the KL value), and both means gain the
    correction Sigma_ii * [Lambda (nu - mu_hat)]_i.
    """
    lamb = _as_spd(lamb, "Lambda")
    nu = np.asarray(nu, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    sh = np.asarray(sigma_hat_diag, dtype=float)
    if np.any(sh <= 0):
        raise ValueError("sampled variances must be positive")
    corr = lamb @ (nu - mu_hat)
    sigma_sd = np.sqrt(sh / ((lamb ** 2) @ sh))
    sigma_fd = 1.0 / np.diag(lamb)
    lims = BatchLimits(
        sigma_sd=sigma_sd,
        mu_sd=mu_hat + sigma_sd * corr,
        sigma_fd=sigma_fd,
        mu_fd=mu_hat + sigma_fd * corr,
        sigma_kl=sigma_fd.copy(),
    )
    if np.any(lims.sigma_sd > lims.sigma_fd + 1e-12):
        raise AssertionError("limit inequality Sigma^S <= Sigma^F violated")
    return lims


@dataclass
class RecursionTrace:
    """Trajectory of the infinite-batch natural-gradient error recursion."""

    beta: float
    eps_norms: np.ndarray       # ||eps_t||, t = 0..t_max
    delta_norms: np.ndarray     # ||J_t - I||, t = 0..t_max
    eps_bounds: np.ndarray      # delta^t ||eps_0||
    delta_bounds: np.ndarray    # analytic bound on ||Delta_{t+1}||, aligned at t+1
    sandwich_margins: np.ndarray  # min over steps of eig margins K <= J <= H
    xi: float
    delta_rate: float
    final_J: np.ndarray
    final_eps: np.ndarray


def natural_gradient_recursion(j0, eps0, beta: float, t_max: int) -> RecursionTrace:
    """Run J_{t+1} = beta J_t + (1-beta)(J_t^{-1} + eps_t eps_t^t),
    eps_{t+1} = {I - (1-beta) J_{t+1}^{-1}} eps_t, tracking norms and the
    analytic bounds that certify convergence for beta in (1/2, 1).
    """
    if not (0.5 < beta < 1.0):
        raise ValueError("beta must lie in (1/2, 1)")
    j = _as_spd(j0, "J0")
    eps = np.asarray(eps0, dtype=float).copy()
    d = j.shape[0]
    eye = np.eye(d)

    eps_norms = [np.linalg.norm(eps)]
    delta_norms = [np.linalg.norm(j - eye, ord=2)]
    sandwich = []
    j1_inv_taumin = None
    delta1 = None

    for t in range(t_max):
        j_inv = np.linalg.inv(j)
        k_next = beta * j + (1.0 - beta) * j_inv
        j_next = k_next + (1.0 - beta) * np.outer(eps, eps)
        h_next = k_next + (1.0 - beta) * float(eps @ eps) * eye
        try:
            np.linalg.cholesky(j_next)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"J lost positive definiteness at step {t + 1}") from exc
        margin = min(
            float(np.min(np.linalg.eigvalsh(j_next - k_next))),
            float(np.min(np.linalg.eigvalsh(h_next - j_next))),
        )
        sandwich.append(margin)
        j_next_inv = np.linalg.inv(j_next)
        eps = (eye - (1.0 - beta) * j_next_inv) @ eps
        j = j_next
        if t == 0:
            j1_inv_taumin = float(np.min(np.linalg.eigvalsh(j_next_inv)))
            delta1 = np.linalg.norm(j - eye, ord=2)
        eps_norms.append(np.linalg.norm(eps))
        delta_norms.append(np.linalg.norm(j - eye, ord=2))

    eps0_norm = eps_norms[0]
    eps_tilde0 = 0.5 * (eps0_norm ** 2 + np.sqrt(eps0_norm ** 4 + 4.0))
    xi = min(j1_inv_taumin, 1.0 / eps_tilde0)
    delta_rate = 1.0 - (1.0 - beta) * xi

    ts = np.arange(t_max + 1)
    eps_bounds = delta_rate ** ts * eps0_norm
    # bound on ||Delta_{t+1}|| for t >= 1:
    #   beta^t ||Delta_1|| + (1-beta) ||eps_0||^2 delta^2 (delta^{2t} - beta^t)/(delta^2 - beta)
    delta_bounds = np.full(t_max + 1, np.inf)
    if t_max >= 1:
        delta_bounds[1] = delta1
        for t in range(1, t_max):
            d2 = delta_rate ** 2
            if abs(d2 - beta) < 1e-12:
                geo = t * beta ** (t - 1) * d2
            else:
                geo = d2 * (d2 ** t - beta ** t) / (d2 - beta)
            delta_bounds[t + 1] = beta ** t * delta1 + (1.0 - beta) * eps0_norm ** 2 * geo

    return RecursionTrace(
        beta=beta,
        eps_norms=np.asarray(eps_norms),
        delta_norms=np.asarray(delta_norms),
        eps_bounds=eps_bounds,
        delta_bounds=delta_bounds,
        sandwich_margins=np.asarray(sandwich),
        xi=xi,
        delta_rate=delta_rate,
        final_J=j,
        final_eps=eps,
    )
