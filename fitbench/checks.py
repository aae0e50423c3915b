"""Output checks for the fits the benchmark measures.

Each check returns a list of problems; an empty list means the fit passed.
A fit with any problem counts as failed in the benchmark's `failed` count
and makes the run's `correct` false.  The references are independent of
the fitted program: generating values for SV and GLMM, and the exact
Laplace mode (theta = 0, by the paired-complement symmetry) for logistic.
"""
from __future__ import annotations

import math

import numpy as np

# Recovered SV globals must lie this close to the generating values
# (phi = 0.8, sigma = 0.85).  Over 36 datasets (6 seeds) the benchmark's
# window-100 fits gave phi_hat 0.64-0.87 and sigma_hat 0.63-1.22.  The
# diverged init_t_scale=1 fits give phi_hat 0.04-0.10, far outside the phi
# band; their sigma_hat (0.61-0.84) is not, so phi carries that check.
# sigma is a scale, so its band is a ratio.
SV_PHI_TOL = 0.35
SV_SIGMA_RATIO = 2.0
# GLMM fixed effects: |beta_hat - beta| in units of the fitted marginal sd.
GLMM_BETA_Z_TOL = 4.0
# Logistic: max |mu - mode| / Laplace sd, the tolerance of acceptance
# criterion 10 of the test suite.
LOGIT_LAPLACE_SD_TOL = 0.1


def marginal_sd(factor, index) -> np.ndarray:
    """sd of q's coordinates `index`: column norms of T^{-1} e_i."""
    index = np.atleast_1d(index)
    unit = np.zeros((factor.dim, index.size))
    unit[index, np.arange(index.size)] = 1.0
    return np.sqrt(np.sum(factor.solve_lower(unit) ** 2, axis=0))


def check_fit(stop_reason: str, elbo: float) -> list[str]:
    """Checks every fit gets: the plateau rule fired and the ELBO is finite."""
    problems = []
    if stop_reason != "plateau":
        problems.append(f"stop_reason={stop_reason!r}, expected 'plateau'")
    if not math.isfinite(elbo):
        problems.append(f"elbo={elbo!r} is not finite")
    return problems


def sv_globals(mu: np.ndarray, n: int) -> tuple[float, float]:
    """(phi_hat, sigma_hat) = (expit(psi), exp(alpha)) for theta = (b_1..b_n, alpha, lambda, psi)."""
    alpha, psi = np.clip([mu[n], mu[n + 2]], -700.0, 700.0)
    return float(1.0 / (1.0 + np.exp(-psi))), float(np.exp(alpha))


def check_sv(mu: np.ndarray, n: int, phi: float, sigma: float) -> list[str]:
    """phi_hat and sigma_hat near the generating values."""
    phi_hat, sigma_hat = sv_globals(mu, n)
    problems = []
    if not abs(phi_hat - phi) <= SV_PHI_TOL:
        problems.append(f"phi_hat={phi_hat:.4g} vs generating {phi} (tol {SV_PHI_TOL})")
    if not 1.0 / SV_SIGMA_RATIO <= sigma_hat / sigma <= SV_SIGMA_RATIO:
        problems.append(f"sigma_hat={sigma_hat:.4g} vs generating {sigma} "
                        f"(within a factor {SV_SIGMA_RATIO})")
    return problems


def check_glmm(mu: np.ndarray, factor, n_subjects: int, beta) -> list[str]:
    """Fixed effects near the generating beta in units of the fitted sd.

    theta = (b_1..b_n, beta, zeta) with one random intercept per subject.
    """
    beta = np.asarray(beta, dtype=float)
    idx = np.arange(n_subjects, n_subjects + beta.size)
    z = np.abs(mu[idx] - beta) / marginal_sd(factor, idx)
    if not np.all(z <= GLMM_BETA_Z_TOL):
        return [f"beta z-scores {np.round(z, 3).tolist()} exceed {GLMM_BETA_Z_TOL}"]
    return []


def laplace_sd(design: np.ndarray, sigma0_sq: float) -> np.ndarray:
    """Laplace sd at the mode theta = 0, where every logistic weight is 1/4."""
    hess = design.T @ design / 4.0 + np.eye(design.shape[1]) / sigma0_sq
    return np.sqrt(np.diag(np.linalg.inv(hess)))


def laplace_error(mu: np.ndarray, lap_sd: np.ndarray) -> float:
    """max |mu - 0| / Laplace sd."""
    return float(np.max(np.abs(mu) / lap_sd))


def check_logistic(mu: np.ndarray, lap_sd: np.ndarray) -> list[str]:
    """Fitted mean within the criterion-10 tolerance of the mode."""
    err = laplace_error(mu, lap_sd)
    if not err < LOGIT_LAPLACE_SD_TOL:
        return [f"max |mu - mode| / Laplace sd = {err:.4g} >= {LOGIT_LAPLACE_SD_TOL}"]
    return []
