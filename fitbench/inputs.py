"""Seeded synthetic inputs for the fit benchmark.

Every generator is a pure function of its seed, dataset index and sizes:
the same seed gives byte-identical arrays (and CSV text), another seed gives
different ones.  Nothing is downloaded.  Each generator draws from its own
stream `np.random.default_rng([seed, STREAM, index])`, so the data of one
workload never shifts when another workload's sizes change, and the
datasets of one run (index 0, 1, ...) are independent.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

SV_STREAM, GLMM_STREAM, LOGIT_STREAM, FIT_SEED_STREAM = 11, 12, 13, 14


def sv_returns(seed: int, index: int, n: int, phi: float, sigma: float,
               lam: float) -> np.ndarray:
    """Returns y_t ~ N(0, exp(lam + sigma b_t)) with stationary AR(1) states b_t.

    b_1 ~ N(0, 1/(1-phi^2)), b_t = phi b_{t-1} + e_t, e_t ~ N(0, 1): the
    generative model of `fishervi.SvModel`.  Two normalisations keep the
    ELBO on one scale across seeds; at n=400 without them it moves by tens
    of nats from seed to seed.  The state path is centred and scaled to the
    stationary variance 1/(1-phi^2), which keeps its autocorrelation.  The
    level is then shifted so that the mean of the variances exp(lam +
    sigma b_t) is exp(lam), which moves only lambda.  (Scaling y to unit
    sample variance instead carries the heavy-tailed noise of the sample
    variance into the level.)
    """
    rng = np.random.default_rng([seed, SV_STREAM, index])
    innov = rng.standard_normal(n)
    b = np.empty(n)
    b[0] = innov[0] / np.sqrt(1.0 - phi ** 2)
    for t in range(1, n):
        b[t] = phi * b[t - 1] + innov[t]
    b = (b - b.mean()) / (b.std() * np.sqrt(1.0 - phi ** 2))
    log_var = lam + sigma * b
    log_var -= np.log(np.mean(np.exp(sigma * b)))
    return rng.standard_normal(n) * np.exp(0.5 * log_var)


def glmm_panels(seed: int, index: int, n_subjects: int, n_obs: int, beta, re_sd: float):
    """Bernoulli-logit panels with a random intercept per subject.

    Fixed-effect design per subject: intercept plus len(beta)-1 standard
    normal covariates.  Returns (X_blocks, Z_blocks, y_blocks).
    """
    rng = np.random.default_rng([seed, GLMM_STREAM, index])
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    x_all = rng.standard_normal((n_subjects, n_obs, p - 1))
    b_all = re_sd * rng.standard_normal(n_subjects)
    u_all = rng.random((n_subjects, n_obs))
    x_blocks, z_blocks, y_blocks = [], [], []
    for i in range(n_subjects):
        x = np.column_stack([np.ones(n_obs), x_all[i]])
        y = (u_all[i] < expit(x @ beta + b_all[i])).astype(float)
        x_blocks.append(x)
        z_blocks.append(np.ones((n_obs, 1)))
        y_blocks.append(y)
    return x_blocks, z_blocks, y_blocks


def logistic_pairs(seed: int, index: int, n_pairs: int, n_features: int, coef_sd: float):
    """Logistic rows followed by the same rows with complemented responses.

    The paired complement makes the likelihood an even function of theta,
    so with the symmetric Gaussian prior the posterior is symmetric about
    its unique mode theta = 0 for any design: the Laplace reference is
    exact without an optimizer.  Returns (features (2 n_pairs, n_features),
    y (2 n_pairs,)).
    """
    rng = np.random.default_rng([seed, LOGIT_STREAM, index])
    x = rng.standard_normal((n_pairs, n_features))
    coef = coef_sd * rng.standard_normal(n_features)
    y = (rng.random(n_pairs) < expit(x @ coef)).astype(float)
    return np.vstack([x, x]), np.concatenate([y, 1.0 - y])


def logistic_csv_text(features: np.ndarray, y: np.ndarray) -> str:
    """Header CSV (x1..xk, y) read by `fishervi.datasets.load_csv_design`."""
    k = features.shape[1]
    lines = [",".join([f"x{j + 1}" for j in range(k)] + ["y"])]
    for row, yy in zip(features, y):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(yy))]))
    return "\n".join(lines) + "\n"


def fit_seeds(seed: int, count: int) -> list[int]:
    """Seeds for the SGD fits of one run, separate from the data streams."""
    rng = np.random.default_rng([seed, FIT_SEED_STREAM])
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]
