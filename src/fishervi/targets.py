"""Posterior target models: log h(theta), its gradient and Hessian-vector products.

Each model exposes the unnormalized log posterior log h(theta) =
log p(theta) + log p(y | theta) including all constants (they matter for
lower-bound traces), its gradient, and the Hessian-vector product
`hess_log_h(theta, v)` = H(theta) v, formed directly in O(data) without
assembling H; H is confined to the model's conditional-independence
pattern (`sparsity_hint`).  `log_h` takes one theta of shape (dim,).  The
score and the product are batched: `grad_log_h` takes theta of shape (dim,)
or (dim, B), and `hess_log_h` takes theta and v of one such shape; each
returns that shape, column j belonging to theta[:, j].  The GLMM and SV
products are the complex-step derivative Im g(theta + i h v) / h of their
batched score g, so g must stay analytic in theta: no abs, maximum, where,
comparison or real-only special function of theta.  Shapes are
checked; finiteness is not: a non-finite theta, or one whose value
overflows, gives a non-finite result, which the fit step rejects.
Evaluation is pure; models are immutable after construction.
"""
from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse
from scipy.special import expit, gammaln

from .linalg import SparsityPattern, build_dense_pattern, build_pattern

LOG_2PI = float(np.log(2.0 * np.pi))
_STEP = 1e-20  # the complex step h; Im g(theta + i h v) / h takes no difference


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    return np.logaddexp(0.0, x)


def _expit(x):
    """scipy's expit on real x; the analytic 0.5 + 0.5 tanh(x / 2) on complex x."""
    return 0.5 + 0.5 * np.tanh(0.5 * x) if x.dtype.kind == "c" else expit(x)


def _positive(name, value) -> float:
    """float(value); a ValueError naming `name` unless it is finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@runtime_checkable
class TargetModel(Protocol):
    """What the estimators use of a target.

    `log_h` takes theta of shape (dim,).  `grad_log_h` accepts theta of
    shape (dim,) or (dim, B) and returns the score with the same shape,
    column by column, and `hess_log_h(theta, v)` takes theta and v of one
    such shape and returns H(theta[:, j]) v[:, j] in column j (for GLMM
    and SV, the complex-step derivative of the score).  A wrong shape
    raises ValueError; non-finite values are computed through,
    not checked.  An optional `default_batch_size` attribute is the FDb/SDb
    batch size when the fit config leaves it unset (else `fit` takes 5);
    `fit` checks it as `FitConfig` checks a given batch size.
    """

    dim: int

    def sparsity_hint(self) -> SparsityPattern: ...

    def log_h(self, theta: np.ndarray) -> float: ...

    def grad_log_h(self, theta: np.ndarray) -> np.ndarray: ...

    def hess_log_h(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray: ...


def _check_shape(theta, dim, batch=False):
    """theta as a float array of shape (dim,), or with batch=True also (dim, B)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim,) and not (batch and theta.ndim == 2 and theta.shape[0] == dim):
        expected = f"({dim},) or ({dim}, B)" if batch else f"({dim},)"
        raise ValueError(f"theta has shape {theta.shape}, expected {expected}")
    return theta


def _check_pair(theta, v, dim):
    """theta and v as float arrays of one shape, (dim,) or (dim, B)."""
    theta, v = _check_shape(theta, dim, batch=True), np.asarray(v, dtype=float)
    if v.shape != theta.shape:
        raise ValueError(f"v has shape {v.shape}, expected {theta.shape}")
    return theta, v


def _columns(v, theta):
    """v of shape (dim,) shaped to broadcast against theta of shape (dim,) or (dim, B)."""
    return v if theta.ndim == 1 else v[:, None]


def _complex_step(score, theta, v):
    """H(theta) v = Im score(theta + i h v) / h, each column of v scaled first to
    unit max norm (a zero column keeps scale 1), so h v is far below rounding."""
    scale = np.max(np.abs(v), axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return score(theta + (_STEP * 1j) * (v / scale)).imag * (scale / _STEP)


class GaussianTarget:
    """Gaussian posterior N(nu, Lambda^{-1}); the closed-form analytics target."""

    def __init__(self, nu, lamb):
        self.nu = np.asarray(nu, dtype=float)
        self.lamb = np.asarray(lamb, dtype=float)
        self.dim = self.nu.size
        if self.lamb.shape != (self.dim, self.dim):
            raise ValueError("precision shape does not match mean")
        if not (np.isfinite(self.nu).all() and np.isfinite(self.lamb).all()):
            raise ValueError("mean and precision must be finite")
        if not np.allclose(self.lamb, self.lamb.T, atol=1e-10):
            raise ValueError("precision must be symmetric")
        try:
            chol = np.linalg.cholesky(self.lamb)
        except np.linalg.LinAlgError as exc:
            raise ValueError("precision must be positive definite") from exc
        self._log_det_lamb = 2.0 * float(np.sum(np.log(np.diag(chol))))

    def sparsity_hint(self) -> SparsityPattern:
        return build_dense_pattern(self.dim)

    def log_h(self, theta) -> float:
        r = _check_shape(theta, self.dim) - self.nu
        return float(-0.5 * self.dim * LOG_2PI + 0.5 * self._log_det_lamb
                     - 0.5 * r @ (self.lamb @ r))

    def grad_log_h(self, theta) -> np.ndarray:
        theta = _check_shape(theta, self.dim, batch=True)
        return -self.lamb @ (theta - _columns(self.nu, theta))

    def hess_log_h(self, theta, v) -> np.ndarray:
        _, v = _check_pair(theta, v, self.dim)
        return -self.lamb @ v


class LogisticModel:
    """Bayesian logistic regression, logit(p_i) = X_i^t theta, prior N(0, s0^2 I).

    X may be dense or scipy.sparse; the precision of the variational
    approximation is a full matrix here so the sparsity hint is dense.
    """

    default_batch_size = 3

    def __init__(self, X, y, sigma0_sq: float = 100.0):
        self.X = X.tocsr() if scipy.sparse.issparse(X) else np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or self.X.shape[0] != self.y.size:
            raise ValueError("X and y have inconsistent shapes")
        if self.y.size < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("responses must be binary 0/1")
        self.n, self.dim = self.X.shape
        self.sigma0_sq = _positive("sigma0_sq", sigma0_sq)
        self._log_prior_norm = 0.5 * self.dim * np.log(2.0 * np.pi * self.sigma0_sq)

    def sparsity_hint(self) -> SparsityPattern:
        return build_dense_pattern(self.dim)

    def log_h(self, theta) -> float:
        theta = _check_shape(theta, self.dim)
        eta = self.X @ theta
        return float(
            float(self.y @ eta)
            - float(softplus(eta).sum())
            - self._log_prior_norm
            - 0.5 * float(theta @ theta) / self.sigma0_sq
        )

    def grad_log_h(self, theta) -> np.ndarray:
        theta = _check_shape(theta, self.dim, batch=True)
        resid = _columns(self.y, theta) - expit(self.X @ theta)
        return self.X.T @ resid - theta / self.sigma0_sq

    def hess_log_h(self, theta, v) -> np.ndarray:
        theta, v = _check_pair(theta, v, self.dim)
        w = expit(self.X @ theta)
        return -(self.X.T @ (w * (1.0 - w) * (self.X @ v))) - v / self.sigma0_sq


# each canonical family's log partition A and its derivative, analytic in eta
_LOG_PARTITION = {
    "bernoulli-logit": (softplus, _expit),
    "poisson-log": (np.exp, np.exp),
}


class GlmmModel:
    """GLMM with canonical link: g(mu_ij) = X_ij^t beta + Z_ij^t b_i.

    theta is laid out as (b_1, ..., b_n, beta, zeta) with zeta = vech(W*),
    where the random-effect precision is G = W W^t, W lower triangular with
    positive diagonal, W*_ii = log W_ii.  Priors: b_i ~ N(0, G^{-1}),
    beta ~ N(0, sigma_beta_sq I), zeta ~ N(0, sigma_zeta_sq I).

    The subject blocks are stacked once, at construction, into X (N x p),
    Z (N x r) and y (N,); subject i owns rows offsets[i]:offsets[i+1], which
    may be none.
    """

    FAMILIES = tuple(_LOG_PARTITION)

    def __init__(self, family, X_blocks, Z_blocks, y_blocks,
                 sigma_beta_sq: float = 100.0, sigma_zeta_sq: float = 100.0):
        if family not in self.FAMILIES:
            raise ValueError(f"family must be one of {self.FAMILIES}")
        self.family = family
        self._A, self._A1 = _LOG_PARTITION[family]
        x_blocks = [np.asarray(x, dtype=float) for x in X_blocks]
        z_blocks = [np.asarray(z, dtype=float) for z in Z_blocks]
        y_blocks = [np.asarray(yy, dtype=float) for yy in y_blocks]
        self.n_subjects = len(x_blocks)
        if not (len(z_blocks) == len(y_blocks) == self.n_subjects >= 1):
            raise ValueError("block lists must have equal nonzero length")
        self.p = x_blocks[0].shape[1]
        self.r = z_blocks[0].shape[1]
        for xi, zi, yi in zip(x_blocks, z_blocks, y_blocks):
            if xi.shape[0] != zi.shape[0] or xi.shape[0] != yi.size:
                raise ValueError("inconsistent rows within a subject block")
            if xi.shape[1] != self.p or zi.shape[1] != self.r:
                raise ValueError("inconsistent covariate dimensions across subjects")
        self.X = np.concatenate(x_blocks)
        self.Z = np.concatenate(z_blocks)
        self.y = np.concatenate(y_blocks)
        counts = np.array([yi.size for yi in y_blocks])
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self._subject = np.repeat(np.arange(self.n_subjects), counts)  # row -> subject
        self._owners = np.flatnonzero(counts)  # subjects with at least one row
        self.sigma_beta_sq = _positive("sigma_beta_sq", sigma_beta_sq)
        self.sigma_zeta_sq = _positive("sigma_zeta_sq", sigma_zeta_sq)
        self.n_zeta = self.r * (self.r + 1) // 2
        self.dim = self.n_subjects * self.r + self.p + self.n_zeta
        w_pattern = build_dense_pattern(self.r)  # the vech(W) slots
        self._wrows, self._wcols = w_pattern.rows, w_pattern.cols
        self._wdiag = w_pattern.diag_slots
        if self.family == "poisson-log":
            if not np.all(np.isfinite(self.y) & (self.y >= 0) & (self.y == np.round(self.y))):
                raise ValueError("poisson responses must be non-negative integers")
            self._y_const = -float(np.sum(gammaln(self.y + 1.0)))
        else:
            self._y_const = 0.0
            if not np.all(np.isin(self.y, (0.0, 1.0))):
                raise ValueError("bernoulli responses must be binary 0/1")

    def sparsity_hint(self) -> SparsityPattern:
        return build_pattern(self.n_subjects, [self.r] * self.n_subjects,
                             self.p + self.n_zeta, 0)

    def unpack(self, theta):
        """(b, beta, zeta), b of shape (n_subjects, r); for theta of shape
        (dim, B) each part gains a trailing axis of length B."""
        nb = self.n_subjects * self.r
        b = theta[:nb].reshape((self.n_subjects, self.r) + theta.shape[1:])
        beta = theta[nb:nb + self.p]
        zeta = theta[nb + self.p:]
        return b, beta, zeta

    def w_matrix(self, zeta):
        """(W, dvec) from zeta = vech(W*); dvec is the vech(T*) chain-rule scale.

        zeta of shape (n_zeta, B) gives W of shape (r, r, B), one per column;
        W and dvec take zeta's dtype.
        """
        vech_w = zeta.copy()
        vech_w[self._wdiag] = diag = np.exp(zeta[self._wdiag])
        w = np.zeros((self.r, self.r) + zeta.shape[1:], dtype=zeta.dtype)
        w[self._wrows, self._wcols] = vech_w
        dvec = np.ones(zeta.shape, dtype=zeta.dtype)
        dvec[self._wdiag] = diag
        return w, dvec

    def _eta(self, b, beta):
        """Linear predictor of all N rows, (N,) or (N, B)."""
        return self.X @ beta + np.einsum("ir,ir...->i...", self.Z, b[self._subject])

    def _subject_sums(self, rows):
        """Sums of rows (N, ...) over each subject's rows, (n_subjects, ...).

        np.add.reduceat would return a row, not zero, for a subject without
        rows, so only subjects that own rows take part.
        """
        out = np.zeros((self.n_subjects,) + rows.shape[1:], dtype=rows.dtype)
        out[self._owners] = np.add.reduceat(rows, self.offsets[self._owners], axis=0)
        return out

    def log_h(self, theta) -> float:
        b, beta, zeta = self.unpack(_check_shape(theta, self.dim))
        w, _ = self.w_matrix(zeta)
        eta = self._eta(b, beta)
        wtb = (b @ w).ravel()  # row i is b_i^t W
        return float(self._y_const + self.y @ eta - self._A(eta).sum()
                     + self.n_subjects * zeta[self._wdiag].sum()  # n log|W|
                     - 0.5 * (wtb @ wtb + self.n_subjects * self.r * LOG_2PI)
                     - 0.5 * (beta @ beta / self.sigma_beta_sq
                              + self.p * np.log(2.0 * np.pi * self.sigma_beta_sq))
                     - 0.5 * (zeta @ zeta / self.sigma_zeta_sq
                              + self.n_zeta * np.log(2.0 * np.pi * self.sigma_zeta_sq)))

    def grad_log_h(self, theta) -> np.ndarray:
        return self._score(_check_shape(theta, self.dim, batch=True))

    def hess_log_h(self, theta, v) -> np.ndarray:
        return _complex_step(self._score, *_check_pair(theta, v, self.dim))

    def _score(self, theta):
        # analytic in theta; "..." is a trailing batch axis, absent for one theta
        b, beta, zeta = self.unpack(theta)
        w, dvec = self.w_matrix(zeta)
        wtb = np.einsum("rc...,ir...->ic...", w, b)  # row i is b_i^t W
        eta = self._eta(b, beta)
        resid = _columns(self.y, eta) - self._A1(eta)
        g_b = (self._subject_sums(np.einsum("ir,i...->ir...", self.Z, resid))
               - np.einsum("rc...,ic...->ir...", w, wtb))  # Z_i^t resid_i - G b_i
        g_beta = self.X.T @ resid - beta / self.sigma_beta_sq
        w_tilde = np.einsum("ir...,ic...->rc...", b, wtb)  # sum_i b_i b_i^t W
        g_zeta = -dvec * w_tilde[self._wrows, self._wcols]
        g_zeta[self._wdiag] += self.n_subjects
        g_zeta -= zeta / self.sigma_zeta_sq
        return np.concatenate([g_b.reshape((-1,) + beta.shape[1:]), g_beta, g_zeta])


class SvModel:
    """Stochastic volatility: y_t ~ N(0, exp(lambda + sigma b_t)) with AR(1) states.

    theta = (b_1, ..., b_n, alpha, lambda, psi), alpha = log sigma,
    psi = logit(phi); b_t | b_{t-1} ~ N(phi b_{t-1}, 1) and
    b_1 ~ N(0, 1/(1-phi^2)).  Prior on the globals is N(0, sigma0_sq I).
    """

    default_batch_size = 10

    def __init__(self, y, sigma0_sq: float = 10.0):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or self.y.size < 1:
            raise ValueError("y must be a nonempty 1-d return series")
        self.n = self.y.size
        self.dim = self.n + 3
        self.sigma0_sq = _positive("sigma0_sq", sigma0_sq)

    def sparsity_hint(self) -> SparsityPattern:
        return build_pattern(self.n, [1] * self.n, 3, min(1, self.n - 1))

    def unpack(self, theta):
        """(b, alpha, lambda, psi) of a theta of shape (dim,) or (dim, B)."""
        return theta[:self.n], theta[self.n], theta[self.n + 1], theta[self.n + 2]

    def log_h(self, theta) -> float:
        b, alpha, lam, psi = self.unpack(_check_shape(theta, self.dim))
        sigma = np.exp(alpha)
        phi = expit(psi)
        e = np.exp(-lam - sigma * b)
        val = -0.5 * self.n * LOG_2PI - 0.5 * self.n * lam \
            - 0.5 * sigma * np.sum(b) - 0.5 * float(self.y ** 2 @ e)
        innov = b[1:] - phi * b[:-1]
        val += -0.5 * (self.n - 1) * LOG_2PI - 0.5 * float(innov @ innov)
        val += -0.5 * LOG_2PI + 0.5 * np.log1p(-phi ** 2) - 0.5 * b[0] ** 2 * (1.0 - phi ** 2)
        val -= 1.5 * np.log(2.0 * np.pi * self.sigma0_sq)
        val -= 0.5 * (alpha ** 2 + lam ** 2 + psi ** 2) / self.sigma0_sq
        return float(val)

    def grad_log_h(self, theta) -> np.ndarray:
        return self._score(_check_shape(theta, self.dim, batch=True))

    def hess_log_h(self, theta, v) -> np.ndarray:
        return _complex_step(self._score, *_check_pair(theta, v, self.dim))

    def _score(self, theta):
        # analytic in theta; with theta (dim, B), b is (n, B) and the globals (B,)
        b, alpha, lam, psi = self.unpack(theta)
        sigma = np.exp(alpha)
        phi = _expit(psi)
        dphi = phi * (1.0 - phi)  # e^psi/(e^psi+1)^2
        h = _columns(self.y ** 2, b) * np.exp(-lam - sigma * b) - 1.0  # y^2 e - 1

        g_b = 0.5 * sigma * h
        g_b[0] += -(1.0 - phi ** 2) * b[0]
        innov = b[1:] - phi * b[:-1]
        g_b[:-1] += phi * innov
        g_b[1:] -= innov
        g_alpha = 0.5 * sigma * np.einsum("i...,i...->...", b, h) - alpha / self.sigma0_sq
        g_lam = 0.5 * h.sum(axis=0) - lam / self.sigma0_sq
        p_phi = phi * b[0] ** 2 - phi / (1.0 - phi ** 2) + np.sum(innov * b[:-1], axis=0)
        g_psi = p_phi * dphi - psi / self.sigma0_sq
        return np.concatenate([g_b, np.stack([g_alpha, g_lam, g_psi])])
