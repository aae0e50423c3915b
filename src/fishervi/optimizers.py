"""Stochastic optimizers for the sparse Gaussian variational family.

Two SGD schemes update (mu, vech(T*)) with Adadelta stepsizes: the
reparameterization-trick estimators for KLD / FDr / SDr (one draw, one
Hessian-vector product for the divergence gradients) and the batch-approximation
estimators for FDb / SDb (B draws, Hessian-free, biased).  A proximal
baseline with closed-form dense-covariance updates and the natural-gradient
score step used by the convergence analysis round out the module.

Pattern sparsity is enforced by construction: only slots of the factor's
SparsityPattern are ever formed or updated, and Sigma is never densified
(Sigma v is always two triangular solves).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import CholFactor, DiagScaler, SparsityPattern, slot_products
from .targets import GaussianTarget, LOG_2PI

ALG1_DIVERGENCES = ("KLD", "FDr", "SDr")
ALG2_DIVERGENCES = ("FDb", "SDb")
DIVERGENCES = ALG1_DIVERGENCES + ALG2_DIVERGENCES
DEFAULT_BATCH_SIZE = 5  # Algorithm 2's B for a target without `default_batch_size`

MAX_CONSECUTIVE_REJECTS = 50
ADADELTA_RHO = 0.95   # Adadelta decay and floor: the defaults of every state and config
ADADELTA_EPS = 1e-6


class FitAbortedError(RuntimeError):
    """More than MAX_CONSECUTIVE_REJECTS rejected steps in a row."""


class IllConditionedUpdate(FloatingPointError):
    """Closed-form covariance update exceeded the conditioning budget."""


# ---------------------------------------------------------------------------
# Adadelta


@dataclass
class AdadeltaState:
    """Elementwise running averages E[g^2] and E[dx^2]."""

    eg2: np.ndarray
    edx2: np.ndarray
    rho: float = ADADELTA_RHO
    eps: float = ADADELTA_EPS

    @classmethod
    def zeros(cls, n: int, rho: float = ADADELTA_RHO,
              eps: float = ADADELTA_EPS) -> "AdadeltaState":
        return cls(np.zeros(n), np.zeros(n), rho, eps)


def adadelta_update(state: AdadeltaState, grad: np.ndarray):
    """One Adadelta recurrence; the returned step opposes the gradient."""
    eg2 = state.rho * state.eg2 + (1.0 - state.rho) * grad ** 2
    step = -np.sqrt(state.edx2 + state.eps) / np.sqrt(eg2 + state.eps) * grad
    edx2 = state.rho * state.edx2 + (1.0 - state.rho) * step ** 2
    return step, AdadeltaState(eg2, edx2, state.rho, state.eps)


# ---------------------------------------------------------------------------
# variational state and batch statistics


@dataclass
class VariationalState:
    mu: np.ndarray
    factor: CholFactor
    adadelta: AdadeltaState

    @classmethod
    def initial(cls, pattern: SparsityPattern, mu0=None, t_scale: float = 1.0,
                adadelta_rho: float = ADADELTA_RHO,
                adadelta_eps: float = ADADELTA_EPS) -> "VariationalState":
        d = pattern.dim
        mu = np.zeros(d) if mu0 is None else np.asarray(mu0, dtype=float).copy()
        factor = CholFactor.identity(pattern, scale=t_scale)
        return cls(mu, factor, AdadeltaState.zeros(d + pattern.nnz,
                                                   adadelta_rho, adadelta_eps))


@dataclass
class BatchStats:
    """1/B-normalized sample summaries of one batch (Algorithm 2, step 6)."""

    theta_bar: np.ndarray
    g_bar: np.ndarray
    c_theta: np.ndarray
    c_g: np.ndarray
    c_thetag: np.ndarray
    b: int

    def u_mat(self, mu):
        d = mu - self.theta_bar
        return self.c_theta + np.outer(d, d)

    def v_mat(self):
        return self.c_g + np.outer(self.g_bar, self.g_bar)


def compute_batch_stats(theta_mat: np.ndarray, g_mat: np.ndarray) -> BatchStats:
    """Summaries from (d, B) sample and score matrices."""
    b = theta_mat.shape[1]
    if b < 2:
        raise ValueError("batch size must be at least 2")
    tb = theta_mat.mean(axis=1)
    gb = g_mat.mean(axis=1)
    tc = theta_mat - tb[:, None]
    gc = g_mat - gb[:, None]
    return BatchStats(tb, gb, tc @ tc.T / b, gc @ gc.T / b, tc @ gc.T / b, b)


def log_q(mu: np.ndarray, factor: CholFactor, theta: np.ndarray) -> float:
    """Gaussian log density with precision T T^t, evaluated from the factor."""
    r = factor.rmatvec(theta - mu)
    return float(-0.5 * factor.dim * LOG_2PI + factor.log_det - 0.5 * r @ r)


def lower_bound(mu, factor, model, theta) -> float:
    """One-sample unbiased estimate of the evidence lower bound."""
    return model.log_h(theta) - log_q(mu, factor, theta)


# ---------------------------------------------------------------------------
# Algorithm 1: reparameterization-trick gradients


def gradient_alg1(mu, factor, model, divergence, z):
    """Descent gradients (w.r.t. mu and vech(T*)) for one draw z ~ N(0, I).

    Returns (desc_mu, desc_tstar, theta).  For z of shape (d, K), K draws,
    each is returned per draw, in columns: (d, K), (nnz, K) and (d, K).
    Only pattern slots of the T-gradient outer products are formed.
    """
    if divergence not in ALG1_DIVERGENCES:
        raise ValueError(f"divergence must be one of {ALG1_DIVERGENCES}")
    rows, cols = factor.pattern.rows, factor.pattern.cols
    dscale = DiagScaler.from_factor(factor)

    u = factor.solve_upper_transpose(z)
    theta = (mu if u.ndim == 1 else mu[:, None]) + u
    g = model.grad_log_h(theta) + factor.matvec(z)

    if divergence == "KLD":
        v = factor.solve_lower(g)
        desc_mu = -g
        desc_t = dscale.apply(u[rows] * v[cols])
        return desc_mu, desc_t, theta

    z_eff = z
    g_eff = g
    if divergence == "SDr":
        f = factor.solve_lower(g)
        z_eff = z - f
        g_eff = factor.solve_upper_transpose(f)  # Sigma g, via two solves
    w = model.hess_log_h(theta, g_eff)
    v = factor.solve_lower(w)
    desc_mu = 2.0 * w
    desc_t = 2.0 * dscale.apply(g_eff[rows] * z_eff[cols] - u[rows] * v[cols])
    return desc_mu, desc_t, theta


# ---------------------------------------------------------------------------
# Algorithm 2: batch-approximation gradients


def gradient_alg2(mu, factor, model, divergence, z_mat):
    """Descent gradients from a batch z_mat (d, B); Hessian-free.

    U = u u^t/B, V = G G^t/B and W = u G^t/B are uncentered moments about mu,
    with u = T^{-t} z_mat = theta - mu and G the scores; T^t u = z_mat, so U
    needs no product.  SDb: (2/B) [u z^t - (Sigma G)(T^{-1} G)^t] at the slots,
    g_mu = -2 (T z_bar + g_bar).  FDb, with H = G + T z: (2/B) [u (T^t H)^t + H z^t]
    at the slots, g_mu = -2 T T^t h_bar.  Each is one `slot_products` call on
    column-stacked factors.  Under `step`, overflow here ends as a rejected step.
    """
    if divergence not in ALG2_DIVERGENCES:
        raise ValueError(f"divergence must be one of {ALG2_DIVERGENCES}")
    dscale = DiagScaler.from_factor(factor)
    u = factor.solve_upper_transpose(z_mat)
    theta_mat = mu[:, None] + u
    g_mat = model.grad_log_h(theta_mat)

    if divergence == "SDb":
        s = factor.solve_lower(g_mat)                       # T^{-1} G
        x = np.hstack([u, factor.solve_upper_transpose(s)])  # [u | Sigma G]
        y = np.hstack([z_mat, -s])
        g_mu = -2.0 * (factor.matvec(z_mat.mean(axis=1)) + g_mat.mean(axis=1))
    else:
        h = g_mat + factor.matvec(z_mat)
        x = np.hstack([u, h])
        y = np.hstack([factor.rmatvec(h), z_mat])
        g_mu = -2.0 * factor.matvec(factor.rmatvec(h.mean(axis=1)))
    desc_t = (2.0 / z_mat.shape[1]) * slot_products(x, y, factor.pattern)
    return g_mu, dscale.apply(desc_t), theta_mat


# ---------------------------------------------------------------------------
# single SGD steps


def _advance(state: VariationalState, desc_mu, desc_t):
    d = state.mu.size
    grad = np.concatenate([desc_mu, desc_t])
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient estimate")
    step, ad_next = adadelta_update(state.adadelta, grad)
    mu_next = state.mu + step[:d]
    star_next = state.factor.star_values + step[d:]
    if not (np.isfinite(mu_next).all() and np.isfinite(star_next).all()):
        raise FloatingPointError("non-finite parameter update")
    # an infinite E[g^2] would zero those coordinates' steps for good
    if not (np.isfinite(ad_next.eg2).all() and np.isfinite(ad_next.edx2).all()):
        raise FloatingPointError("non-finite Adadelta state")
    factor_next = CholFactor.from_star(state.factor.pattern, star_next)
    return VariationalState(mu_next, factor_next, ad_next)


def step(state: VariationalState, model, divergence: str, batch: int, rng):
    """One SGD step; returns (next state, the step's one-sample lower bound).

    Algorithm 1 draws one z, evaluates the bound at its theta and ignores
    `batch`.  Algorithm 2 draws a (d, batch) z, `batch` being the B that `fit`
    resolves, and then a separate z for the bound.  This is `fit`'s draw order,
    and a step rejected for a non-finite value makes the same draws.  Targets
    and factors compute through non-finite values; this is the one place that
    judges them.  numpy overflow is silent, and the checks on the bound, the
    gradient, the update and the Adadelta state raise FloatingPointError.  The
    bound is checked before the advance, so a rejected step leaves (mu, T*) as is.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if divergence in ALG2_DIVERGENCES:
            z = rng.standard_normal((state.mu.size, batch))
            desc_mu, desc_t, _ = gradient_alg2(state.mu, state.factor, model, divergence, z)
            z_lb = rng.standard_normal(state.mu.size)
            theta_lb = state.mu + state.factor.solve_upper_transpose(z_lb)
        else:
            z = rng.standard_normal(state.mu.size)
            desc_mu, desc_t, theta_lb = gradient_alg1(state.mu, state.factor, model, divergence, z)
        lb = lower_bound(state.mu, state.factor, model, theta_lb)
        if not np.isfinite(lb):
            raise FloatingPointError("non-finite lower bound")
        return _advance(state, desc_mu, desc_t), lb


# ---------------------------------------------------------------------------
# the fit loop


@dataclass
class FitConfig:
    """Settings of one `fit`, checked at construction.  `batch_size` is the B of FDb /
    SDb (Algorithm 2; at least 2, and `fit` resolves it when unset).  KLD / FDr / SDr
    (Algorithm 1) take one draw per step and accept only an unset batch_size or 1."""

    divergence: str
    seed: int
    max_iter: int = 60_000
    window: int = 1000
    batch_size: int | None = None
    adadelta_rho: float = ADADELTA_RHO
    adadelta_eps: float = ADADELTA_EPS
    init_mu: np.ndarray | None = None
    init_t_scale: float = 1.0
    pattern: SparsityPattern | None = None

    def __post_init__(self):
        if self.divergence not in DIVERGENCES:
            raise ValueError(f"divergence must be one of {DIVERGENCES}, got {self.divergence!r}")
        for name, least in (("seed", 0), ("max_iter", 1), ("window", 1), ("batch_size", 1)):
            value = getattr(self, name)
            if value is None and name == "batch_size":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer would not serialize
        alg2 = self.divergence in ALG2_DIVERGENCES
        if self.batch_size is not None and (self.batch_size < 2 if alg2 else self.batch_size > 1):
            raise ValueError(f"batch_size must be {'at least 2' if alg2 else 'unset or 1'} "
                             f"for {self.divergence}, got {self.batch_size}")
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ValueError(f"adadelta_rho must lie in (0, 1), got {self.adadelta_rho}")
        for name in ("adadelta_eps", "init_t_scale"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.init_mu is not None:
            mu0 = np.asarray(self.init_mu, dtype=float)
            if mu0.ndim != 1 or not np.all(np.isfinite(mu0)):
                raise ValueError("init_mu must be a 1-D array of finite values")

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pattern"}
        if self.init_mu is not None:
            out["init_mu"] = list(map(float, self.init_mu))
        return out


@dataclass
class FitResult:
    state: VariationalState
    divergence: str
    lb_trace: list
    iterations: int
    seed: int
    stop_reason: str
    rejected_steps: int
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Serializable document; a rerun with the same seed gives the same bytes."""
        return {
            "divergence": self.divergence,
            "seed": self.seed,
            "config": self.config_echo,
            "mu": [float(v) for v in self.state.mu],
            "pattern": self.state.factor.pattern.descriptor(),
            "t_values": [float(v) for v in self.state.factor.values],
            "lb_trace": [float(v) for v in self.lb_trace],
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "rejected_steps": self.rejected_steps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    @staticmethod
    def factor_from_json(doc: dict) -> tuple[np.ndarray, CholFactor]:
        pattern = SparsityPattern.from_descriptor(doc["pattern"])
        factor = CholFactor.from_values(pattern, np.asarray(doc["t_values"]))
        return np.asarray(doc["mu"]), factor


def _ols_slope(values) -> float:
    y = np.asarray(values, dtype=float)
    x = np.arange(y.size, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def fit(model, config: FitConfig) -> FitResult:
    """Run SGD until the lower-bound plateau rule fires or max_iter is reached.

    Every `window` iterations the mean one-sample lower bound over the window
    is appended to the trace; once five averages exist, a negative OLS slope
    of the most recent five stops the run.  A step that raises
    FloatingPointError, the base of every numerical failure, is rejected: the
    state stays and the window counts the last accepted lower bound (0 before
    any).  More than MAX_CONSECUTIVE_REJECTS in a row raise FitAbortedError,
    whose message names the cause of the last rejection and whose __cause__
    is that FloatingPointError.  An unset FDb/SDb batch size is resolved here
    alone: the target's `default_batch_size`, else DEFAULT_BATCH_SIZE; the echo records it.
    """
    rng = np.random.default_rng(config.seed)
    pattern = config.pattern if config.pattern is not None else model.sparsity_hint()
    if pattern.dim != model.dim:
        raise ValueError("pattern dimension does not match model")
    if config.init_mu is not None and len(config.init_mu) != model.dim:
        raise ValueError(f"init_mu has length {len(config.init_mu)}, "
                         f"but the model has dimension {model.dim}")
    state = VariationalState.initial(pattern, config.init_mu, config.init_t_scale,
                                     config.adadelta_rho, config.adadelta_eps)
    batch = config.batch_size
    if batch is None and config.divergence in ALG2_DIVERGENCES:
        batch = getattr(model, "default_batch_size", DEFAULT_BATCH_SIZE)

    lb_trace: list[float] = []
    window_sum = 0.0
    window_count = 0
    rejected = 0
    consecutive_rejects = 0
    last_lb = None
    stop_reason = "max_iter"

    for it in range(1, config.max_iter + 1):
        try:
            state, lb = step(state, model, config.divergence, batch, rng)
            last_lb = lb
            consecutive_rejects = 0
        except FloatingPointError as exc:
            rejected += 1
            consecutive_rejects += 1
            lb = 0.0 if last_lb is None else last_lb
            if consecutive_rejects > MAX_CONSECUTIVE_REJECTS:
                last = "no step succeeded" if last_lb is None else f"last lower bound {lb:.6g}"
                raise FitAbortedError(
                    f"{consecutive_rejects} consecutive rejected steps at iteration {it} "
                    f"({config.divergence}); {last}; last rejection: {exc}") from exc
        window_sum += lb
        window_count += 1
        if window_count == config.window:
            lb_trace.append(window_sum / window_count)
            window_sum = 0.0
            window_count = 0
            if len(lb_trace) >= 5 and _ols_slope(lb_trace[-5:]) < 0.0:
                stop_reason = "plateau"
                break

    if window_count > 0:  # partial tail window when max_iter is not a multiple
        lb_trace.append(window_sum / window_count)

    return FitResult(state, config.divergence, lb_trace, it, config.seed,
                     stop_reason, rejected, {**config.echo(), "batch_size": batch})


# ---------------------------------------------------------------------------
# proximal baseline with closed-form dense updates


def _sqrtm_spd(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def bam_update_from_stats(stats: BatchStats, mu_t, sigma_t, rho: float):
    """Closed-form minimizer of score-matching-plus-KL-trust-region objective.

    Solves the quadratic matrix equation Sigma A Sigma + Sigma/rho = B with
    A = C_g + g_bar g_bar^t/(1+rho) and
    B = C_theta + a a^t/(1+rho) + Sigma_t/rho, a = theta_bar - mu_t, through
    SPD square roots; the mean update follows from stationarity.
    """
    mu_t = np.asarray(mu_t, dtype=float)
    sigma_t = np.asarray(sigma_t, dtype=float)
    d = mu_t.size
    a_vec = stats.theta_bar - mu_t
    mat_a = stats.c_g + np.outer(stats.g_bar, stats.g_bar) / (1.0 + rho)
    mat_b = stats.c_theta + np.outer(a_vec, a_vec) / (1.0 + rho) + sigma_t / rho
    c = 1.0 / rho
    root_b = _sqrtm_spd(mat_b)
    m = root_b @ mat_a @ root_b
    m = 0.5 * (m + m.T)
    s = _sqrtm_spd(c ** 2 * np.eye(d) + 4.0 * m)
    y = 2.0 * np.linalg.inv(c * np.eye(d) + s)
    sigma_new = root_b @ y @ root_b
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    vals = np.linalg.eigvalsh(sigma_new)
    if not np.all(np.isfinite(sigma_new)) or vals.min() <= 0 \
            or vals.max() / vals.min() > 1e12:
        raise IllConditionedUpdate(
            f"covariance update condition number {vals.max() / max(vals.min(), 1e-300):.3g}")
    mu_new = (mu_t + rho * (stats.theta_bar + sigma_new @ stats.g_bar)) / (1.0 + rho)
    return mu_new, sigma_new


def _dense_batch_stats(mu, sigma, model, batch_size: int, rng) -> BatchStats:
    """Batch statistics of batch_size draws from N(mu, Sigma), Sigma dense."""
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((batch_size, mu.size))
    theta_mat = (mu[None, :] + z @ chol.T).T
    return compute_batch_stats(theta_mat, model.grad_log_h(theta_mat))


def bam_step(mu, sigma, model, batch_size: int, t: int, rng):
    """One proximal iteration with learning rate rho_t = B d / t."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    stats = _dense_batch_stats(mu, sigma, model, batch_size, rng)
    rho = batch_size * mu.size / t
    return bam_update_from_stats(stats, mu, sigma, rho)


# ---------------------------------------------------------------------------
# natural-gradient score step (convergence analysis companion)


def sdb_natural_step(mu, sigma, target: GaussianTarget, rho: float,
                     batch_size: int | None = None, rng=None):
    """Natural-gradient update Sigma'^{-1} = Sigma^{-1} + 2 rho (V - Sigma^{-1} U Sigma^{-1}),
    mu' = mu - rho Sigma' grad_mu, for a Gaussian target.

    With batch_size None the infinite-batch limits replace the summary
    statistics and the update is deterministic.
    """
    if not (0.0 <= rho < 0.25):
        raise ValueError("need 0 <= rho < 1/4")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lamb, nu = target.lamb, target.nu
    sigma_inv = np.linalg.inv(sigma)
    if batch_size is None:
        diff = nu - mu
        v = lamb @ (sigma + np.outer(diff, diff)) @ lamb
        grad_sigma = v - sigma_inv  # V - Sigma^{-1} U Sigma^{-1} with U -> Sigma
        grad_mu = 2.0 * lamb @ (mu - nu)
    else:
        stats = _dense_batch_stats(mu, sigma, target, batch_size, rng)
        v = stats.v_mat()
        u = stats.u_mat(mu)
        grad_sigma = v - sigma_inv @ u @ sigma_inv
        grad_mu = 2.0 * sigma_inv @ (mu - stats.theta_bar) - 2.0 * stats.g_bar
    prec_new = sigma_inv + 2.0 * rho * grad_sigma
    sigma_new = np.linalg.inv(prec_new)
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    mu_new = mu - rho * sigma_new @ grad_mu
    return mu_new, sigma_new


# ---------------------------------------------------------------------------
# gradient-spread experiment (uninformative initialization, Gaussian target)


def gradient_sd_experiment(lamb, nu, t_scale: float = 10.0, n_draws: int = 1000,
                           seed: int = 0):
    """Per-coordinate standard deviations of the raw gradient estimates.

    At mu = 0, T = t_scale * I, draws n_draws single-sample gradients for each
    of KLD / FDr / SDr against N(nu, Lambda^{-1}) and returns
    {divergence: (sd_mu, sd_t_diag)} over the draws.
    """
    target = GaussianTarget(nu, lamb)
    pattern = target.sparsity_hint()
    factor = CholFactor.identity(pattern, scale=t_scale)
    mu = np.zeros(target.dim)
    diag_slots = pattern.diag_slots
    rng = np.random.default_rng(seed)
    zs = rng.standard_normal((n_draws, target.dim))
    out = {}
    for div in ALG1_DIVERGENCES:
        desc_mu, desc_t, _ = gradient_alg1(mu, factor, target, div, zs.T)
        out[div] = (desc_mu.std(axis=1, ddof=1), desc_t[diag_slots].std(axis=1, ddof=1))
    return out
