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
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import CholFactor, DiagScaler, SingularFactorError, SparsityPattern
from .targets import GaussianTarget, LOG_2PI

ALG1_DIVERGENCES = ("KLD", "FDr", "SDr")
ALG2_DIVERGENCES = ("FDb", "SDb")
DIVERGENCES = ALG1_DIVERGENCES + ALG2_DIVERGENCES

MAX_CONSECUTIVE_REJECTS = 50


class FitAbortedError(RuntimeError):
    """More than MAX_CONSECUTIVE_REJECTS rejected (non-finite or singular) steps in a row."""


class IllConditionedUpdate(RuntimeError):
    """Closed-form covariance update exceeded the conditioning budget."""


# ---------------------------------------------------------------------------
# Adadelta


@dataclass
class AdadeltaState:
    """Elementwise running averages E[g^2] and E[dx^2]."""

    eg2: np.ndarray
    edx2: np.ndarray
    rho: float = 0.95
    eps: float = 1e-6

    @classmethod
    def zeros(cls, n: int, rho: float = 0.95, eps: float = 1e-6) -> "AdadeltaState":
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
    iteration: int = 0

    @classmethod
    def initial(cls, pattern: SparsityPattern, mu0=None, t_scale: float = 1.0,
                adadelta_rho: float = 0.95, adadelta_eps: float = 1e-6) -> "VariationalState":
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

    def w_mat(self, mu):
        return self.c_thetag - np.outer(mu - self.theta_bar, self.g_bar)


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

    Returns (desc_mu, desc_tstar, theta).  Only pattern slots of the
    T-gradient outer products are formed.
    """
    if divergence not in ALG1_DIVERGENCES:
        raise ValueError(f"divergence must be one of {ALG1_DIVERGENCES}")
    pattern = factor.pattern
    rows, cols = pattern.rows, pattern.cols
    dscale = DiagScaler.from_factor(factor)

    u = factor.solve_upper_transpose(z)
    theta = mu + u
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

    The batch matrices U = C_theta + delta delta^t, V = C_g + g_bar g_bar^t and
    W = C_theta_g - delta g_bar^t enter through rank-(B+1) factors: U = A A^t,
    V = G G^t and W = A C^t with A = [Theta_c/sqrt(B), delta],
    G = [G_c/sqrt(B), g_bar] and C = [G_c/sqrt(B), -g_bar].  Every product
    with them is formed only at pattern slots, and Sigma actions are
    triangular solves.  Under `step`, overflow here ends as a rejected step
    with no warning.
    """
    if divergence not in ALG2_DIVERGENCES:
        raise ValueError(f"divergence must be one of {ALG2_DIVERGENCES}")
    rows, cols = factor.pattern.rows, factor.pattern.cols
    dscale = DiagScaler.from_factor(factor)
    root_b = np.sqrt(z_mat.shape[1])

    def slots(x, y):  # (x y^t) at the pattern slots
        return np.einsum("ij,ij->i", x[rows], y[cols])

    theta_mat = mu[:, None] + factor.solve_upper_transpose(z_mat)
    g_mat = model.grad_log_h(theta_mat)
    theta_bar = theta_mat.mean(axis=1)
    g_bar = g_mat.mean(axis=1)
    gc = (g_mat - g_bar[:, None]) / root_b
    a = np.column_stack([(theta_mat - theta_bar[:, None]) / root_b, mu - theta_bar])

    t_a = factor.rmatvec(a)                               # T^t A
    g_mu = 2.0 * factor.matvec(t_a[:, -1]) - 2.0 * g_bar  # last column: T^t delta

    if divergence == "SDb":
        # (U T)[slots] - (Sigma V T^{-t})[slots], Sigma V T^{-t} = (Sigma G)(T^{-1} G)^t
        s = factor.solve_lower(np.column_stack([gc, g_bar]))  # T^{-1} G
        sig = factor.solve_upper_transpose(s)                 # Sigma G
        return g_mu, dscale.apply(2.0 * (slots(a, t_a) - slots(sig, s))), theta_mat

    # FDb: ((W + W^t + P U + U P) T)[slots] with P = T T^t
    c = np.column_stack([gc, -g_bar])
    p_a = factor.matvec(t_a)                              # P A
    desc_t = 2.0 * (slots(a, factor.rmatvec(c)) + slots(c, t_a)
                    + slots(p_a, t_a) + slots(a, factor.rmatvec(p_a)))
    return factor.matvec(factor.rmatvec(g_mu)), dscale.apply(desc_t), theta_mat


def batch_objective_trace(stats: BatchStats, mu, factor: CholFactor, divergence: str) -> float:
    """Batch divergence estimate from summary statistics (trace form)."""
    u = stats.u_mat(mu)
    v = stats.v_mat()
    w = stats.w_mat(mu)
    t = factor
    if divergence == "SDb":
        a1 = t.solve_lower(v)
        tr_vs = float(np.trace(t.solve_lower(a1.T)))        # tr(V Sigma)
        tr_up = float(np.sum((u @ t.as_dense()) * t.as_dense()))  # tr(U T T^t)
        return tr_vs + tr_up + 2.0 * float(np.trace(w))
    if divergence == "FDb":
        td = t.as_dense()
        p = td @ td.T
        return (float(np.trace(v)) + float(np.trace(u @ p @ p))
                + 2.0 * float(np.trace(w @ p)))
    raise ValueError("divergence must be FDb or SDb")


def batch_objective_direct(theta_mat, g_mat, mu, factor: CholFactor, divergence: str) -> float:
    """Batch divergence estimate by direct per-sample summation (oracle)."""
    b = theta_mat.shape[1]
    total = 0.0
    for i in range(b):
        th = theta_mat[:, i]
        gh = g_mat[:, i]
        r = th - mu
        if divergence == "SDb":
            sg = factor.solve_lower(gh)
            sig_g = factor.solve_upper_transpose(sg)
            tr_r = factor.rmatvec(r)
            total += float(gh @ sig_g + 2.0 * gh @ r + tr_r @ tr_r)
        else:
            pr = factor.matvec(factor.rmatvec(r))
            total += float(gh @ gh + 2.0 * gh @ pr + pr @ pr)
    return total / b


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
    return VariationalState(mu_next, factor_next, ad_next, state.iteration + 1)


def step(state: VariationalState, model, divergence: str, batch: int, rng):
    """One SGD step; returns (next state, the step's one-sample lower bound).

    Algorithm 1 draws one z and evaluates the bound at its theta; Algorithm 2
    draws a (d, batch) z and then a separate z for the bound (Algorithm 1
    ignores `batch`).  This is `fit`'s draw order.  A non-finite
    bound raises FloatingPointError before the advance, so a rejected step
    leaves (mu, T*) as they were.  numpy overflow inside the step is silent:
    the finiteness checks on the bound, the gradient, the update and the
    Adadelta state turn it into a FloatingPointError.
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
    divergence: str
    seed: int
    max_iter: int = 60_000
    window: int = 1000
    batch_size: int | None = None
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    init_mu: np.ndarray | None = None
    init_t_scale: float = 1.0
    pattern: SparsityPattern | None = None

    def __post_init__(self):
        if self.divergence not in DIVERGENCES:
            raise ValueError(f"divergence must be one of {DIVERGENCES}, got {self.divergence!r}")
        for name in ("max_iter", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if (self.divergence in ALG2_DIVERGENCES and self.batch_size is not None
                and self.batch_size < 2):
            raise ValueError(f"batch_size must be at least 2 for {self.divergence}, "
                             f"got {self.batch_size}")
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
        out = {
            "divergence": self.divergence,
            "seed": self.seed,
            "max_iter": self.max_iter,
            "window": self.window,
            "batch_size": self.batch_size,
            "adadelta_rho": self.adadelta_rho,
            "adadelta_eps": self.adadelta_eps,
            "init_t_scale": self.init_t_scale,
            "init_mu": None if self.init_mu is None else list(map(float, self.init_mu)),
        }
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
    elapsed_seconds: float
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Serializable document; excludes wall-clock time so reruns are byte-identical."""
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


def default_batch_size(model, divergence: str) -> int:
    """1 for Algorithm 1; else the target's `default_batch_size`, or 5."""
    if divergence in ALG1_DIVERGENCES:
        return 1
    return getattr(model, "default_batch_size", 5)


def _ols_slope(values) -> float:
    y = np.asarray(values, dtype=float)
    x = np.arange(y.size, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def fit(model, config: FitConfig) -> FitResult:
    """Run SGD until the lower-bound plateau rule fires or max_iter is reached.

    Every `window` iterations the mean one-sample lower bound over the window
    is appended to the trace; once five averages exist, a negative OLS slope
    of the most recent five stops the run.
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
    batch = config.batch_size or default_batch_size(model, config.divergence)

    lb_trace: list[float] = []
    window_sum = 0.0
    window_count = 0
    rejected = 0
    consecutive_rejects = 0
    last_lb = None
    stop_reason = "max_iter"
    t0 = time.perf_counter()
    iterations = 0

    for it in range(1, config.max_iter + 1):
        try:
            state, lb = step(state, model, config.divergence, batch, rng)
            last_lb = lb
            consecutive_rejects = 0
        except (FloatingPointError, SingularFactorError):
            rejected += 1
            consecutive_rejects += 1
            state = VariationalState(state.mu, state.factor, state.adadelta,
                                     state.iteration + 1)
            lb = 0.0 if last_lb is None else last_lb
            if consecutive_rejects > MAX_CONSECUTIVE_REJECTS:
                last = "no step succeeded" if last_lb is None else f"last lower bound {lb:.6g}"
                raise FitAbortedError(
                    f"{consecutive_rejects} consecutive rejected steps at iteration {it} "
                    f"({config.divergence}); {last}")
        iterations = it
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

    elapsed = time.perf_counter() - t0
    return FitResult(state, config.divergence, lb_trace, iterations, config.seed,
                     stop_reason, rejected, elapsed, config.echo())


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


def bam_step(mu, sigma, model, batch_size: int, t: int, rng):
    """One proximal iteration with learning rate rho_t = B d / t."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = mu.size
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((batch_size, d))
    theta_mat = (mu[None, :] + z @ chol.T).T
    stats = compute_batch_stats(theta_mat, model.grad_log_h(theta_mat))
    rho = batch_size * d / t
    return bam_update_from_stats(stats, mu, sigma, rho)


def bam_objective(stats: BatchStats, mu_t, sigma_t, rho, mu, sigma) -> float:
    """The proximal objective at candidate (mu, Sigma); used to verify descent."""
    d = mu_t.size
    sigma_inv = np.linalg.inv(sigma)
    u = stats.u_mat(mu)
    score_part = (float(np.trace(stats.v_mat() @ sigma))
                  + float(np.trace(u @ sigma_inv))
                  + 2.0 * float(np.trace(stats.w_mat(mu))))
    dm = mu - mu_t
    sign_t, logdet_t = np.linalg.slogdet(sigma_t)
    sign_s, logdet_s = np.linalg.slogdet(sigma)
    kl = 0.5 * (float(np.trace(sigma_inv @ sigma_t)) + float(dm @ sigma_inv @ dm)
                - d + logdet_s - logdet_t)
    return score_part + (2.0 / rho) * kl


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
        chol = np.linalg.cholesky(sigma)
        z = rng.standard_normal((batch_size, mu.size))
        theta_mat = (mu[None, :] + z @ chol.T).T
        stats = compute_batch_stats(theta_mat, target.grad_log_h(theta_mat))
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
        g_mu = np.empty((n_draws, target.dim))
        g_td = np.empty((n_draws, diag_slots.size))
        for k in range(n_draws):
            desc_mu, desc_t, _ = gradient_alg1(mu, factor, target, div, zs[k])
            g_mu[k] = desc_mu
            g_td[k] = desc_t[diag_slots]
        out[div] = (g_mu.std(axis=0, ddof=1), g_td.std(axis=0, ddof=1))
    return out
