"""Univariate non-Gaussian targets: quadrature objectives, fits and metrics.

Targets are Student's t, the log-transformed inverse gamma and the skew
normal, approximated by N(mu, sigma^2) under the KL, Fisher and score
divergences.  Divergence values are Gauss-Hermite expectations; the
log-inverse-gamma case additionally has closed forms through the principal
Lambert W branch, used to cross-check the numerical route.

`fishervi` and its CLI import this module for `TARGETS`, so scipy.stats,
scipy.optimize and scipy.integrate are imported in the functions that call
them: a fit never loads them.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, lambertw, polygamma, psi, roots_hermite

DIVERGENCES = ("KLD", "FD", "SD")
SIGMA_SQ_FLOOR = 1e-12
QUAD_NODES = 200
QUAD_AGREE_TOL = 1e-7


class QuadratureError(FloatingPointError):
    """Non-finite Gauss-Hermite integrand; carries the offending node index."""


# ---------------------------------------------------------------------------
# targets


class StudentT:
    """t(nu) with density proportional to (1 + theta^2/nu)^{-(nu+1)/2}."""

    kind = "student_t"

    def __init__(self, nu: float):
        if not 0 < nu < math.inf:
            raise ValueError(f"degrees of freedom must be positive and finite, got {nu}")
        self.nu = float(nu)
        self._log_const = (gammaln((nu + 1) / 2) - gammaln(nu / 2)
                           - 0.5 * math.log(nu * math.pi))

    def log_pdf(self, theta):
        return self._log_const - 0.5 * (self.nu + 1) * np.log1p(theta ** 2 / self.nu)

    def score(self, theta):
        return -(self.nu + 1) * theta / (self.nu + theta ** 2)

    def score_deriv(self, theta):
        return -(self.nu + 1) * (self.nu - theta ** 2) / (self.nu + theta ** 2) ** 2

    @property
    def mean(self):
        if self.nu <= 1:
            raise ValueError("mean undefined for nu <= 1")
        return 0.0

    @property
    def mode(self):
        return 0.0

    @property
    def variance(self):
        if self.nu <= 2:
            raise ValueError("variance undefined for nu <= 2")
        return self.nu / (self.nu - 2.0)


class LogInvGamma:
    """theta = log of an IG(a1, b1) variable, i.e. exp(-theta) ~ Gamma(a1, b1).

    Density b1^a1 exp(-a1 theta - b1 e^{-theta}) / Gamma(a1); right-skewed with
    mode log(b1/a1), mean log b1 - psi(a1) and variance psi_1(a1).
    """

    kind = "log_inv_gamma"

    def __init__(self, a1: float, b1: float):
        if not (0.5 < a1 < math.inf and 0 < b1 < math.inf):
            raise ValueError(f"need finite a1 > 1/2 and b1 > 0, got a1={a1}, b1={b1}")
        self.a1 = float(a1)
        self.b1 = float(b1)
        self._log_const = a1 * math.log(b1) - gammaln(a1)

    def log_pdf(self, theta):
        return self._log_const - self.a1 * theta - self.b1 * np.exp(-theta)

    def score(self, theta):
        return -self.a1 + self.b1 * np.exp(-theta)

    def score_deriv(self, theta):
        return -self.b1 * np.exp(-theta)

    @property
    def mean(self):
        return math.log(self.b1) - psi(self.a1)

    @property
    def mode(self):
        return math.log(self.b1 / self.a1)

    @property
    def variance(self):
        return float(polygamma(1, self.a1))


class SkewNormal:
    """SN(m, t, lam): 2 phi(theta | m, t^2) Phi(lam (theta - m))."""

    kind = "skew_normal"

    def __init__(self, m: float, t: float, lam: float):
        if not (0 < t < math.inf and math.isfinite(m) and math.isfinite(lam)):
            raise ValueError(f"need finite m, lam and t > 0, got m={m}, t={t}, lam={lam}")
        self.m = float(m)
        self.t = float(t)
        self.lam = float(lam)

    def log_pdf(self, theta):
        from scipy import stats
        u = self.lam * (theta - self.m)
        return (math.log(2.0) + stats.norm.logpdf(theta, self.m, self.t)
                + stats.norm.logcdf(u))

    def _mills(self, u):
        # phi(u)/Phi(u), stable far into the left tail via log-space
        from scipy import stats
        return np.exp(stats.norm.logpdf(u) - stats.norm.logcdf(u))

    def score(self, theta):
        u = self.lam * (theta - self.m)
        return -(theta - self.m) / self.t ** 2 + self.lam * self._mills(u)

    def score_deriv(self, theta):
        u = self.lam * (theta - self.m)
        r = self._mills(u)
        return -1.0 / self.t ** 2 + self.lam ** 2 * (-u * r - r ** 2)

    @property
    def mean(self):
        delta = self.lam / math.sqrt(1.0 + self.lam ** 2)
        return self.m + self.t * delta * math.sqrt(2.0 / math.pi)

    @property
    def mode(self):
        # no closed form; maximize the log density numerically
        from scipy import optimize
        res = optimize.minimize_scalar(
            lambda th: -self.log_pdf(th),
            bounds=(self.m - 6 * self.t, self.m + 6 * self.t),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.x)

    @property
    def variance(self):
        delta = self.lam / math.sqrt(1.0 + self.lam ** 2)
        return self.t ** 2 * (1.0 - 2.0 * delta ** 2 / math.pi)


TARGETS = {cls.kind: cls for cls in (StudentT, LogInvGamma, SkewNormal)}


def make_target(kind: str, **params):
    if kind not in TARGETS:
        raise ValueError(f"unknown univariate target kind: {kind}")
    names = list(inspect.signature(TARGETS[kind]).parameters)
    if sorted(params) != sorted(names):
        raise ValueError(f"{kind} takes parameters {', '.join(names)}, got {sorted(params)}")
    return TARGETS[kind](**params)


# ---------------------------------------------------------------------------
# quadrature objectives

@functools.cache
def _gh_nodes(n):
    x, w = roots_hermite(n)  # stable for high orders, unlike hermgauss
    return x, w / math.sqrt(math.pi)


def uni_objective(target, divergence: str, mu: float, sigma_sq: float) -> float:
    """Divergence objective between N(mu, sigma_sq) and the target.

    KLD returns the negative evidence lower bound (the KL divergence when the
    target density is normalized); FD and SD return the divergence itself,
    with SD = sigma^2 * FD in one dimension.  The rule doubles from
    QUAD_NODES while two orders disagree, up to 4 * QUAD_NODES.
    """
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    if divergence not in DIVERGENCES:
        raise ValueError(f"divergence must be one of {DIVERGENCES}")
    val = _objective_and_grad(target, divergence, mu, math.log(sigma_sq))[0]
    for nodes in (2 * QUAD_NODES, 4 * QUAD_NODES):
        prev, val = val, _objective_and_grad(target, divergence, mu, math.log(sigma_sq), nodes)[0]
        if abs(val - prev) <= QUAD_AGREE_TOL * max(1.0, abs(val)):
            break
    return val


def _objective_and_grad(target, divergence, mu, log_s2, nodes=QUAD_NODES):
    """Objective and analytic gradient in (mu, log sigma^2) on a fixed rule;
    QuadratureError at the first node where the objective's integrand is not finite."""
    sigma_sq = math.exp(log_s2)
    sigma = math.sqrt(sigma_sq)
    x, w = _gh_nodes(nodes)
    theta = mu + math.sqrt(2.0) * sigma * x
    dtheta_ds2 = x / (math.sqrt(2.0) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        if divergence == "KLD":
            vals = target.log_pdf(theta)
        else:
            g = target.score(theta) + math.sqrt(2.0) * x / sigma
            vals = g * g
        if not np.isfinite(vals).all():
            idx = int(np.argmin(np.isfinite(vals)))
            raise QuadratureError(f"non-finite integrand at node {idx} (theta={theta[idx]})")
        if divergence == "KLD":
            score = target.score(theta)
            val = (-0.5 * math.log(2.0 * math.pi * sigma_sq) - 0.5) - float(w @ vals)
            d_mu = -float(w @ score)
            d_s2 = -0.5 / sigma_sq - float(w @ (score * dtheta_ds2))
            return val, d_mu, sigma_sq * d_s2
        sp = target.score_deriv(theta)
        f_val = float(w @ vals)
        df_mu = 2.0 * float(w @ (g * sp))
        dg_ds2 = sp * dtheta_ds2 - math.sqrt(2.0) * x / (2.0 * sigma ** 3)
        df_s2 = 2.0 * float(w @ (g * dg_ds2))
    if divergence == "FD":
        return f_val, df_mu, sigma_sq * df_s2
    # SD = sigma^2 F
    return sigma_sq * f_val, sigma_sq * df_mu, sigma_sq * (f_val + sigma_sq * df_s2)


@dataclass
class UniFit:
    """Optimized Gaussian approximation of a univariate target."""

    divergence: str
    mu: float
    sigma_sq: float
    objective: float
    grad_norm: float
    collapsed: bool
    metrics: dict = field(default_factory=dict)


LOG_S2_CEILING = 40.0


def uni_fit(target, divergence: str, with_metrics: bool = True,
            accuracy_window=None) -> UniFit:
    """Multi-start L-BFGS fit of (mu, log sigma^2).

    Eight starts lie on a log-variance grid in [-6, 2] with mean offsets
    {-2, 0, 2} * sigma_star around the target mode; several starts matter
    because the score divergence can have multiple local minima.  Starts
    that escape to the variance ceiling are discarded: for heavy-tailed
    targets the Fisher objective decays to zero along sigma^2 -> infinity,
    and the reported optimum is the finite stationary point.
    """
    if divergence not in DIVERGENCES:
        raise ValueError(f"divergence must be one of {DIVERGENCES}")
    center = target.mode
    sd_star = math.sqrt(target.variance)
    log_s2_grid = np.linspace(-6.0, 2.0, 8)
    offsets = np.array([-2.0, 0.0, 2.0]) * sd_star
    starts = [(center + offsets[k % 3], ls2) for k, ls2 in enumerate(log_s2_grid)]

    floor = math.log(SIGMA_SQ_FLOOR)
    # a fit never needs sigma^2 beyond ~1e6 * target variance; the bound pins
    # runaway trajectories so they can be recognized and dropped
    ceiling = min(LOG_S2_CEILING, math.log(target.variance) + 14.0)

    def fun(xv):
        try:
            val, d_mu, d_ls2 = _objective_and_grad(target, divergence, xv[0], xv[1])
        except (QuadratureError, OverflowError):
            return 1e15, np.zeros(2)
        if not math.isfinite(val):
            return 1e15, np.zeros(2)
        return val, np.array([d_mu, d_ls2])

    from scipy import optimize
    best = None
    n_runaway = 0
    for x0 in starts:
        res = optimize.minimize(
            fun, np.asarray(x0), jac=True, method="L-BFGS-B",
            bounds=[(None, None), (floor, ceiling)],
            options={"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-12},
        )
        if res.x[1] >= ceiling - 1e-6 or res.fun >= 1e15:
            n_runaway += 1
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise RuntimeError(
            f"all {len(starts)} starts failed for {divergence} ({n_runaway} ran away)")

    mu_hat, log_s2_hat = float(best.x[0]), float(best.x[1])
    collapsed = log_s2_hat <= floor + 1e-9
    val, d_mu, d_ls2 = _objective_and_grad(target, divergence, mu_hat, log_s2_hat)
    if collapsed:
        # at the variance floor only the projected gradient must vanish
        d_ls2 = min(0.0, d_ls2)
    grad_norm = math.hypot(d_mu, d_ls2)

    fit = UniFit(divergence, mu_hat, math.exp(log_s2_hat), val, grad_norm, collapsed)
    if with_metrics:
        fit.metrics = uni_metrics(fit.mu, fit.sigma_sq, target, accuracy_window)
    return fit


def uni_metrics(mu, sigma_sq, target, accuracy_window=None) -> dict:
    sd_star = math.sqrt(target.variance)
    return {
        "mean_diff": abs(mu - target.mean) / sd_star,
        "mode_diff": abs(mu - target.mode) / sd_star,
        "var_ratio": sigma_sq / target.variance,
        "accuracy": accuracy(mu, sigma_sq, target, accuracy_window),
    }


def accuracy(mu, sigma_sq, target, window=None) -> float:
    """1 - IAE/2 with IAE the integrated absolute density error in [0, 2].

    By default the integral runs over +-12 combined standard deviations,
    which captures the full error for light tails.  Published comparison
    tables evaluate the error on a fixed display window instead (heavy
    tails put visible IAE mass outside any plot); pass `window=(lo, hi)`
    to reproduce such a convention.
    """
    if window is None:
        sigma = math.sqrt(sigma_sq)
        sd_star = math.sqrt(target.variance)
        lo = min(mu - 12 * sigma, target.mean - 12 * sd_star)
        hi = max(mu + 12 * sigma, target.mean + 12 * sd_star)
    else:
        lo, hi = window

    def absdiff(th):
        q = math.exp(-0.5 * (th - mu) ** 2 / sigma_sq) / math.sqrt(2 * math.pi * sigma_sq)
        return abs(q - math.exp(target.log_pdf(th)))

    from scipy import integrate
    iae, _ = integrate.quad(absdiff, lo, hi, limit=400)
    return 1.0 - iae / 2.0


# ---------------------------------------------------------------------------
# Lambert W and log-inverse-gamma closed forms


def lambert_w0(x: float) -> float:
    """Principal branch W0: the w >= -1 with w e^w = x, for x >= -1/e.

    scipy.special.lambertw (Corless et al. 1996), real part; the branch
    point -1/e itself, where scipy returns nan, gives -1.
    """
    x = float(x)
    inv_e = -math.exp(-1.0)
    if x < inv_e - 1e-15:
        raise ValueError(f"lambert_w0 defined only for x >= -1/e, got {x}")
    if x <= inv_e:
        return -1.0
    return float(lambertw(x).real)


@dataclass
class LogGammaSolution:
    """Closed-form optima (KL/FD/SD) plus target moments for LogInvGamma."""

    mu_kl: float
    sigma_sq_kl: float
    mu_fd: float
    sigma_sq_fd: float
    mu_sd: float
    sigma_sq_sd: float
    mean: float
    mode: float
    variance: float


def loggamma_closed_forms(a1: float, b1: float) -> LogGammaSolution:
    """Analytic optima for the log-transformed inverse gamma target.

    sigma^2_F = -2 W0(-1/(2(a1+1))), sigma^2_S = 1 - W0(e a1^2/(a1+1)^2),
    sigma^2_KL = 1/a1; the FD/SD means share log(b1/(a1+1)) + 3 sigma^2 / 2.
    """
    if a1 <= 0.5:
        raise ValueError("need a1 > 1/2")
    target = LogInvGamma(a1, b1)
    s2_kl = 1.0 / a1
    mu_kl = math.log(b1 / a1) + 0.5 / a1
    s2_fd = -2.0 * lambert_w0(-0.5 / (a1 + 1.0))
    s2_sd = 1.0 - lambert_w0(math.e * a1 ** 2 / (a1 + 1.0) ** 2)
    base = math.log(b1 / (a1 + 1.0))
    return LogGammaSolution(
        mu_kl=mu_kl, sigma_sq_kl=s2_kl,
        mu_fd=base + 1.5 * s2_fd, sigma_sq_fd=s2_fd,
        mu_sd=base + 1.5 * s2_sd, sigma_sq_sd=s2_sd,
        mean=target.mean, mode=target.mode, variance=target.variance,
    )
