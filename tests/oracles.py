"""Reference computations the tests check the package against.

Each oracle takes a longer or independent route to a value the package
computes another way: the trace and per-sample forms of the FDb / SDb batch
objective, the proximal objective, the batch statistics' distance from their
infinite-batch limits, the stationarity of the Student-t mean, the
closed-form log-inverse-gamma Fisher divergence, the two-pass CSV design
loader, the row-by-row mixed-model design recipes and the hand-derived GLMM
and SV Hessian-vector products.
"""
import csv
import math

import numpy as np
from scipy.special import expit

from fishervi.datasets import DesignInfo, GlmmDesign, LoadedDesign, _read_csv_rows
from fishervi.optimizers import BatchStats, compute_batch_stats
from fishervi.targets import _check_pair, _columns
from fishervi.unilab import DIVERGENCES, StudentT, _objective_and_grad

# ---------------------------------------------------------------------------
# Algorithm 2: batch objective


def batch_objective_trace(stats: BatchStats, mu, factor, divergence: str) -> float:
    """Batch divergence estimate from summary statistics (trace form)."""
    u = stats.u_mat(mu)
    v = stats.v_mat()
    w = stats.c_thetag - np.outer(mu - stats.theta_bar, stats.g_bar)
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


def batch_objective_direct(theta_mat, g_mat, mu, factor, divergence: str) -> float:
    """Batch divergence estimate by direct per-sample summation."""
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
# proximal baseline


def bam_objective(stats: BatchStats, mu_t, sigma_t, rho, mu, sigma) -> float:
    """The proximal objective at candidate (mu, Sigma); used to verify descent."""
    d = mu_t.size
    sigma_inv = np.linalg.inv(sigma)
    u = stats.u_mat(mu)
    w = stats.c_thetag - np.outer(mu - stats.theta_bar, stats.g_bar)
    score_part = (float(np.trace(stats.v_mat() @ sigma))
                  + float(np.trace(u @ sigma_inv))
                  + 2.0 * float(np.trace(w)))
    dm = mu - mu_t
    sign_t, logdet_t = np.linalg.slogdet(sigma_t)
    sign_s, logdet_s = np.linalg.slogdet(sigma)
    kl = 0.5 * (float(np.trace(sigma_inv @ sigma_t)) + float(dm @ sigma_inv @ dm)
                - d + logdet_s - logdet_t)
    return score_part + (2.0 / rho) * kl


# ---------------------------------------------------------------------------
# batch statistics against their infinite-batch limits


def batch_stats_limit_check(lamb, nu, mu_hat, sigma_hat_diag, batch_size, rng):
    """Max absolute deviation of batch summary statistics from their limits.

    Samples B points from N(mu_hat, diag(sigma_hat)) against a Gaussian target
    and returns deviations for (theta_bar, C_theta, g_bar, C_g, C_theta_g);
    these shrink like O(B^{-1/2}).
    """
    lamb = np.asarray(lamb, dtype=float)
    nu = np.asarray(nu, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    sh = np.asarray(sigma_hat_diag, dtype=float)
    theta = mu_hat + np.sqrt(sh) * rng.standard_normal((batch_size, nu.size))
    g = -(theta - nu) @ lamb
    stats = compute_batch_stats(theta.T, g.T)
    return {
        "theta_bar": float(np.max(np.abs(stats.theta_bar - mu_hat))),
        "c_theta": float(np.max(np.abs(stats.c_theta - np.diag(sh)))),
        "g_bar": float(np.max(np.abs(stats.g_bar - lamb @ (nu - mu_hat)))),
        "c_g": float(np.max(np.abs(stats.c_g - lamb @ np.diag(sh) @ lamb))),
        "c_thetag": float(np.max(np.abs(stats.c_thetag - (-np.diag(sh) @ lamb)))),
    }


# ---------------------------------------------------------------------------
# log-inverse-gamma closed form


def loggamma_fd_closed(a1, b1, mu, sigma_sq):
    """FD between N(mu, sigma^2) and LogInvGamma(a1, b1), closed form."""
    return (a1 ** 2 + b1 ** 2 * math.exp(2 * sigma_sq - 2 * mu)
            - 2 * b1 * (a1 + 1) * math.exp(sigma_sq / 2 - mu) + 1.0 / sigma_sq)


# ---------------------------------------------------------------------------
# stationarity of the Student-t mean


def stationarity_check_t(nu: float, d: int = 1, scale=None, sigma_sq: float = 1.0,
                         n_samples: int = 100_000, seed: int = 0) -> dict:
    """Gradient of each objective with respect to mu, evaluated at mu = mode.

    Univariate targets use the quadrature gradient; multivariate t(nu, 0, S)
    uses Monte Carlo with common random numbers and returns (estimate, se)
    pairs so callers can apply a statistical tolerance.
    """
    if d == 1:
        target = StudentT(nu)
        out = {}
        for div in DIVERGENCES:
            _, d_mu, _ = _objective_and_grad(target, div, 0.0, math.log(sigma_sq))
            out[div] = abs(d_mu)
        return out

    s_mat = np.eye(d) if scale is None else np.asarray(scale, dtype=float)
    s_inv = np.linalg.inv(s_mat)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, d))
    sigma = sigma_sq * np.eye(d)
    theta = math.sqrt(sigma_sq) * z  # mu = m = 0
    delta = np.einsum("ij,jk,ik->i", theta, s_inv, theta)
    w_t = (nu + d) / (nu + delta)
    score_p = -w_t[:, None] * (theta @ s_inv)
    score_q = -(theta) / sigma_sq
    g_diff = score_p - score_q
    out = {}
    # KLD: grad_mu ELBO = E[score_p]
    est = score_p.mean(axis=0)
    se = score_p.std(axis=0, ddof=1) / math.sqrt(n_samples)
    out["KLD"] = (est, se)
    # Hessian of log p for the multivariate t
    hess_terms = (-w_t[:, None, None] * s_inv[None, :, :]
                  + (2 * w_t / (nu + delta))[:, None, None]
                  * np.einsum("ij,ik->ijk", theta @ s_inv, theta @ s_inv))
    fd_samples = 2.0 * np.einsum("ijk,ik->ij", hess_terms, g_diff)
    out["FD"] = (fd_samples.mean(axis=0),
                 fd_samples.std(axis=0, ddof=1) / math.sqrt(n_samples))
    sd_samples = 2.0 * np.einsum("ijk,ik->ij", hess_terms, g_diff @ sigma)
    out["SD"] = (sd_samples.mean(axis=0),
                 sd_samples.std(axis=0, ddof=1) / math.sqrt(n_samples))
    return out


# ---------------------------------------------------------------------------
# CSV design matrix, converting each cell in a separate pass per use


def _csv_rows_reference(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return [h.strip() for h in header], rows


def _is_numeric(values):
    try:
        for v in values:
            float(v)
        return True
    except ValueError:
        return False


def csv_design_reference(path, response: str, intercept: bool = True) -> LoadedDesign:
    """Design matrix from a header CSV: strip every cell, test each column
    with `float`, then convert a numeric column again."""
    header, rows = _csv_rows_reference(path)
    if response not in header:
        raise ValueError(f"response column {response!r} not in header {header}")
    cols = {h: [row[i].strip() for row in rows] for i, h in enumerate(header)}
    y = np.asarray([float(v) for v in cols[response]])

    names = []
    blocks = []
    numeric_stats = {}
    categorical_levels = {}
    if intercept:
        names.append("intercept")
        blocks.append(np.ones((len(rows), 1)))
    for h in header:
        if h == response:
            continue
        vals = cols[h]
        if _is_numeric(vals):
            x = np.asarray([float(v) for v in vals])
            sd = float(x.std(ddof=0))
            if sd == 0.0:
                raise ValueError(f"column {h!r} is constant (zero sd); drop it first")
            mean = float(x.mean())
            numeric_stats[h] = (mean, sd)
            names.append(h)
            blocks.append(((x - mean) / sd)[:, None])
        else:
            levels = sorted(set(vals))
            categorical_levels[h] = levels
            for lev in levels[1:]:
                names.append(f"{h}={lev}")
                blocks.append((np.asarray(vals, dtype=object) == lev).astype(float)[:, None])
    x_mat = np.hstack(blocks)
    return LoadedDesign(x_mat, y, DesignInfo(names, numeric_stats,
                                             categorical_levels, intercept))


# ---------------------------------------------------------------------------
# mixed-model design recipes, grouping rows by subject and converting each
# row's cells in a Python loop



def _group_rows(rows, id_col):
    groups = {}
    order = []
    for row in rows:
        key = row[id_col]
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    return [groups[k] for k in order]


def epilepsy_reference(path, model: str = "epi1") -> GlmmDesign:
    """Poisson random-effect designs for seizure-count panel data.

    Expects columns id, y, visit (1..4), base (pre-trial count), trt, age.
    Covariates: Base = log(base/4), Age = centered log(age),
    Visit coded -0.3/-0.1/0.1/0.3, V4 = 1 at the fourth visit.
    Model "epi1": X = [1, Base, Trt, Age, Base*Trt, V4], random intercept.
    Model "epi2": X = [1, Base, Trt, Age, Base*Trt, Visit], random
    intercept and Visit slope.
    """
    if model not in ("epi1", "epi2"):
        raise ValueError("model must be 'epi1' or 'epi2'")
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    log_age = [math.log(float(r[col["age"]])) for r in rows]
    age_mean = sum(log_age) / len(log_age)
    visit_code = {1: -0.3, 2: -0.1, 3: 0.1, 4: 0.3}

    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, zs, ys = [], [], []
        for r in grp:
            base = math.log(float(r[col["base"]]) / 4.0)
            trt = float(r[col["trt"]])
            age = math.log(float(r[col["age"]])) - age_mean
            visit = visit_code[int(r[col["visit"]])]
            v4 = 1.0 if int(r[col["visit"]]) == 4 else 0.0
            if model == "epi1":
                xs.append([1.0, base, trt, age, base * trt, v4])
                zs.append([1.0])
            else:
                xs.append([1.0, base, trt, age, base * trt, visit])
                zs.append([1.0, visit])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.asarray(zs))
        yb.append(np.asarray(ys))
    names = (["intercept", "Base", "Trt", "Age", "BaseTrt", "V4"] if model == "epi1"
             else ["intercept", "Base", "Trt", "Age", "BaseTrt", "Visit"])
    return GlmmDesign("poisson-log", xb, zb, yb, names)


def toenail_reference(path) -> GlmmDesign:
    """Logistic random-intercept design: X = [1, Trt, t, Trt*t], t standardized.

    Expects columns id, y, trt, time (months).
    """
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    times = np.asarray([float(r[col["time"]]) for r in rows])
    t_std = (times - times.mean()) / times.std(ddof=0)
    t_of_row = {id(r): t_std[i] for i, r in enumerate(rows)}

    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, ys = [], []
        for r in grp:
            trt = float(r[col["trt"]])
            t = t_of_row[id(r)]
            xs.append([1.0, trt, t, trt * t])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.ones((len(grp), 1)))
        yb.append(np.asarray(ys))
    return GlmmDesign("bernoulli-logit", xb, zb, yb,
                      ["intercept", "Trt", "t", "Trt:t"])


def polypharmacy_reference(path) -> GlmmDesign:
    """Logistic random-intercept design with the outpatient-visit codings.

    Expects columns id, y, gender, race, age, mhv (visit count), inptmhv.
    Covariates: Gender, Race, log(age/10), MHV1 (1-5 visits), MHV2 (6-14),
    MHV3 (>= 15), INPTMHV.
    """
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, ys = [], []
        for r in grp:
            mhv = float(r[col["mhv"]])
            xs.append([
                1.0,
                float(r[col["gender"]]),
                float(r[col["race"]]),
                math.log(float(r[col["age"]]) / 10.0),
                1.0 if 1 <= mhv <= 5 else 0.0,
                1.0 if 6 <= mhv <= 14 else 0.0,
                1.0 if mhv >= 15 else 0.0,
                float(r[col["inptmhv"]]),
            ])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.ones((len(grp), 1)))
        yb.append(np.asarray(ys))
    return GlmmDesign("bernoulli-logit", xb, zb, yb,
                      ["intercept", "Gender", "Race", "Age",
                       "MHV1", "MHV2", "MHV3", "INPTMHV"])


# ---------------------------------------------------------------------------
# Hessian-vector products, each the derivative of the score written out term
# by term


def _bernoulli_a2(eta):
    w = expit(eta)
    return w * (1.0 - w)


# second derivative of each canonical family's log partition
_A2 = {"bernoulli-logit": _bernoulli_a2, "poisson-log": np.exp}


def glmm_hess_reference(model, theta, v):
    """GlmmModel's H(theta) v, theta and v of one shape, (dim,) or (dim, B)."""
    # the derivative of grad_log_h along v, term by term; d(dvec) is
    # nonzero only on the diagonal, where dvec = exp(zeta)
    theta, v = _check_pair(theta, v, model.dim)
    b, beta, zeta = model.unpack(theta)
    vb, vbeta, vzeta = model.unpack(v)
    w, dvec = model.w_matrix(zeta)
    dw = np.zeros_like(w)
    dw[model._wrows, model._wcols] = dvec * vzeta
    wtb = np.einsum("rc...,ir...->ic...", w, b)
    d_wtb = np.einsum("rc...,ir...->ic...", w, vb) + np.einsum("rc...,ir...->ic...", dw, b)
    eta = model._eta(b, beta)
    d_resid = -_A2[model.family](eta) * model._eta(vb, vbeta)
    h_b = (model._subject_sums(np.einsum("ir,i...->ir...", model.Z, d_resid))
           - np.einsum("rc...,ic...->ir...", dw, wtb)
           - np.einsum("rc...,ic...->ir...", w, d_wtb))
    h_beta = model.X.T @ d_resid - vbeta / model.sigma_beta_sq
    w_tilde = np.einsum("ir...,ic...->rc...", b, wtb)
    d_w_tilde = (np.einsum("ir...,ic...->rc...", vb, wtb)
                 + np.einsum("ir...,ic...->rc...", b, d_wtb))
    h_zeta = -dvec * d_w_tilde[model._wrows, model._wcols] - vzeta / model.sigma_zeta_sq
    diag = model._wdiag
    h_zeta[diag] -= (dvec[diag] * vzeta[diag]
                     * w_tilde[model._wrows[diag], model._wcols[diag]])
    return np.concatenate([h_b.reshape((-1,) + beta.shape[1:]), h_beta, h_zeta])


def sv_hess_reference(model, theta, v):
    """SvModel's H(theta) v, theta and v of one shape, (dim,) or (dim, B)."""
    # the derivative of grad_log_h along v, term by term, with
    # d sigma = sigma v_alpha and d phi = phi (1 - phi) v_psi
    theta, v = _check_pair(theta, v, model.dim)
    b, alpha, lam, psi = model.unpack(theta)
    vb, va, vl, vp = model.unpack(v)
    sigma = np.exp(alpha)
    phi = expit(psi)
    dphi = phi * (1.0 - phi)
    d_sigma = sigma * va
    d_phi = dphi * vp
    y2e = _columns(model.y ** 2, b) * np.exp(-lam - sigma * b)
    h = y2e - 1.0
    d_sb = d_sigma * b + sigma * vb  # d(sigma b)
    d_h = -y2e * (vl + d_sb)

    h_b = 0.5 * (d_sigma * h + sigma * d_h)
    h_b[0] += 2.0 * phi * d_phi * b[0] - (1.0 - phi ** 2) * vb[0]
    innov = b[1:] - phi * b[:-1]
    d_innov = vb[1:] - d_phi * b[:-1] - phi * vb[:-1]
    h_b[:-1] += d_phi * innov + phi * d_innov
    h_b[1:] -= d_innov
    h_alpha = 0.5 * np.sum(d_sb * h + sigma * b * d_h, axis=0) - va / model.sigma0_sq
    h_lam = 0.5 * d_h.sum(axis=0) - vl / model.sigma0_sq
    p_phi = phi * b[0] ** 2 - phi / (1.0 - phi ** 2) + np.sum(innov * b[:-1], axis=0)
    d_p_phi = (d_phi * (b[0] ** 2 - (1.0 + phi ** 2) / (1.0 - phi ** 2) ** 2)
               + 2.0 * phi * b[0] * vb[0] + np.sum(d_innov * b[:-1] + innov * vb[:-1], axis=0))
    # d(dphi) = dphi (1 - 2 phi) v_psi
    h_psi = d_p_phi * dphi + p_phi * dphi * (1.0 - 2.0 * phi) * vp - vp / model.sigma0_sq
    return np.concatenate([h_b, np.stack([h_alpha, h_lam, h_psi])])
