"""Comparison metrics against reference posterior samples.

Reference draws (e.g. long MCMC runs) are ingested from CSV; fitted
approximations are scored with the unbiased squared maximum mean discrepancy
mapped through M* = -log(MMD^2_u + 1e-5), and with per-coordinate normalized
mean/mode/sd differences where the marginal mode comes from a Gaussian-kernel
density estimate.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .datasets import _finite_cell, _read_csv_rows
from .linalg import SINGULAR_TOL

MSTAR_OFFSET = 1e-5
KDE_GRID_POINTS = 512
KDE_GRID_SPAN_SD = 4.0


@dataclass
class ReferenceSamples:
    samples: np.ndarray  # (m_ref, d)
    provenance: str = ""
    columns: list = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("reference samples must be a nonempty (m, d) matrix")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("reference samples contain non-finite values")


def load_reference_csv(path) -> ReferenceSamples:
    """CSV with a header row of variable names, one draw per line.

    A row that is not as wide as the header, or a cell that is not a finite
    number, is rejected with ValueError naming the path and the line.
    """
    header, rows, lines = _read_csv_rows(path)
    samples = [[_finite_cell(path, line, v) for v in row] for row, line in zip(rows, lines)]
    return ReferenceSamples(np.asarray(samples), provenance=str(path), columns=header)


def _sq_dists(x, y):
    """||x_i - y_j||^2 for rows of x against rows of y; may dip below 0 by rounding."""
    return np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :] - 2.0 * x @ y.T


def rbf_kernel(x, y, bandwidth):
    """exp(-||x - y||^2 / (2 h^2)) for rows of x against rows of y."""
    return np.exp(-np.maximum(_sq_dists(x, y), 0.0) / (2.0 * bandwidth ** 2))


def mmd_sq_u(x_v, x_g, bandwidth) -> float:
    """Unbiased MMD^2: the four-kernel U-statistic over all pairs i != j."""
    x_v = np.asarray(x_v, dtype=float)
    x_g = np.asarray(x_g, dtype=float)
    m = x_v.shape[0]
    if x_g.shape[0] != m:
        raise ValueError("both sample sets must have the same size")
    if m < 2:
        raise ValueError("need at least two samples per set")
    k_vv = rbf_kernel(x_v, x_v, bandwidth)
    k_gg = rbf_kernel(x_g, x_g, bandwidth)
    k_vg = rbf_kernel(x_v, x_g, bandwidth)

    def offdiag(k):
        return float(k.sum() - np.trace(k))

    total = offdiag(k_vv) + offdiag(k_gg) - 2.0 * offdiag(k_vg)
    return total / (m * (m - 1))


def mmd_mstar(x_v, x_g, bandwidth) -> float:
    """-log(MMD^2_u + 1e-5), higher = closer to the reference samples.

    The unbiased estimator fluctuates below zero when the two distributions
    match; it is clipped at zero so the log stays defined, capping M* at
    -log(1e-5) ~ 11.5129 (the identical-samples value).
    """
    return float(-np.log(max(mmd_sq_u(x_v, x_g, bandwidth), 0.0) + MSTAR_OFFSET))


def median_heuristic_bandwidth(pooled) -> float:
    """Median pairwise Euclidean distance of the pooled samples."""
    pooled = np.asarray(pooled, dtype=float)
    iu = np.triu_indices(pooled.shape[0], k=1)
    return float(np.sqrt(np.maximum(np.median(_sq_dists(pooled, pooled)[iu]), 1e-300)))


def marginal_stats(ref: ReferenceSamples):
    """(mean, mode, sd) per coordinate; the mode is the argmax of a 1-d KDE
    (Silverman bandwidth) on a 512-point grid spanning +-4 sd."""
    from scipy.stats import gaussian_kde
    x = ref.samples
    mu = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    mode = np.empty_like(mu)
    for j in range(x.shape[1]):
        if sd[j] == 0.0:
            mode[j] = mu[j]
            continue
        grid = np.linspace(mu[j] - KDE_GRID_SPAN_SD * sd[j],
                           mu[j] + KDE_GRID_SPAN_SD * sd[j], KDE_GRID_POINTS)
        kde = gaussian_kde(x[:, j], bw_method="silverman")
        mode[j] = grid[int(np.argmax(kde(grid)))]
    return mu, mode, sd


@dataclass
class ComparisonReport:
    mean_diff: np.ndarray     # |mu - mu*| / sd*
    mode_diff: np.ndarray     # |mu - m*| / sd*
    sd_ratio: np.ndarray      # sd / sd*
    valid: np.ndarray         # False where sd* = 0 (ratios not computed)
    mstar_values: np.ndarray
    bandwidth: float
    replicates: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def summary(self) -> dict:
        ok = self.valid
        return {
            "mean_diff_mean": float(np.mean(self.mean_diff[ok])),
            "mean_diff_sd": float(np.std(self.mean_diff[ok], ddof=1)) if ok.sum() > 1 else 0.0,
            "mode_diff_mean": float(np.mean(self.mode_diff[ok])),
            "mode_diff_sd": float(np.std(self.mode_diff[ok], ddof=1)) if ok.sum() > 1 else 0.0,
            "sd_ratio_mean": float(np.mean(self.sd_ratio[ok])),
            "sd_ratio_sd": float(np.std(self.sd_ratio[ok], ddof=1)) if ok.sum() > 1 else 0.0,
            "mstar_mean": float(np.mean(self.mstar_values)),
            "mstar_sd": float(np.std(self.mstar_values, ddof=1)),
        }

    def to_json(self) -> str:
        doc = {
            "summary": self.summary(),
            "bandwidth": self.bandwidth,
            "replicates": self.replicates,
            "seed": self.seed,
            "mstar_values": [float(v) for v in self.mstar_values],
            "per_coordinate": {
                "mean_diff": [float(v) for v in self.mean_diff],
                "mode_diff": [float(v) for v in self.mode_diff],
                "sd_ratio": [float(v) for v in self.sd_ratio],
                "valid": [bool(v) for v in self.valid],
            },
            "metadata": self.metadata,
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["coordinate", "mean_diff", "mode_diff", "sd_ratio", "valid"])
            for j in range(self.mean_diff.size):
                writer.writerow([j, self.mean_diff[j], self.mode_diff[j],
                                 self.sd_ratio[j], int(self.valid[j])])


def draw_variational(mu, factor, m, rng) -> np.ndarray:
    """m draws theta = mu + T^{-t} z from the fitted Gaussian, as (m, d)."""
    z = rng.standard_normal((factor.dim, m))
    return (mu[:, None] + factor.solve_upper_transpose(z)).T


def compare(mu, factor, ref: ReferenceSamples, seed: int, replicates: int = 50,
            m: int = 1000) -> ComparisonReport:
    """Score a fitted (mu, T) against reference draws.

    Each replicate draws m fresh variational samples and subsamples m
    reference draws without replacement with a replicate-indexed seed stream,
    so the result is deterministic given `seed`.  The RBF bandwidth is the
    median heuristic on the first replicate's pooled samples.
    """
    if ref.samples.shape[0] < m:
        raise ValueError(f"need at least {m} reference draws, have {ref.samples.shape[0]}")
    if not np.all(factor.diag >= SINGULAR_TOL):  # solves do not check it
        raise ValueError(f"factor diagonal below {SINGULAR_TOL:.3g}; solve would overflow")
    mu = np.asarray(mu, dtype=float)
    mu_star, mode_star, sd_star = marginal_stats(ref)
    # Sigma = T^{-t} T^{-1}: Sigma_ii is the squared norm of column i of T^{-1}
    q_sd = np.sqrt(np.sum(factor.solve_lower(np.eye(factor.dim)) ** 2, axis=0))

    valid = sd_star > 0
    safe = np.where(valid, sd_star, 1.0)
    mean_diff = np.where(valid, np.abs(mu - mu_star) / safe, np.nan)
    mode_diff = np.where(valid, np.abs(mu - mode_star) / safe, np.nan)
    sd_ratio = np.where(valid, q_sd / safe, np.nan)

    mstars = np.empty(replicates)
    bw = None
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        xv = draw_variational(mu, factor, m, rng)
        idx = rng.choice(ref.samples.shape[0], size=m, replace=False)
        xg = ref.samples[idx]
        if bw is None:
            bw = median_heuristic_bandwidth(np.vstack([xv, xg]))
        mstars[rep] = mmd_mstar(xv, xg, bw)

    return ComparisonReport(
        mean_diff=mean_diff, mode_diff=mode_diff, sd_ratio=sd_ratio, valid=valid,
        mstar_values=mstars, bandwidth=float(bw), replicates=replicates, seed=seed,
        metadata={
            "kde": f"gaussian, silverman bandwidth, {KDE_GRID_POINTS}-point grid, "
                   f"+-{KDE_GRID_SPAN_SD} sd",
            "bandwidth_rule": "median heuristic on first replicate",
            "m_per_replicate": m,
        },
    )
