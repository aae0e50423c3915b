"""The benchmark's three fixed-seed fit workloads.

Each workload turns the run's `--seed` into `datasets` independent
generated inputs, builds the program's objects from them (`setup`, timed as
`setup_s`), and runs one plateau-stopped fit per dataset through the public
API (`fit_once`, timed as `fit_s`).  Every fit's output is checked
(`checks.py`); the ELBO of the returned (mu, T) is estimated after the fit
with `optimizers.lower_bound` over ELBO_DRAWS draws from a stream separate
from the fit's.

Sizes are chosen so that one run holds several plateau-stopped fits within
35 s on a shared 2-core machine; README.md gives the reason for each.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs

ELBO_DRAWS = 256
ELBO_STREAM = 15


@dataclass
class Trial:
    """One measured fit (or one whole sweep) on dataset `index`."""

    index: int
    fit_s: float
    iterations: int
    rejected: int
    elbo: float
    problems: list = field(default_factory=list)
    fingerprint: bytes = b""
    detail: dict = field(default_factory=dict)


def estimate_elbo(fv, mu, factor, model, fit_seed: int) -> float:
    """Mean of ELBO_DRAWS one-sample lower bounds at the fitted (mu, T)."""
    rng = np.random.default_rng([fit_seed, ELBO_STREAM])
    z = rng.standard_normal((mu.size, ELBO_DRAWS))
    try:
        with np.errstate(all="ignore"):
            thetas = mu[:, None] + factor.solve_upper_transpose(z)
            total = 0.0
            for j in range(ELBO_DRAWS):
                total += fv.optimizers.lower_bound(mu, factor, model, thetas[:, j])
    except (ValueError, FloatingPointError):  # non-finite theta or log h
        return float("nan")
    return total / ELBO_DRAWS


class LibraryWorkload:
    """Fits with `fishervi.fit`, one per dataset, on models built in setup."""

    name = ""
    divergence = ""
    batch_size = None
    window = 0
    max_iter = 20_000
    init_t_scale = 1.0
    adadelta_eps = 1e-6
    datasets = 1

    def __init__(self, fv, seed: int, workdir: str):
        self.fv = fv
        self.seed = seed
        self.fit_seeds = inputs.fit_seeds(seed, self.datasets)
        self.data = [self.generate(seed, k) for k in range(self.datasets)]

    def config(self, fit_seed, pattern, **overrides):
        kwargs = dict(divergence=self.divergence, seed=fit_seed, max_iter=self.max_iter,
                      window=self.window, batch_size=self.batch_size,
                      init_t_scale=self.init_t_scale, adadelta_eps=self.adadelta_eps,
                      pattern=pattern)
        kwargs.update(overrides)
        return self.fv.FitConfig(**kwargs)

    def setup(self):
        """Model construction from the generated arrays, plus sparsity_hint()."""
        models = [self.build_model(d) for d in self.data]
        return [(m, m.sparsity_hint()) for m in models]

    def warm_up(self, prepared):
        model, pattern = prepared[0]
        with np.errstate(all="ignore"):
            self.fv.fit(model, self.config(0, pattern, max_iter=20))

    def fit_once(self, prepared, index: int, **overrides) -> Trial:
        model, pattern = prepared[index]
        fit_seed = self.fit_seeds[index]
        cfg = self.config(fit_seed, pattern, **overrides)
        t0 = time.perf_counter()
        result = self.fv.fit(model, cfg)
        fit_s = time.perf_counter() - t0
        mu, factor = result.state.mu, result.state.factor
        elbo = estimate_elbo(self.fv, mu, factor, model, fit_seed)
        problems = checks.check_fit(result.stop_reason, elbo) + self.check(mu, factor)
        return Trial(index, fit_s, result.iterations, result.rejected_steps, elbo, problems,
                     mu.tobytes() + factor.values.tobytes(),
                     {"stop_reason": result.stop_reason, **self.describe(mu)})

    def generate(self, seed, index):
        raise NotImplementedError

    def build_model(self, data):
        raise NotImplementedError

    def check(self, mu, factor) -> list:
        raise NotImplementedError

    def describe(self, mu) -> dict:
        return {}


class SvSdb(LibraryWorkload):
    """SvModel on AR(1) returns, d = n + 3 > DENSE_SOLVE_CUTOFF, SDb."""

    name = "sv-sdb"
    n = 400             # d = 403: every solve takes the scipy.sparse branch
    # With phi=0.9, sigma=0.3 the states are weakly identified: fits creep
    # for 1,400-3,200 iterations and the stop time spreads ~40% across
    # seeds.  At phi=0.8 the lower bound levels off within ~4 windows, so
    # the stop time is mostly the plateau rule's own tail.  sigma trades the
    # output check against the ELBO's spread across seeds.  At sigma=0.5 the
    # data barely identify phi: on one dataset the converged fit itself sits
    # far from the generating value (phi_hat 0.42 after 7,000 iterations at
    # window 500 and the default eps), and the check in checks.py would
    # reject a correct answer.  At sigma=1 the ELBO of a dataset spreads 9%
    # across seeds, against 6% at 0.85.
    phi, sigma, lam = 0.8, 0.85, 0.0
    divergence = "SDb"
    batch_size = 10
    window = 100
    # From the default init_t_scale=1 the fit diverges (window means from
    # -1e3 down to -1e15) yet the plateau rule fires, with phi_hat near 0.1;
    # the check rejects it.  From T = 3 I the fit converges.
    init_t_scale = 3.0
    adadelta_eps = 1e-4
    datasets = 6

    def generate(self, seed, index):
        return inputs.sv_returns(seed, index, self.n, self.phi, self.sigma, self.lam)

    def build_model(self, y):
        return self.fv.SvModel(y)

    def check(self, mu, factor):
        return checks.check_sv(mu, self.n, self.phi, self.sigma)

    def describe(self, mu):
        phi_hat, sigma_hat = checks.sv_globals(mu, self.n)
        return {"phi_hat": phi_hat, "sigma_hat": sigma_hat}


class GlmmSdb(LibraryWorkload):
    """Bernoulli-logit GLMM with a random intercept (r=1, p=4), SDb."""

    name = "glmm-sdb"
    n_subjects, n_obs = 40, 5
    beta = (-0.5, 1.0, -0.7, 0.4)
    re_sd = 0.8
    divergence = "SDb"
    batch_size = 5
    window = 125
    init_t_scale = 3.0
    adadelta_eps = 1e-4
    datasets = 8

    def generate(self, seed, index):
        return inputs.glmm_panels(seed, index, self.n_subjects, self.n_obs,
                                  self.beta, self.re_sd)

    def build_model(self, blocks):
        return self.fv.GlmmModel("bernoulli-logit", *blocks)

    def check(self, mu, factor):
        return checks.check_glmm(mu, factor, self.n_subjects, self.beta)

    def describe(self, mu):
        nb = self.n_subjects
        return {"beta_hat": [float(v) for v in mu[nb:nb + len(self.beta)]]}


class LogitSdrSweep:
    """`fishervi sweep` over `configs` logistic SDr configs, `--workers 2`.

    Each config reads its own generated CSV and has its own fit seed.  SDr,
    not FDr: at the size first planned (d=50, 1000 rows, window 1000) an FDr
    fit from mu = 0 stops at the earliest possible plateau (5 windows) about
    2 Laplace sd off the mode, and the check rejects it; SDr reaches the
    mode within the criterion-10 tolerance.

    adadelta_eps=1e-7, not the default 1e-6: the fit returns its last
    iterate, whose SGD noise has a heavy tail.  At 1e-6, 40 fits of one
    dataset (fit seeds only differing) had a median error of 0.043 Laplace
    sd but a maximum of 0.107, over the tolerance; about one fit in 100
    fails the check.  At 1e-7 the median is 0.017 and the maximum over 100
    fits 0.044, for ~1.8x the iterations.
    """

    name = "logit-sdr-sweep"
    n_pairs, n_features, coef_sd = 200, 19, 0.5   # 400 rows, d = 20 with intercept
    sigma0_sq = 100.0
    workers = 2
    max_iter = 60_000
    datasets = 1        # one trial is one whole sweep

    def __init__(self, fv, seed, workdir, divergence="SDr", configs=4, window=500,
                 n_pairs=None, n_features=None, adadelta_eps=1e-7):
        self.fv = fv
        self.seed = seed
        self.workdir = workdir
        self.divergence, self.window = divergence, window
        self.adadelta_eps = adadelta_eps
        n_pairs = n_pairs or self.n_pairs
        self.n_features = n_features or self.n_features
        self.config_seeds = inputs.fit_seeds(seed, configs)
        self.paths, self.lap_sd = [], []
        for k, cseed in enumerate(self.config_seeds):
            features, y = inputs.logistic_pairs(seed, k, n_pairs, self.n_features,
                                                self.coef_sd)
            design = np.column_stack([np.ones(y.size), (features - features.mean(axis=0))
                                      / features.std(axis=0)])
            self.lap_sd.append(checks.laplace_sd(design, self.sigma0_sq))
            with open(os.path.join(workdir, f"data{k}.csv"), "w") as fh:
                fh.write(inputs.logistic_csv_text(features, y))
            path = os.path.join(workdir, f"config{k}.cfg")
            with open(path, "w") as fh:
                fh.write("\n".join([
                    "model.kind = logistic",
                    f"model.data_csv = data{k}.csv",
                    "model.response = y",
                    f"model.sigma0_sq = {self.sigma0_sq}",
                    f"divergence = {self.divergence}",
                    f"optimizer.max_iter = {self.max_iter}",
                    f"optimizer.window = {self.window}",
                    f"optimizer.adadelta_eps = {self.adadelta_eps!r}",
                    f"seed = {cseed}",
                    f"output_dir = {os.path.join(workdir, f'out{k}')}",
                ]) + "\n")
            self.paths.append(path)

    def setup(self):
        """Config parsing and CSV design loading, as each config's run does."""
        cli = self.fv.cli
        models = []
        for path in self.paths:
            model = cli.build_model(cli.load_config(path))
            model.sparsity_hint()
            models.append(model)
        return models

    def warm_up(self, prepared):
        self.fv.fit(prepared[0], self.fv.FitConfig(self.divergence, seed=0, max_iter=20))

    def fit_once(self, prepared, index: int) -> Trial:
        """One whole sweep."""
        argv = ["sweep", *self.paths, "--workers", str(self.workers)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = self.fv.cli.main(argv)
        fit_s = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"sweep exited with {rc}"]
        iterations = rejected = 0
        elbos, fingerprint, errors = [], b"", []
        for k, model in enumerate(prepared):
            try:
                with open(os.path.join(self.workdir, f"out{k}", "fitresult.json"), "rb") as fh:
                    raw = fh.read()
            except FileNotFoundError:
                problems.append(f"config {k}: no fitresult.json")
                continue
            doc = json.loads(raw)
            mu, factor = self.fv.optimizers.FitResult.factor_from_json(doc)
            elbo = estimate_elbo(self.fv, mu, factor, model, self.config_seeds[k])
            iterations += doc["iterations"]
            rejected += doc["rejected_steps"]
            elbos.append(elbo)
            fingerprint += raw
            errors.append(checks.laplace_error(mu, self.lap_sd[k]))
            problems += [f"config {k}: {p}" for p in
                         checks.check_fit(doc["stop_reason"], elbo)
                         + checks.check_logistic(mu, self.lap_sd[k])]
        elbo = float(np.mean(elbos)) if elbos else float("nan")
        return Trial(index, fit_s, iterations, rejected, elbo, problems, fingerprint,
                     {"laplace_sd_err": errors})


WORKLOADS = {w.name: w for w in (SvSdb, GlmmSdb, LogitSdrSweep)}
