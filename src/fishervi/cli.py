"""Command-line orchestration: config parsing, model construction, run/emit.

Config files are flat `key = value` lines (dotted keys for sections, `#`
comments).  Outputs are plain CSV/JSON so any plotting stack can consume
them.  Subcommands: fit, compare, meanfield, unilab, recursion, gradvar,
sweep (several fit configs; with --workers N above 1 they run in a pool of
up to N worker processes, and the outcomes are printed in config order).
"""
from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import os
import sys

import numpy as np

from . import datasets, diagnostics, meanfield, optimizers, unilab
from .targets import GaussianTarget, GlmmModel, LogisticModel, SvModel


class ConfigError(ValueError):
    pass


# reported as one "error: ..." line and exit status 1: an OSError (a missing path,
# a directory) names its path; FloatingPointError is the base of numerical failures
_REPORTED_ERRORS = (OSError, ValueError, FloatingPointError, optimizers.FitAbortedError)

# every key a fit config may set; `run` rejects any other
CONFIG_KEYS = frozenset((
    "model.kind", "model.nu_csv", "model.lambda_csv", "model.sigma0_sq",
    "model.data_libsvm", "model.data_csv", "model.response", "model.intercept",
    "model.dataset", "model.variant", "model.sigma_beta_sq", "model.sigma_zeta_sq",
    "model.rates_csv", "divergence", "optimizer.max_iter", "optimizer.window",
    "optimizer.batch_size", "optimizer.adadelta_rho", "optimizer.adadelta_eps",
    "init.t_scale", "compare.ref_csv", "compare.replicates", "seed", "output_dir",
))


def parse_config_text(text: str) -> dict:
    """{key: value} of the `key = value` lines; a key may be set once."""
    cfg, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in line_of:
            raise ConfigError(f"line {lineno}: {key} is already set on line {line_of[key]}")
        cfg[key], line_of[key] = value, lineno
    return cfg


def load_config(path) -> dict:
    """The config's {key: value}, and "_dir"; its errors start with the path."""
    if not os.path.exists(path):
        raise ConfigError(f"{path}: config file not found")
    with open(path) as fh:
        try:
            cfg = parse_config_text(fh.read())
        except ValueError as exc:  # a ConfigError, or bytes that are not text
            raise ConfigError(f"{path}: {exc}") from None
    cfg["_dir"] = os.path.dirname(os.path.abspath(path))
    return cfg


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_CAST_NEEDS = {bool: "1/0/true/false/yes/no", int: "an integer", float: "a number"}


def _get(cfg, key, default=None, cast=str):
    """cast(cfg[key]), or default if key is unset.  A bool is a key of _BOOLS
    in any case; a value that does not cast is a ConfigError naming the key."""
    if key not in cfg:
        return default
    text = cfg[key]
    try:
        return _BOOLS[text.lower()] if cast is bool else cast(text)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key} must be {_CAST_NEEDS[cast]}, "
                          f"got {text!r}") from None


def _given(cfg, cast, **keys):
    """{name: cast(cfg[key])} for the keys cfg sets; unset ones keep the callee's default."""
    return {name: _get(cfg, key, cast=cast) for name, key in keys.items() if key in cfg}


def _path(cfg, key, required=False):
    raw = cfg.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing required config key {key}")
        return None
    p = raw if os.path.isabs(raw) else os.path.join(cfg.get("_dir", "."), raw)
    if not os.path.exists(p):
        raise ConfigError(f"file not found: {p} (config key {key})")
    return p


def build_model(cfg: dict):
    kind = _get(cfg, "model.kind")
    if kind is None:
        raise ConfigError("missing required config key model.kind")
    if kind == "gaussian":
        return GaussianTarget(
            datasets.load_csv_matrix(_path(cfg, "model.nu_csv", required=True), vector=True),
            datasets.load_csv_matrix(_path(cfg, "model.lambda_csv", required=True)))
    if kind == "logistic":
        prior = _given(cfg, float, sigma0_sq="model.sigma0_sq")
        if "model.data_libsvm" in cfg:
            x, y = datasets.load_libsvm(_path(cfg, "model.data_libsvm", required=True))
            if _get(cfg, "model.intercept", True, bool):
                import scipy.sparse
                x = scipy.sparse.hstack(
                    [scipy.sparse.csr_matrix(np.ones((x.shape[0], 1))), x]).tocsr()
            return LogisticModel(x, y, **prior)
        design = datasets.load_csv_design(
            _path(cfg, "model.data_csv", required=True),
            response=_get(cfg, "model.response", "y"),
            intercept=_get(cfg, "model.intercept", True, bool),
        )
        return LogisticModel(design.X, design.y, **prior)
    if kind == "glmm":
        dataset = _get(cfg, "model.dataset")
        path = _path(cfg, "model.data_csv", required=True)
        if dataset == "epilepsy":
            d = datasets.load_epilepsy(path, _get(cfg, "model.variant", "epi1"))
        elif dataset == "toenail":
            d = datasets.load_toenail(path)
        elif dataset == "polypharmacy":
            d = datasets.load_polypharmacy(path)
        else:
            raise ConfigError(f"unknown glmm dataset {dataset!r}")
        return GlmmModel(d.family, d.X_blocks, d.Z_blocks, d.y_blocks,
                         **_given(cfg, float, sigma_beta_sq="model.sigma_beta_sq",
                                  sigma_zeta_sq="model.sigma_zeta_sq"))
    if kind == "sv":
        y = datasets.load_returns(_path(cfg, "model.rates_csv", required=True))
        return SvModel(y, **_given(cfg, float, sigma0_sq="model.sigma0_sq"))
    raise ConfigError(f"unknown model kind {kind!r}")


def fit_config_from(cfg: dict, seed: int) -> optimizers.FitConfig:
    return optimizers.FitConfig(
        divergence=_get(cfg, "divergence"),
        seed=seed,
        **_given(cfg, int, max_iter="optimizer.max_iter", window="optimizer.window",
                 batch_size="optimizer.batch_size"),
        **_given(cfg, float, adadelta_rho="optimizer.adadelta_rho",
                 adadelta_eps="optimizer.adadelta_eps", init_t_scale="init.t_scale"),
    )


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_comparison(out_dir, report):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "comparison.json"), "w") as fh:
        fh.write(report.to_json())
    report.write_csv(os.path.join(out_dir, "comparison.csv"))


def run(cfg: dict, seed: int, out_dir: str) -> dict:
    """Fit per the config, write fitresult.json + lb_trace.csv (+ comparison).

    Unknown keys and compare.replicates below 2 are rejected before the fit.
    """
    unknown = sorted(k for k in cfg if k not in CONFIG_KEYS and not k.startswith("_"))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    replicates = _given(cfg, int, replicates="compare.replicates")
    if replicates.get("replicates", 2) < 2:
        raise ConfigError(f"compare.replicates must be >= 2, got {cfg['compare.replicates']}")
    model = build_model(cfg)
    result = optimizers.fit(model, fit_config_from(cfg, seed))
    # full config echo so the output alone reproduces the run
    result.config_echo["source"] = {k: v for k, v in cfg.items()
                                    if not k.startswith("_")}

    os.makedirs(out_dir, exist_ok=True)
    fit_path = os.path.join(out_dir, "fitresult.json")
    with open(fit_path, "w") as fh:
        fh.write(result.to_json())
    _write_csv(os.path.join(out_dir, "lb_trace.csv"), ["window", "lower_bound_mean"],
               enumerate(result.lb_trace, start=1))

    ref_key = _path(cfg, "compare.ref_csv")
    if ref_key is not None:
        ref = diagnostics.load_reference_csv(ref_key)
        _write_comparison(out_dir, diagnostics.compare(
            result.state.mu, result.state.factor, ref, seed=seed, **replicates))
    return {"fitresult": fit_path, "stop_reason": result.stop_reason,
            "iterations": result.iterations}


def load_reference_precision():
    """Stored d=49 logistic-posterior-style precision and mean for experiments."""
    base = importlib.resources.files("fishervi") / "_refdata"
    return (datasets.load_csv_matrix(str(base / "ref_mean_d49.csv"), vector=True),
            datasets.load_csv_matrix(str(base / "ref_precision_d49.csv")))


def _bounded(cast, low, high=None, low_open=False):
    """argparse `type=`: cast, then require low <= value <= high (low < value if
    low_open); argparse reports a value outside as a usage error, status 2."""
    def parse(text):
        value = cast(text)
        if not ((low < value if low_open else low <= value)
                and (high is None or value <= high)):
            need = (f">= {low}" if high is None
                    else f"in {'(' if low_open else '['}{low}, {high}]")
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value"
    return parse


def _param(text):
    """argparse `type=` for --param: key=<number>; anything else is a usage error."""
    key, _, value = text.partition("=")
    try:
        if key:
            return key, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected key=<number>, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or _get(cfg, "output_dir", "out")
    info = run(cfg, args.seed, out_dir)
    print(f"wrote {info['fitresult']} (stop: {info['stop_reason']}, "
          f"iterations: {info['iterations']})")
    return 0


def _cmd_compare(args) -> int:
    with open(args.fit) as fh:
        try:
            mu, factor = optimizers.FitResult.factor_from_json(json.load(fh))
        except ValueError as exc:  # not JSON, or not a fit result
            raise ConfigError(f"{args.fit}: {exc}") from None
    ref = diagnostics.load_reference_csv(args.ref)
    report = diagnostics.compare(mu, factor, ref, seed=args.seed,
                                 replicates=args.replicates)
    _write_comparison(args.out, report)
    print(json.dumps(report.summary(), indent=1, sort_keys=True))
    return 0


def _cmd_meanfield(args) -> int:
    lamb = datasets.load_csv_matrix(args.lambda_csv)
    os.makedirs(args.out, exist_ok=True)
    kl = meanfield.meanfield_kl(lamb)
    fd = meanfield.meanfield_fd(lamb)
    sd = meanfield.meanfield_sd_nqp(lamb)
    _write_csv(os.path.join(args.out, "meanfield.csv"),
               ["divergence", "coordinate", "sigma", "kkt_case"],
               ([sol.divergence, i, s, sol.kkt_cases[i]]
                for sol in (kl, fd, sd) for i, s in enumerate(sol.sigma_diag)))
    if args.region_sweep:
        _write_csv(os.path.join(args.out, "sd_fd_regions.csv"), ["a", "b", "c", "case"],
                   meanfield.sd_fd_region_sweep(step=args.region_step))
    print(f"wrote {args.out}/meanfield.csv")
    return 0


def _cmd_unilab(args) -> int:
    params = dict(args.param or [])
    target = unilab.make_target(args.target, **params)
    os.makedirs(args.out, exist_ok=True)
    fits = {div: unilab.uni_fit(target, div) for div in unilab.DIVERGENCES}
    _write_csv(os.path.join(args.out, "unilab.csv"),
               ["target", "params", "divergence", "metric", "value"],
               ([args.target, json.dumps(params, sort_keys=True), div, metric, value]
                for div, fit in fits.items() for metric, value in fit.metrics.items()))
    print(f"wrote {args.out}/unilab.csv")
    return 0


def _cmd_recursion(args) -> int:
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.dim, args.dim))
    j0 = a @ a.T / args.dim + np.eye(args.dim)
    eps0 = rng.standard_normal(args.dim)
    trace = meanfield.natural_gradient_recursion(j0, eps0, args.beta, args.t_max)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "recursion.csv"),
               ["t", "eps_norm", "delta_norm", "eps_bound", "delta_bound"],
               zip(range(trace.eps_norms.size), trace.eps_norms, trace.delta_norms,
                   trace.eps_bounds, trace.delta_bounds))
    print(f"wrote {args.out}/recursion.csv (final eps {trace.eps_norms[-1]:.3e})")
    return 0


def _cmd_gradvar(args) -> int:
    nu, lamb = load_reference_precision()
    spreads = optimizers.gradient_sd_experiment(lamb, nu, t_scale=args.t_scale,
                                                n_draws=args.draws, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "gradient_sd.csv"),
               ["divergence", "coordinate", "sd_mu", "sd_t_diag"],
               ([div, i, sd_mu[i], sd_t[i]]
                for div, (sd_mu, sd_t) in spreads.items() for i in range(sd_mu.size)))
    medians = {div: (float(np.median(v[0])), float(np.median(v[1])))
               for div, v in spreads.items()}
    print(json.dumps(medians, indent=1, sort_keys=True))
    return 0


def _sweep_one(job) -> tuple[bool, str]:
    """Fit one sweep config, (path, cfg, out_dir): (True, its stdout line) or
    (False, its error line).  Prints nothing, so a worker process can run it."""
    path, cfg, out_dir = job
    try:
        info = run(cfg, _get(cfg, "seed", 0, int), out_dir)
    except _REPORTED_ERRORS as exc:
        return False, f"error: {path}: {exc}"
    return True, f"{path}: stop={info['stop_reason']} iters={info['iterations']}"


def _cmd_sweep(args) -> int:
    """Run the configs, up to --workers at once; print each outcome in config order.

    Every config is loaded and its output directory resolved before any fit
    starts.  A config that does not load, or whose output directory an earlier
    config already claimed, is reported by path and not run.  Any failure
    sets exit status 1.
    """
    outcomes, jobs, owner = [], [], {}
    for path in args.configs:
        try:
            cfg = load_config(path)  # its errors name the path already
        except _REPORTED_ERRORS as exc:
            outcomes.append((False, f"error: {exc}"))
            continue
        out_dir = _get(cfg, "output_dir", os.path.splitext(path)[0] + "_out")
        first = owner.setdefault(os.path.realpath(out_dir), path)
        if first != path:
            outcomes.append((False, f"error: {path}: output directory {out_dir} "
                                    f"is also that of {first}"))
            continue
        outcomes.append(None)  # filled in from the fit below
        jobs.append((path, cfg, out_dir))

    workers = min(args.workers, len(jobs))
    if workers <= 1:
        return _print_outcomes(outcomes, map(_sweep_one, jobs))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) as pool:  # joins the workers on every path
        return _print_outcomes(outcomes, pool.map(_sweep_one, jobs))


def _print_outcomes(outcomes, fits) -> int:
    """Print the outcomes in order, taking the next of `fits` for each None;
    the exit status is 1 if any failed."""
    status = 0
    for outcome in outcomes:
        ok, line = next(fits) if outcome is None else outcome
        print(line, file=sys.stdout if ok else sys.stderr)
        if not ok:
            status = 1
    return status


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fishervi",
                                description="Gaussian VI with Fisher/score divergences")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="run one optimization from a config file")
    f.add_argument("--config", required=True)
    f.add_argument("--seed", required=True, type=int)
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_fit)

    c = sub.add_parser("compare", help="score a fit against reference samples")
    c.add_argument("--fit", required=True)
    c.add_argument("--ref", required=True)
    c.add_argument("--seed", required=True, type=int)
    c.add_argument("--replicates", type=_bounded(int, 2), default=50)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_compare)

    m = sub.add_parser("meanfield", help="closed-form mean-field solutions")
    m.add_argument("--lambda-csv", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--region-sweep", action="store_true")
    m.add_argument("--region-step", type=_bounded(float, 0, 2, low_open=True),
                   default=0.02)
    m.set_defaults(func=_cmd_meanfield)

    u = sub.add_parser("unilab", help="univariate target metric grid")
    u.add_argument("--target", required=True, choices=unilab.TARGETS)
    u.add_argument("--param", action="append", type=_param, metavar="key=value")
    u.add_argument("--out", required=True)
    u.set_defaults(func=_cmd_unilab)

    r = sub.add_parser("recursion", help="natural-gradient error recursion trace")
    r.add_argument("--dim", type=_bounded(int, 1), default=3)
    r.add_argument("--beta", type=float, default=0.8)
    r.add_argument("--t-max", type=_bounded(int, 1), default=500)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_recursion)

    g = sub.add_parser("gradvar", help="gradient-spread experiment on the stored precision")
    g.add_argument("--draws", type=_bounded(int, 2), default=1000)
    g.add_argument("--t-scale", type=float, default=10.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gradvar)

    s = sub.add_parser("sweep", help="run several fit configs, in worker processes")
    s.add_argument("configs", nargs="+")
    s.add_argument("--workers", type=_bounded(int, 1), default=os.cpu_count() or 1,
                   help="most configs fitted at once, each in its own process; 1 fits "
                        "them in this process (default: the CPU count, since a fit "
                        "keeps one core busy)")
    s.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except _REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
