"""Fit benchmark for fishervi: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 fitbench/run.py --workload sv-sdb --seed 1 --seconds 35 --trace 0

The program is imported from the checkout's `src/` directory.  With
`--trace 0` the run times plateau-stopped fits with tracing off and prints
the end-to-end metrics; with `--trace 1` it wraps the fit path's layers in
spans (tracing.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it carries the provenance block and per-fit
details, which are also written to `.fitbench_out/` in the checkout.
"""
from __future__ import annotations

import os

# One OpenBLAS thread per process.  The fits' matrices are small; with the
# default two threads on a shared two-core machine, BLAS spin-waiting made
# the same fit take 1x to 3x its time depending on what else ran.  Set before
# numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
import time

import layers
from tracing import Tracer
from workloads import WORKLOADS, Trial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".fitbench_out")
SETUP_REPS = 15

# name: unit, better.  The order is the order of BENCHMARK.json's end_to_end.
END_TO_END = {
    "fit_s": ("s", "lower"),
    "iter_per_s": ("1/s", "higher"),
    "iters": ("count", "lower"),
    "elbo": ("nats", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_program():
    """Import fishervi from the checkout's src/ (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fishervi", "__init__.py")):
        raise SystemExit(f"fitbench: no fishervi sources under {src}")
    sys.path.insert(0, src)
    import fishervi
    import fishervi.cli  # noqa: F401  (the sweep workload drives the CLI)
    return fishervi


# ---------------------------------------------------------------------------
# provenance


def _openblas_info():
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                func = getattr(lib, sym)
                func.argtypes, func.restype = [], ctypes.c_int
                info["threads"] = int(func())
                return info
    return info


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = _openblas_info()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["version"],
        "openblas_threads": blas["threads"],
        "git_sha": _git_sha(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# measurement


def median_setup(workload, reps=SETUP_REPS):
    times, prepared = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        prepared = workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), prepared


def timed_fits(workload, prepared, seconds):
    """One fit per dataset, then repeats cycling the datasets while time remains.

    Returns {index: [Trial, ...]}.  A repeat must reproduce its first fit
    bit for bit; a difference is recorded as a problem on the repeat.
    """
    trials = {k: [] for k in range(workload.datasets)}
    start = time.perf_counter()
    i = 0
    while True:
        k = i % workload.datasets
        t0 = time.perf_counter()
        try:
            trial = workload.fit_once(prepared, k)
        except Exception as exc:  # a fit that raises is a failed attempt
            trial = Trial(k, time.perf_counter() - t0, 0, 0, float("nan"),
                          [f"{type(exc).__name__}: {exc}"])
        if trials[k] and trial.fingerprint != trials[k][0].fingerprint:
            trial.problems.append("repeat of the same fit changed the result")
        trials[k].append(trial)
        i += 1
        if i < workload.datasets:
            continue
        typical = statistics.median(t.fit_s for ts in trials.values() for t in ts)
        if time.perf_counter() - start + typical > seconds:
            return trials


def failure_counts(all_trials):
    """(attempted, failed): SGD iterations attempted, and rejected steps +
    fits that raised + fits failing their check.  A fit that raised counts
    one attempted iteration."""
    attempted = failed = 0
    for t in all_trials:
        attempted += max(t.iterations, 1)
        failed += t.rejected + (1 if t.problems else 0)
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seconds):
    setup_s, prepared = median_setup(workload)
    workload.warm_up(prepared)
    trials = timed_fits(workload, prepared, seconds)
    firsts = [ts[0] for ts in trials.values()]
    fit_s = [statistics.median([t.fit_s for t in ts]) for ts in trials.values()]
    values = {
        "fit_s": statistics.fmean(fit_s),
        "iter_per_s": statistics.median([t.iterations / s for t, s in zip(firsts, fit_s)]),
        "iters": statistics.fmean([t.iterations for t in firsts]),
        "elbo": statistics.fmean([t.elbo for t in firsts]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    return metrics, [t for ts in trials.values() for t in ts]


def traced(fv, workload):
    """Per-layer metrics from a traced fit of the first dataset.

    The traced fit sits between two untraced fits of the same dataset;
    trace.overhead compares its rate with their mean time.
    """
    _, prepared = median_setup(workload, reps=1)
    workload.warm_up(prepared)
    before = workload.fit_once(prepared, 0)
    tracer = Tracer(fv)
    with tracer:
        traced_prepared = workload.setup()
        traced_trial = workload.fit_once(traced_prepared, 0)
    after = workload.fit_once(prepared, 0)
    for trial in (traced_trial, after):
        if trial.fingerprint != before.fingerprint:
            trial.problems.append("fit differs from the first untraced fit")
    untraced_s = (before.fit_s + after.fit_s) / 2.0
    overhead = 1.0 - untraced_s / traced_trial.fit_s
    metrics = layers.per_layer_metrics(tracer.spans, traced_trial, overhead)
    return metrics, [before, traced_trial, after], tracer


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    fv = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](fv, args.seed, workdir)
        if args.trace:
            metrics, trials, tracer = traced(fv, workload)
            tracer.write_csv(os.path.join(OUT_DIR, f"spans-{tag}.csv"))
        else:
            metrics, trials = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = failure_counts(trials)
    problems = [p for t in trials for p in t.problems]
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "failed_frac": failed / attempted,
        "fits": [{"dataset": t.index, "fit_s": t.fit_s, "iterations": t.iterations,
                  "rejected": t.rejected, "elbo": t.elbo, "problems": t.problems,
                  **t.detail} for t in trials],
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
