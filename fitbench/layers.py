"""Per-layer metrics from the spans of one traced fit (or one traced sweep).

The measured call's span tree is rooted at `optimizers.fit` for the library
workloads and at `cli.main` for the sweep.  Shares are self time of a
layer's spans over the busy time of the tree (the sum of all self times;
for the sweep this adds the worker threads' time).  Counts per iteration
divide by the SGD iterations of the traced fit(s).  On the sweep's worker
threads a span's duration includes waits for the interpreter lock, so
`cli.sweep.parallelism` uses the per-config runs' thread CPU time.
"""
from __future__ import annotations

import numpy as np

from tracing import SpanTable

# name: unit, better.  The order is the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "linalg.solve.calls_per_iter": ("count", "lower"),
    "linalg.solve.us_p50": ("us", "lower"),
    "linalg.solve.us_p99": ("us", "lower"),
    "linalg.solve.share": ("ratio", "lower"),
    "linalg.matvec.calls_per_iter": ("count", "lower"),
    "linalg.matvec.us_p50": ("us", "lower"),
    "linalg.from_star.us_p50": ("us", "lower"),
    "linalg.share": ("ratio", "lower"),
    "targets.grad.calls_per_iter": ("count", "lower"),
    "targets.grad.us_p50": ("us", "lower"),
    "targets.grad.us_p99": ("us", "lower"),
    "targets.log_h.us_p50": ("us", "lower"),
    "targets.hess.calls_per_iter": ("count", "lower"),
    "targets.hess.us_p50": ("us", "lower"),
    "targets.share": ("ratio", "lower"),
    "optimizers.gradient.us_p50": ("us", "lower"),
    "optimizers.gradient.self_us_p50": ("us", "lower"),
    "optimizers.lower_bound.us_p50": ("us", "lower"),
    "optimizers.adadelta.us_p50": ("us", "lower"),
    "optimizers.fit.self_share": ("ratio", "lower"),
    "optimizers.share": ("ratio", "lower"),
    "optimizers.rejected_steps": ("count", "lower"),
    "cli.run.s_p50": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.sweep.parallelism": ("ratio", "higher"),
    "cli.share": ("ratio", "lower"),
    "datasets.load_csv_design.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _pct(values_ns, q, scale):
    return float(np.percentile(values_ns, q)) / scale if len(values_ns) else 0.0


def per_layer_metrics(spans, trial, overhead: float) -> dict:
    """{name: (value, unit)} for every PER_LAYER metric."""
    table = SpanTable(spans)
    main_roots = table.named("cli.main")
    roots = main_roots[-1:] if main_roots else table.named("optimizers.fit")[-1:]
    members = [i for r in roots for i in table.subtree(r)]
    groups = table.by_name(members)
    busy = float(sum(table.self_ns[i] for i in members)) or 1.0
    iters = max(trial.iterations, 1)

    def dur(name):
        return table.duration[groups.get(name, [])]

    def self_of(name):
        return table.self_ns[groups.get(name, [])]

    def share(prefix):
        return float(sum(table.self_ns[i] for i in members
                         if table.spans[i][0].startswith(prefix))) / busy

    us, s = 1e3, 1e9
    run_spans = groups.get("cli.run", [])
    sweep = dur("cli.main")
    values = {
        "linalg.solve.calls_per_iter": len(dur("linalg.solve")) / iters,
        "linalg.solve.us_p50": _pct(dur("linalg.solve"), 50, us),
        "linalg.solve.us_p99": _pct(dur("linalg.solve"), 99, us),
        "linalg.solve.share": share("linalg.solve"),
        "linalg.matvec.calls_per_iter": len(dur("linalg.matvec")) / iters,
        "linalg.matvec.us_p50": _pct(dur("linalg.matvec"), 50, us),
        "linalg.from_star.us_p50": _pct(dur("linalg.from_star"), 50, us),
        "linalg.share": share("linalg."),
        "targets.grad.calls_per_iter": len(dur("targets.grad")) / iters,
        "targets.grad.us_p50": _pct(dur("targets.grad"), 50, us),
        "targets.grad.us_p99": _pct(dur("targets.grad"), 99, us),
        "targets.log_h.us_p50": _pct(dur("targets.log_h"), 50, us),
        "targets.hess.calls_per_iter": len(dur("targets.hess")) / iters,
        "targets.hess.us_p50": _pct(dur("targets.hess"), 50, us),
        "targets.share": share("targets."),
        "optimizers.gradient.us_p50": _pct(dur("optimizers.gradient"), 50, us),
        "optimizers.gradient.self_us_p50": _pct(self_of("optimizers.gradient"), 50, us),
        "optimizers.lower_bound.us_p50": _pct(dur("optimizers.lower_bound"), 50, us),
        "optimizers.adadelta.us_p50": _pct(dur("optimizers.adadelta"), 50, us),
        "optimizers.fit.self_share": float(self_of("optimizers.fit").sum()) / busy,
        "optimizers.share": share("optimizers."),
        "optimizers.rejected_steps": trial.rejected,
        "cli.run.s_p50": _pct(dur("cli.run"), 50, s),
        "cli.run.self_s": _pct(self_of("cli.run"), 50, s),
        "cli.sweep.parallelism": (sum(spans[i][5] for i in run_spans) / float(sweep.sum())
                                  if len(sweep) else 0.0),
        "cli.share": share("cli."),
        "datasets.load_csv_design.s": _pct(
            table.duration[table.named("datasets.load_csv_design")], 50, s),
        "trace.overhead": overhead,
    }
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
