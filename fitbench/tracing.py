"""In-memory span tracing around the public callables of fishervi's layers.

`Tracer.install()` replaces module functions and class methods of the fit
path (linalg, targets, optimizers, cli, datasets) with wrappers that record
one span per call: name, start, end, parent span and thread (and, for the
cli layer, thread CPU time).  Nothing under `src/` changes; `uninstall()`
restores the originals.  Spans stay in memory
and are written out once, by `write_csv`, when the run ends.

A span's self time is its duration minus the part of its interval covered
by its child spans.  Spans opened on a thread with no open span (the sweep's
worker threads) take the innermost open span of the installing thread as
parent, so a sweep's per-config runs hang under the sweep's root.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name).  Class methods are given as
# "Class.method"; one span name may cover several callables.
TRACED = {
    "linalg": [
        ("CholFactor.solve_lower", "linalg.solve"),
        ("CholFactor.solve_upper_transpose", "linalg.solve"),
        ("CholFactor.matvec", "linalg.matvec"),
        ("CholFactor.rmatvec", "linalg.matvec"),
        ("CholFactor.from_star", "linalg.from_star"),
        ("CholFactor.from_values", "linalg.from_values"),
        ("CholFactor.identity", "linalg.identity"),
        ("DiagScaler.from_factor", "linalg.diag_scaler"),
        ("DiagScaler.apply", "linalg.diag_scaler"),
        ("build_pattern", "linalg.build_pattern"),
        ("build_dense_pattern", "linalg.build_pattern"),
    ],
    "targets": [
        (f"{cls}.{meth}", f"targets.{short}")
        for cls in ("GaussianTarget", "LogisticModel", "GlmmModel", "SvModel")
        for meth, short in (("log_h", "log_h"), ("grad_log_h", "grad"),
                            ("hess_log_h", "hess"), ("sparsity_hint", "sparsity_hint"))
    ],
    "optimizers": [
        ("fit", "optimizers.fit"),
        ("gradient_alg1", "optimizers.gradient"),
        ("gradient_alg2", "optimizers.gradient"),
        ("lower_bound", "optimizers.lower_bound"),
        ("adadelta_update", "optimizers.adadelta"),
    ],
    "cli": [
        ("main", "cli.main"),
        ("run", "cli.run"),
        ("build_model", "cli.build_model"),
        ("load_config", "cli.load_config"),
        ("fit_config_from", "cli.fit_config_from"),
    ],
    "datasets": [
        ("load_csv_design", "datasets.load_csv_design"),
    ],
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, package):
        self.package = package
        # span i: [name, start_ns, end_ns, parent, thread_id, cpu_ns]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._home_stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func):
        spans, lock, stack_of = self.spans, self._lock, self._stack
        home = self._home_stack
        # cli spans run on the sweep's worker threads, where wall time also
        # counts waits for the interpreter lock; their thread CPU time is the
        # busy time.  Other spans skip the extra clock read.
        cpu = name.startswith("cli.")

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (home[-1] if home else -1)
            span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident(),
                    time.thread_time_ns() if cpu else 0]
            with lock:
                idx = len(spans)
                spans.append(span)
            stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                if cpu:
                    span[5] = time.thread_time_ns() - span[5]
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        self._local.stack = self._home_stack
        for module_name, entries in TRACED.items():
            module = importlib.import_module(f"{self.package.__name__}.{module_name}")
            for path, span_name in entries:
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span_name, raw.__func__))
                    else:
                        new = self._wrap(span_name, raw)
                    self._patch(owner, attr, raw, new)
                else:
                    raw = getattr(module, path)
                    new = self._wrap(span_name, raw)
                    self._patch(module, path, raw, new)
                    # the package re-exports some functions (fishervi.fit)
                    if getattr(self.package, path, None) is raw:
                        self._patch(self.package, path, raw, new)
        return self

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
        self._local.stack = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread,cpu_ns\n")
            for i, (name, t0, t1, parent, tid, cpu) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0},{t1},{parent},{tid},{cpu}\n")


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Durations, self times and subtrees of recorded spans (times in ns)."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)
        self.duration = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
        self.self_ns = np.empty(len(spans), dtype=np.int64)
        for i, s in enumerate(spans):
            kids = self.children.get(i, ())
            if not kids:
                self.self_ns[i] = self.duration[i]
                continue
            covered = _union_length(
                (max(spans[k][1], s[1]), min(spans[k][2], s[2])) for k in kids)
            self.self_ns[i] = self.duration[i] - covered

    def named(self, name) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def subtree(self, root) -> list[int]:
        out, todo = [], [root]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children.get(i, ()))
        return out

    def by_name(self, members) -> dict[str, list[int]]:
        groups = defaultdict(list)
        for i in members:
            groups[self.spans[i][0]].append(i)
        return groups
