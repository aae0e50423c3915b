"""The benchmark's tracer (fitbench/tracing.py) wraps fishervi callables by name.

Renaming or removing one of them, or dropping one from the fit path, breaks
the traced benchmark run; these tests make it break tier-1 as well.
tracing.py is only read and executed here; nothing is installed, and its
Tracer wraps fishervi only inside a `with` block.
"""
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import fishervi
import fishervi.cli
from conftest import logistic_sweep_config

TRACING = Path(__file__).resolve().parents[1] / "fitbench" / "tracing.py"


# the spans fitbench/test_fitbench.py predicts for its sv-sdb workload
SV_SDB_SPANS = {"linalg.solve", "linalg.matvec", "linalg.from_star", "targets.grad",
                "targets.log_h", "optimizers.fit", "optimizers.gradient",
                "optimizers.lower_bound", "optimizers.adadelta"}
# ... and for its logit-sdr-sweep workload
SWEEP_SPANS = {"cli.main", "cli.run", "cli.build_model", "datasets.load_csv_design",
               "targets.hess", "targets.grad", "linalg.solve", "linalg.matvec",
               "optimizers.gradient", "optimizers.fit"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("fitbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_callable_resolves():
    tracing = _load_tracing()
    missing = []
    for module_name, entries in tracing.TRACED.items():
        module = importlib.import_module(f"fishervi.{module_name}")
        for path, _ in entries:
            if "." in path:
                cls_name, attr = path.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, path, None))
            if not found:
                missing.append(f"fishervi.{module_name}.{path}")
    assert not missing, f"traced by fitbench but not defined: {missing}"


def test_sv_sdb_fit_records_every_predicted_span():
    # a layer that drops off the fit path fails here, not only under fitbench
    model = fishervi.SvModel(np.random.default_rng(0).standard_normal(30))
    tracer = _load_tracing().Tracer(fishervi)
    with tracer:
        fishervi.fit(model, fishervi.FitConfig("SDb", seed=0, max_iter=20, window=10,
                                               init_t_scale=3.0))
    missing = SV_SDB_SPANS - {span[0] for span in tracer.spans}
    assert not missing, f"sv-sdb spans not recorded: {sorted(missing)}"


def test_logistic_sdr_sweep_records_every_predicted_span(tmp_path, rng):
    # a one-config `fishervi sweep` as the logit-sdr-sweep workload runs it;
    # Algorithm 1 makes one Hessian-vector product per iteration
    cfg = logistic_sweep_config(tmp_path, rng, max_iter=100)
    tracer = _load_tracing().Tracer(fishervi)
    with tracer:
        assert fishervi.cli.main(["sweep", str(cfg)]) == 0
    names = [span[0] for span in tracer.spans]
    missing = SWEEP_SPANS - set(names)
    assert not missing, f"logit-sdr-sweep spans not recorded: {sorted(missing)}"
    doc = json.loads((tmp_path / "out" / "fitresult.json").read_text())
    assert names.count("targets.hess") == doc["iterations"] == 100
