"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""
from __future__ import annotations

import json
import os

import numpy as np
import pytest

import fishervi
import fishervi.cli  # noqa: F401
import inputs
import layers
import run
from tracing import Tracer, SpanTable
from workloads import GlmmSdb, LogitSdrSweep, SvSdb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# seeded generators


def _input_bytes(seed):
    y = inputs.sv_returns(seed, 1, 50, 0.9, 0.3, 0.0)
    xb, zb, yb = inputs.glmm_panels(seed, 1, 6, 5, (-0.5, 1.0, -0.7, 0.4), 0.8)
    feats, resp = inputs.logistic_pairs(seed, 1, 20, 4, 0.5)
    return [y.tobytes(),
            b"".join(a.tobytes() for a in xb + zb + yb),
            feats.tobytes() + resp.tobytes(),
            inputs.logistic_csv_text(feats, resp).encode(),
            repr(inputs.fit_seeds(seed, 3)).encode()]


def test_same_seed_gives_identical_inputs_other_seed_differs():
    first, again, other = _input_bytes(7), _input_bytes(7), _input_bytes(8)
    assert first == again
    for a, b in zip(first, other):
        assert a != b


def test_datasets_of_one_run_differ():
    assert inputs.sv_returns(7, 0, 50, 0.9, 0.3, 0.0).tobytes() != \
        inputs.sv_returns(7, 1, 50, 0.9, 0.3, 0.0).tobytes()


def test_logistic_pairs_are_complements():
    feats, y = inputs.logistic_pairs(3, 0, 15, 4, 0.5)
    np.testing.assert_array_equal(feats[:15], feats[15:])
    np.testing.assert_array_equal(y[:15] + y[15:], np.ones(15))


def test_sweep_inputs_reach_the_program_only_as_files(tmp_path):
    wl = LogitSdrSweep(fishervi, 5, str(tmp_path), configs=2)
    with open(tmp_path / "data1.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[-1] == "y" and len(header) == wl.n_features + 1
    cfg = fishervi.cli.load_config(wl.paths[1])
    assert cfg["divergence"] == "SDr" and cfg["model.data_csv"] == "data1.csv"


# ---------------------------------------------------------------------------
# output checks reject the two non-converged fits found while sizing


def test_check_rejects_sv_fit_from_default_init_t_scale(tmp_path):
    wl = SvSdb(fishervi, 1, str(tmp_path))
    prepared = wl.setup()
    with np.errstate(all="ignore"):
        bad = wl.fit_once(prepared, 0, init_t_scale=1.0)
    assert bad.problems, bad.detail
    good = wl.fit_once(prepared, 0)
    assert not good.problems, good.problems


def test_check_rejects_logistic_fdr_fit(tmp_path):
    for sub in ("fdr", "sdr"):
        os.makedirs(tmp_path / sub)
    # the size and step setting at which the FDr failure was found:
    # d=50, 1000 rows, window 1000, default adadelta_eps
    bad_wl = LogitSdrSweep(fishervi, 1, str(tmp_path / "fdr"), divergence="FDr", configs=1,
                           window=1000, n_pairs=500, n_features=49, adadelta_eps=1e-6)
    bad = bad_wl.fit_once(bad_wl.setup(), 0)
    assert any("Laplace sd" in p for p in bad.problems), bad.problems
    good_wl = LogitSdrSweep(fishervi, 1, str(tmp_path / "sdr"), configs=1)
    good = good_wl.fit_once(good_wl.setup(), 0)
    assert not good.problems, good.problems


def test_check_flags_non_finite_elbo_and_max_iter_stop():
    from checks import check_fit

    assert check_fit("plateau", -10.0) == []
    assert len(check_fit("max_iter", float("nan"))) == 2


# ---------------------------------------------------------------------------
# tracing


class TinySv(SvSdb):
    n, window, max_iter, datasets = 30, 50, 400, 1


class TinyGlmm(GlmmSdb):
    n_subjects, window, max_iter, datasets = 8, 50, 400, 1


def _tiny(name, tmp_path):
    if name == "sv-sdb":
        return TinySv(fishervi, 2, str(tmp_path))
    if name == "glmm-sdb":
        return TinyGlmm(fishervi, 2, str(tmp_path))
    return LogitSdrSweep(fishervi, 2, str(tmp_path), configs=2, n_pairs=30,
                         n_features=3, window=50)


# spans that must appear on the workload where the layer is predicted to matter
PREDICTED = {
    "sv-sdb": {"linalg.solve", "linalg.matvec", "linalg.from_star", "targets.grad",
               "targets.log_h", "optimizers.fit", "optimizers.gradient",
               "optimizers.lower_bound", "optimizers.adadelta"},
    "glmm-sdb": {"targets.grad", "targets.log_h", "linalg.solve", "optimizers.gradient"},
    "logit-sdr-sweep": {"cli.main", "cli.run", "cli.build_model", "datasets.load_csv_design",
                        "targets.hess", "targets.grad", "linalg.solve", "linalg.matvec",
                        "optimizers.gradient", "optimizers.fit"},
}


@pytest.mark.parametrize("name", sorted(PREDICTED))
def test_self_times_sum_to_each_fit_root(name, tmp_path):
    wl = _tiny(name, tmp_path)
    tracer = Tracer(fishervi)
    with tracer, np.errstate(all="ignore"):
        trial = wl.fit_once(wl.setup(), 0)
    table = SpanTable(tracer.spans)
    fit_roots = table.named("cli.run" if name == "logit-sdr-sweep" else "optimizers.fit")
    assert fit_roots
    for root in fit_roots:
        members = table.subtree(root)
        total_self = int(table.self_ns[members].sum())
        assert abs(total_self - int(table.duration[root])) <= 1e-6 * table.duration[root]
        assert np.all(table.self_ns[members] >= 0)
    seen = {s[0] for s in tracer.spans}
    assert PREDICTED[name] <= seen, PREDICTED[name] - seen
    metrics = layers.per_layer_metrics(tracer.spans, trial, 0.0)
    assert list(metrics) == list(layers.PER_LAYER)
    if name == "logit-sdr-sweep":
        assert metrics["targets.hess.calls_per_iter"][0] == 1.0
    else:
        assert metrics["targets.hess.calls_per_iter"][0] == 0.0


def test_tracer_restores_the_program():
    before = (fishervi.fit, fishervi.optimizers.gradient_alg2,
              fishervi.CholFactor.__dict__["from_star"], fishervi.SvModel.grad_log_h)
    with Tracer(fishervi):
        assert fishervi.fit is not before[0]
    after = (fishervi.fit, fishervi.optimizers.gradient_alg2,
             fishervi.CholFactor.__dict__["from_star"], fishervi.SvModel.grad_log_h)
    assert after == before


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print


def test_benchmark_json_names_match_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
