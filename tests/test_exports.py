"""The package's public names, what importing it loads, and the test oracles
that live in tests/oracles.py."""
import json
import os
import subprocess
import sys
from pathlib import Path

import fishervi
from conftest import logistic_sweep_config
from fishervi import linalg, meanfield, optimizers, targets, unilab


def test_every_export_resolves():
    missing = [name for name in fishervi.__all__ if not hasattr(fishervi, name)]
    assert missing == []


def test_oracles_are_not_part_of_the_package():
    # reference computations for the tests only; fit, the CLI and the
    # exports never reach them
    gone = [(optimizers, "batch_objective_trace"), (optimizers, "batch_objective_direct"),
            (optimizers, "bam_objective"), (meanfield, "batch_stats_limit_check"),
            (unilab, "stationarity_check_t"), (unilab, "loggamma_fd_closed"),
            (optimizers.BatchStats, "w_mat"), (linalg.DiagScaler, "d_diag"),
            (linalg.CholFactor, "precision")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []


def test_second_code_paths_are_gone():
    # solves compute through (step judges finiteness, compare checks its factor
    # once), uni_objective evaluates through uni_fit's quadrature, and the
    # mean-field SD optimum is one exact nnls solve, not a capped sweep loop,
    # and the GLMM and SV products are the complex-step derivative of the score
    gone = [(fishervi, "SingularFactorError"), (linalg, "SingularFactorError"),
            (linalg.CholFactor, "_check_diag"), (unilab, "gauss_hermite_expectation"),
            (unilab, "_expect"), (unilab, "_objective_and_grad_inner"),
            (meanfield, "NQP_MAX_SWEEPS"), (targets, "_bernoulli_a2")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    assert "SingularFactorError" not in fishervi.__all__


SRC = Path(__file__).resolve().parents[1] / "src"

# a logistic SDr sweep through the CLI and an SV SDb fit, in a fresh process;
# prints the analytics-only scipy subpackages they left in sys.modules
FIT_PATH_SCRIPT = """
import json, sys
import numpy as np
import fishervi, fishervi.cli
assert fishervi.cli.main(["sweep", sys.argv[1]]) == 0
model = fishervi.SvModel(np.random.default_rng(0).standard_normal(30))
fishervi.fit(model, fishervi.FitConfig("SDb", seed=0, max_iter=20, window=10,
                                       init_t_scale=3.0))
print(json.dumps([m for m in ("scipy.stats", "scipy.optimize", "scipy.integrate")
                  if m in sys.modules]))
"""


def test_fit_path_loads_no_analytics_scipy(tmp_path, rng):
    # fits need numpy, scipy.linalg.lapack, scipy.special and scipy.sparse;
    # compare, meanfield and unilab import the rest where they call it
    cfg = logistic_sweep_config(tmp_path, rng, max_iter=100)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", FIT_PATH_SCRIPT, str(cfg)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []
