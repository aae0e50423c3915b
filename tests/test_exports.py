"""The package's public names, and the test oracles that live in tests/oracles.py."""
import fishervi
from fishervi import linalg, meanfield, optimizers, unilab


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
    # mean-field SD optimum is one exact nnls solve, not a capped sweep loop
    gone = [(fishervi, "SingularFactorError"), (linalg, "SingularFactorError"),
            (linalg.CholFactor, "_check_diag"), (unilab, "gauss_hermite_expectation"),
            (unilab, "_expect"), (unilab, "_objective_and_grad_inner"),
            (meanfield, "NQP_MAX_SWEEPS")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    assert "SingularFactorError" not in fishervi.__all__
