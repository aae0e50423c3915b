"""Gaussian variational inference under weighted Fisher/score divergences.

Sparse precision-factor parameterization for hierarchical models, SGD via
the reparameterization trick (KLD/FDr/SDr) or batch approximation
(FDb/SDb), a proximal closed-form baseline, and the closed-form analytics
verifying the mean-field and convergence theory at desk scale.
"""

from .linalg import (
    CholFactor,
    DiagScaler,
    SparsityPattern,
    build_dense_pattern,
    build_pattern,
    vech_gather,
    vech_scatter,
)
from .targets import GaussianTarget, GlmmModel, LogisticModel, SvModel, TargetModel
from .optimizers import (
    FitConfig,
    FitResult,
    VariationalState,
    adadelta_update,
    bam_step,
    fit,
    sdb_natural_step,
    step,
)
from .meanfield import (
    meanfield_kl,
    meanfield_fd,
    meanfield_sd_nqp,
    meanfield_weighted,
    variance_ordering_check,
    natural_gradient_recursion,
    weighted_fd_gaussians,
)
from .unilab import accuracy, lambert_w0, loggamma_closed_forms, make_target, uni_fit, uni_objective
from .diagnostics import ReferenceSamples, compare, mmd_mstar, mmd_sq_u

__version__ = "0.1.0"

__all__ = [
    "CholFactor",
    "DiagScaler",
    "FitConfig",
    "FitResult",
    "GaussianTarget",
    "GlmmModel",
    "LogisticModel",
    "ReferenceSamples",
    "SparsityPattern",
    "SvModel",
    "TargetModel",
    "VariationalState",
    "accuracy",
    "adadelta_update",
    "bam_step",
    "build_dense_pattern",
    "build_pattern",
    "compare",
    "fit",
    "lambert_w0",
    "loggamma_closed_forms",
    "make_target",
    "meanfield_fd",
    "meanfield_kl",
    "meanfield_sd_nqp",
    "meanfield_weighted",
    "mmd_mstar",
    "mmd_sq_u",
    "sdb_natural_step",
    "step",
    "variance_ordering_check",
    "natural_gradient_recursion",
    "uni_fit",
    "uni_objective",
    "vech_gather",
    "vech_scatter",
    "weighted_fd_gaussians",
]
