"""Bayesian regression for binary responses.

Fits logit and probit models with normal priors by gradient-based MCMC,
checks convergence with rank-normalized diagnostics, compares models by
Pareto-smoothed leave-one-out cross-validation, and scores new rows on
the probability or outcome scale. See the cli module for the batch
interface and the oracle module for independent numerical cross-checks.
"""

from .chainfile import load_chain_file, save_chain_file
from .data import (
    DesignMatrix,
    RecordTable,
    balance_oversample,
    dataset_fingerprint,
    encode,
    encode_new,
    holdout_split,
    parse_dataset,
    prepare_training_table,
    subsample,
)
from .diagnostics import (
    ParamSummary,
    ess_bulk,
    ess_tail,
    quantile,
    split_rhat,
    summarize,
)
from .loo import (
    ComparisonResult,
    LogLikMatrix,
    LooResult,
    compare,
    exact_loo,
    pointwise_loglik,
    psis_loo,
    psis_smooth,
)
from .model import (
    Coefficients,
    ModelSpec,
    PriorSpec,
    default_priors,
    log_posterior_and_gradient,
    logit_link,
    probit_link,
)
from .oracle import (
    CheckResult,
    GridSpec,
    finite_diff_gradient,
    grid_posterior_moments,
    run_verification,
)
from .predict import PredictionRow, posterior_predict
from .sampler import PosteriorDraws, SamplerConfig, initialize_chain, sample

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "ComparisonResult",
    "CheckResult",
    "DesignMatrix",
    "GridSpec",
    "LogLikMatrix",
    "LooResult",
    "ModelSpec",
    "ParamSummary",
    "PosteriorDraws",
    "PredictionRow",
    "PriorSpec",
    "RecordTable",
    "SamplerConfig",
    "balance_oversample",
    "compare",
    "dataset_fingerprint",
    "default_priors",
    "encode",
    "encode_new",
    "ess_bulk",
    "ess_tail",
    "exact_loo",
    "finite_diff_gradient",
    "grid_posterior_moments",
    "holdout_split",
    "initialize_chain",
    "load_chain_file",
    "log_posterior_and_gradient",
    "logit_link",
    "parse_dataset",
    "pointwise_loglik",
    "posterior_predict",
    "prepare_training_table",
    "probit_link",
    "psis_loo",
    "psis_smooth",
    "quantile",
    "run_verification",
    "sample",
    "save_chain_file",
    "split_rhat",
    "subsample",
    "summarize",
    "__version__",
]
