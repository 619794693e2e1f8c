"""Bayesian regression for binary responses.

Fits logit and probit models with normal priors by gradient-based MCMC,
checks convergence with rank-normalized diagnostics, compares models by
Pareto-smoothed leave-one-out cross-validation, and scores new rows on
the probability or outcome scale. The modules are the library: import
from them directly (`bernreg.data`, `bernreg.model`, `bernreg.sampler`,
`bernreg.diagnostics`, `bernreg.loo`, `bernreg.predict`, ...). The cli
module is the batch interface and the oracle module holds independent
numerical cross-checks.
"""

__version__ = "0.1.0"
