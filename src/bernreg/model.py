"""Binary-response GLMs with independent normal priors.

Two links: the logistic sigmoid and the standard-normal CDF. All
likelihood and gradient code works in log space with the usual stable
forms, so etas of magnitude several hundred stay finite. The probit
terms work on the signed margin t = (2y - 1) * eta: log p(y | eta) is
log Phi(t) and the score is (2y - 1) * phi(t) / Phi(t), one log_ndtr
and one exp per row, bit for bit what log Phi(eta) and log Phi(-eta)
give for 0/1 targets. Priors apply verbatim on whatever scale the
design is in (the default pipeline standardizes, and the hyperparameters
below are stated for that scale).
"""

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .data import DesignMatrix
from .errors import DimensionMismatch

LOGIT = "logit"
PROBIT = "probit"
LINKS = (LOGIT, PROBIT)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny
_ONE_MINUS_EPS = 1.0 - np.finfo(np.float64).epsneg


@dataclass(frozen=True)
class PriorSpec:
    """Independent normals: one for the intercept, one shared by all slopes."""

    intercept_mean: float
    intercept_sd: float
    slope_mean: float
    slope_sd: float

    def __post_init__(self):
        if not (self.intercept_sd > 0 and self.slope_sd > 0):
            raise ValueError("prior standard deviations must be positive")

    def means(self, n_params):
        out = np.full(n_params, self.slope_mean, dtype=np.float64)
        out[0] = self.intercept_mean
        return out

    def sds(self, n_params):
        out = np.full(n_params, self.slope_sd, dtype=np.float64)
        out[0] = self.intercept_sd
        return out

    def to_dict(self):
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d):
        """Every field required and converted to its type; extra keys ignored."""
        return cls(**{f.name: f.type(d[f.name]) for f in fields(cls)})


def default_priors(link):
    """Hyperparameters used for the standardized marketing fits."""
    if link == LOGIT:
        return PriorSpec(3.5, 1.0, 0.0, 0.5)
    if link == PROBIT:
        return PriorSpec(0.0, 5.0, 0.0, 2.0)
    raise ValueError(f"unknown link {link!r}")


@dataclass
class ModelSpec:
    """Link + prior + encoded design + 0/1 target; the sampler's input.

    `dim`, `param_names` and `logp_grad` make it a sampler target.
    """

    link: str
    prior: PriorSpec
    design: DesignMatrix
    target: np.ndarray

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        self.target = np.asarray(self.target, dtype=np.float64).ravel()
        if len(self.target) != self.design.n_rows:
            raise DimensionMismatch(
                f"target length {len(self.target)} differs from design rows "
                f"{self.design.n_rows}"
            )
        bad = ~np.isin(self.target, (0.0, 1.0))
        if bad.any():
            raise ValueError("target entries must be 0 or 1")

    @property
    def n_params(self):
        return self.design.n_columns + 1

    @property
    def param_names(self):
        return ("Intercept",) + tuple(self.design.column_names)

    @property
    def dim(self):
        return self.n_params

    def logp_grad(self, beta):
        """The sampler's target protocol: (log posterior, gradient)."""
        return log_posterior_and_gradient(beta, self)


def logit_link(eta):
    """Logistic sigmoid, two-branch stable form, output inside (0, 1)."""
    eta_arr = np.asarray(eta, dtype=np.float64)
    z = np.exp(-np.abs(eta_arr))
    out = np.where(eta_arr >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    out = np.clip(out, _TINY, _ONE_MINUS_EPS)
    return float(out) if np.isscalar(eta) or eta_arr.ndim == 0 else out


def probit_link(eta):
    """Standard-normal CDF, clamped off exact 0/1 at the float boundary."""
    eta_arr = np.asarray(eta, dtype=np.float64)
    out = np.clip(special.ndtr(eta_arr), _TINY, _ONE_MINUS_EPS)
    return float(out) if np.isscalar(eta) or eta_arr.ndim == 0 else out


def link_function(link):
    if link == LOGIT:
        return logit_link
    if link == PROBIT:
        return probit_link
    raise ValueError(f"unknown link {link!r}")


def linear_predictor(beta, design_values):
    """eta = intercept + X @ slopes for a packed coefficient vector."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[-1] != design_values.shape[1] + 1:
        raise DimensionMismatch(
            f"{beta.shape[-1]} coefficients for {design_values.shape[1]} columns"
        )
    return beta[..., 0, None] + beta[..., 1:] @ design_values.T


def bernoulli_loglik_terms(link, eta, y):
    """Per-observation log p(y | eta); stable in both tails."""
    eta = np.asarray(eta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if link == LOGIT:
        # y*log(sigma(eta)) + (1-y)*log(sigma(-eta)) = y*eta - log(1+e^eta)
        return y * eta - np.logaddexp(0.0, eta)
    if link == PROBIT:
        return _probit_signed_margin(eta, y)[2]
    raise ValueError(f"unknown link {link!r}")


def _probit_signed_margin(eta, y):
    """(sign, margin, log Phi(margin)) with sign = 2y - 1, margin = sign * eta.

    For 0/1 targets log p(y | eta) = log Phi(margin): one log_ndtr per
    row, and no 0 * (-inf).
    """
    sign = 2.0 * y - 1.0
    margin = sign * eta
    return sign, margin, special.log_ndtr(margin)


def _log_prior_and_gradient(beta, prior):
    """Normal log-density of the packed coefficients, constants included,
    and its gradient."""
    means = prior.means(len(beta))
    sds = prior.sds(len(beta))
    z = (beta - means) / sds
    value = float(-0.5 * np.dot(z, z) - np.sum(np.log(sds)) - len(beta) * _HALF_LOG_2PI)
    return value, -z / sds


def log_posterior_and_gradient(beta, model):
    """(log posterior, gradient) sharing one linear-predictor evaluation."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    x = model.design.values
    y = model.target
    eta = linear_predictor(beta, x)

    if model.link == LOGIT:
        value = float(np.dot(y, eta) - np.sum(np.logaddexp(0.0, eta)))
        score = y - logit_link(eta)
    else:
        sign, margin, log_cdf = _probit_signed_margin(eta, y)
        # Two dots, not one sum: the same additions in the same order as
        # dot(y, log Phi(eta)) + dot(1 - y, log Phi(-eta)), so every bit
        # of the value is kept.
        value = float(np.dot(y, log_cdf) + np.dot(1.0 - y, log_cdf))
        # Inverse Mills ratio phi(margin) / Phi(margin) in log space keeps
        # both tails finite.
        score = sign * np.exp(-0.5 * margin * margin - _HALF_LOG_2PI - log_cdf)

    prior_value, prior_grad = _log_prior_and_gradient(beta, model.prior)
    value += prior_value

    grad = np.empty_like(beta)
    grad[0] = np.sum(score)
    grad[1:] = x.T @ score
    grad += prior_grad
    return value, grad
