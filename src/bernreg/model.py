"""Binary-response GLMs with independent normal priors.

Two links: the logistic sigmoid and the standard-normal CDF. All
likelihood and gradient code works in log space with the usual stable
forms, so etas of magnitude several hundred stay finite. Priors apply
verbatim on whatever scale the design is in (the default pipeline
standardizes, and the hyperparameters below are stated for that scale).

The log posterior runs over the distinct (x, y) rows of the training set,
each weighted by how often it occurs: a balanced subsample repeats many
rows, and a repeated row adds the same term every time. Both links work
on the signed margin t = (2y - 1) * eta, for which log p(y | eta) is
log F(t) and the score is (2y - 1) * f(t) / F(t). For logit, with
e = exp(-|t|), log F(t) = min(t, 0) - log1p(e) and f(t) / F(t) =
sigma(-t) = (e if t >= 0 else 1) / (1 + e); for probit they are
log Phi(t) and exp(-t^2 / 2 - log sqrt(2 pi) - log Phi(t)), with log Phi(t)
taken as log(ndtr(t)) for t >= -5 and as log_ndtr(t) below, well before
ndtr underflows. Either way about one transcendental pair per distinct
row. `log_cdf_and_ratio` is that one kernel: the posterior sums it over
the weighted rows, and pointwise LOO reads it row by row.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .data import DesignMatrix
from .errors import MismatchError

LOGIT = "logit"
PROBIT = "probit"
LINKS = (LOGIT, PROBIT)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny
_ONE_MINUS_EPS = 1.0 - np.finfo(np.float64).epsneg
_PROBIT_LOG_CUT = -5.0


@dataclass(frozen=True)
class PriorSpec:
    """Independent normals: one for the intercept, one shared by all slopes."""

    intercept_mean: float
    intercept_sd: float
    slope_mean: float
    slope_sd: float

    def __post_init__(self):
        if not all(math.isfinite(value) for value in vars(self).values()):
            raise ValueError("prior means and standard deviations must be finite")
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
            raise MismatchError(
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

    @cached_property
    def weighted_rows(self):
        """(x, sign, weight, inverse): each distinct (x, y) row of the design,
        its 2y - 1, how many observations share it, and each observation's row.

        Built on first use: the posterior and pointwise LOO both pay for the sort.
        """
        rows, inverse, counts = np.unique(
            np.column_stack([self.design.values, self.target]),
            axis=0, return_inverse=True, return_counts=True,
        )
        x = np.ascontiguousarray(rows[:, :-1])
        # numpy 2.0.x returns the axis=0 inverse as a column.
        return x, 2.0 * rows[:, -1] - 1.0, counts.astype(np.float64), inverse.ravel()

    @cached_property
    def prior_terms(self):
        """(means, sds, sum of log sd, n * log sqrt(2 pi)) of the prior."""
        sds = self.prior.sds(self.n_params)
        return (self.prior.means(self.n_params), sds, np.sum(np.log(sds)),
                self.n_params * _HALF_LOG_2PI)

    def logp_grad(self, beta):
        """The sampler's target protocol: (log posterior, gradient)."""
        return log_posterior_and_gradient(beta, self)


def success_probability(link, eta):
    """P(y = 1 | eta) as an array, kept inside (0, 1): the logistic sigmoid in
    its two-branch stable form, or the standard-normal CDF."""
    eta = np.asarray(eta, dtype=np.float64)
    p = np.empty_like(eta)  # an array even for 0-d eta, so out= works
    if link == LOGIT:
        # e = exp(-|eta|); p = 1 / (1 + e) for eta >= 0, else e / (1 + e).
        np.abs(eta, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        denominator = 1.0 + p
        np.copyto(p, 1.0, where=eta >= 0)
        np.divide(p, denominator, out=p)
    elif link == PROBIT:
        from scipy.special import ndtr

        ndtr(eta, out=p)
    else:
        raise ValueError(f"unknown link {link!r}")
    return np.clip(p, _TINY, _ONE_MINUS_EPS, out=p)


def linear_predictor(beta, design_values):
    """eta = intercept + X @ slopes for a packed coefficient vector."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape[-1] != design_values.shape[1] + 1:
        raise MismatchError(
            f"{beta.shape[-1]} coefficients for {design_values.shape[1]} columns"
        )
    return beta[..., 0, None] + beta[..., 1:] @ design_values.T


def log_cdf_and_ratio(link, margin, *, with_ratio=True):
    """(log F(t), f(t) / F(t)) at signed margins t = (2y - 1) * eta: the
    log-likelihood of each row and the magnitude of its score.

    With `with_ratio=False` the ratio is not computed and comes back None;
    log F(t) is the same either way.
    """
    ratio = None
    if link == LOGIT:
        e = np.exp(-np.abs(margin))
        loglik = np.minimum(margin, 0.0) - np.log1p(e)
        if with_ratio:
            ratio = np.where(margin >= 0.0, e, 1.0) / (1.0 + e)
    elif link == PROBIT:
        from scipy.special import log_ndtr, ndtr

        # log(ndtr) costs about half of log_ndtr; below t = -5 (Phi < 2.9e-7)
        # log_ndtr takes over, far above where ndtr underflows (t ~ -37).
        loglik = np.log(ndtr(np.maximum(margin, _PROBIT_LOG_CUT)))
        deep = margin < _PROBIT_LOG_CUT
        if deep.any():
            loglik[deep] = log_ndtr(margin[deep])
        if with_ratio:
            # phi / Phi in log space keeps both tails finite.
            ratio = np.exp(-0.5 * margin * margin - _HALF_LOG_2PI - loglik)
    else:
        raise ValueError(f"unknown link {link!r}")
    return loglik, ratio


def log_posterior_and_gradient(beta, model):
    """(log posterior, gradient) over the model's weighted distinct rows."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    x, sign, weight, _ = model.weighted_rows
    loglik, ratio = log_cdf_and_ratio(model.link, sign * linear_predictor(beta, x))
    score = weight * sign * ratio

    # The normal prior, constants included.
    means, sds, log_sd_sum, normalizer = model.prior_terms
    z = (beta - means) / sds
    value = float(np.dot(weight, loglik)) + float(-0.5 * np.dot(z, z) - log_sd_sum - normalizer)

    grad = np.empty_like(beta)
    grad[0] = np.sum(score)
    grad[1:] = x.T @ score
    grad += -z / sds
    return value, grad
