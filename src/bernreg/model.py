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
import os
import pickle
import signal
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
# Values per row block (rows x draws), 256 KB of float64 that stay in
# cache: blocks of 1,024 rows at S = 2,000 ran slower than single rows.
_BLOCK_VALUES = 32_768


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
        # max(e, 1) = 1 where eta >= 0 and max(e, 0) = e elsewhere, as e <= 1.
        np.maximum(p, eta >= 0, out=p)
        np.divide(p, denominator, out=p)
    elif link == PROBIT:
        from scipy.special import ndtr

        ndtr(eta, out=p)
    else:
        raise ValueError(f"unknown link {link!r}")
    return np.clip(p, _TINY, _ONE_MINUS_EPS, out=p)


def _check_columns(beta, x):
    if beta.shape[-1] != x.shape[1] + 1:
        raise MismatchError(f"{beta.shape[-1]} coefficients for {x.shape[1]} columns")


def linear_predictor(beta, design_values):
    """eta = intercept + X @ slopes for a packed coefficient vector."""
    beta = np.asarray(beta, dtype=np.float64)
    _check_columns(beta, design_values)
    return beta[..., 0, None] + beta[..., 1:] @ design_values.T


def block_rows(n_draws):
    """Rows per block of `row_blocks`: about _BLOCK_VALUES values, at least two."""
    return max(2, _BLOCK_VALUES // n_draws)


def row_blocks(beta, x):
    """Yield (rows, eta) for consecutive `block_rows`-row slices of x, with
    eta[i, s] = intercept_s + x_i . slopes_s over the (S, k + 1) draws beta.

    numpy sends a one-row product to BLAS's matrix-vector routine, whose
    bits differ from the matrix product's, and those are a row's in a
    block of any height. So a lone row is multiplied as two copies, and a
    row's eta does not depend on its block.
    """
    _check_columns(beta, x)
    intercept = beta[:, 0]
    slopes_t = np.ascontiguousarray(beta[:, 1:].T)
    step = block_rows(beta.shape[0])
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        block = x[rows]
        if block.shape[0] == 1:
            eta = (np.repeat(block, 2, axis=0) @ slopes_t)[:1]
        else:
            eta = block @ slopes_t
        eta += intercept
        yield rows, eta


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_range(work, rows, write_fd):
    """In a forked child: send (True, work(rows)) or (False, its error), then exit."""
    try:
        try:
            payload = pickle.dumps((True, work(rows)), protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def map_row_ranges(work, n_rows, n_draws):
    """[work(rows) for each range], for contiguous slices `rows` that cover
    range(n_rows) in order: one per CPU of this process, each cut on a
    `block_rows(n_draws)` boundary, so a range holds whole `row_blocks` blocks.

    This process runs the first range and a forked child each other one;
    a child inherits the inputs (a matrix is read copy-on-write, not
    copied) and sends back only its result or its error over a pipe.
    When several ranges fail, the first one's error is raised. Every child
    is reaped before this returns or raises. One range, one CPU or no
    `os.fork` runs everything in this process. `work` must give a row the
    same result in any range; then the split never changes a bit. The
    children are forked, not spawned, because a spawned worker would have
    to be sent its inputs, the D x S log-likelihood matrix among them.
    """
    step = block_rows(n_draws)
    n_blocks = -(-n_rows // step)
    n_ranges = min(_cpu_count(), n_blocks) if hasattr(os, "fork") else 1
    if n_ranges <= 1:
        return [work(slice(0, n_rows))]
    cuts = [min(n_rows, step * (i * n_blocks // n_ranges)) for i in range(n_ranges + 1)]
    children = []  # (pid, read end of its pipe), in range order
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_range(work, slice(start, stop), write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [work(slice(0, cuts[1]))]
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not payload:
                raise RuntimeError(f"row worker {pid} ended with status {status} and no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # Children are left here only when a range failed: end them unread.
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
