"""Leave-one-out model evaluation via Pareto-smoothed importance sampling.

Raw importance weights for observation i are the negated pointwise
log-likelihoods. The largest min(ceil(0.2 S), ceil(3 sqrt(S))) weights
are replaced by generalized-Pareto quantiles at the expected-order-
statistic positions, fitted empirically with quantile-anchored profile
weights and a light prior on the shape; everything is truncated at the
raw maximum. Small draw counts (S < 25) pass through unsmoothed with the
shape reported as NaN. Aggregates use the population-variance standard
error, and comparisons subtract the best model's pointwise values.
`K_BINS` is the one statement of the Pareto k bin edges: the bin counts,
`HIGH_K_THRESHOLD` and its count `n_high_k`, and `report`'s bin labels
all read it.

`pointwise_loglik` fills a D x S matrix, the model's D distinct (x, y)
rows by the draws, with the posterior's kernel (its log F half only),
walking `model.row_blocks`. `psis_loo` smooths the matrix in blocks of
the same `block_rows` rows, each a contiguous slice, and
`model.map_ranges` splits those blocks into one range of rows per
CPU, each smoothed in its own forked process that reads the matrix
copy-on-write; a row's results do not depend on the split. It then
gives each of the N observations its row's results: copies of a row
have identical rows of the matrix, so every aggregate stays per
observation. `compare` ranks the results it is given: the command layer
checks that the fits share their data before any LOO runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import block_rows, log_cdf_and_ratio, map_ranges, row_blocks

# Pareto k bins (Vehtari et al., arXiv:1507.02646): name and upper edge.
K_BINS = (("good", 0.5), ("ok", 0.7), ("bad", 1.0), ("very_bad", math.inf))
# The upper edge of the "ok" bin: the bins above it hold the unreliable estimates.
HIGH_K_THRESHOLD = dict(K_BINS)["ok"]
_MIN_TAIL_DRAWS = 25


@dataclass
class LogLikMatrix:
    """Log-likelihood of distinct rows by draws, and each observation's row."""

    values: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.inverse = np.asarray(self.inverse)
        if self.values.ndim != 2:
            raise ValueError("log-likelihood matrix must be 2-D (distinct rows, draws)")


def pointwise_loglik(draws, model):
    """D x S log-likelihood of the distinct rows over pooled draws, in row blocks."""
    beta = draws.pooled()
    x, sign, _, inverse = model.weighted_rows
    out = np.empty((x.shape[0], beta.shape[0]))
    for rows, eta in row_blocks(beta, x):
        eta *= sign[rows, None]
        out[rows] = log_cdf_and_ratio(model.link, eta, with_ratio=False)[0]
    return LogLikMatrix(values=out, inverse=inverse)


def tail_length(n_draws):
    """How many of the largest weights get smoothed."""
    return int(min(math.ceil(0.2 * n_draws), math.ceil(3.0 * math.sqrt(n_draws))))


def _gpd_fit_rows(ary):
    """Empirical-Bayes generalized-Pareto fit of each row of sorted exceedances.

    Profiles the scale over a quantile-anchored grid, weights grid points
    by profile likelihood, and shrinks the shape toward 0.5 with a
    10-observation prior. Returns (k, sigma) arrays, NaN in the rows where
    no grid point has weight (a tail tied with the cutoff, say).
    """
    n = ary.shape[1]
    prior_bs = 3.0
    prior_k = 10.0
    m_est = 30 + int(math.sqrt(n))
    b_grid = 1.0 - np.sqrt(m_est / (np.arange(1, m_est + 1, dtype=np.float64) - 0.5))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b_ary = b_grid / (prior_bs * ary[:, int(n / 4 + 0.5) - 1, None])
        b_ary += 1.0 / ary[:, -1:]
        terms = np.multiply(b_ary[:, :, None], ary[:, None, :])
        np.negative(terms, out=terms)
        np.log1p(terms, out=terms)
        k_ary = terms.mean(axis=2)
        del terms
        len_scale = n * (np.log(-(b_ary / k_ary)) - k_ary - 1.0)
        weights = 1.0 / np.exp(len_scale[:, None, :] - len_scale[:, :, None]).sum(axis=2)
        weights[~np.isfinite(weights)] = 0.0
        weights[weights < 10.0 * np.finfo(np.float64).eps] = 0.0
        total = weights.sum(axis=1)
        weights /= total[:, None]

        b_post = np.sum(b_ary * weights, axis=1)
        k_post = np.log1p(-b_post[:, None] * ary).mean(axis=1)
        sigma = -k_post / b_post
    k_post = (n * k_post + prior_k * 0.5) / (n + prior_k)
    k_post[total == 0.0] = np.nan
    sigma[total == 0.0] = np.nan
    return k_post, sigma


def _logsumexp_rows(a):
    """Max-shifted logsumexp along axis 1; half the time of scipy's on a block."""
    a_max = a.max(axis=1, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - a_max).sum(axis=1)) + a_max[:, 0]


def _stable_tail(lw, m):
    """(tail ids, tail values, cutoff) of each row of a (rows, n) array.

    The tail is the last m entries of the row's stable ascending sort, in
    that order, and the cutoff the value just before them. Each row's
    tail is selected with argpartition and only the tail is sorted. A row
    whose tail holds a value equal to the cutoff (ties across the
    boundary, where the stable sort picks by index) or that has a
    non-finite value is sorted whole instead.
    """
    n = lw.shape[1]
    part = np.argpartition(lw, n - m - 1, axis=1)
    cutoff = np.take_along_axis(lw, part[:, n - m - 1:n - m], axis=1)
    # Tail ids in index order, then a stable sort by value: the order
    # the full stable sort gives these entries.
    tail_ids = np.sort(part[:, n - m:], axis=1)
    tail = np.take_along_axis(lw, tail_ids, axis=1)
    by_value = np.argsort(tail, axis=1, kind="stable")
    tail_ids = np.take_along_axis(tail_ids, by_value, axis=1)
    tail = np.take_along_axis(tail, by_value, axis=1)

    full = np.flatnonzero(~(tail[:, 0] > cutoff[:, 0]) | ~np.isfinite(lw).all(axis=1))
    if full.size:
        rows = lw[full]
        order = np.argsort(rows, axis=1, kind="stable")
        tail_ids[full] = order[:, n - m:]
        tail[full] = np.take_along_axis(rows, order[:, n - m:], axis=1)
        cutoff[full] = np.take_along_axis(rows, order[:, n - m - 1:n - m], axis=1)
    return tail_ids, tail, cutoff


def _smooth_rows(lw):
    """Pareto-smooth each row of a (rows, S) array of max-shifted log weights.

    Works in place and returns each row's tail shape k. The weight scale
    is untouched outside the tail, the smoothed tail is monotone in the
    tail's stable sort order, and no weight exceeds the row's maximum, 0.
    Rows too short or too flat to fit keep their weights, with k NaN.
    """
    rows, n = lw.shape
    pareto_k = np.full(rows, np.nan)
    if n < _MIN_TAIL_DRAWS:
        return pareto_k
    m = tail_length(n)
    tail_ids, tail, cutoff = _stable_tail(lw, m)
    fit = np.flatnonzero(np.ptp(tail, axis=1) > 0.0)

    exp_cutoff = np.exp(cutoff[fit])
    k, sigma = _gpd_fit_rows(np.exp(tail[fit]) - exp_cutoff)
    with np.errstate(invalid="ignore"):
        good = np.isfinite(k) & np.isfinite(sigma) & (sigma > 0)
    smooth = fit[good]
    k, sigma, exp_cutoff = k[good, None], sigma[good, None], exp_cutoff[good]

    log1m_pos = np.log1p(-(np.arange(m, dtype=np.float64) + 0.5) / m)
    with np.errstate(divide="ignore", invalid="ignore"):
        quantiles = np.where(
            np.abs(k) < np.finfo(np.float64).eps,
            -log1m_pos,
            np.expm1(-k * log1m_pos) / k,
        )
    smoothed = lw[smooth]
    np.put_along_axis(
        smoothed, tail_ids[smooth], np.log(quantiles * sigma + exp_cutoff), axis=1
    )
    np.minimum(smoothed, 0.0, out=smoothed)
    lw[smooth] = smoothed
    pareto_k[smooth] = k[:, 0]
    return pareto_k


def _psis_block(loglik):
    """(elpd, lppd, Pareto k) of each row of a contiguous (rows, S) block.

    The raw log weights are the negated log-likelihoods; `_smooth_rows`
    smooths them and a self-normalized logsumexp averages the likelihood.
    """
    n = loglik.shape[1]
    lw = np.negative(loglik)
    lw -= lw.max(axis=1, keepdims=True)
    pareto_k = _smooth_rows(lw)
    lw -= _logsumexp_rows(lw)[:, None]
    lw += loglik
    lppd = _logsumexp_rows(loglik) - math.log(n)
    return _logsumexp_rows(lw), lppd, pareto_k


@dataclass
class LooResult:
    """PSIS-LOO expected log pointwise predictive density.

    `p_loo` is the in-sample lppd minus elpd_loo, the effective number
    of parameters.
    """

    elpd_loo: float
    se_elpd: float
    pointwise_elpd: np.ndarray
    pareto_k: np.ndarray
    n_obs: int
    p_loo: float = math.nan

    @property
    def n_high_k(self):
        """Observations in the K_BINS bins above HIGH_K_THRESHOLD."""
        counts = self.k_counts
        return sum(counts[name] for name, upper in K_BINS if upper > HIGH_K_THRESHOLD)

    @property
    def k_counts(self):
        """Observations per K_BINS bin (each includes its upper edge), and NaN k."""
        k = self.pareto_k[~np.isnan(self.pareto_k)]
        per_bin = np.bincount(np.searchsorted([upper for _, upper in K_BINS], k),
                              minlength=len(K_BINS))
        counts = {name: int(n) for (name, _), n in zip(K_BINS, per_bin)}
        return {**counts, "nan": int(self.pareto_k.size - k.size)}


def _psis_rows(values):
    """(3, rows) elpd, lppd and Pareto k of each row, `block_rows` rows at a time."""
    out = np.empty((3, values.shape[0]))
    step = block_rows(values.shape[1])
    for start in range(0, values.shape[0], step):
        block = slice(start, start + step)
        out[:, block] = _psis_block(values[block])
    return out


def psis_loo(loglik):
    """Smooth each distinct row's weights, give every observation its row's
    results, and aggregate the pointwise elpd over observations.

    Rows are taken `block_rows` at a time, so the temporaries stay at a
    few MB whatever D is, and the blocks are split into one range per CPU
    by `model.map_ranges`; a row's results are the same in any range.
    """
    values, inverse = loglik.values, loglik.inverse
    n_rows, n_draws = values.shape
    by_row = np.concatenate(  # elpd, lppd and Pareto k
        map_ranges(lambda rows: _psis_rows(values[rows]), n_rows, block_rows(n_draws)), axis=1
    )
    pointwise, lppd, pareto_k = by_row[:, inverse]
    n_obs = inverse.size
    elpd_loo = float(np.sum(pointwise))
    return LooResult(
        elpd_loo=elpd_loo,
        se_elpd=float(math.sqrt(n_obs * np.var(pointwise))),
        pointwise_elpd=pointwise,
        pareto_k=pareto_k,
        n_obs=n_obs,
        p_loo=float(np.sum(lppd)) - elpd_loo,
    )


@dataclass
class ComparisonRow:
    name: str
    elpd_diff: float
    se_diff: float
    elpd_loo: float
    se_elpd: float
    n_high_k: int
    p_loo: float
    pareto_k_counts: dict


@dataclass
class ComparisonResult:
    """Ranking against the best model; best row is exactly (0, 0)."""

    rows: list


def compare(results):
    """Rank a {name: LooResult} dict fitted on the same data, best first."""
    items = list(results.items())
    if len(items) < 2:
        raise ValueError("compare needs at least two models")
    ordered = sorted(items, key=lambda kv: -kv[1].elpd_loo)
    best = ordered[0][1]
    rows = []
    for name, res in ordered:
        if res is best:
            diff, se = 0.0, 0.0
        else:
            delta = res.pointwise_elpd - best.pointwise_elpd
            diff = float(np.sum(delta))
            se = float(math.sqrt(res.n_obs * np.var(delta)))
        rows.append(
            ComparisonRow(
                name=name,
                elpd_diff=diff,
                se_diff=se,
                elpd_loo=res.elpd_loo,
                se_elpd=res.se_elpd,
                n_high_k=res.n_high_k,
                p_loo=res.p_loo,
                pareto_k_counts=res.k_counts,
            )
        )
    return ComparisonResult(rows=rows)

