"""Convergence diagnostics and posterior summaries.

Rhat is the rank-normalized split form: chains are halved, pooled draws
are replaced by normal scores of their average ranks (with the (r - 3/8)
/ (S + 1/4) offset; ties share the mean of their ranks, exact in
float64), and the classic between/within ratio is computed on the
scores, which `summarize` builds once per parameter for bulk ESS too.
Effective sample size divides total draws by an autocorrelation time
(Geyer's initial-positive and monotone truncation rules) from one FFT of
all split chains; the tests keep the O(n^2) direct sum as the reference.
The tail variant takes the smaller ESS of the 0.05/0.95 exceedance
indicators. Constant input raises Degenerate, and the summary layer
reports those fields as NA instead of inventing 1.00.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NumericalError

# Fewest draws per chain the split-chain diagnostics accept.
MIN_DRAWS = 4


def quantile(samples, p):
    """Order statistic with linear interpolation at index (n - 1) * p."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise NumericalError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {p}")
    ordered = np.sort(samples)
    position = (samples.size - 1) * p
    low = int(math.floor(position))
    high = min(low + 1, samples.size - 1)
    weight = position - low
    return float((1.0 - weight) * ordered[low] + weight * ordered[high])


def _as_chain_matrix(chains):
    arr = np.asarray(chains, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError("chains must be a (n_chains, n_draws) array")
    if arr.shape[0] < 1:
        raise NumericalError("at least one chain is required")
    if arr.shape[1] < MIN_DRAWS:
        raise NumericalError(
            f"diagnostics need at least {MIN_DRAWS} draws per chain, got {arr.shape[1]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("chains contain non-finite values")
    if np.ptp(arr) == 0.0:
        raise Degenerate("all draws are identical; diagnostic undefined")
    return arr


def _split_chains(arr):
    """Halve every chain; odd lengths drop the middle draw."""
    half = arr.shape[1] // 2
    return np.vstack((arr[:, :half], arr[:, -half:]))


def _rank_normalize(arr):
    """Normal scores of pooled average ranks, reshaped like the input.

    Tied draws share the mean of their 1-based ranks. Each rank is half
    the sum of two tie-group boundaries plus one, a whole or half
    integer, so it is exact in float64.
    """
    from scipy.special import ndtri

    flat = arr.ravel()
    order = np.argsort(flat, kind="mergesort")
    ordered = flat[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    # dense[i]: 1-based tie group of sorted position i; group g holds
    # sorted positions bounds[g - 1] to bounds[g] - 1.
    dense = np.cumsum(starts)
    bounds = np.append(np.flatnonzero(starts), flat.size)
    ranks = np.empty(flat.size)
    ranks[order] = 0.5 * (bounds[dense] + bounds[dense - 1] + 1)
    return ndtri((ranks.reshape(arr.shape) - 0.375) / (arr.size + 0.25))


def _normal_split(chains):
    """Rank-normalized split chains, the input of R-hat and bulk ESS."""
    return _rank_normalize(_split_chains(_as_chain_matrix(chains)))


def _rhat_from_split(split):
    m, n = split.shape
    within = float(np.mean(np.var(split, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(split, axis=1), ddof=1))
    return math.sqrt(((n - 1.0) / n * within + between / n) / within)


def split_rhat(chains):
    """Rank-normalized split potential scale reduction factor."""
    return _rhat_from_split(_normal_split(chains))


def _autocovariance_fft(x):
    """Biased autocovariance of each row of x, one FFT along the last axis."""
    from scipy import fft as sp_fft

    n = x.shape[-1]
    m = sp_fft.next_fast_len(2 * n)
    spectrum = sp_fft.rfft(x - x.mean(axis=-1, keepdims=True), m)
    return sp_fft.irfft(spectrum * np.conjugate(spectrum), m)[..., :n] / n


def _tau_estimate(split):
    """Autocorrelation time from split chains; Geyer truncation rules."""
    m, n = split.shape
    mean_acov = _autocovariance_fft(split).mean(axis=0)
    mean_var = float(mean_acov[0]) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(split.mean(axis=1), ddof=1))
    if var_plus == 0.0:
        return None

    # Sum lag pairs (2t, 2t+1) while the pair sums stay positive.
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(mean_acov[1])) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and (rho_even + rho_odd) > 0.0:
        rho_even = 1.0 - (mean_var - float(mean_acov[t + 1])) / var_plus
        rho_odd = 1.0 - (mean_var - float(mean_acov[t + 2])) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even

    # Enforce monotone decay of the pair sums.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2

    return -1.0 + 2.0 * float(np.sum(rho[: max_t + 1])) + float(rho[max_t + 1])


def _ess_from_split(split):
    """Core estimator on already-split chains; never raises on constants."""
    size = split.size
    if np.ptp(split) == 0.0:
        return float(size)
    tau = _tau_estimate(split)
    if tau is None:
        return float(size)
    tau = max(tau, 1.0 / math.log10(size))
    return min(float(size / tau), 2.0 * size)


def ess_bulk(chains):
    """Effective sample size of rank-normalized split chains."""
    return _ess_from_split(_normal_split(chains))


def ess_tail(chains):
    """Smaller ESS of the 5% and 95% exceedance indicator chains."""
    arr = _as_chain_matrix(chains)
    out = math.inf
    for p in (0.05, 0.95):
        cut = quantile(arr.ravel(), p)
        indicator = (arr <= cut).astype(np.float64)
        out = min(out, _ess_from_split(_split_chains(indicator)))
    return out


@dataclass
class ParamSummary:
    """One report row; diagnostic fields are NaN when undefined."""

    name: str
    estimate: float
    est_error: float
    ci_lower: float
    ci_upper: float
    ess_bulk: float
    ess_tail: float
    rhat: float


def summarize(draws):
    """Per-parameter rows, in parameter order, from a PosteriorDraws."""
    lo = (1.0 - 0.95) / 2.0  # central 95%; a few ulps off the literal 0.025
    rows = []
    for j, name in enumerate(draws.param_names):
        chains = draws.draws[:, :, j]
        pooled = chains.ravel()
        estimate = float(pooled.mean())
        est_error = float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0
        try:
            split = _normal_split(chains)
            rhat = _rhat_from_split(split)
            bulk = _ess_from_split(split)
            tail = ess_tail(chains)
        except Degenerate:
            rhat = bulk = tail = float("nan")
        rows.append(
            ParamSummary(
                name=name,
                estimate=estimate,
                est_error=est_error,
                ci_lower=quantile(pooled, lo),
                ci_upper=quantile(pooled, 1.0 - lo),
                ess_bulk=bulk,
                ess_tail=tail,
                rhat=rhat,
            )
        )
    return rows
