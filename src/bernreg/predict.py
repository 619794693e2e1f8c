"""Posterior-predictive scoring of new rows.

Probability scale summarizes the success probability draws directly;
outcome scale draws one 0/1 outcome per posterior draw from one uniform
stream, substream 0 of the seed: with S posterior draws, row r reads
uniforms [r * S, (r + 1) * S) of it. One generator per call reads the
stream block after block, in row order, with no `advance`, so a row's
result depends on its position alone, not on the blocking or on how many
rows are scored. Row statistics are weighted-mixture statistics over
draws (population sd, inverse-ECDF quantiles), which makes
probability-scale output exactly invariant to duplicating the posterior
draws and keeps outcome-scale est_error at sqrt(p * (1 - p)), inside the
binomial bound checked on every row.

Rows are scored in blocks of about _PREDICT_BLOCK_VALUES link values, so
the array temporaries stay at a few hundred KB for any number of rows.
On the probability scale each interval end is selected by its own
single-kth partition: numpy 2.x selects a single kth with SIMD where the
CPU has it, but a list of kth in a scalar loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, NumericalError
from .model import LINKS, success_probability
from .rngutil import substream_rng

SCALES = ("outcome", "probability")
# Link values per posterior_predict block (rows x draws), 256 KB of
# float64: a block's temporaries stay in cache. Blocks of 1,024 rows at
# S = 2,000 ran slower than one row at a time.
_PREDICT_BLOCK_VALUES = 32_768


@dataclass
class PredictionRow:
    """One scored input row."""

    index: int
    estimate: float
    est_error: float
    ci_lower: float
    ci_upper: float
    scale: str


def _ecdf_index(n, p):
    """Index of the smallest of n order statistics whose ECDF reaches p."""
    return min(max(1, math.ceil(n * p)), n) - 1


def posterior_predict(draws, values, link, *, scale="outcome", seed=0):
    """PredictionRows for each new design row, in input order.

    `values` is the (rows, k) array of new rows already encoded like the
    training design (data.encode_new), one column per slope.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    if link not in LINKS:
        raise ValueError(f"unknown link {link!r}")
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))

    beta = draws.pooled()
    if values.shape[1] != beta.shape[1] - 1:
        raise MismatchError(
            f"new rows have {values.shape[1]} columns, fit has "
            f"{beta.shape[1] - 1} slopes"
        )
    intercept = beta[:, 0]
    slopes_t = np.ascontiguousarray(beta[:, 1:].T)
    n_draws = beta.shape[0]
    bound_slack = 1e-12
    low_id, high_id = _ecdf_index(n_draws, 0.025), _ecdf_index(n_draws, 0.975)

    block = max(1, _PREDICT_BLOCK_VALUES // n_draws)
    rng = substream_rng(seed, 0)
    rows = []
    for start in range(0, values.shape[0], block):
        pi = success_probability(link, values[start:start + block] @ slopes_t + intercept)
        if scale == "probability":
            sample = pi
        else:
            sample = (rng.random(pi.shape) < pi).astype(np.float64)
        estimate = sample.mean(axis=1)
        # sample.std(axis=1) op for op, reusing the mean instead of summing again.
        deviation = sample - estimate[:, None]
        np.multiply(deviation, deviation, out=deviation)
        est_error = np.sqrt(deviation.sum(axis=1) / n_draws)
        over = est_error**2 > estimate * (1.0 - estimate) + 1.0 / n_draws + bound_slack
        if over.any():
            raise NumericalError(
                f"row {start + int(np.argmax(over))}: est_error squared exceeds "
                "the binomial bound"
            )
        if scale == "probability":
            sample.partition(low_id, axis=1)
            lower = sample[:, low_id].copy()
            sample.partition(high_id, axis=1)
            upper = sample[:, high_id]
        else:
            # Order statistic j of 0/1 draws is 1 exactly when j >= #zeros.
            zeros = n_draws - sample.sum(axis=1)
            lower = (low_id >= zeros).astype(np.float64)
            upper = (high_id >= zeros).astype(np.float64)
        for r, fields in enumerate(zip(estimate.tolist(), est_error.tolist(),
                                       lower.tolist(), upper.tolist())):
            rows.append(PredictionRow(start + r, *fields, scale))
    return rows
