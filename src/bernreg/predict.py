"""Posterior-predictive scoring of new rows.

Probability scale summarizes the success probability draws directly;
outcome scale draws one 0/1 outcome per posterior draw from one uniform
stream, substream 0 of the seed: with S posterior draws, row r reads
uniforms [r * S, (r + 1) * S) of it. `model.map_row_ranges` scores one
range of rows per CPU, each in its own process; a range that starts at
row a takes a fresh generator on that substream, advances it by a * S
(`bit_generator.advance`) and reads the stream block after block, in
row order. `model.row_blocks` gives a row's eta the same bits in any
block, a lone row's included; so a row's result depends on its position
alone, not on the blocking, the split or how many rows are scored. Row
statistics are weighted-mixture statistics over draws (population sd,
inverse-ECDF quantiles), which makes probability-scale output exactly
invariant to duplicating the posterior draws and keeps outcome-scale
est_error at sqrt(p * (1 - p)), inside the binomial bound checked on
every row.

Rows are scored in `row_blocks`' blocks of rows by draws, so the array
temporaries stay at a few hundred KB for any number of rows. On the
probability scale each interval end is selected by its own single-kth
partition: numpy 2.x selects a single kth with SIMD where the CPU has
it, but a list of kth in a scalar loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchError, NumericalError
from .model import LINKS, map_row_ranges, row_blocks, success_probability
from .rngutil import substream_rng

SCALES = ("outcome", "probability")


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
    n_draws = beta.shape[0]
    bound_slack = 1e-12
    low_id, high_id = _ecdf_index(n_draws, 0.025), _ecdf_index(n_draws, 0.975)

    def score(rows):
        # (4, rows): estimate, est_error, lower and upper of each row in `rows`.
        out = np.empty((4, rows.stop - rows.start))
        if scale == "outcome":
            rng = substream_rng(seed, 0)
            rng.bit_generator.advance(rows.start * n_draws)
        for block, eta in row_blocks(beta, values[rows]):
            pi = success_probability(link, eta)
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
                    f"row {rows.start + block.start + int(np.argmax(over))}: est_error "
                    "squared exceeds the binomial bound"
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
            out[:, block] = estimate, est_error, lower, upper
        return out

    columns = np.concatenate(map_row_ranges(score, values.shape[0], n_draws), axis=1)
    return [PredictionRow(i, *fields, scale) for i, fields in enumerate(zip(*columns.tolist()))]
