import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from bernreg.errors import MismatchError, NumericalError
from bernreg.loo import (
    LogLikMatrix,
    LooResult,
    _smooth_rows,
    _stable_tail,
    compare,
    pointwise_loglik,
    psis_loo,
    tail_length,
)
from bernreg.model import (
    ModelSpec,
    PriorSpec,
    block_rows,
    linear_predictor,
    log_cdf_and_ratio,
)
from bernreg.oracle import GridSpec, _grid_loo_terms, _synthetic_model, exact_loo
from bernreg.report import render_comparison_json
from bernreg.sampler import SamplerConfig, sample

from conftest import make_draws, total_loglik
from test_model import _duplicated_model

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _per_observation(values):
    """A log-likelihood matrix from (draws, observations) values, whose every
    observation is its own row."""
    return LogLikMatrix(values=values.T, inverse=np.arange(values.shape[1]))


def _chunked_loglik(draws, model, chunk):
    """(D, S) pointwise log-likelihood, `chunk` distinct rows at a time."""
    beta = draws.pooled()
    x, sign, _, _ = model.weighted_rows
    out = np.empty((x.shape[0], beta.shape[0]))
    for start in range(0, x.shape[0], chunk):
        stop = min(start + chunk, x.shape[0])
        margin = sign[start:stop, None] * (x[start:stop] @ beta[:, 1:].T + beta[:, 0])
        out[start:stop] = log_cdf_and_ratio(model.link, margin)[0]
    return out


def _fitted(link="logit", n=40, k=1, seed=3, draws_seed=11):
    model = _synthetic_model(link, n, k, seed)
    config = SamplerConfig(n_chains=2, n_warmup=200, n_draws=300, seed=draws_seed)
    return model, sample(model, config)


class TestPointwiseLoglik:
    def test_matches_naive_per_draw(self):
        model, draws = _fitted(n=15)
        matrix = pointwise_loglik(draws, model)
        assert matrix.values.shape == (15, 600)
        by_observation = matrix.values[matrix.inverse].T
        pooled = draws.pooled()
        for s in (0, 77, 599):
            expected = np.empty(15)
            for i in range(15):
                single = ModelSpec(
                    link=model.link,
                    prior=model.prior,
                    design=type(model.design).from_values(model.design.values[i : i + 1]),
                    target=model.target[i : i + 1],
                )
                expected[i] = total_loglik(pooled[s], single)
            assert np.allclose(by_observation[s], expected, atol=1e-10)

    def test_rows_sum_to_total_loglik(self):
        model, draws = _fitted(n=20)
        matrix = pointwise_loglik(draws, model)
        pooled = draws.pooled()
        for s in (0, 100):
            total = total_loglik(pooled[s], model)
            assert matrix.values[matrix.inverse, s].sum() == pytest.approx(total, abs=1e-9)

    def test_chunking_invariant(self):
        model, draws = _fitted(n=30)
        full = pointwise_loglik(draws, model).values
        assert np.array_equal(_chunked_loglik(draws, model, 7), full)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_lone_last_row_matches_chunks(self, link):
        # 65 distinct rows at 1,024 draws leave one row after the last
        # full block; numpy would send that row alone to BLAS's
        # matrix-vector routine, whose bits differ from a matrix product's.
        model = _synthetic_model(link, 65, 3, 4)
        rng = np.random.default_rng(9)
        draws = make_draws(rng.normal(0.0, 0.5, (2, 512, model.n_params)))
        full = pointwise_loglik(draws, model).values
        assert full.shape[0] == 65 and full.shape[0] % block_rows(1024) == 1
        assert np.array_equal(_chunked_loglik(draws, model, 5), full)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_builds_in_loo_blocks(self, link):
        # Filled a row block at a time, the matrix is nearly all the memory
        # pointwise_loglik takes.
        model = _synthetic_model(link, 1000, 3, 6)
        rng = np.random.default_rng(2)
        draws = make_draws(rng.normal(0.0, 0.5, (2, 1000, model.n_params)))
        tracemalloc.start()
        try:
            matrix = pointwise_loglik(draws, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.values.shape == (1000, 2000)
        assert peak < 1.5 * matrix.values.nbytes

    def test_dimension_mismatch(self):
        model, draws = _fitted(n=10, k=2)
        other = _synthetic_model("logit", 10, 4, 0)
        with pytest.raises(MismatchError, match="3 coefficients for 4 columns"):
            pointwise_loglik(draws, other)


class TestTailLength:
    def test_crossover(self):
        # min(ceil(0.2 S), ceil(3 sqrt(S))): small S uses the 20% rule,
        # large S the 3 sqrt(S) rule; they cross at S = 225.
        assert tail_length(100) == 20
        assert tail_length(225) == 45
        assert tail_length(400) == 60
        assert tail_length(10000) == 300

    def test_small_counts(self):
        assert tail_length(25) == 5
        assert tail_length(24) == 5


def _tail_by_full_sort(lw, m):
    """(tail ids, tail, cutoff) from each row's whole stable argsort."""
    n = lw.shape[1]
    order = np.argsort(lw, axis=1, kind="stable")
    return (
        order[:, n - m:],
        np.take_along_axis(lw, order[:, n - m:], axis=1),
        np.take_along_axis(lw, order[:, n - m - 1:n - m], axis=1),
    )


class TestStableTail:
    """argpartition tail selection against the whole stable sort, exactly."""

    def test_matches_full_stable_sort(self):
        rng = np.random.default_rng(31)
        n = 400
        m = tail_length(n)
        lw = rng.standard_normal((10, n))
        order = np.argsort(lw, axis=1, kind="stable")

        def tie(row, lo, hi):
            lw[row, order[row, lo:hi]] = lw[row, order[row, lo]]

        tie(1, n - m + 5, n - m + 15)  # ties inside the tail
        tie(1, n - 4, n)  # ... at its top too
        tie(2, n - m - 3, n - m + 4)  # ties across the cutoff
        tie(3, n - m - 6, n - m)  # the cutoff tied with values below it only
        tie(4, n - m, n)  # the whole tail tied, above the cutoff
        tie(5, n - m - 1, n)  # the whole tail tied with the cutoff
        lw[6] = -0.5  # a constant row
        lw[7, 1::10] = lw[7, 0::10]  # repeated draws, ties everywhere
        lw[8, 17] = np.nan
        lw[9, 3] = -np.inf
        tail_ids, tail, cutoff = _stable_tail(lw.copy(), m)
        ref_ids, ref_tail, ref_cutoff = _tail_by_full_sort(lw, m)
        assert np.array_equal(tail_ids, ref_ids)
        assert np.array_equal(tail, ref_tail, equal_nan=True)
        assert np.array_equal(cutoff, ref_cutoff, equal_nan=True)


def psis_smooth(raw_log_weights):
    """(smoothed log weights, tail shape k) of one vector, by `_smooth_rows`.

    Inputs too small or too flat to fit come back as a copy, with k NaN.
    """
    lw = np.asarray(raw_log_weights, dtype=np.float64).ravel()
    shift = lw.max(initial=-math.inf)  # an empty input passes through
    out = lw - shift
    k = _smooth_rows(out[None])[0]
    if math.isnan(k):
        return lw.copy(), math.nan
    return out + shift, float(k)


class TestPsisSmooth:
    def test_small_input_passthrough(self):
        lw = np.linspace(-3, 0, 24)
        out, k = psis_smooth(lw)
        assert np.array_equal(out, lw)
        assert math.isnan(k)

    def test_flat_tail_passthrough(self):
        lw = np.zeros(100)
        out, k = psis_smooth(lw)
        assert np.array_equal(out, lw)
        assert math.isnan(k)

    def test_properties_on_heavy_tail(self):
        rng = np.random.default_rng(4)
        lw = rng.standard_exponential(1000) * 1.5
        out, k = psis_smooth(lw)
        assert math.isfinite(k)
        m = tail_length(1000)
        order = np.argsort(lw, kind="stable")
        body = order[: 1000 - m]
        tail = order[1000 - m :]
        # body untouched (up to the internal shift round-trip)
        assert np.allclose(out[body], lw[body], rtol=0, atol=1e-12)
        # tail stays monotone in the ORIGINAL tail order
        assert np.all(np.diff(out[tail]) >= 0)
        # nothing exceeds the raw maximum
        assert out.max() <= lw.max() + 1e-12

    def test_smoothed_tail_changes_values(self):
        rng = np.random.default_rng(9)
        lw = rng.standard_normal(500)
        out, k = psis_smooth(lw)
        assert math.isfinite(k)
        assert not np.array_equal(out, lw)

    def test_shape_recovery_from_known_pareto(self):
        # Weights drawn with a known generalized-Pareto tail: fitted k
        # should land near the truth.
        rng = np.random.default_rng(12)
        for true_k in (0.2, 0.5):
            u = rng.random(4000)
            tail_sample = (np.power(1 - u, -true_k) - 1.0) / true_k
            lw = np.log1p(tail_sample)
            _, k = psis_smooth(lw)
            assert abs(k - true_k) < 0.15

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        lw = rng.standard_exponential(300)
        out1, k1 = psis_smooth(lw)
        out2, k2 = psis_smooth(lw + 20.0)
        assert k1 == pytest.approx(k2, abs=1e-10)
        assert np.allclose(out2 - out1, 20.0, atol=1e-10)


class TestPsisLoo:
    def test_known_equal_loglik_matrix(self):
        # Every draw assigns the same likelihood: elpd is just the sum of
        # the per-observation values and the smoothing is a no-op.
        values = np.tile(np.log([0.5, 0.25, 0.8]), (100, 1))
        result = psis_loo(_per_observation(values))
        assert result.elpd_loo == pytest.approx(math.log(0.5 * 0.25 * 0.8), abs=1e-12)
        assert result.n_obs == 3

    def test_se_uses_population_variance(self):
        values = np.tile(np.log([0.5, 0.25, 0.8]), (100, 1))
        result = psis_loo(_per_observation(values))
        expected = math.sqrt(3 * np.var(result.pointwise_elpd))
        assert result.se_elpd == pytest.approx(expected, abs=1e-12)

    def test_duplicated_observation_doubles_contribution(self):
        model, draws = _fitted(n=12)
        matrix = pointwise_loglik(draws, model)
        base = psis_loo(matrix)
        # A second copy of observation 0 reads the same row.
        doubled = LogLikMatrix(
            values=matrix.values,
            inverse=np.append(matrix.inverse, matrix.inverse[0]),
        )
        res = psis_loo(doubled)
        assert res.n_obs == 13
        assert res.pointwise_elpd[-1] == pytest.approx(base.pointwise_elpd[0], abs=1e-12)
        assert res.elpd_loo == pytest.approx(
            base.elpd_loo + base.pointwise_elpd[0], abs=1e-12
        )

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_copies_of_a_row_share_its_column(self, link):
        model = _duplicated_model(link, 4)
        rng = np.random.default_rng(7)
        draws = make_draws(rng.normal(0.0, 0.4, (2, 200, model.n_params)))
        matrix = pointwise_loglik(draws, model)
        n_rows = len(model.weighted_rows[0])
        assert matrix.values.shape == (n_rows, 400)
        assert n_rows < model.design.n_rows == matrix.inverse.size
        result = psis_loo(matrix)
        for row in range(n_rows):
            copies = matrix.inverse == row
            assert np.unique(result.pointwise_elpd[copies]).size == 1
            assert np.unique(result.pareto_k[copies]).size == 1

        # The same LOO from one column per observation.
        margin = (2.0 * model.target - 1.0) * linear_predictor(
            draws.pooled(), model.design.values
        )
        reference = psis_loo(
            _per_observation(log_cdf_and_ratio(link, margin)[0])
        )
        for name in ("elpd_loo", "se_elpd", "p_loo"):
            assert getattr(result, name) == pytest.approx(
                getattr(reference, name), rel=1e-12
            )
        np.testing.assert_allclose(
            result.pointwise_elpd, reference.pointwise_elpd, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(result.pareto_k, reference.pareto_k, rtol=0, atol=1e-12)
        assert result.n_obs == reference.n_obs
        assert result.k_counts == reference.k_counts

    def test_high_k_count_property(self):
        result = LooResult(
            elpd_loo=0.0,
            se_elpd=0.0,
            pointwise_elpd=np.zeros(4),
            pareto_k=np.array([0.2, 0.71, np.nan, 0.9]),
            n_obs=4,
        )
        assert result.n_high_k == 2


# The scalar PSIS reference: one vector at a time, sorted whole.
_MIN_TAIL_DRAWS = 25
_MIN_TAIL_LENGTH = 5


def _gpd_fit(exceedances):
    """Empirical-Bayes generalized-Pareto fit on sorted exceedances.

    Profiles the scale over a quantile-anchored grid, weights grid points
    by profile likelihood, and shrinks the shape toward 0.5 with a
    10-observation prior.
    """
    ary = np.asarray(exceedances, dtype=np.float64)
    n = len(ary)
    prior_bs = 3.0
    prior_k = 10.0
    m_est = 30 + int(math.sqrt(n))

    b_ary = 1.0 - np.sqrt(m_est / (np.arange(1, m_est + 1, dtype=np.float64) - 0.5))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A tail tied with the cutoff has zero exceedances: b is infinite
        # and the fit comes out NaN.
        b_ary /= prior_bs * ary[int(n / 4 + 0.5) - 1]
        b_ary += 1.0 / ary[-1]
        k_ary = np.log1p(-b_ary[:, None] * ary[None, :]).mean(axis=1)
        len_scale = n * (np.log(-(b_ary / k_ary)) - k_ary - 1.0)
        weights = 1.0 / np.exp(len_scale - len_scale[:, None]).sum(axis=1)
    weights[~np.isfinite(weights)] = 0.0
    weights[weights < 10.0 * np.finfo(np.float64).eps] = 0.0
    total = weights.sum()
    if total == 0.0:
        return float("nan"), float("nan")
    weights /= total

    b_post = float(np.sum(b_ary * weights))
    with np.errstate(invalid="ignore"):
        k_post = float(np.log1p(-b_post * ary).mean())
    sigma = -k_post / b_post
    k_post = (n * k_post + prior_k * 0.5) / (n + prior_k)
    return k_post, sigma


def _gp_inverse_cdf(probs, kappa, sigma):
    """Generalized-Pareto quantiles for probabilities strictly inside (0, 1)."""
    if abs(kappa) < np.finfo(np.float64).eps:
        out = -np.log1p(-probs)
    else:
        out = np.expm1(-kappa * np.log1p(-probs)) / kappa
    return out * sigma


def _scalar_psis_smooth(raw_log_weights):
    """(smoothed log weights, tail shape k).

    The weight scale is untouched outside the tail, the smoothed tail is
    monotone in the original weight order, and no weight exceeds the raw
    maximum. Inputs too small or too flat to fit pass through with k NaN.
    """
    lw = np.asarray(raw_log_weights, dtype=np.float64).ravel()
    n = lw.size
    if n < _MIN_TAIL_DRAWS:
        return lw.copy(), float("nan")
    m = tail_length(n)
    if m < _MIN_TAIL_LENGTH:
        return lw.copy(), float("nan")

    shift = lw.max()
    shifted = lw - shift
    order = np.argsort(shifted, kind="stable")
    tail_ids = order[n - m:]
    cutoff = shifted[order[n - m - 1]]
    tail = shifted[tail_ids]
    if np.ptp(tail) <= 0.0:
        return lw.copy(), float("nan")

    exp_cutoff = math.exp(cutoff)
    exceedances = np.exp(tail) - exp_cutoff
    k, sigma = _gpd_fit(exceedances)
    if not (math.isfinite(k) and math.isfinite(sigma) and sigma > 0):
        return lw.copy(), float("nan")

    positions = (np.arange(m, dtype=np.float64) + 0.5) / m
    smoothed_tail = np.log(_gp_inverse_cdf(positions, k, sigma) + exp_cutoff)
    out = shifted.copy()
    out[tail_ids] = smoothed_tail
    np.minimum(out, 0.0, out=out)
    return out + shift, float(k)


def _scalar_psis_loo(values):
    """(pointwise elpd, Pareto k, lppd) column by column via the scalar reference."""
    n_draws, n_obs = values.shape
    pointwise, pareto_k, lppd = np.empty(n_obs), np.empty(n_obs), np.empty(n_obs)
    for i in range(n_obs):
        column = values[:, i]
        smoothed, pareto_k[i] = _scalar_psis_smooth(-column)
        pointwise[i] = logsumexp(smoothed - logsumexp(smoothed) + column)
        lppd[i] = logsumexp(column) - math.log(n_draws)
    return pointwise, pareto_k, lppd


def _assert_matches_scalar(values):
    result = psis_loo(_per_observation(values))
    pointwise, pareto_k, lppd = _scalar_psis_loo(values)
    np.testing.assert_allclose(result.pointwise_elpd, pointwise, rtol=0, atol=1e-12)
    assert np.array_equal(np.isnan(result.pareto_k), np.isnan(pareto_k))
    finite = ~np.isnan(pareto_k)
    np.testing.assert_allclose(result.pareto_k[finite], pareto_k[finite], rtol=0, atol=1e-8)
    assert result.p_loo == pytest.approx(np.sum(lppd) - np.sum(pointwise), abs=1e-9)
    for column in values.T:
        smoothed, k = psis_smooth(-column)
        ref_smoothed, ref_k = _scalar_psis_smooth(-column)
        np.testing.assert_allclose(smoothed, ref_smoothed, rtol=0, atol=1e-12)
        assert math.isnan(k) == math.isnan(ref_k)
        if not math.isnan(ref_k):
            assert k == pytest.approx(ref_k, abs=1e-8)
    return result


class TestPsisLooBlocks:
    """psis_loo and psis_smooth against the scalar reference + logsumexp."""

    def test_repeated_draws_and_ragged_last_block(self):
        rng = np.random.default_rng(21)
        n_obs = 2 * block_rows(400) + 5
        values = rng.standard_normal((400, n_obs)) * rng.uniform(0.1, 3.0, n_obs) - 1.0
        # NUTS repeats a draw when it rejects: whole rows of ties.
        values[1::10] = values[0::10]
        values[2::10] = values[0::10]
        result = _assert_matches_scalar(values)
        assert np.isfinite(result.pareto_k).all()

    def test_fewer_than_25_draws_pass_through(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((20, block_rows(20) + 3))
        result = _assert_matches_scalar(values)
        assert np.isnan(result.pareto_k).all()

    def test_flat_columns_pass_through(self):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((300, 10))
        m = tail_length(300)
        values[:, 3] = -0.7  # every draw equal
        # The weights' tail is the lowest log-likelihoods.
        values[:, 6] = np.maximum(values[:, 6], -0.5)  # the whole tail at the cutoff
        ranks = np.argsort(values[:, 7])
        values[ranks[:m], 7] = values[:, 7].min() - 1.0  # the whole tail tied above it
        ranks = np.argsort(values[:, 8])
        values[ranks[m // 2 : m], 8] = values[ranks[m], 8]  # half the tail at the cutoff
        result = _assert_matches_scalar(values)
        nan_columns = np.flatnonzero(np.isnan(result.pareto_k))
        assert list(nan_columns) == [3, 6, 7, 8]

    def test_heavy_tails_fill_every_k_bin(self):
        rng = np.random.default_rng(13)
        scales = np.linspace(0.05, 40.0, 150)
        values = -rng.standard_exponential((1000, 150)) * scales
        result = _assert_matches_scalar(values)
        counts = result.k_counts
        assert counts["good"] and counts["bad"] and counts["very_bad"]
        assert sum(counts.values()) == 150


class TestLooDiagnostics:
    def test_k_bins_include_their_upper_edge(self):
        result = LooResult(
            elpd_loo=0.0,
            se_elpd=0.0,
            pointwise_elpd=np.zeros(8),
            pareto_k=np.array([0.2, 0.5, 0.6, 0.7, 0.71, 1.0, 1.5, np.nan]),
            n_obs=8,
        )
        assert result.k_counts == {"good": 2, "ok": 2, "bad": 2, "very_bad": 1, "nan": 1}
        assert result.n_high_k == result.k_counts["bad"] + result.k_counts["very_bad"]

    def test_p_loo_zero_when_draws_agree(self):
        values = np.tile(np.log([0.5, 0.25, 0.8]), (100, 1))
        result = psis_loo(_per_observation(values))
        assert result.p_loo == pytest.approx(0.0, abs=1e-12)

    def test_p_loo_positive_and_in_comparison_output(self):
        model, draws = _fitted(n=30)
        result = psis_loo(pointwise_loglik(draws, model))
        assert 0.0 < result.p_loo < 5.0
        comparison = compare({"a": result, "b": result})
        rows = json.loads(render_comparison_json(comparison))["rows"]
        for row in rows:
            assert row["p_loo"] == result.p_loo
            assert row["pareto_k_counts"] == result.k_counts

    def test_undefined_p_loo_is_null_in_comparison_json(self):
        def result(elpd):
            # p_loo is left at its NaN default.
            return LooResult(
                elpd_loo=elpd,
                se_elpd=1.0,
                pointwise_elpd=np.full(4, elpd / 4),
                pareto_k=np.zeros(4),
                n_obs=4,
            )

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        text = render_comparison_json(compare({"a": result(-4.0), "b": result(-8.0)}))
        rows = json.loads(text, parse_constant=reject)["rows"]
        assert [row["p_loo"] for row in rows] == [None, None]


class TestCompare:
    def _loo_pair(self):
        model, draws = _fitted(n=30, seed=8, draws_seed=21)
        good = psis_loo(pointwise_loglik(draws, model))
        # A deliberately worse variant: same data, coefficients zeroed.
        zero = make_draws(np.zeros((2, 300, model.n_params)), model.param_names)
        bad = psis_loo(pointwise_loglik(zero, model))
        return good, bad

    def test_best_row_is_exact_zero(self):
        good, bad = self._loo_pair()
        result = compare({"fitted": good, "null": bad})
        assert result.rows[0].name == "fitted"
        assert result.rows[0].elpd_diff == 0.0
        assert result.rows[0].se_diff == 0.0
        assert result.rows[1].elpd_diff == pytest.approx(
            bad.elpd_loo - good.elpd_loo, abs=1e-10
        )
        assert result.rows[1].se_diff > 0

    def test_order_of_input_irrelevant(self):
        good, bad = self._loo_pair()
        a = compare({"fitted": good, "null": bad})
        b = compare({"null": bad, "fitted": good})
        assert [r.name for r in a.rows] == [r.name for r in b.rows]
        assert a.rows[1].elpd_diff == b.rows[1].elpd_diff

    def test_se_diff_from_pointwise_differences(self):
        good, bad = self._loo_pair()
        result = compare({"fitted": good, "null": bad})
        delta = bad.pointwise_elpd - good.pointwise_elpd
        assert result.rows[1].se_diff == pytest.approx(
            math.sqrt(len(delta) * np.var(delta)), abs=1e-10
        )

    def test_needs_two_models(self):
        good, _ = self._loo_pair()
        with pytest.raises(ValueError):
            compare({"only": good})


# Axes at 7 prior sds of the synthetic models' N(0, 2^2) prior.
_PRIOR_AXES = GridSpec(axes=((-14.0, 14.0, 101), (-14.0, 14.0, 101)))


def _dblquad_loo_terms(model, axes):
    """log Z - log Z_-i for each observation, each Z by scipy's adaptive
    `dblquad` over the grid's box, from scipy's log-CDFs."""
    from scipy.integrate import dblquad
    from scipy.special import log_expit, log_ndtr

    log_cdf = log_expit if model.link == "logit" else log_ndtr
    x, sign = model.design.values[:, 0], 2.0 * model.target - 1.0
    (lo0, hi0, _), (lo1, hi1, _) = axes
    prior = model.prior

    def log_z(keep):
        def density(b1, b0):
            loglik = log_cdf(sign[keep] * (b0 + b1 * x[keep])).sum()
            z0 = (b0 - prior.intercept_mean) / prior.intercept_sd
            z1 = (b1 - prior.slope_mean) / prior.slope_sd
            return math.exp(loglik - 0.5 * (z0 * z0 + z1 * z1))

        value, _ = dblquad(density, lo0, hi0, lo1, hi1, epsabs=0.0, epsrel=1e-12)
        return math.log(value)

    everyone = np.ones(len(x), dtype=bool)
    return [log_z(everyone) - log_z(everyone & (np.arange(len(x)) != i))
            for i in range(len(x))]


def _grid_loo_terms_of(model, axes):
    xs = [list(map(float, row)) for row in model.design.values]
    ys = [int(v) for v in model.target]
    return _grid_loo_terms(model.link, model.prior, xs, ys, axes)


class TestExactLoo:
    def test_matches_direct_computation_tiny(self):
        # N = 3: each grid term log Z - log Z_-i against adaptive quadrature
        # of Z and Z_-i, for both links; the total is their sum.
        for link in ("logit", "probit"):
            model = _synthetic_model(link, 3, 1, 2)
            reference = _dblquad_loo_terms(model, _PRIOR_AXES.axes)
            grid = _grid_loo_terms_of(model, _PRIOR_AXES.axes)
            assert grid == pytest.approx(reference, rel=0, abs=1e-8)
            assert exact_loo(model, _PRIOR_AXES) == pytest.approx(
                math.fsum(reference), rel=0, abs=1e-8)

    def test_leaves_out_one_copy_of_a_repeated_row(self):
        # One row three times: copy i's term leaves out that copy alone, so
        # Z_-i keeps the other two.
        from bernreg.data import DesignMatrix

        model = ModelSpec("logit", PriorSpec(0.0, 2.0, 0.0, 2.0),
                          DesignMatrix.from_values(np.full((3, 1), 0.7)), np.ones(3))
        reference = _dblquad_loo_terms(model, _PRIOR_AXES.axes)
        assert _grid_loo_terms_of(model, _PRIOR_AXES.axes) == pytest.approx(
            reference, rel=0, abs=1e-8)
        assert exact_loo(model, _PRIOR_AXES) == pytest.approx(
            math.fsum(reference), rel=0, abs=1e-8)

    def test_uses_neither_sampler_nor_model_kernel(self, monkeypatch):
        import scipy.special

        from bernreg import model as model_module
        from bernreg import rngutil, sampler

        model = _synthetic_model("probit", 8, 1, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_loo reached code it is meant to check")

        for module, name in ((sampler, "sample"), (model_module, "log_cdf_and_ratio"),
                             (model_module, "linear_predictor"),
                             (rngutil, "substream_seed"), (scipy.special, "logsumexp")):
            monkeypatch.setattr(module, name, refuse)
        assert math.isfinite(exact_loo(model, _PRIOR_AXES))

    def test_narrow_axes_fail_self_check(self):
        model = _synthetic_model("logit", 40, 1, 5)
        grid = GridSpec(axes=((-0.05, 0.05, 11), (-0.05, 0.05, 11)))
        with pytest.raises(NumericalError, match="elpd moved .* under axis widening"):
            exact_loo(model, grid)

    def test_deterministic(self):
        model = _synthetic_model("logit", 8, 1, 4)
        assert exact_loo(model, _PRIOR_AXES) == exact_loo(model, _PRIOR_AXES)

    def test_too_large_rejected(self):
        model = _synthetic_model("logit", 501, 1, 0)
        with pytest.raises(NumericalError, match="exact LOO capped at 500 observations"):
            exact_loo(model, _PRIOR_AXES)


class TestPsisAgainstExact:
    def test_moderate_dataset_agreement(self):
        # Smaller sibling of the acceptance-scale check: n = 40, both
        # routes estimate the same quantity within a small gap.
        model = _synthetic_model("logit", 40, 1, 13)
        config = SamplerConfig(n_chains=2, n_warmup=250, n_draws=400, seed=31)
        draws = sample(model, config)
        approx = psis_loo(pointwise_loglik(draws, model))
        exact = exact_loo(model, GridSpec.around(draws.pooled(), 101))
        assert abs(approx.elpd_loo - exact) < 0.5
        assert approx.n_high_k < 2
