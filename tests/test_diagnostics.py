import json
import math

import numpy as np
import pytest

from bernreg import diagnostics
from bernreg.diagnostics import (
    _autocovariance_fft,
    _rank_normalize,
    ess_bulk,
    ess_tail,
    quantile,
    split_rhat,
    summarize,
)
from bernreg.errors import Degenerate, NumericalError
from bernreg.oracle import autocovariance_direct
from bernreg.report import render_summary_json

from conftest import make_draws

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestQuantile:
    def test_interpolated_position(self):
        # 100 values 1..100: position (100-1)*0.975 = 96.525 between the
        # 97th and 98th order statistics -> 97 + 0.525.
        values = np.arange(1.0, 101.0)
        assert abs(quantile(values, 0.975) - 97.525) < 1e-12
        assert abs(quantile(values, 0.025) - 3.475) < 1e-12

    def test_endpoints_and_median(self):
        values = np.array([4.0, 1.0, 3.0, 2.0])
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == 2.5

    def test_single_value(self):
        assert quantile([7.0], 0.3) == 7.0

    def test_unsorted_input_allowed(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=101)
        assert quantile(values, 0.5) == np.sort(values)[50]

    def test_empty_rejected(self):
        with pytest.raises(NumericalError, match="quantile of an empty sample"):
            quantile([], 0.5)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0, 2.0], 1.5)


def _iid_chains(seed, n_chains=4, n_draws=1000):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_chains, n_draws))


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        values = [split_rhat(_iid_chains(seed)) for seed in range(20)]
        assert all(0.99 <= v <= 1.01 for v in values)

    def test_location_shift_detected(self):
        for seed in range(10):
            chains = _iid_chains(seed)
            chains[0] += 5.0
            assert split_rhat(chains) > 1.1

    def test_within_chain_trend_detected(self):
        # First half differs from second half: split-Rhat must see it even
        # though full-chain means agree.
        rng = np.random.default_rng(3)
        drift = np.concatenate([np.zeros(500), np.full(500, 5.0)])
        chains = rng.standard_normal((4, 1000)) + drift
        assert split_rhat(chains) > 1.5

    def test_monotone_transform_invariance(self):
        # Rank normalization makes the statistic depend only on order.
        chains = _iid_chains(11)
        assert split_rhat(np.exp(chains)) == pytest.approx(split_rhat(chains), abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(Degenerate):
            split_rhat(np.zeros((4, 100)))

    def test_too_few_draws(self):
        with pytest.raises(NumericalError, match="at least 4 draws per chain, got 3"):
            split_rhat(np.zeros((4, 3)))

    def test_non_finite_rejected(self):
        chains = _iid_chains(0)
        chains[0, 0] = np.nan
        with pytest.raises(ValueError):
            split_rhat(chains)


class TestRankNormalize:
    """The numpy average ranks against scipy.stats.rankdata, bit for bit."""

    def test_matches_rankdata_average_with_ties(self):
        from scipy import special, stats

        rng = np.random.default_rng(29)
        repeated = rng.standard_normal((4, 250))
        repeated[:, 1::3] = repeated[:, 0::3][:, : repeated[:, 1::3].shape[1]]
        inputs = [
            rng.standard_normal((4, 1000)),
            np.round(rng.standard_normal((8, 100)), 1),  # many ties of many sizes
            rng.integers(0, 3, size=(3, 7)).astype(float),  # three tie groups
            repeated,  # NUTS-style repeated draws
            np.full((2, 6), 0.25),  # one tie group
            np.array([[2.0, -0.0, 0.0, 1.0], [0.0, -1.0, 2.0, 2.0]]),  # -0 ties +0
        ]
        for arr in inputs:
            ranks = stats.rankdata(arr, method="average").reshape(arr.shape)
            expected = special.ndtri((ranks - 0.375) / (arr.size + 0.25))
            assert np.array_equal(_rank_normalize(arr), expected)


class TestEss:
    def test_iid_near_total(self):
        hits = 0
        for seed in range(20):
            chains = _iid_chains(seed)
            bulk = ess_bulk(chains)
            tail = ess_tail(chains)
            if abs(bulk - 4000) <= 0.15 * 4000 and abs(tail - 4000) <= 0.15 * 4000:
                hits += 1
        assert hits >= 19

    def test_autocorrelated_chains_reduced(self):
        # AR(1) with phi = 0.9: true ESS factor (1-phi)/(1+phi) ~ 0.0526.
        rng = np.random.default_rng(5)
        phi = 0.9
        chains = np.empty((4, 2000))
        for c in range(4):
            noise = rng.standard_normal(2000)
            chains[c, 0] = noise[0]
            for t in range(1, 2000):
                chains[c, t] = phi * chains[c, t - 1] + noise[t]
        ratio = ess_bulk(chains) / chains.size
        expected = (1 - phi) / (1 + phi)
        assert 0.5 * expected < ratio < 2.0 * expected

    def test_capped_at_twice_total(self):
        # Strong negative autocorrelation pushes the raw estimate above the
        # cap; the estimator must clamp at 2 * size.
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((4, 1001))
        antithetic = noise[:, 1:] - noise[:, :-1]
        assert ess_bulk(antithetic) <= 2.0 * antithetic.size

    def test_fft_matches_direct(self, monkeypatch):
        cases = [_iid_chains(seed, n_draws=500) for seed in range(5)]
        fft = [(ess_bulk(c), ess_tail(c)) for c in cases]
        monkeypatch.setattr(diagnostics, "_autocovariance_fft", autocovariance_direct)
        for chains, (bulk, tail) in zip(cases, fft):
            assert bulk == pytest.approx(ess_bulk(chains), rel=1e-8)
            assert tail == pytest.approx(ess_tail(chains), rel=1e-8)

    def test_autocovariance_paths_agree(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(777)
        assert np.allclose(
            _autocovariance_fft(x), autocovariance_direct(x), rtol=1e-8, atol=1e-12
        )

    def test_constant_raises(self):
        with pytest.raises(Degenerate):
            ess_bulk(np.ones((4, 100)))
        with pytest.raises(Degenerate):
            ess_tail(np.ones((4, 100)))

    def test_tail_constant_indicator_falls_back_to_size(self):
        # Heavy point mass at the minimum: the 5% indicator chain is
        # constant, which must fall back to the sample size, not raise.
        rng = np.random.default_rng(2)
        chains = np.maximum(rng.standard_normal((4, 500)), 0.0)
        value = ess_tail(chains)
        assert math.isfinite(value) and value > 0

    def test_tail_not_larger_than_sensible_bound(self):
        chains = _iid_chains(21)
        assert ess_tail(chains) <= 2.0 * chains.size


class TestSummarize:
    def test_fields_and_order(self):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((4, 300, 2))
        arr[:, :, 1] += 10.0
        draws = make_draws(arr, param_names=("alpha", "beta"))
        rows = summarize(draws)
        assert [r.name for r in rows] == ["alpha", "beta"]
        assert rows[1].estimate == pytest.approx(10.0, abs=0.1)
        pooled = arr[:, :, 0].ravel()
        assert rows[0].estimate == pytest.approx(float(pooled.mean()), abs=1e-12)
        assert rows[0].est_error == pytest.approx(float(pooled.std(ddof=1)), abs=1e-12)
        assert rows[0].ci_lower == pytest.approx(quantile(pooled, 0.025), abs=1e-12)
        assert rows[0].ci_upper == pytest.approx(quantile(pooled, 0.975), abs=1e-12)

    def test_ci_level_argument(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((2, 500, 1))
        draws = make_draws(arr)
        row = summarize(draws, ci_level=0.5)[0]
        pooled = arr[:, :, 0].ravel()
        assert row.ci_lower == pytest.approx(quantile(pooled, 0.25), abs=1e-12)
        assert row.ci_upper == pytest.approx(quantile(pooled, 0.75), abs=1e-12)

    def test_degenerate_parameter_reports_nan_not_one(self):
        arr = np.zeros((4, 100, 1))
        arr[:, :, 0] = 2.5
        rows = summarize(make_draws(arr))
        assert math.isnan(rows[0].rhat)
        assert math.isnan(rows[0].ess_bulk)
        assert math.isnan(rows[0].ess_tail)
        assert rows[0].estimate == 2.5
        assert rows[0].est_error == 0.0
        assert json.loads(render_summary_json(rows))["parameters"][0]["rhat"] is None

    def test_healthy_parameter_diagnostics_finite(self):
        arr = _iid_chains(31)[:, :, None]
        row = summarize(make_draws(arr))[0]
        assert 0.99 <= row.rhat <= 1.01
        assert row.ess_bulk > 1000
        assert row.ess_tail > 500
