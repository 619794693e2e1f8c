import json
import math

import numpy as np
import pytest

from bernreg import model, predict
from bernreg.errors import MismatchError, NumericalError
from bernreg.model import block_rows, success_probability
from bernreg.predict import PredictionRow, _ecdf_index, posterior_predict
from bernreg.report import render_json, render_predictions_json
from bernreg.rngutil import substream_rng

from conftest import assert_no_child_process, make_draws

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _coef_draws(intercepts, slopes=None, n_chains=2):
    """Draws array with given pooled intercept (and optional slope) values."""
    intercepts = np.asarray(intercepts, dtype=np.float64)
    n = len(intercepts)
    per_chain = n // n_chains
    if slopes is None:
        arr = intercepts.reshape(n_chains, per_chain, 1)
        names = ("Intercept",)
    else:
        slopes = np.asarray(slopes, dtype=np.float64)
        arr = np.stack([intercepts, slopes], axis=1).reshape(n_chains, per_chain, 2)
        names = ("Intercept", "x1")
    return make_draws(arr, names)


class TestEcdfQuantile:
    def test_small_known_cases(self):
        ordered = np.array([1.0, 2.0, 3.0, 4.0])
        assert ordered[_ecdf_index(4, 0.25)] == 1.0
        assert ordered[_ecdf_index(4, 0.26)] == 2.0
        assert ordered[_ecdf_index(4, 0.5)] == 2.0
        assert ordered[_ecdf_index(4, 1.0)] == 4.0
        assert ordered[_ecdf_index(4, 0.0)] == 1.0

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        ordered = np.sort(rng.standard_normal(200))
        tripled = np.sort(np.tile(ordered, 3))
        for p in (0.025, 0.5, 0.975):
            assert ordered[_ecdf_index(200, p)] == tripled[_ecdf_index(600, p)]


class TestProbabilityScale:
    def test_degenerate_zero_coefficients(self):
        draws = _coef_draws(np.zeros(100))
        row = posterior_predict(draws, np.empty((1, 0)), "logit",
                                scale="probability")[0]
        assert row.estimate == 0.5
        assert row.est_error == 0.0
        assert row.ci_lower == 0.5
        assert row.ci_upper == 0.5
        assert row.scale == "probability"

    def test_known_two_point_posterior(self):
        # Intercepts logit(0.2) and logit(0.8) in equal halves.
        eta = np.array([math.log(0.2 / 0.8), math.log(0.8 / 0.2)] * 50)
        draws = _coef_draws(eta)
        row = posterior_predict(draws, np.empty((1, 0)), "logit",
                                scale="probability")[0]
        assert row.estimate == pytest.approx(0.5, abs=1e-12)
        assert row.est_error == pytest.approx(0.3, abs=1e-12)
        assert row.ci_lower == pytest.approx(0.2, abs=1e-12)
        assert row.ci_upper == pytest.approx(0.8, abs=1e-12)

    def test_duplicating_draws_changes_nothing(self):
        rng = np.random.default_rng(5)
        eta = rng.standard_normal(200)
        single = _coef_draws(eta)
        doubled = _coef_draws(np.tile(eta, 2))
        a = posterior_predict(single, np.empty((1, 0)), "logit", scale="probability")[0]
        b = posterior_predict(doubled, np.empty((1, 0)), "logit", scale="probability")[0]
        assert abs(a.estimate - b.estimate) < 1e-12
        assert abs(a.est_error - b.est_error) < 1e-12
        assert abs(a.ci_lower - b.ci_lower) < 1e-12
        assert abs(a.ci_upper - b.ci_upper) < 1e-12

    def test_monotone_in_linear_predictor(self):
        rng = np.random.default_rng(8)
        draws = _coef_draws(rng.standard_normal(100) * 0.2,
                            slopes=np.abs(rng.standard_normal(100)) + 0.5)
        xs = np.array([[-2.0], [-0.5], [0.5], [2.0]])
        rows = posterior_predict(draws, xs, "logit", scale="probability")
        estimates = [r.estimate for r in rows]
        assert estimates == sorted(estimates)

    def test_probit_and_logit_links_differ(self):
        draws = _coef_draws(np.full(100, 1.0))
        a = posterior_predict(draws, np.empty((1, 0)), "logit", scale="probability")[0]
        b = posterior_predict(draws, np.empty((1, 0)), "probit", scale="probability")[0]
        assert a.estimate != b.estimate


    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("n_draws", [1, 10, 200, 2000])
    def test_interval_is_exact_order_statistics(self, link, n_draws):
        # Each bound is selected by its own partition: the same values as
        # indexing a full sort, bit for bit.
        rng = np.random.default_rng(n_draws)
        arr = rng.normal([0.3, -0.8], 0.7, size=(n_draws, 2))
        arr[1::5] = arr[0::5][: len(arr[1::5])]  # repeated draws
        draws = make_draws(arr.reshape(1, n_draws, 2), ("Intercept", "x1"))
        values = rng.standard_normal((block_rows(n_draws) + 3, 1)) * 3.0
        rows = posterior_predict(draws, values, link, scale="probability")
        eta = arr[:, 0] + np.outer(values[:, 0], arr[:, 1])
        ordered = np.sort(success_probability(link, eta), axis=1)
        low, high = _ecdf_index(n_draws, 0.025), _ecdf_index(n_draws, 0.975)
        assert [r.ci_lower for r in rows] == ordered[:, low].tolist()
        assert [r.ci_upper for r in rows] == ordered[:, high].tolist()


class TestOutcomeScale:
    def test_binomial_error_identity(self):
        # For 0/1 outcome samples the population sd is exactly
        # sqrt(p_hat (1 - p_hat)); check to float precision on many rows.
        rng = np.random.default_rng(3)
        draws = _coef_draws(rng.standard_normal(4000) * 0.8)
        xs = np.zeros((8, 0))[:, :0]
        rows = posterior_predict(draws, np.zeros((8, 0)), "logit",
                                 scale="outcome", seed=42)
        for row in rows:
            expected = math.sqrt(row.estimate * (1.0 - row.estimate))
            assert row.est_error == pytest.approx(expected, abs=1e-12)
            assert row.est_error**2 <= row.estimate * (1 - row.estimate) + 1 / 4000 + 1e-12

    def test_paper_style_row_pattern(self):
        # A row whose success probability is ~0.257: outcome mean near
        # 0.257, error near sqrt(p(1-p)) ~ 0.437, and 95% interval {0, 1}.
        target_p = 0.257
        eta = math.log(target_p / (1 - target_p))
        draws = _coef_draws(np.full(4000, eta))
        row = posterior_predict(draws, np.empty((1, 0)), "logit",
                                scale="outcome", seed=7)[0]
        mc_sd = math.sqrt(target_p * (1 - target_p) / 4000)
        assert abs(row.estimate - target_p) < 4 * mc_sd
        assert abs(row.est_error - math.sqrt(row.estimate * (1 - row.estimate))) < 1e-12
        assert row.ci_lower == 0.0
        assert row.ci_upper == 1.0

    def test_extreme_probability_collapses_interval(self):
        draws = _coef_draws(np.full(2000, 12.0))
        row = posterior_predict(draws, np.empty((1, 0)), "logit",
                                scale="outcome", seed=1)[0]
        assert row.estimate == 1.0
        assert row.est_error == 0.0
        assert (row.ci_lower, row.ci_upper) == (1.0, 1.0)

    def test_row_results_independent_of_batch(self):
        rng = np.random.default_rng(11)
        draws = _coef_draws(rng.standard_normal(500),
                            slopes=rng.standard_normal(500))
        xs = rng.standard_normal((5, 1))
        full = posterior_predict(draws, xs, "logit", scale="outcome", seed=9)
        # score row 3 alone: same seed substream => identical result except
        # for the reported index
        alone = posterior_predict(draws, xs[3:4], "logit", scale="outcome", seed=9)
        # row indices are per-call, so row 3 alone uses substream 0 -> must
        # equal scoring row 0 of a batch starting at row 3
        shifted = posterior_predict(draws, np.vstack([xs[3:4], xs[4:]]), "logit",
                                    scale="outcome", seed=9)
        assert alone[0].estimate == shifted[0].estimate
        assert alone[0].est_error == shifted[0].est_error
        assert full[0].scale == "outcome"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        draws = _coef_draws(rng.standard_normal(400))
        a = posterior_predict(draws, np.empty((2, 0)), "logit", scale="outcome", seed=3)
        b = posterior_predict(draws, np.empty((2, 0)), "logit", scale="outcome", seed=3)
        c = posterior_predict(draws, np.empty((2, 0)), "logit", scale="outcome", seed=4)
        assert [vars(r) for r in a] == [vars(r) for r in b]
        assert any(
            vars(r1) != vars(r2) for r1, r2 in zip(a, c)
        ) or a[0].estimate == c[0].estimate  # seeds may rarely coincide in value


def _ecdf_quantile(ordered, p):
    """Smallest order statistic whose ECDF reaches p (duplication-proof)."""
    n = len(ordered)
    return float(ordered[min(max(1, math.ceil(n * p)), n) - 1])


def _naive_predict(draws, values, link, scale, seed):
    """One row at a time: the reference for the block path.

    Row i's outcomes compare uniforms [i * S, (i + 1) * S) of substream 0,
    here drawn for all rows in one call.
    """
    beta = draws.pooled()
    n_draws = beta.shape[0]
    uniforms = substream_rng(seed, 0).random(len(values) * n_draws)
    out = []
    for i, row in enumerate(values):
        pi = success_probability(link, beta[:, 0] + beta[:, 1:] @ row)
        if scale == "probability":
            sample = pi
        else:
            sample = (uniforms[i * n_draws:(i + 1) * n_draws] < pi).astype(np.float64)
        ordered = np.sort(sample)
        out.append((i, float(sample.mean()), float(sample.std()),
                    _ecdf_quantile(ordered, 0.025), _ecdf_quantile(ordered, 0.975)))
    return out


class TestBlocksAgainstRowLoop:
    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("scale", ["outcome", "probability"])
    def test_matches_naive_rows(self, link, scale):
        rng = np.random.default_rng(17)
        n_draws = 1000
        arr = rng.normal([-0.5, 0.8, -1.2, 0.3], 0.4, size=(n_draws, 4))
        arr[1::7] = arr[0::7][: len(arr[1::7])]  # repeated draws
        draws = make_draws(arr.reshape(2, n_draws // 2, 4), ("Intercept", "a", "b", "c"))
        values = rng.standard_normal((3 * block_rows(n_draws) + 5, 3)) * 2.0
        rows = posterior_predict(draws, values, link, scale=scale, seed=23)
        expected = _naive_predict(draws, values, link, scale, seed=23)
        got = [(r.index, r.estimate, r.est_error, r.ci_lower, r.ci_upper) for r in rows]
        assert len(got) == len(expected)
        if scale == "outcome":
            assert got == expected
        else:
            np.testing.assert_allclose(np.array(got), np.array(expected), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("scale", ["outcome", "probability"])
    def test_est_error_has_the_bits_of_std(self, link, scale):
        # est_error reuses the block's mean; it must equal sample.std(axis=1).
        rng = np.random.default_rng(31)
        n_draws = 2000
        arr = rng.normal([0.2, -0.6], 0.5, size=(n_draws, 2))
        draws = make_draws(arr.reshape(2, n_draws // 2, 2), ("Intercept", "x1"))
        values = rng.standard_normal((2 * block_rows(n_draws) + 3, 1))
        rows = posterior_predict(draws, values, link, scale=scale, seed=13)
        sample = success_probability(link, arr[:, 0] + np.outer(values[:, 0], arr[:, 1]))
        if scale == "outcome":
            uniforms = substream_rng(13, 0).random(sample.shape)
            sample = (uniforms < sample).astype(np.float64)
        assert [r.est_error for r in rows] == sample.std(axis=1).tolist()

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    def test_smaller_blocks_change_no_row(self, monkeypatch, rows_per_block):
        rng = np.random.default_rng(29)
        draws = _coef_draws(rng.standard_normal(600), slopes=rng.standard_normal(600))
        values = rng.standard_normal((40, 1))
        default = posterior_predict(draws, values, "logit", scale="outcome", seed=5)
        monkeypatch.setattr(model, "_BLOCK_VALUES", rows_per_block * 600)
        blocked = posterior_predict(draws, values, "logit", scale="outcome", seed=5)
        assert [vars(r) for r in blocked] == [vars(r) for r in default]

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_a_row_does_not_depend_on_how_many_rows_are_scored(self, link):
        # numpy sends a one-row product to BLAS's matrix-vector routine,
        # whose bits differ from the matrix product's: a row scored alone,
        # or left alone after the last full block, must not take it. The
        # difference is in the last bits of eta, so whether a summary shows
        # it depends on the draws; at this seed rows 7 and 16 show it.
        rng = np.random.default_rng(44)
        n_draws = 2000
        arr = rng.normal([0.3, 0.8, -0.5, 1.1], 0.4, size=(n_draws, 4))
        draws = make_draws(arr.reshape(2, n_draws // 2, 4), ("Intercept", "a", "b", "c"))
        values = rng.standard_normal((40, 3)) * 1.5
        many = posterior_predict(draws, values, link, scale="probability")
        for i in (0, 7, 16):
            alone = posterior_predict(draws, values[i:i + 1], link, scale="probability")
            assert vars(alone[0]) == dict(vars(many[i]), index=0)
        assert 17 % block_rows(n_draws) == 1
        seventeen = posterior_predict(draws, values[:17], link, scale="probability")
        assert vars(seventeen[16]) == vars(many[16])

    def test_binomial_bound_names_the_first_bad_row(self, monkeypatch):
        # An unbounded "link" makes a row's spread exceed any probability's.
        monkeypatch.setattr(predict, "success_probability", lambda link, eta: eta)
        slopes = np.tile([1.0, -1.0], 50)
        draws = _coef_draws(np.full(100, 0.5), slopes=slopes)
        rows_per_block = block_rows(100)
        values = np.zeros((2 * rows_per_block, 1))
        values[rows_per_block + 3] = 3.0
        with pytest.raises(NumericalError, match=f"row {rows_per_block + 3}:"):
            posterior_predict(draws, values, "logit", scale="probability")


class TestWorkerCount:
    """Rows split across 1, 2 or 3 processes give the same rows, bit for bit."""

    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("scale", ["outcome", "probability"])
    def test_worker_count_changes_no_byte(self, monkeypatch, link, scale):
        rng = np.random.default_rng(53)
        n_draws = 2000
        arr = rng.normal([-0.4, 0.9, -0.7], 0.5, size=(n_draws, 3))
        draws = make_draws(arr.reshape(2, n_draws // 2, 3), ("Intercept", "a", "b"))
        values = rng.standard_normal((7 * block_rows(n_draws) + 1, 2)) * 1.5  # a lone last row
        scored = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(model, "_cpu_count", lambda: cpus)
            rows = posterior_predict(draws, values, link, scale=scale, seed=17)
            scored.append([vars(r) for r in rows])
            assert_no_child_process()
        assert len(scored[0]) == len(values)
        assert scored[1] == scored[0] and scored[2] == scored[0]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad, named", [((1, 11), 1), ((11,), 11), ((5, 11), 5)])
    def test_first_bad_row_of_the_first_failing_range(self, monkeypatch, cpus, bad, named):
        # Two-row blocks: with 2 workers the ranges are rows 0-5 and 6-11,
        # with 3 they are 0-3, 4-7 and 8-11.
        monkeypatch.setattr(predict, "success_probability", lambda link, eta: eta)
        monkeypatch.setattr(model, "_BLOCK_VALUES", 200)
        monkeypatch.setattr(model, "_cpu_count", lambda: cpus)
        draws = _coef_draws(np.full(100, 0.5), slopes=np.tile([1.0, -1.0], 50))
        values = np.zeros((12, 1))
        values[list(bad)] = 3.0
        with pytest.raises(NumericalError, match=f"^row {named}: est_error squared exceeds"):
            posterior_predict(draws, values, "logit", scale="probability")
        assert_no_child_process()


class TestValidation:
    def test_unknown_scale(self):
        draws = _coef_draws(np.zeros(10))
        with pytest.raises(ValueError):
            posterior_predict(draws, np.empty((1, 0)), "logit", scale="logodds")

    def test_unknown_link_with_no_rows(self):
        draws = _coef_draws(np.zeros(10))
        with pytest.raises(ValueError, match="unknown link 'cauchit'"):
            posterior_predict(draws, np.empty((0, 0)), "cauchit")

    def test_dimension_mismatch(self):
        draws = _coef_draws(np.zeros(10), slopes=np.zeros(10))
        with pytest.raises(MismatchError, match="new rows have 3 columns, fit has 1 slopes"):
            posterior_predict(draws, np.zeros((1, 3)), "logit")

    def test_row_indices_sequential(self):
        draws = _coef_draws(np.zeros(10))
        rows = posterior_predict(draws, np.empty((3, 0)), "logit",
                                 scale="probability")
        assert [r.index for r in rows] == [0, 1, 2]

    def test_prediction_row_to_dict(self):
        row = PredictionRow(0, 0.5, 0.1, 0.3, 0.7, "probability")
        d = json.loads(render_predictions_json([row]))["predictions"][0]
        assert d["estimate"] == 0.5 and d["scale"] == "probability"


class TestPredictionJson:
    """render_predictions_json writes the rows itself, with render_json's bytes."""

    @pytest.mark.parametrize("values", [
        [0.25, 0.4330127018922193, 0.0, 1.0],
        [math.nan, math.nan, math.nan, math.nan],
        [math.inf, -math.inf, 0.0, 1.0],
        [5e-324, 1e16, -0.0, 0.1 + 0.2],
        [np.float64(1 / 3), np.float64(math.nan), np.float64(-math.inf), 2.5e-7],
    ], ids=["ordinary", "nan", "infinite", "extremes", "numpy-floats"])
    def test_same_bytes_as_render_json(self, values):
        rows = [PredictionRow(i, *np.roll(values, i).tolist(), scale)
                for i, scale in enumerate(["outcome", "probability", "outcome"])]
        rows.append(PredictionRow(3, *values, "probability"))  # unconverted numpy values
        assert render_predictions_json(rows) == render_json({"predictions": rows})

    def test_empty_list(self):
        assert render_predictions_json([]) == render_json({"predictions": []})
        assert render_predictions_json([]) == '{\n  "predictions": []\n}\n'
