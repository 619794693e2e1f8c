import functools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from bernreg import model as model_module
from bernreg.data import DesignMatrix
from bernreg.errors import MismatchError
from bernreg.loo import pointwise_loglik
from bernreg.model import (
    ModelSpec,
    PriorSpec,
    block_rows,
    default_priors,
    linear_predictor,
    log_cdf_and_ratio,
    log_posterior_and_gradient,
    map_row_ranges,
    success_probability,
)
from bernreg.oracle import finite_diff_gradient

from conftest import assert_no_child_process, make_draws, total_loglik

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# High-precision reference values (60-digit arithmetic, frozen).
PROBIT_REFERENCE = (
    (-8.0, 6.220960574271784123516e-16),
    (-3.62, 0.0001473015079074726198773),
    (-1.959964, 0.0249999990964424043025),
    (-0.5, 0.3085375387259868963623),
    (0.0, 0.5),
    (0.5, 0.6914624612740131036377),
    (1.959964, 0.9750000009035575956975),
    (2.34, 0.9903581300546416673759),
    (3.62, 0.9998526984920925273801),
    (8.0, 0.9999999999999993779039),
)
LOGIT_REFERENCE = (
    (-30.0, 9.35762296883929895384e-14),
    (-8.0, 0.0003353501304664781038783),
    (-2.34, 0.08786391482930123908579),
    (-0.5, 0.3775406687981454353611),
    (0.0, 0.5),
    (0.5, 0.6224593312018545646389),
    (2.34, 0.9121360851706987609142),
    (8.0, 0.9996646498695335218961),
    (30.0, 0.9999999999999064237703),
)
LOG_PHI_MINUS_40 = -804.6084420137537881666
LOG_PHI_MINUS_10 = -53.23128515051247057835


def _log_prior(beta, prior):
    """The prior term alone: the log posterior of a model with no rows."""
    design = DesignMatrix.from_values(np.empty((0, len(beta) - 1)))
    model = ModelSpec("logit", prior, design, np.empty(0))
    return log_posterior_and_gradient(beta, model)[0]


def _simple_model(link, n=20, k=2, seed=0, prior=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    y = (rng.random(n) < 0.5).astype(float)
    if prior is None:
        prior = PriorSpec(1.0, 0.7, 0.0, 0.5)
    return ModelSpec(link, prior, DesignMatrix.from_values(x), y)


logit_link = functools.partial(success_probability, "logit")
probit_link = functools.partial(success_probability, "probit")


class TestLinks:
    def test_probit_matches_reference(self):
        for eta, expected in PROBIT_REFERENCE:
            assert abs(probit_link(eta) - expected) < 1e-12

    def test_logit_matches_reference(self):
        for eta, expected in LOGIT_REFERENCE:
            assert abs(logit_link(eta) - expected) < 1e-12

    def test_midpoint_exact(self):
        assert logit_link(0.0) == 0.5
        assert probit_link(0.0) == 0.5

    @given(st.floats(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_logit_symmetry(self, eta):
        assert abs(logit_link(eta) + logit_link(-eta) - 1.0) < 1e-12

    @given(st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_probit_symmetry(self, eta):
        assert abs(probit_link(eta) + probit_link(-eta) - 1.0) < 1e-12

    def test_strictly_inside_unit_interval_at_extremes(self):
        for link in (logit_link, probit_link):
            for eta in (-800.0, -40.0, 40.0, 800.0):
                assert 0.0 < link(eta) < 1.0

    def test_monotone(self):
        wide = np.linspace(-30, 30, 201)
        for link in (logit_link, probit_link):
            assert np.all(np.diff(link(wide)) >= 0)
        # strictly increasing wherever the output is representable
        assert np.all(np.diff(logit_link(np.linspace(-30, 30, 201))) >= 0)
        assert np.all(np.diff(logit_link(np.linspace(-25, 25, 201))) > 0)
        assert np.all(np.diff(probit_link(np.linspace(-7.5, 7.5, 201))) > 0)

    def test_vectorized_matches_scalar(self):
        etas = np.array([-3.0, -0.25, 0.0, 1.5])
        assert np.allclose(logit_link(etas), [logit_link(e) for e in etas])
        assert np.allclose(probit_link(etas), [probit_link(e) for e in etas])

    def test_logit_has_the_bits_of_the_masked_copy(self):
        # The two-branch sigmoid picks 1 where eta >= 0 with a maximum, not
        # a masked copy; e = exp(-|eta|) <= 1, so the bits cannot move.
        def masked_copy(eta):
            e = np.exp(-np.abs(eta))
            p = e.copy()
            np.copyto(p, 1.0, where=eta >= 0)
            np.divide(p, 1.0 + e, out=p)
            return np.clip(p, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)

        edges = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan])
        mixed = np.random.default_rng(41).normal(0.0, 6.0, (16, 2000))
        for eta in (edges, mixed, mixed[:, :1].copy()):
            got = logit_link(eta)
            assert np.array_equal(got.view(np.int64), masked_copy(eta).view(np.int64))

    @pytest.mark.parametrize("function", [success_probability, log_cdf_and_ratio],
                             ids=["success_probability", "log_cdf_and_ratio"])
    def test_unknown_link_raises(self, function):
        with pytest.raises(ValueError, match="unknown link 'cauchit'"):
            function("cauchit", np.array([0.0, 1.0]))


class TestPriors:
    def test_default_hyperparameters(self):
        logit_prior = default_priors("logit")
        assert (logit_prior.intercept_mean, logit_prior.intercept_sd) == (3.5, 1.0)
        assert (logit_prior.slope_mean, logit_prior.slope_sd) == (0.0, 0.5)
        probit_prior = default_priors("probit")
        assert (probit_prior.intercept_mean, probit_prior.intercept_sd) == (0.0, 5.0)
        assert (probit_prior.slope_mean, probit_prior.slope_sd) == (0.0, 2.0)

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            default_priors("cauchit")

    def test_nonpositive_sd_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PriorSpec(0.0, 1.0, 0.0, -2.0)

    def test_non_finite_value_rejected(self):
        for field in ("intercept_mean", "intercept_sd", "slope_mean", "slope_sd"):
            for value in (math.inf, -math.inf, math.nan):
                values = dict(intercept_mean=0.0, intercept_sd=1.0,
                              slope_mean=0.0, slope_sd=1.0)
                values[field] = value
                with pytest.raises(ValueError, match="finite"):
                    PriorSpec(**values)

    def test_log_prior_single_intercept_at_mean(self):
        # Density of N(3.5, 1) at its mean: -log(sqrt(2 pi)).
        value = _log_prior(np.array([3.5]), PriorSpec(3.5, 1.0, 0.0, 0.5))
        assert abs(value - (-0.5 * math.log(2 * math.pi))) < 1e-14

    def test_log_prior_matches_scalar_sum(self):
        rng = np.random.default_rng(3)
        prior = PriorSpec(1.2, 0.8, -0.3, 2.5)
        beta = rng.normal(0, 2, 5)
        expected = 0.0
        for j, b in enumerate(beta):
            mean = prior.intercept_mean if j == 0 else prior.slope_mean
            sd = prior.intercept_sd if j == 0 else prior.slope_sd
            expected += (
                -0.5 * ((b - mean) / sd) ** 2
                - math.log(sd)
                - 0.5 * math.log(2 * math.pi)
            )
        assert abs(_log_prior(beta, prior) - expected) < 1e-12

    def test_round_trip_dict(self):
        prior = PriorSpec(3.5, 1.0, 0.0, 0.5)
        assert PriorSpec.from_dict(prior.to_dict()) == prior


class TestModelSpec:
    def test_target_length_mismatch(self):
        x = np.zeros((4, 2))
        with pytest.raises(MismatchError, match="target length 3 differs from design rows 4"):
            ModelSpec("logit", PriorSpec(0, 1, 0, 1),
                      DesignMatrix.from_values(x), np.zeros(3))

    def test_non_binary_target(self):
        x = np.zeros((3, 1))
        with pytest.raises(ValueError):
            ModelSpec("logit", PriorSpec(0, 1, 0, 1),
                      DesignMatrix.from_values(x), np.array([0.0, 0.5, 1.0]))

    def test_param_names(self):
        model = _simple_model("logit", n=5, k=2)
        assert model.param_names == ("Intercept", "x1", "x2")


class TestLogLikelihood:
    def test_zero_coefficients_give_n_log_half(self):
        model = _simple_model("logit", n=17)
        value = total_loglik(np.zeros(3), model)
        assert abs(value - 17 * math.log(0.5)) < 1e-12
        model = _simple_model("probit", n=17)
        value = total_loglik(np.zeros(3), model)
        assert abs(value - 17 * math.log(0.5)) < 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(11)
        for link in ("logit", "probit"):
            model = _simple_model(link, n=25, k=3, seed=5)
            beta = rng.normal(0, 1.5, 4)
            expected = 0.0
            for i in range(25):
                eta = beta[0] + float(model.design.values[i] @ beta[1:])
                if link == "logit":
                    p = 1.0 / (1.0 + math.exp(-eta))
                else:
                    p = 0.5 * (1.0 + math.erf(eta / math.sqrt(2)))
                expected += math.log(p if model.target[i] else 1.0 - p)
            assert abs(total_loglik(beta, model) - expected) < 1e-10

    def test_extreme_eta_stays_finite(self):
        y = np.array([1.0, 0.0])
        margin = (2.0 * y - 1.0) * np.array([-40.0, 40.0])
        for link in ("logit", "probit"):
            terms, ratio = log_cdf_and_ratio(link, margin)
            assert np.all(np.isfinite(terms))
            assert np.all(terms < 0)
            assert np.all(np.isfinite(ratio))

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_log_cdf_alone_has_the_same_bits(self, link):
        # LOO asks for log F(t) only; it must be the posterior's log F(t).
        margin = np.linspace(-45.0, 45.0, 901)
        terms, ratio = log_cdf_and_ratio(link, margin)
        alone, no_ratio = log_cdf_and_ratio(link, margin, with_ratio=False)
        assert np.array_equal(alone, terms) and no_ratio is None and ratio is not None

    def test_probit_deep_tail_matches_reference(self):
        terms, _ = log_cdf_and_ratio("probit", np.array([-40.0, -10.0]))
        assert abs(terms[0] - LOG_PHI_MINUS_40) < 1e-9 * abs(LOG_PHI_MINUS_40)
        assert abs(terms[1] - LOG_PHI_MINUS_10) < 1e-12 * abs(LOG_PHI_MINUS_10)

    def test_linear_predictor_dimension_check(self):
        with pytest.raises(MismatchError, match="4 coefficients for 2 columns"):
            linear_predictor(np.zeros(4), np.zeros((5, 2)))


class TestGradient:
    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_matches_central_difference(self, link):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(5, 51))
            k = int(rng.integers(1, 6))
            model = _simple_model(link, n=n, k=k, seed=int(rng.integers(2**32)))
            beta = rng.normal(0, 2, k + 1)
            _, grad = log_posterior_and_gradient(beta, model)
            approx = finite_diff_gradient(
                lambda b: log_posterior_and_gradient(b, model)[0], beta
            )
            rel = np.max(np.abs(grad - approx) / np.maximum(1.0, np.abs(approx)))
            worst = max(worst, float(rel))
        assert worst < 1e-6

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_value_consistent_with_parts(self, link):
        model = _simple_model(link, n=30, k=2, seed=9)
        beta = np.array([0.4, -1.1, 0.7])
        value, _ = log_posterior_and_gradient(beta, model)
        parts = total_loglik(beta, model) + _log_prior(beta, model.prior)
        assert abs(value - parts) < 1e-10 * max(1.0, abs(parts))

    def test_gradient_finite_at_extreme_coefficients(self):
        for link in ("logit", "probit"):
            model = _simple_model(link, n=10, k=1, seed=2)
            value, grad = log_posterior_and_gradient(np.array([30.0, 25.0]), model)
            assert math.isfinite(value)
            assert np.all(np.isfinite(grad))

    def test_dimension_mismatch(self):
        model = _simple_model("logit", n=10, k=2)
        with pytest.raises(MismatchError, match="5 coefficients for 2 columns"):
            log_posterior_and_gradient(np.zeros(5), model)


def _row_by_row(beta, model, terms, score):
    """A posterior summed one observation at a time, and the scale of each
    sum: (value, grad, value_scale, grad_scale).

    A scale is the sum of the magnitudes of the terms that make the entry.
    """
    x, y = model.design.values, model.target
    eta = linear_predictor(beta, x)
    terms, score = terms(eta, y), score(eta, y)
    # The prior alone: the posterior of the same model with no rows.
    empty = ModelSpec(model.link, model.prior, DesignMatrix.from_values(x[:0]), y[:0])
    prior_value, prior_grad = log_posterior_and_gradient(beta, empty)
    design = np.column_stack([np.ones(len(y)), x])
    value = float(np.sum(terms)) + prior_value
    grad = design.T @ score + prior_grad
    value_scale = float(np.sum(np.abs(terms))) + abs(prior_value)
    grad_scale = np.abs(design).T @ np.abs(score) + np.abs(prior_grad)
    return value, grad, value_scale, grad_scale


def _two_log_ndtr_posterior(beta, model):
    """The probit posterior as log Phi(eta) and log Phi(-eta) for every row,
    each tail's inverse Mills ratio picked by y."""

    def terms(eta, y):
        return y * special.log_ndtr(eta) + (1.0 - y) * special.log_ndtr(-eta)

    def score(eta, y):
        log_pdf = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
        return np.where(y > 0.5, np.exp(log_pdf - special.log_ndtr(eta)),
                        -np.exp(log_pdf - special.log_ndtr(-eta)))

    return _row_by_row(beta, model, terms, score)


def _logaddexp_posterior(beta, model):
    """The logit posterior as y * eta - log(1 + e^eta) for every row, with
    score y - sigma(eta)."""
    return _row_by_row(
        beta, model,
        lambda eta, y: y * eta - np.logaddexp(0.0, eta),
        lambda eta, y: y - special.expit(eta),
    )


REFERENCES = {"logit": _logaddexp_posterior, "probit": _two_log_ndtr_posterior}
# Set from float64 rounding before the kernel was measured against it. The
# kernel sums rows in another order than the reference, so agreement is
# relative to the magnitude of the terms summed: an entry whose terms
# cancel has no relative accuracy in any order.
KERNEL_RTOL = 1e-12


def _assert_matches_row_by_row(beta, model):
    value, grad = log_posterior_and_gradient(beta, model)
    ref_value, ref_grad, value_scale, grad_scale = REFERENCES[model.link](beta, model)
    assert abs(value - ref_value) <= KERNEL_RTOL * value_scale
    assert np.all(np.abs(grad - ref_grad) <= KERNEL_RTOL * grad_scale)


def _eta_grid_models(link, etas):
    """Models whose rows sit at the given etas for beta = (0, 1): all y = 0,
    all y = 1, and both targets at every eta."""
    prior = default_priors(link)
    models = [
        ModelSpec(link, prior, DesignMatrix.from_values(etas[:, None]), np.full(etas.size, y))
        for y in (0.0, 1.0)
    ]
    models.append(ModelSpec(
        link, prior, DesignMatrix.from_values(np.tile(etas, 2)[:, None]),
        np.repeat([0.0, 1.0], etas.size),
    ))
    return models


class TestProbitSignedMargin:
    """The one-log_ndtr probit posterior matches the two-log_ndtr form."""

    def test_eta_grid_both_targets(self):
        # eta = 0 + 1 * x exactly, so each row sits at a chosen eta.
        etas = np.concatenate((
            np.linspace(-40.0, 40.0, 1601),
            [-39.999, -37.5, -20.0, -8.3, -6.0, -1e-300, 0.0, 6.0, 8.3, 20.0, 37.5, 40.0],
        ))
        for model in _eta_grid_models("probit", etas):
            _assert_matches_row_by_row(np.array([0.0, 1.0]), model)

    def test_random_coefficients(self):
        rng = np.random.default_rng(17)
        model = _simple_model("probit", n=400, k=4, seed=3)
        for scale in (0.5, 3.0, 15.0):
            for _ in range(20):
                _assert_matches_row_by_row(rng.normal(0.0, scale, 5), model)

    def test_pointwise_terms_match_log_ndtr_of_signed_eta(self):
        # LOO reads the posterior's kernel exactly, and that kernel's
        # log Phi(t) agrees with log_ndtr to rounding on the whole grid.
        eta = np.linspace(-40.0, 40.0, 801)
        draws = make_draws(np.array([[[0.0, 1.0]]]))
        for model in _eta_grid_models("probit", eta)[:2]:
            matrix = pointwise_loglik(draws, model)
            terms = matrix.values[matrix.inverse, 0]
            t = (2.0 * model.target - 1.0) * eta
            assert np.array_equal(terms, log_cdf_and_ratio("probit", t)[0])
            expected = special.log_ndtr(t)
            tolerance = 1e-15 * np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(terms - expected) <= tolerance)


def _duplicated_model(link, seed, n_distinct=12, max_copies=40, k=3):
    """Few distinct x rows, each repeated with targets of both values."""
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((n_distinct, k))
    copies = rng.integers(1, max_copies + 1, n_distinct)
    x = np.repeat(distinct, copies, axis=0)
    y = (rng.random(len(x)) < 0.4).astype(float)
    order = rng.permutation(len(x))
    return ModelSpec(link, default_priors(link), DesignMatrix.from_values(x[order]), y[order])


class TestWeightedRows:
    """The posterior over weighted distinct rows matches the row-by-row one."""

    def test_weights_count_each_distinct_row(self):
        x = np.array([[0.5, 1.0], [0.5, 1.0], [-2.0, 0.0], [0.5, 1.0], [-2.0, 0.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        model = ModelSpec("logit", default_priors("logit"), DesignMatrix.from_values(x), y)
        rows, sign, weight, inverse = model.weighted_rows
        found = {(tuple(r), s): w for r, s, w in zip(rows.tolist(), sign, weight)}
        assert found == {((0.5, 1.0), 1.0): 2.0, ((0.5, 1.0), -1.0): 1.0,
                         ((-2.0, 0.0), -1.0): 2.0}
        # Each observation's distinct row is its own (x, y).
        assert inverse.shape == (5,)
        assert np.array_equal(rows[inverse], x)
        assert np.array_equal(sign[inverse], 2.0 * y - 1.0)

    def test_built_on_first_posterior_call_only(self):
        model = _simple_model("logit", n=30, k=2)
        assert "weighted_rows" not in vars(model)
        log_posterior_and_gradient(np.zeros(3), model)
        assert "weighted_rows" in vars(model)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_heavily_duplicated_designs(self, link):
        rng = np.random.default_rng(23)
        for seed in range(10):
            model = _duplicated_model(link, seed)
            assert len(model.weighted_rows[0]) <= 24 < model.design.n_rows
            for scale in (0.5, 3.0):
                _assert_matches_row_by_row(rng.normal(0.0, scale, 4), model)

    def test_logit_eta_grid_to_700(self):
        etas = np.concatenate((
            np.linspace(-700.0, 700.0, 2801),
            [-699.9, -40.0, -36.8, -20.0, -1e-300, 0.0, 1e-300, 20.0, 36.8, 40.0, 699.9],
        ))
        for model in _eta_grid_models("logit", etas):
            _assert_matches_row_by_row(np.array([0.0, 1.0]), model)

    def test_logit_random_coefficients(self):
        rng = np.random.default_rng(19)
        model = _simple_model("logit", n=400, k=4, seed=3)
        for scale in (0.5, 3.0, 15.0, 150.0):
            for _ in range(20):
                _assert_matches_row_by_row(rng.normal(0.0, scale, 5), model)


def _where_it_ran(rows):
    return rows.start, rows.stop, os.getpid()


class TestMapRowRanges:
    N_DRAWS = 2000

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_range_per_cpu_on_block_boundaries(self, monkeypatch, cpus):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: cpus)
        step = block_rows(self.N_DRAWS)
        n_rows = 7 * step + 1
        parts = map_row_ranges(_where_it_ran, n_rows, self.N_DRAWS)
        assert len(parts) == cpus
        assert parts[0][0] == 0 and parts[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert all(start % step == 0 and stop > start for start, stop, _ in parts)
        pids = [pid for _, _, pid in parts]
        assert pids[0] == os.getpid() and len(set(pids)) == cpus
        assert_no_child_process()

    def test_fewer_blocks_than_cpus_give_fewer_ranges(self, monkeypatch):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 3)
        step = block_rows(self.N_DRAWS)
        parts = map_row_ranges(_where_it_ran, step + 1, self.N_DRAWS)
        assert [part[:2] for part in parts] == [(0, step), (step, step + 1)]
        assert map_row_ranges(_where_it_ran, step, self.N_DRAWS) == [(0, step, os.getpid())]
        assert map_row_ranges(_where_it_ran, 0, self.N_DRAWS) == [(0, 0, os.getpid())]
        assert_no_child_process()

    def test_without_fork_everything_runs_here(self, monkeypatch):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 3)
        monkeypatch.delattr(os, "fork")
        n_rows = 7 * block_rows(self.N_DRAWS)
        assert map_row_ranges(_where_it_ran, n_rows, self.N_DRAWS) == [
            (0, n_rows, os.getpid())
        ]

    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def work(rows):
            if os.getpid() != parent:
                os._exit(3)
            return rows

        with pytest.raises(RuntimeError, match="no result"):
            map_row_ranges(work, 4 * block_rows(self.N_DRAWS), self.N_DRAWS)
        assert_no_child_process()
