import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from bernreg.data import DesignMatrix
from bernreg.errors import MismatchError
from bernreg.model import (
    ModelSpec,
    PriorSpec,
    bernoulli_loglik_terms,
    default_priors,
    linear_predictor,
    log_posterior_and_gradient,
    logit_link,
    probit_link,
)
from bernreg.oracle import finite_diff_gradient

from conftest import total_loglik

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
        for link in ("logit", "probit"):
            terms = bernoulli_loglik_terms(link, np.array([-40.0, 40.0]), y)
            assert np.all(np.isfinite(terms))
            assert np.all(terms < 0)

    def test_probit_deep_tail_matches_reference(self):
        terms = bernoulli_loglik_terms("probit", np.array([-40.0, -10.0]), [1.0, 1.0])
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


def _two_log_ndtr_posterior(beta, model):
    """The probit posterior as log Phi(eta) and log Phi(-eta) for every row,
    each tail's inverse Mills ratio picked by y."""
    x, y = model.design.values, model.target
    eta = linear_predictor(beta, x)
    log_cdf = special.log_ndtr(eta)
    log_cdf_neg = special.log_ndtr(-eta)
    value = float(np.dot(y, log_cdf) + np.dot(1.0 - y, log_cdf_neg))
    log_pdf = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
    score = np.where(y > 0.5, np.exp(log_pdf - log_cdf), -np.exp(log_pdf - log_cdf_neg))
    # The prior alone: the posterior of the same model with no rows.
    empty = ModelSpec("probit", model.prior, DesignMatrix.from_values(x[:0]), y[:0])
    prior_value, prior_grad = log_posterior_and_gradient(beta, empty)
    grad = np.empty_like(beta)
    grad[0] = np.sum(score)
    grad[1:] = x.T @ score
    return value + prior_value, grad + prior_grad


class TestProbitSignedMargin:
    """The one-log_ndtr probit posterior keeps every bit of the two-log_ndtr form."""

    def _assert_same_bits(self, beta, model):
        value, grad = log_posterior_and_gradient(beta, model)
        ref_value, ref_grad = _two_log_ndtr_posterior(beta, model)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)

    def test_eta_grid_both_targets(self):
        # eta = 0 + 1 * x exactly, so each row sits at a chosen eta.
        etas = np.concatenate((
            np.linspace(-40.0, 40.0, 1601),
            [-39.999, -37.5, -20.0, -8.3, -6.0, -1e-300, 0.0, 6.0, 8.3, 20.0, 37.5, 40.0],
        ))
        for y in (0.0, 1.0):
            model = ModelSpec(
                "probit", default_priors("probit"),
                DesignMatrix.from_values(etas[:, None]), np.full(etas.size, y),
            )
            self._assert_same_bits(np.array([0.0, 1.0]), model)
        mixed = ModelSpec(
            "probit", default_priors("probit"),
            DesignMatrix.from_values(np.tile(etas, 2)[:, None]),
            np.repeat([0.0, 1.0], etas.size),
        )
        self._assert_same_bits(np.array([0.0, 1.0]), mixed)

    def test_random_coefficients(self):
        rng = np.random.default_rng(17)
        model = _simple_model("probit", n=400, k=4, seed=3)
        for scale in (0.5, 3.0, 15.0):
            for _ in range(20):
                self._assert_same_bits(rng.normal(0.0, scale, 5), model)

    def test_pointwise_terms_match_log_ndtr_of_signed_eta(self):
        eta = np.linspace(-40.0, 40.0, 801)
        for y in (0.0, 1.0):
            terms = bernoulli_loglik_terms("probit", eta, np.full(eta.size, y))
            expected = special.log_ndtr(eta) if y else special.log_ndtr(-eta)
            assert np.array_equal(terms, expected)
