"""Known-answer tests of the benchmark's correctness reference.

    python3 -m pytest benchmarks/test_reference.py
"""

import math

import numpy as np
import pytest
from scipy import special

import reference


@pytest.mark.parametrize("link", reference.LINKS)
def test_loglik_at_zero_is_log_half(link):
    out = reference.loglik(link, np.zeros(2), np.array([0.0, 1.0]))
    assert np.allclose(out, math.log(0.5), rtol=0, atol=1e-15)


def test_loglik_matches_closed_forms_and_stays_finite_in_the_tails():
    eta = np.array([-3.0, 0.7, 3.0])
    y = np.array([1.0, 0.0, 0.0])
    logit = [math.log(1 / (1 + math.exp(3.0))), math.log(1 / (1 + math.exp(0.7))),
             math.log(1 / (1 + math.exp(3.0)))]
    assert np.allclose(reference.loglik("logit", eta, y), logit, rtol=1e-14)
    probit = [math.log(0.5 * math.erfc(3 / math.sqrt(2))),
              math.log(0.5 * math.erfc(0.7 / math.sqrt(2))),
              math.log(0.5 * math.erfc(3 / math.sqrt(2)))]
    assert np.allclose(reference.loglik("probit", eta, y), probit, rtol=1e-13)
    far = reference.loglik("logit", np.array([800.0, 800.0]), np.array([1.0, 0.0]))
    assert far[0] == 0.0 and far[1] == -800.0
    # log Phi(-40) = -804.608442013754 to 15 digits (mpmath).
    assert reference.loglik("probit", np.array([40.0]), np.array([0.0]))[0] == pytest.approx(
        -804.6084420137538, rel=1e-12)


@pytest.mark.parametrize("link", reference.LINKS)
def test_mode_without_data_is_the_prior(link):
    prior = {"intercept_mean": 1.5, "intercept_sd": 2.0, "slope_mean": -0.5, "slope_sd": 0.3}
    mode, cov = reference.posterior_mode(link, prior, np.empty((0, 2)), np.empty(0))
    assert np.allclose(mode, [1.5, -0.5, -0.5], atol=1e-12)
    assert np.allclose(cov, np.diag([4.0, 0.09, 0.09]), atol=1e-12)


@pytest.mark.parametrize("link", reference.LINKS)
def test_intercept_only_mode_is_the_link_quantile_of_the_success_rate(link):
    # 7 successes in 10 rows, a slope column of zeros and a nearly flat prior:
    # the mode is F^-1(0.7) and the variance is 1 / (n f(a)^2 / (p (1 - p))).
    prior = {"intercept_mean": 0.0, "intercept_sd": 1e6, "slope_mean": 0.0, "slope_sd": 1.0}
    y = np.array([1.0] * 7 + [0.0] * 3)
    mode, cov = reference.posterior_mode(link, prior, np.zeros((10, 1)), y)
    if link == "logit":
        a = math.log(0.7 / 0.3)
        density = 0.7 * 0.3
    else:
        a = special.ndtri(0.7)
        density = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    assert mode[0] == pytest.approx(a, abs=1e-9)
    assert mode[1] == pytest.approx(0.0, abs=1e-12)
    assert cov[0, 0] == pytest.approx(0.21 / (10 * density**2), rel=1e-8)
    assert cov[1, 1] == pytest.approx(1.0, rel=1e-12)


def test_loo_with_identical_draws_is_the_pointwise_loglik():
    x = np.array([[0.5], [-1.0], [2.0]])
    y = np.array([1.0, 0.0, 1.0])
    beta = np.tile([0.3, -0.8], (50, 1))
    eta = 0.3 - 0.8 * x[:, 0]
    for link in reference.LINKS:
        expected = reference.loglik(link, eta, y)
        assert np.allclose(reference.loo_elpd(link, beta, x, y), expected, atol=1e-13)


def test_loo_without_truncation_is_the_harmonic_mean_estimate():
    # Four draws whose weights stay under sqrt(4) = 2 times their mean.
    x = np.array([[1.0]])
    y = np.array([1.0])
    beta = np.array([[0.0, 0.9], [0.0, 1.0], [0.0, 1.1], [0.0, 1.2]])
    p = 1 / (1 + np.exp(-beta[:, 1]))
    expected = -math.log(np.mean(1 / p))
    assert reference.loo_elpd("logit", beta, x, y)[0] == pytest.approx(expected, rel=1e-14)


def test_loo_truncates_a_dominant_weight():
    # One draw puts almost no mass on the observation: its weight 1/p is
    # capped at sqrt(S) times the mean weight, as in truncated IS.
    x = np.array([[1.0]])
    y = np.array([1.0])
    beta = np.array([[0.0, 2.0]] * 3 + [[0.0, -30.0]])
    ll = reference.loglik("logit", beta[:, 0] + beta[:, 1], y[0])
    w = np.exp(-ll)
    w = np.minimum(w, w.mean() * 2.0)
    expected = math.log(np.sum(w * np.exp(ll)) / np.sum(w))
    assert reference.loo_elpd("logit", beta, x, y)[0] == pytest.approx(expected, rel=1e-12)


def test_encode_rows_applies_codes_then_scaling():
    metadata = {
        "column_names": ["age", "job"],
        "encoding_map": {"job": {"admin.": 1, "technician": 2}},
        "scaling": {"age": [40.0, 10.0], "job": [1.5, 0.5]},
    }
    header = ["job", "age", "y"]
    rows = [["technician", "50", "yes"], ["admin.", "35", "no"]]
    out = reference.encode_rows(metadata, header, rows)
    assert np.array_equal(out, [[1.0, 1.0], [-0.5, -1.0]])
    assert np.array_equal(reference.targets(header, rows), [1.0, 0.0])


def test_read_rows_strips_quotes_and_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text('"age";"job"\n41;"admin."\n\n30;"services"\n', encoding="utf-8")
    header, rows = reference.read_rows(str(path))
    assert header == ["age", "job"]
    assert rows == [["41", "admin."], ["30", "services"]]


def test_read_chain_stacks_chains_and_drops_the_index_columns(tmp_path):
    path = tmp_path / "fit.chain"
    path.write_text(
        '{"param_names":["Intercept","age"],"config":{"n_chains":2}}\n'
        "chain,iteration,Intercept,age\n"
        "0,0,0.5,-1.25\n0,1,0.25,1e-3\n1,0,-2.0,3.0\n",
        encoding="ascii",
    )
    header, draws = reference.read_chain(str(path))
    assert header["config"] == {"n_chains": 2}
    assert np.array_equal(draws, [[0.5, -1.25], [0.25, 0.001], [-2.0, 3.0]])


@pytest.mark.parametrize("link", reference.LINKS)
def test_plugin_probability_averages_over_draws(link):
    x = np.array([[0.0], [1.0]])
    beta = np.array([[0.0, 1.0], [1.0, -1.0]])
    eta = beta[:, :1] + beta[:, 1:] @ x.T
    p = reference.success_probability(link, eta)
    mean, sd = reference.plugin_probability(link, beta, x)
    assert np.allclose(mean, p.mean(axis=0), atol=1e-16)
    assert np.allclose(sd, np.abs(p[0] - p[1]) / 2, atol=1e-16)
    assert mean[0] == pytest.approx(0.5 * (0.5 + reference.success_probability(link, 1.0)))


def test_normal_draws_have_the_requested_moments():
    rng = np.random.Generator(np.random.PCG64(5))
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    draws = reference.normal_draws(np.array([1.0, -2.0]), cov, 200_000, rng)
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(draws.T), cov, atol=0.03)


@pytest.mark.parametrize("variance, n_terms", [(0.25, 200), (0.0196, 200), (0.0, 2000)])
def test_bernstein_allowance_meets_the_bound_it_solves(variance, n_terms):
    t = reference.bernstein_allowance(variance, n_terms, 1e-9)
    bound = 2.0 * math.exp(-n_terms * t * t / (2.0 * (variance + t / 3.0)))
    assert bound == pytest.approx(1e-9, rel=1e-9)


def test_bernstein_allowance_is_about_six_sds_for_a_fair_coin():
    sd = math.sqrt(0.25 / 2000)
    assert 6.0 * sd < reference.bernstein_allowance(0.25, 2000, 1e-9) < 7.0 * sd
