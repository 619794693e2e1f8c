"""Acceptance gate: every primary behavioral guarantee, end to end.

Each test prints one PASS/FAIL line with the measured quantities next to
their limits, so a transcript of this module is a complete scorecard of
the numerical contract:

1. analytic log-posterior gradients match central finite differences;
2. sampler moments match brute-force grid integration;
3. importance-sampled leave-one-out matches refit-per-observation LOO;
4. convergence diagnostics are calibrated on known-clean and known-broken
   chain sets;
5. the full data pipeline converges on the 10,000-row balanced fit for
   both links;
6. model comparison prefers the logistic link decisively;
7. the fitted coefficient signs reproduce the expected pattern;
8. outcome-scale predictions obey their variance contract;
9. identical configurations reproduce byte-identical artifacts.
"""

import json
import math
import os

import numpy as np
import pytest

import conftest
from conftest import make_draws

from bernreg.cli import main
from bernreg.data import DesignMatrix, encode, parse_dataset, prepare_training_table
from bernreg.diagnostics import ess_bulk, ess_tail, split_rhat, summarize
from bernreg.loo import compare, exact_loo, pointwise_loglik, psis_loo
from bernreg.model import (
    ModelSpec,
    PriorSpec,
    default_priors,
    linear_predictor,
    log_posterior_and_gradient,
    logit_link,
)
from bernreg.oracle import GridSpec, finite_diff_gradient, grid_posterior_moments
from bernreg.predict import posterior_predict
from bernreg.sampler import SamplerConfig, sample

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PIPELINE_SUBSAMPLE = 10000
PIPELINE_SEED = 42
FIT_CONFIG = dict(n_chains=4, n_warmup=1000, n_draws=1000, seed=42)

SIGN_ANCHORS = {
    "age": 1, "marital": 1, "education": 1, "duration": 1,
    "default": -1, "contact": -1, "month": -1, "nr.employed": -1,
}


def _verdict(name, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return passed


def _random_model(link, n_rows, n_slopes, seed, prior=None):
    """Small logistic-truth dataset for oracle comparisons."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n_rows, n_slopes))
    truth = rng.normal(0.0, 0.8, n_slopes + 1)
    prob = logit_link(linear_predictor(truth, x))
    y = (rng.random(n_rows) < prob).astype(np.float64)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    if prior is None:
        prior = PriorSpec(0.0, 2.0, 0.0, 2.0)
    return ModelSpec(
        link=link, prior=prior, design=DesignMatrix.from_values(x), target=y
    )


@pytest.fixture(scope="session")
def paper_fits(bank_csv):
    """Both links fitted on the balanced 10,000-row subsample."""
    table = parse_dataset(bank_csv, delimiter=";")
    prepared, _ = prepare_training_table(
        table, PIPELINE_SUBSAMPLE, "after", PIPELINE_SEED
    )
    design, target = encode(prepared, standardize=True)
    out = {"design": design, "target": target}
    for link in ("logit", "probit"):
        model = ModelSpec(
            link=link, prior=default_priors(link), design=design, target=target
        )
        draws = sample(model, SamplerConfig(**FIT_CONFIG))
        out[link] = {
            "model": model,
            "draws": draws,
            "summaries": summarize(draws),
            "loo": psis_loo(pointwise_loglik(draws, model)),
        }
    return out


class TestGradientCorrectness:
    def test_analytic_gradients_match_central_differences(self):
        worst = 0.0
        for link_index, link in enumerate(("logit", "probit")):
            rng = np.random.Generator(np.random.PCG64(2026 + link_index))
            for _ in range(100):
                n_rows = int(rng.integers(5, 51))
                n_slopes = int(rng.integers(1, 6))
                model = _random_model(
                    link, n_rows, n_slopes, int(rng.integers(2**32))
                )
                beta = rng.normal(0.0, 2.0, n_slopes + 1)
                _, grad = log_posterior_and_gradient(beta, model)
                fd = finite_diff_gradient(
                    lambda b: log_posterior_and_gradient(b, model)[0], beta, h=1e-5
                )
                rel = float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))
                worst = max(worst, rel)
        assert _verdict(
            "gradient-correctness",
            worst < 1e-6,
            f"worst relative error {worst:.3e} over 100 points per link "
            f"(limit 1e-6)",
        )


class TestSamplerAgainstQuadrature:
    def test_two_parameter_moments_match_grid_integration(self):
        model = _random_model("logit", 50, 1, seed=7)
        draws = sample(
            model, SamplerConfig(n_chains=4, n_warmup=1000, n_draws=1000, seed=42)
        )
        pooled = draws.pooled()
        grid = GridSpec(axes=tuple(
            (
                float(pooled[:, j].mean() - 7.0 * pooled[:, j].std()),
                float(pooled[:, j].mean() + 7.0 * pooled[:, j].std()),
                201,
            )
            for j in range(2)
        ))
        grid_means, grid_sds = grid_posterior_moments(model, grid)
        worst = 0.0
        detail = []
        for j, name in enumerate(draws.param_names):
            ess = ess_bulk(draws.draws[:, :, j])
            sample_mean = float(pooled[:, j].mean())
            sample_sd = float(pooled[:, j].std(ddof=1))
            mean_err = abs(sample_mean - grid_means[j])
            sd_err = abs(sample_sd - grid_sds[j])
            mean_tol = max(0.05, 4.0 * grid_sds[j] / math.sqrt(ess))
            sd_tol = max(0.05, 4.0 * grid_sds[j] / math.sqrt(2.0 * ess))
            worst = max(worst, mean_err / mean_tol, sd_err / sd_tol)
            detail.append(
                f"{name} mean err/tol {mean_err:.4f}/{mean_tol:.4f} "
                f"sd err/tol {sd_err:.4f}/{sd_tol:.4f}"
            )
        assert _verdict(
            "sampler-vs-quadrature",
            worst < 1.0,
            "; ".join(detail),
        )


class TestLooAgainstExactRefits:
    def test_importance_sampling_matches_refit_per_observation(self):
        model = _random_model(
            "logit", 100, 1, seed=11, prior=default_priors("logit")
        )
        config = SamplerConfig(n_chains=2, n_warmup=300, n_draws=400, seed=1)
        fit = sample(model, config)
        approx = psis_loo(pointwise_loglik(fit, model))
        exact = exact_loo(model, config)
        gap = abs(approx.elpd_loo - exact)
        assert _verdict(
            "psis-loo-vs-exact-loo",
            gap < 0.5 and approx.n_high_k < 2,
            f"|psis - exact| = {gap:.4f} (limit 0.5); "
            f"{approx.n_high_k} observations with k > 0.7 (limit < 2)",
        )


class TestDiagnosticCalibration:
    def test_iid_chains_and_shifted_chains(self):
        clean = 0
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed))
            chains = rng.standard_normal((4, 1000))
            rhat = split_rhat(chains)
            bulk = ess_bulk(chains)
            tail = ess_tail(chains)
            ok = (
                0.99 <= rhat <= 1.01
                and abs(bulk - 4000.0) <= 0.15 * 4000.0
                and abs(tail - 4000.0) <= 0.15 * 4000.0
            )
            clean += ok

        shifted_ok = 0
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(10_000 + seed))
            chains = rng.standard_normal((4, 1000))
            chains[2:] += 5.0
            shifted_ok += split_rhat(chains) > 1.1

        assert _verdict(
            "diagnostic-calibration",
            clean >= 48 and shifted_ok == 50,
            f"{clean}/50 iid chain sets within limits (need >= 48); "
            f"{shifted_ok}/50 shifted chain sets flagged (need 50)",
        )


class TestPipelineConvergence:
    def test_both_links_converge_on_balanced_subsample(self, paper_fits):
        details = []
        worst = 0.0
        for link in ("logit", "probit"):
            summaries = paper_fits[link]["summaries"]
            assert len(summaries) == 21
            dev = max(abs(s.rhat - 1.0) for s in summaries)
            worst = max(worst, dev)
            details.append(f"{link} worst |rhat-1| {dev:.4f} over 21 parameters")
        assert _verdict(
            "pipeline-convergence",
            worst <= 0.01,
            "; ".join(details) + " (limit 0.01)",
        )


class TestComparisonDirection:
    def test_logit_is_reference_and_probit_clearly_behind(self, paper_fits):
        result = compare({
            "logit_model": paper_fits["logit"]["loo"],
            "probit_model": paper_fits["probit"]["loo"],
        })
        rows = {r.name: r for r in result.rows}
        best = result.rows[0]
        probit = rows["probit_model"]
        passed = (
            best.name == "logit_model"
            and best.elpd_diff == 0.0
            and best.se_diff == 0.0
            and probit.elpd_diff < -2.0 * probit.se_diff
        )
        assert _verdict(
            "comparison-direction",
            passed,
            f"best {best.name} (diff {best.elpd_diff}, se {best.se_diff}); "
            f"probit elpd_diff {probit.elpd_diff:.1f} vs -2*se_diff "
            f"{-2.0 * probit.se_diff:.1f}",
        )


class TestCoefficientSigns:
    def test_sign_pattern_with_intervals_excluding_zero(self, paper_fits):
        summaries = {s.name: s for s in paper_fits["logit"]["summaries"]}
        hits = []
        misses = []
        for name, want in SIGN_ANCHORS.items():
            s = summaries[name]
            significant = s.ci_lower > 0.0 or s.ci_upper < 0.0
            agrees = math.copysign(1.0, s.estimate) == want
            if significant and agrees:
                hits.append(name)
            else:
                misses.append(f"{name} ({s.ci_lower:+.3f},{s.ci_upper:+.3f})")
        assert _verdict(
            "coefficient-signs",
            len(hits) >= 7,
            f"{len(hits)}/8 anchored coefficients significant with the "
            f"expected sign (need >= 7)"
            + (f"; missed: {', '.join(misses)}" if misses else ""),
        )


class TestPredictionContract:
    def test_known_probability_row_pattern(self):
        p_true = 0.257
        eta = math.log(p_true / (1.0 - p_true))
        coef = np.zeros((4, 1000, 2))
        coef[:, :, 0] = eta
        draws = make_draws(coef, param_names=("Intercept", "x1"))
        rows = posterior_predict(
            draws,
            np.zeros((5, 1)),
            "logit",
            scale="outcome",
            seed=3,
        )
        n_draws = 4000
        mc_tol = 4.0 * math.sqrt(p_true * (1.0 - p_true) / n_draws)
        worst_mean = max(abs(r.estimate - p_true) for r in rows)
        worst_err = max(
            abs(r.est_error - math.sqrt(r.estimate * (1.0 - r.estimate)))
            for r in rows
        )
        quantiles_ok = all(
            (r.ci_lower, r.ci_upper) == (0.0, 1.0) for r in rows
        )
        bound_ok = all(
            r.est_error**2 <= r.estimate * (1.0 - r.estimate) + 1.0 / n_draws + 1e-12
            for r in rows
        )
        assert _verdict(
            "prediction-contract-known-p",
            worst_mean <= mc_tol and worst_err < 1e-12 and quantiles_ok and bound_ok,
            f"worst |estimate - {p_true}| = {worst_mean:.4f} "
            f"(limit {mc_tol:.4f}); est_error equals sqrt(p(1-p)) to "
            f"{worst_err:.1e}; quantiles (0, 1): {quantiles_ok}",
        )

    def test_variance_bound_on_fitted_model_rows(self, paper_fits):
        design = paper_fits["design"]
        draws = paper_fits["logit"]["draws"]
        rows = posterior_predict(
            draws,
            design.values[:50],
            "logit",
            scale="outcome",
            seed=5,
        )
        n_draws = 4000
        slack = max(
            r.est_error**2 - (r.estimate * (1.0 - r.estimate) + 1.0 / n_draws)
            for r in rows
        )
        assert _verdict(
            "prediction-contract-variance-bound",
            slack <= 1e-12,
            f"max est_error^2 - (p(1-p) + 1/S) = {slack:.3e} over 50 "
            f"fitted-model rows (limit 0)",
        )


class TestEndToEndDeterminism:
    def test_reruns_and_thread_counts_are_byte_identical(
        self, small_bank_csv, tmp_path
    ):
        base = [
            "fit", "--data", small_bank_csv,
            "--subsample", "300", "--chains", "2",
            "--warmup", "200", "--draws", "150", "--seed", "5",
        ]
        outputs = {}
        for label, threads in (("first", 1), ("rerun", 1), ("threads4", 4)):
            out = str(tmp_path / label)
            assert main(base + ["--threads", str(threads), "--out", out]) == 0
            outputs[label] = out

        stable = sorted(
            name for name in os.listdir(outputs["first"])
            if name not in ("run.log", "config.json")
        )
        mismatched = []
        for name in stable:
            blobs = []
            for label in outputs:
                with open(os.path.join(outputs[label], name), "rb") as handle:
                    blobs.append(handle.read())
            if not (blobs[0] == blobs[1] == blobs[2]):
                mismatched.append(name)
        configs = []
        for label in outputs:
            with open(os.path.join(outputs[label], "config.json")) as handle:
                payload = json.load(handle)
            payload.pop("out")
            configs.append(payload)
        if not configs[0] == configs[1] == configs[2]:
            mismatched.append("config.json")
        assert _verdict(
            "end-to-end-determinism",
            not mismatched,
            f"{len(stable)} artifacts byte-compared across a rerun and a "
            f"thread permutation"
            + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""),
        )
