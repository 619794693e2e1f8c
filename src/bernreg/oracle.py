"""Independent cross-checks for the fitting machinery.

The references are deliberately naive: plain Python loops, math-module
scalar functions, fsum accumulation, no shared code with the modules
being validated. The grid integrator handles at most three parameters
and re-integrates on widened axes as a self-check; the finite-difference
gradient is a plain central difference. `exact_loo`, the reference for
PSIS-LOO, refits the model with the sampler once per observation left
out: it is independent of PSIS, not of NUTS.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MismatchError, NumericalError

_MAX_GRID_POINTS = 10_000_000
_SELF_CHECK_TOLERANCE = 1e-3
_WIDEN_FACTOR = 1.5


@dataclass(frozen=True)
class GridSpec:
    """Per-parameter (low, high, n_points) axes for grid integration."""

    axes: tuple

    def __post_init__(self):
        total = 1
        for lo, hi, n in self.axes:
            if not lo < hi:
                raise ValueError(f"grid axis ({lo}, {hi}) is not increasing")
            if n < 3:
                raise ValueError("grid axes need at least 3 points")
            total *= n
        if total > _MAX_GRID_POINTS:
            raise ValueError(f"grid of {total} points exceeds {_MAX_GRID_POINTS}")


def finite_diff_gradient(fn, point, h=1e-5):
    """Central-difference gradient of a scalar function."""
    point = [float(v) for v in np.asarray(point, dtype=np.float64).ravel()]
    out = []
    for j in range(len(point)):
        forward = list(point)
        backward = list(point)
        forward[j] += h
        backward[j] -= h
        f_plus = fn(np.asarray(forward))
        f_minus = fn(np.asarray(backward))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericalError(
                f"probe at coordinate {j} returned a non-finite value"
            )
        out.append((f_plus - f_minus) / (2.0 * h))
    return np.asarray(out)


def _log_sigmoid(eta):
    if eta >= 0.0:
        return -math.log1p(math.exp(-eta))
    return eta - math.log1p(math.exp(eta))


def _normal_cdf(eta):
    return 0.5 * (1.0 + math.erf(eta / math.sqrt(2.0)))


def _naive_log_posterior(link, prior, xs, ys, beta):
    """Scalar log posterior from first principles; no vectorization."""
    total = []
    for xi, yi in zip(xs, ys):
        eta = beta[0]
        for j, v in enumerate(xi):
            eta += beta[j + 1] * v
        if link == "logit":
            term = _log_sigmoid(eta) if yi else _log_sigmoid(-eta)
        else:
            p = _normal_cdf(eta)
            p = min(max(p, 1e-300), 1.0 - 1e-16)
            term = math.log(p) if yi else math.log1p(-p)
        total.append(term)
    for j, b in enumerate(beta):
        mean = prior.intercept_mean if j == 0 else prior.slope_mean
        sd = prior.intercept_sd if j == 0 else prior.slope_sd
        z = (b - mean) / sd
        total.append(-0.5 * z * z - math.log(sd) - 0.5 * math.log(2.0 * math.pi))
    return math.fsum(total)


def _axis_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_moments(link, prior, xs, ys, axes):
    grids = [_axis_points(lo, hi, n) for lo, hi, n in axes]
    points = list(itertools.product(*grids))
    logps = [_naive_log_posterior(link, prior, xs, ys, beta) for beta in points]
    top = max(logps)
    weights = [math.exp(lp - top) for lp in logps]
    total = math.fsum(weights)
    dim = len(axes)
    means = [
        math.fsum(w * p[j] for w, p in zip(weights, points)) / total
        for j in range(dim)
    ]
    sds = [
        math.sqrt(
            math.fsum(w * (p[j] - means[j]) ** 2 for w, p in zip(weights, points))
            / total
        )
        for j in range(dim)
    ]
    return means, sds


def _widened(axes):
    out = []
    for lo, hi, n in axes:
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * _WIDEN_FACTOR
        out.append((center - half, center + half, n))
    return tuple(out)


def grid_posterior_moments(model, grid):
    """(means, sds) of each parameter by brute-force grid integration.

    Re-integrates on axes widened by half the range; if any moment moves
    by 1e-3 or more, the grid cannot be trusted and the call fails
    instead of returning a wrong reference value.
    """
    dim = model.n_params
    if dim > 3:
        raise NumericalError(f"grid integration supports at most 3 parameters, got {dim}")
    if len(grid.axes) != dim:
        raise MismatchError(
            f"{len(grid.axes)} grid axes for {dim} parameters"
        )
    xs = [list(map(float, row)) for row in model.design.values]
    ys = [int(v) for v in model.target]
    means, sds = _grid_moments(model.link, model.prior, xs, ys, grid.axes)
    wide_means, wide_sds = _grid_moments(
        model.link, model.prior, xs, ys, _widened(grid.axes)
    )
    drift = max(
        max(abs(a - b) for a, b in zip(means, wide_means)),
        max(abs(a - b) for a, b in zip(sds, wide_sds)),
    )
    if drift >= _SELF_CHECK_TOLERANCE:
        raise NumericalError(
            f"moments moved {drift:.2e} under axis widening (limit 1e-3); "
            "use wider or denser axes"
        )
    return tuple(means), tuple(sds)


@dataclass
class CheckResult:
    """One verification line: name, pass/fail, and the measured numbers."""

    name: str
    passed: bool
    detail: str


def _synthetic_model(link, n_rows, n_slopes, seed, prior=None):
    from .data import DesignMatrix
    from .model import ModelSpec, PriorSpec, linear_predictor, success_probability

    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n_rows, n_slopes))
    truth = rng.normal(0.0, 0.8, n_slopes + 1)
    prob = success_probability("logit", linear_predictor(truth, x))
    y = (rng.random(n_rows) < prob).astype(np.float64)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    if prior is None:
        prior = PriorSpec(0.0, 2.0, 0.0, 2.0)
    return ModelSpec(
        link=link, prior=prior, design=DesignMatrix.from_values(x), target=y
    )


def _check_gradients(link, seed, n_points=100):
    from .model import log_posterior_and_gradient

    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(n_points):
        n_rows = int(rng.integers(5, 51))
        n_slopes = int(rng.integers(1, 6))
        model = _synthetic_model(link, n_rows, n_slopes, int(rng.integers(2**32)))
        beta = rng.normal(0.0, 2.0, n_slopes + 1)
        _, grad = log_posterior_and_gradient(beta, model)
        fd = finite_diff_gradient(
            lambda b: log_posterior_and_gradient(b, model)[0], beta
        )
        rel = np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd)))
        worst = max(worst, float(rel))
    return worst


def exact_loo(model, config):
    """Brute-force LOO elpd: one refit per observation.

    Refit i swaps the config seed for substream i of the base seed, so
    results do not depend on refit order and match across reruns.
    """
    from scipy.special import logsumexp

    from .model import ModelSpec, linear_predictor, log_cdf_and_ratio
    from .rngutil import substream_seed
    from .sampler import sample

    n_obs = model.design.n_rows
    if n_obs > 500:
        raise NumericalError(f"exact LOO capped at 500 observations, got {n_obs}")
    x = model.design.values
    y = model.target
    lpds = []
    for i in range(n_obs):
        keep = np.ones(n_obs, dtype=bool)
        keep[i] = False
        design_i = replace(model.design, values=x[keep])
        model_i = ModelSpec(
            link=model.link, prior=model.prior, design=design_i, target=y[keep]
        )
        config_i = replace(config, seed=substream_seed(config.seed, i))
        draws = sample(model_i, config_i)
        margin = (2.0 * y[i] - 1.0) * linear_predictor(draws.pooled(), x[i:i + 1])[:, 0]
        terms = log_cdf_and_ratio(model.link, margin, with_ratio=False)[0]
        lpds.append(float(logsumexp(terms) - math.log(len(terms))))
    return math.fsum(lpds)


def run_verification(seed=0):
    """Dual-route checks of the core numerics; returns CheckResults."""
    from .model import ModelSpec, PriorSpec, default_priors
    from .sampler import SamplerConfig, sample
    from .loo import HIGH_K_THRESHOLD, pointwise_loglik, psis_loo

    results = []

    for link in ("logit", "probit"):
        worst = _check_gradients(link, seed)
        results.append(
            CheckResult(
                name=f"{link}_gradient_vs_central_difference",
                passed=worst < 1e-6,
                detail=f"max relative error {worst:.3e} over 100 points (limit 1e-6)",
            )
        )

    # Prior-only grid: with no data the posterior is the prior itself.
    from .data import DesignMatrix

    prior = PriorSpec(1.0, 0.7, 0.0, 0.5)
    empty = ModelSpec(
        link="logit",
        prior=prior,
        design=DesignMatrix.from_values(np.empty((0, 1))),
        target=np.empty(0),
    )
    grid = GridSpec(axes=((1.0 - 5 * 0.7, 1.0 + 5 * 0.7, 201),
                          (-5 * 0.5, 5 * 0.5, 201)))
    means, sds = grid_posterior_moments(empty, grid)
    err = max(abs(means[0] - 1.0), abs(means[1]), abs(sds[0] - 0.7), abs(sds[1] - 0.5))
    results.append(
        CheckResult(
            name="grid_recovers_prior_moments",
            passed=err < 1e-3,
            detail=f"max moment error {err:.3e} against exact prior (limit 1e-3)",
        )
    )

    # Sampler vs grid on a two-parameter fit.
    model = _synthetic_model("logit", 50, 1, seed + 101)
    config = SamplerConfig(n_chains=4, n_warmup=500, n_draws=500, seed=seed + 7)
    draws = sample(model, config)
    pooled = draws.pooled()
    grid = GridSpec(axes=tuple(
        (float(pooled[:, j].mean() - 7 * pooled[:, j].std()),
         float(pooled[:, j].mean() + 7 * pooled[:, j].std()), 201)
        for j in range(2)
    ))
    means, sds = grid_posterior_moments(model, grid)
    from .diagnostics import ess_bulk

    worst = 0.0
    for j in range(2):
        mcse = sds[j] / math.sqrt(ess_bulk(draws.draws[:, :, j]))
        tol = max(0.05, 4.0 * mcse)
        worst = max(worst, abs(float(pooled[:, j].mean()) - means[j]) / tol)
    results.append(
        CheckResult(
            name="sampler_matches_grid_integration",
            passed=worst < 1.0,
            detail=f"worst error/tolerance ratio {worst:.3f} (limit 1.0)",
        )
    )

    # PSIS against refit-per-observation LOO on a small dataset.
    model = _synthetic_model("logit", 60, 1, seed + 202, prior=default_priors("logit"))
    config = SamplerConfig(n_chains=2, n_warmup=300, n_draws=400, seed=seed + 13)
    fit = sample(model, config)
    approx = psis_loo(pointwise_loglik(fit, model))
    exact = exact_loo(model, config)
    gap = abs(approx.elpd_loo - exact)
    results.append(
        CheckResult(
            name="psis_loo_matches_exact_loo",
            passed=gap < 0.5 and approx.n_high_k < 2,
            detail=(
                f"|psis - exact| = {gap:.4f} (limit 0.5), "
                f"{approx.n_high_k} observations with k > {HIGH_K_THRESHOLD} (limit < 2)"
            ),
        )
    )
    return results
