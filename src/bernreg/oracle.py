"""Independent cross-checks for the fitting machinery.

The references are deliberately naive: plain Python loops, math-module
scalar functions, fsum accumulation, no shared code with the modules
being validated. The grid integrator handles at most three parameters
and re-integrates on widened axes as a self-check; the finite-difference
gradient is a plain central difference. `exact_loo`, the reference for
PSIS-LOO, integrates every leave-one-out posterior on the same grid, so
it shares no code with PSIS, the sampler or the model's kernel.
"""

import itertools
import math
from dataclasses import dataclass

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

    @classmethod
    def around(cls, pooled, n_points):
        """Axes at each column's mean +/- 7 sd (ddof 0) of pooled draws."""
        stats = [(column.mean(), column.std()) for column in pooled.T]
        return cls(axes=tuple((float(m - 7 * sd), float(m + 7 * sd), n_points)
                              for m, sd in stats))


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


def _log_normal_cdf(t):
    """log Phi(t) from erfc, precise in the lower tail down to its underflow near t = -37."""
    return math.log(max(0.5 * math.erfc(-t / math.sqrt(2.0)), 1e-300))


def _naive_log_posterior(link, prior, xs, ys, beta):
    """(per-observation log-likelihoods, log posterior) from first principles."""
    terms = []
    for xi, yi in zip(xs, ys):
        eta = beta[0]
        for j, v in enumerate(xi):
            eta += beta[j + 1] * v
        if link == "logit":
            term = _log_sigmoid(eta) if yi else _log_sigmoid(-eta)
        else:
            term = _log_normal_cdf(eta) if yi else _log_normal_cdf(-eta)
        terms.append(term)
    total = list(terms)
    for j, b in enumerate(beta):
        mean = prior.intercept_mean if j == 0 else prior.slope_mean
        sd = prior.intercept_sd if j == 0 else prior.slope_sd
        z = (b - mean) / sd
        total.append(-0.5 * z * z - math.log(sd) - 0.5 * math.log(2.0 * math.pi))
    return terms, math.fsum(total)


def _axis_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_points(axes):
    return itertools.product(*[_axis_points(*axis) for axis in axes])


def _grid_moments(link, prior, xs, ys, axes):
    points = list(_grid_points(axes))
    logps = [_naive_log_posterior(link, prior, xs, ys, beta)[1] for beta in points]
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
    return means + sds


def _widened(axes):
    out = []
    for lo, hi, n in axes:
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * _WIDEN_FACTOR
        out.append((center - half, center + half, n))
    return tuple(out)


def _grid_loo_terms(link, prior, xs, ys, axes):
    """log Z - log Z_-i for each observation i, in one pass over the grid:
    Z sums the joint density over the points, and Z_-i divides each term by
    p(y_i | beta). Each sum is a running log-sum-exp, so memory holds one
    (max, sum) pair per observation, not points x observations."""
    tops = [-math.inf] * (len(ys) + 1)
    sums = [0.0] * (len(ys) + 1)
    for beta in _grid_points(axes):
        terms, joint = _naive_log_posterior(link, prior, xs, ys, beta)
        for k, value in enumerate([joint] + [joint - t for t in terms]):
            if value > tops[k]:
                sums[k] = sums[k] * math.exp(tops[k] - value) + 1.0
                tops[k] = value
            else:
                sums[k] += math.exp(value - tops[k])
    log_z = [top + math.log(s) for top, s in zip(tops, sums)]
    return [log_z[0] - log_z_i for log_z_i in log_z[1:]]


def _self_checked(integrate, model, grid, what):
    """integrate(link, prior, xs, ys, axes) on the grid's axes. It fails if
    any value moves by 1e-3 or more on axes widened by half their range:
    the grid then cannot be trusted to give a reference value."""
    dim = model.design.n_columns + 1
    if dim > 3:
        raise NumericalError(f"grid integration supports at most 3 parameters, got {dim}")
    if len(grid.axes) != dim:
        raise MismatchError(f"{len(grid.axes)} grid axes for {dim} parameters")
    xs = [list(map(float, row)) for row in model.design.values]
    ys = [int(v) for v in model.target]
    values = integrate(model.link, model.prior, xs, ys, grid.axes)
    wide = integrate(model.link, model.prior, xs, ys, _widened(grid.axes))
    drift = max(abs(a - b) for a, b in zip(values, wide))
    if drift >= _SELF_CHECK_TOLERANCE:
        raise NumericalError(
            f"{what} moved {drift:.2e} under axis widening (limit 1e-3); "
            "use wider or denser axes"
        )
    return values


def grid_posterior_moments(model, grid):
    """(means, sds) of each parameter by brute-force grid integration,
    self-checked on widened axes."""
    values = _self_checked(_grid_moments, model, grid, "moments")
    return tuple(values[:len(grid.axes)]), tuple(values[len(grid.axes):])


def exact_loo(model, grid):
    """Exact LOO elpd on the grid, the sum over i of log Z - log Z_-i,
    self-checked on widened axes like `grid_posterior_moments`."""
    n_obs = model.design.n_rows
    if n_obs > 500:
        raise NumericalError(f"exact LOO capped at 500 observations, got {n_obs}")
    return _self_checked(lambda *args: [math.fsum(_grid_loo_terms(*args))],
                         model, grid, "elpd")[0]


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
    means, sds = grid_posterior_moments(model, GridSpec.around(pooled, 201))
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

    # PSIS against exact LOO by grid quadrature on a small dataset.
    model = _synthetic_model("logit", 60, 1, seed + 202, prior=default_priors("logit"))
    config = SamplerConfig(n_chains=2, n_warmup=300, n_draws=400, seed=seed + 13)
    fit = sample(model, config)
    approx = psis_loo(pointwise_loglik(fit, model))
    exact = exact_loo(model, GridSpec.around(fit.pooled(), 101))
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
