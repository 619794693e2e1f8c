"""No-U-Turn sampling with dual-averaging step size and a Laplace metric.

Trajectories grow by doubling and draws are multinomial over the whole
trajectory, with the biased progressive update at the root so later
subtrees are preferred. Turning is the generalized criterion checked on
every merge, including the two cross-subtree checks.

Before any chain runs, `sample` fits one Laplace approximation: damped
Newton from the origin with a backtracking line search on log p, and the
Hessian H by central differences of the target's gradient. Its covariance
Sigma = (-H)^-1, the inverse mass matrix, is every chain's metric for the
whole run, and chain c starts at mode + L z with Sigma = L L^T and z
standard normal from the chain's substream. Warmup adapts only the step
size: one step-size search, then dual averaging over every warmup
iteration. A target whose -H is not positive definite, or that is not
finite at the origin, fails before any chain runs; every bernreg model is
log-concave. Momenta are drawn as r = L^-T z, so r ~ N(0, Sigma^-1), and
the velocity Sigma r drives the leapfrog position update, the kinetic
energy r^T Sigma r / 2 and the U-turn checks. Each transition builds its
tree with a closure over the transition's state, and every subtree keeps
its two ends as (theta, r, v, grad) tuples for growth and those checks.

Chain c draws from substream c of the configured seed, so any chain's
output is independent of how many chains run, of how many processes run
them, and of scheduling order.

The target is a ModelSpec or any object with `dim`, `param_names` and
`logp_grad(theta) -> (log density, gradient)`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import map_ranges
from .rngutil import substream_rng

DIVERGENCE_THRESHOLD = 1000.0
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75
_LOG_HALF = math.log(0.5)
_FD_STEP = 1e-5
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Run shape and adaptation targets; everything else is internal."""

    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be at least 1")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be non-negative")
        if self.n_draws < 1:
            raise ValueError("n_draws must be at least 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must be strictly between 0 and 1")
        if not 1 <= self.max_tree_depth <= 15:
            raise ValueError("max_tree_depth must be in [1, 15]")


@dataclass
class PosteriorDraws:
    """Post-warmup draws plus per-chain adaptation facts."""

    draws: np.ndarray
    param_names: tuple
    config: SamplerConfig
    step_sizes: tuple
    divergence_iterations: tuple
    accept_rates: tuple

    def __post_init__(self):
        self.draws = np.asarray(self.draws, dtype=np.float64)
        if self.draws.ndim != 3:
            raise ValueError("draws must be (n_chains, n_draws, n_params)")
        if self.draws.shape[2] != len(self.param_names):
            raise ValueError("param_names length differs from draw width")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("draws contain non-finite values")

    @property
    def n_chains(self):
        return self.draws.shape[0]

    @property
    def n_draws(self):
        return self.draws.shape[1]

    @property
    def divergence_counts(self):
        return tuple(len(d) for d in self.divergence_iterations)

    def pooled(self):
        """All chains stacked: (n_chains * n_draws, n_params)."""
        return self.draws.reshape(-1, self.draws.shape[2])


class _Subtree:
    """Its two ends as (theta, r, v, grad), its proposal as (theta, logp,
    grad), its log weight and momentum sum, and whether it must stop."""

    __slots__ = ("minus", "plus", "prop", "log_w", "r_sum", "divergent", "turning")

    def __init__(self, theta, r, v, logp, grad, log_w, divergent):
        """A leaf: one state is both ends and the proposal."""
        self.minus = self.plus = (theta, r, v, grad)
        self.prop = (theta, logp, grad)
        self.log_w = log_w
        self.r_sum = r
        self.divergent = divergent
        self.turning = False


def _momentum(rng, chol):
    """A draw from N(0, Sigma^-1): r = L^-T z for Sigma = L L^T."""
    return np.linalg.solve(chol.T, rng.standard_normal(len(chol)))


def _leapfrog(target, theta, r, grad, eps, metric):
    r_half = r + 0.5 * eps * grad
    theta_new = theta + eps * (metric @ r_half)
    logp_new, grad_new = target.logp_grad(theta_new)
    r_new = r_half + 0.5 * eps * grad_new
    return theta_new, r_new, logp_new, grad_new


def _hamiltonian(logp, r, v):
    """log p minus the kinetic energy r^T Sigma r / 2, for velocity v = Sigma r."""
    return logp - 0.5 * float(np.dot(r, v))


def _uturn(rho, v_first, v_last):
    """Generalized criterion: velocity at each end against the momentum sum."""
    return float(np.dot(v_first, rho)) <= 0.0 or float(np.dot(v_last, rho)) <= 0.0


def _end(tree, direction):
    """The end tuple in `direction`, where the tree grows."""
    return tree.plus if direction > 0 else tree.minus


def _merge(old, new, direction, biased, rng):
    """Join `new`, built from `old`'s end in `direction`, to `old`; the
    proposal is sampled between old and new."""
    left, right = (old, new) if direction > 0 else (new, old)
    log_w = np.logaddexp(old.log_w, new.log_w)
    if biased:
        p_new = math.exp(min(0.0, new.log_w - old.log_w))
    else:
        p_new = math.exp(new.log_w - log_w) if np.isfinite(log_w) else 0.0
    chosen = new if rng.random() < p_new else old

    merged = _Subtree.__new__(_Subtree)
    merged.minus, merged.plus, merged.prop = left.minus, right.plus, chosen.prop
    merged.log_w = float(log_w)
    merged.r_sum = left.r_sum + right.r_sum
    merged.divergent = False
    (_, r_lp, v_lp, _), (_, r_rm, v_rm, _) = left.plus, right.minus
    v_first, v_last = left.minus[2], right.plus[2]
    # Whole-trajectory check plus the two cross-subtree checks.
    merged.turning = (
        _uturn(merged.r_sum, v_first, v_last)
        or _uturn(left.r_sum + r_rm, v_first, v_rm)
        or _uturn(r_lp + right.r_sum, v_lp, v_last)
    )
    return merged


def _nuts_step(target, theta, logp, grad, eps, metric, chol, rng, max_depth):
    """One transition; returns (theta, logp, grad, divergent, mean_alpha).

    `chol` is the lower Cholesky factor of `metric`. The acceptance
    statistic is averaged over every leapfrog leaf in the order built.
    """
    r0 = _momentum(rng, chol)
    v0 = metric @ r0
    h0 = _hamiltonian(logp, r0, v0)
    alpha_sum = 0.0
    n_leaves = 0

    def build(depth, direction, end):
        """The subtree of 2**depth leapfrog steps from `end` in `direction`."""
        nonlocal alpha_sum, n_leaves
        if depth == 0:
            theta0, r, _, grad0 = end
            theta1, r1, logp1, grad1 = _leapfrog(
                target, theta0, r, grad0, direction * eps, metric
            )
            v1 = metric @ r1
            h1 = _hamiltonian(logp1, r1, v1)
            bad = not (math.isfinite(h1) and np.all(np.isfinite(grad1)))
            log_w = -math.inf if bad else h1 - h0
            alpha_sum += math.exp(min(0.0, log_w))
            n_leaves += 1
            divergent = bad or (h0 - h1) > DIVERGENCE_THRESHOLD
            return _Subtree(theta1, r1, v1, logp1, grad1, log_w, divergent)

        first = build(depth - 1, direction, end)
        if first.divergent or first.turning:
            return first
        second = build(depth - 1, direction, _end(first, direction))
        if second.divergent or second.turning:
            first.divergent = second.divergent
            first.turning = second.turning
            return first
        return _merge(first, second, direction, False, rng)

    tree = _Subtree(theta, r0, v0, logp, grad, 0.0, False)
    divergent = False
    for depth in range(max_depth):
        direction = 1 if rng.random() < 0.5 else -1
        sub = build(depth, direction, _end(tree, direction))
        if sub.divergent:
            divergent = True
            break
        if sub.turning:
            break
        tree = _merge(tree, sub, direction, True, rng)
        if tree.turning:
            break
    mean_alpha = alpha_sum / n_leaves if n_leaves else 0.0
    return (*tree.prop, divergent, mean_alpha)


class _DualAveraging:
    """Nesterov-style averaging of log step size toward a target acceptance."""

    def __init__(self, eps0, target_accept):
        self.mu = math.log(10.0 * eps0)
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.m = 0
        self.delta = target_accept

    def update(self, alpha):
        self.m += 1
        frac = 1.0 / (self.m + _DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.delta - alpha)
        self.log_eps = self.mu - (math.sqrt(self.m) / _DA_GAMMA) * self.h_bar
        eta = self.m ** (-_DA_KAPPA)
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar
        return math.exp(self.log_eps)

    def adapted(self):
        return math.exp(self.log_eps_bar)


def _find_reasonable_step_size(target, theta, logp, grad, metric, chol, rng):
    """Double or halve from 1.0 until one leapfrog step crosses 50% acceptance."""
    r0 = _momentum(rng, chol)
    h0 = _hamiltonian(logp, r0, metric @ r0)

    def log_ratio(eps):
        _, r1, logp1, _ = _leapfrog(target, theta, r0, grad, eps, metric)
        h1 = _hamiltonian(logp1, r1, metric @ r1)
        return (h1 - h0) if math.isfinite(h1) else -math.inf

    eps = 1.0
    current = log_ratio(eps)
    a = 1.0 if current > _LOG_HALF else -1.0
    # Keep moving while ratio^a > 2^(-a); stop at the first crossing of 1/2.
    for _ in range(100):
        eps *= 2.0 ** a
        if not 1e-12 < eps < 1e9:
            raise NumericalError(f"step-size search left ({1e-12}, {1e9})")
        current = log_ratio(eps)
        if a * (current - _LOG_HALF) <= 0.0:
            return eps
    raise NumericalError("step-size search did not terminate")


def _hessian(target, theta):
    """Central differences of the gradient, symmetrized."""
    dim = len(theta)
    hess = np.empty((dim, dim))
    for j in range(dim):
        h = _FD_STEP * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        hess[:, j] = (target.logp_grad(up)[1] - target.logp_grad(down)[1]) / (up[j] - down[j])
    return 0.5 * (hess + hess.T)


def _laplace(target):
    """(mode, Sigma = (-H)^-1): damped Newton from the origin, with H by
    central differences of the gradient at each iterate."""
    theta = np.zeros(target.dim)
    logp, grad = target.logp_grad(theta)
    if not (math.isfinite(logp) and np.all(np.isfinite(grad))):
        raise NumericalError("Laplace fit: log density not finite at the origin")
    for _ in range(_NEWTON_MAX_ITER):
        neg_hess = -_hessian(target, theta)
        if not np.all(np.isfinite(neg_hess)):
            raise NumericalError("Laplace fit: non-finite Hessian")
        try:
            inv_chol = np.linalg.inv(np.linalg.cholesky(neg_hess))
        except np.linalg.LinAlgError:
            raise NumericalError("Laplace fit: -H is not positive definite") from None
        cov = inv_chol.T @ inv_chol
        # Symmetric, so that Sigma and its Cholesky factor are one matrix.
        cov = 0.5 * (cov + cov.T)
        step = cov @ grad
        decrement = float(grad @ step)
        if decrement <= _NEWTON_TOL:
            return theta, cov
        # Halve the step until log p rises by 1e-4 of the gain the quadratic
        # model predicts (Armijo).
        t = 1.0
        while True:
            candidate = theta + t * step
            value, gradient = target.logp_grad(candidate)
            if (math.isfinite(value) and np.all(np.isfinite(gradient))
                    and value >= logp + 1e-4 * t * decrement):
                break
            t *= 0.5
            if t < 1e-10:
                raise NumericalError("Laplace fit: line search found no ascent")
        theta, logp, grad = candidate, value, gradient
    raise NumericalError(f"Laplace fit: no mode after {_NEWTON_MAX_ITER} Newton steps")


def _run_chain(target, config, chain_index, mode, metric, chol):
    rng = substream_rng(config.seed, chain_index)
    theta = mode + chol @ rng.standard_normal(target.dim)
    logp, grad = target.logp_grad(theta)
    if not (math.isfinite(logp) and np.all(np.isfinite(grad))):
        raise NumericalError(f"chain {chain_index}: log density not finite at its start")

    eps = _find_reasonable_step_size(target, theta, logp, grad, metric, chol, rng)
    averager = _DualAveraging(eps, config.target_accept)
    for _ in range(config.n_warmup):
        theta, logp, grad, _, alpha = _nuts_step(
            target, theta, logp, grad, eps, metric, chol, rng, config.max_tree_depth
        )
        eps = averager.update(alpha)

    if config.n_warmup > 0:
        eps = averager.adapted()
    if not (math.isfinite(eps) and eps > 0):
        raise NumericalError(f"chain {chain_index}: adapted step size {eps}")

    draws = np.empty((config.n_draws, target.dim))
    divergence_iterations = []
    alpha_total = 0.0
    for it in range(config.n_draws):
        theta, logp, grad, divergent, alpha = _nuts_step(
            target, theta, logp, grad, eps, metric, chol, rng, config.max_tree_depth
        )
        draws[it] = theta
        alpha_total += alpha
        if divergent:
            divergence_iterations.append(it)

    return draws, eps, tuple(divergence_iterations), alpha_total / config.n_draws


def sample(target, config, *, threads=1):
    """Draw from a target: a ModelSpec, or any object with `dim`,
    `param_names` and `logp_grad(theta) -> (logp, grad)`.

    `threads` processes run the chains, in contiguous ranges of chain
    indices (`model.map_ranges`); it never changes results.
    """
    mode, metric = _laplace(target)
    chol = np.linalg.cholesky(metric)

    def run(chains):
        return [_run_chain(target, config, c, mode, metric, chol)
                for c in range(chains.start, chains.stop)]

    results = [r for part in map_ranges(run, config.n_chains, 1, threads) for r in part]

    return PosteriorDraws(
        draws=np.stack([r[0] for r in results]),
        param_names=tuple(target.param_names),
        config=config,
        step_sizes=tuple(r[1] for r in results),
        divergence_iterations=tuple(r[2] for r in results),
        accept_rates=tuple(r[3] for r in results),
    )
