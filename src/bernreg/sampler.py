"""No-U-Turn sampling with dual-averaging step size and a diagonal metric.

Trajectories grow by doubling and draws are multinomial over the whole
trajectory, with the biased progressive update at the root so later
subtrees are preferred. Turning is the generalized criterion checked on
every merge, including the two cross-subtree checks. Warmup follows the
three-phase layout: a step-size-only opening, doubling covariance windows
(each ending with a metric update, a fresh step-size search, and a dual
averaging restart), and a step-size-only closing run.

Chain c draws from substream c of the configured seed, so any chain's
output is independent of how many chains run, of thread count, and of
scheduling order.

The target is a ModelSpec or any object with `dim`, `param_names` and
`logp_grad(theta) -> (log density, gradient)`.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError
from .rngutil import substream_rng

DIVERGENCE_THRESHOLD = 1000.0
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75
_LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class SamplerConfig:
    """Run shape and adaptation targets; everything else is internal."""

    n_chains: int = 4
    n_warmup: int = 1000
    n_draws: int = 1000
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10
    init_radius: float = 2.0

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
        if self.init_radius < 0:
            raise ValueError("init_radius must be non-negative")

    @classmethod
    def from_dict(cls, d):
        """Every field required and converted to its type; extra keys ignored."""
        return cls(**{f.name: f.type(d[f.name]) for f in fields(cls)})


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
    def n_params(self):
        return self.draws.shape[2]

    @property
    def divergence_counts(self):
        return tuple(len(d) for d in self.divergence_iterations)

    def pooled(self):
        """All chains stacked: (n_chains * n_draws, n_params)."""
        return self.draws.reshape(-1, self.draws.shape[2])


class _Stats:
    """Acceptance statistic accumulated over every leapfrog leaf."""

    __slots__ = ("alpha_sum", "n")

    def __init__(self):
        self.alpha_sum = 0.0
        self.n = 0

    def add(self, log_weight):
        self.alpha_sum += math.exp(min(0.0, log_weight))
        self.n += 1

    @property
    def mean(self):
        return self.alpha_sum / self.n if self.n else 0.0


class _Subtree:
    __slots__ = (
        "theta_m", "r_m", "grad_m", "theta_p", "r_p", "grad_p",
        "theta_prop", "logp_prop", "grad_prop", "log_w", "r_sum",
        "divergent", "turning",
    )


def _leaf(theta, r, logp, grad, log_w, divergent):
    leaf = _Subtree()
    leaf.theta_m = leaf.theta_p = leaf.theta_prop = theta
    leaf.r_m = leaf.r_p = leaf.r_sum = r
    leaf.grad_m = leaf.grad_p = leaf.grad_prop = grad
    leaf.logp_prop = logp
    leaf.log_w = log_w
    leaf.divergent = divergent
    leaf.turning = False
    return leaf


def _momentum(rng, inv_mass):
    """A draw from N(0, M), M = diag(1 / inv_mass)."""
    # A product with the reciprocal: dividing by the root rounds differently
    # and changes the chains.
    return rng.standard_normal(len(inv_mass)) * (1.0 / np.sqrt(inv_mass))


def _leapfrog(target, theta, r, grad, eps, inv_mass):
    r_half = r + 0.5 * eps * grad
    theta_new = theta + eps * (inv_mass * r_half)
    logp_new, grad_new = target.logp_grad(theta_new)
    r_new = r_half + 0.5 * eps * grad_new
    return theta_new, r_new, logp_new, grad_new


def _hamiltonian(logp, r, inv_mass):
    return logp - 0.5 * float(np.dot(r, inv_mass * r))


def _uturn(rho, r_first, r_last, inv_mass):
    """Generalized criterion: momentum flow against the displacement sum."""
    return (
        float(np.dot(inv_mass * r_first, rho)) <= 0.0
        or float(np.dot(inv_mass * r_last, rho)) <= 0.0
    )


def _merge(left, right, old, new, biased, rng, inv_mass):
    """Join adjacent subtrees; left/right is trajectory order, old/new is
    build order (the proposal is sampled between old and new)."""
    log_w = np.logaddexp(old.log_w, new.log_w)
    if biased:
        p_new = math.exp(min(0.0, new.log_w - old.log_w))
    else:
        p_new = math.exp(new.log_w - log_w) if np.isfinite(log_w) else 0.0
    chosen = new if rng.random() < p_new else old

    merged = _Subtree()
    merged.theta_m, merged.r_m, merged.grad_m = left.theta_m, left.r_m, left.grad_m
    merged.theta_p, merged.r_p, merged.grad_p = right.theta_p, right.r_p, right.grad_p
    merged.theta_prop = chosen.theta_prop
    merged.logp_prop = chosen.logp_prop
    merged.grad_prop = chosen.grad_prop
    merged.log_w = float(log_w)
    merged.r_sum = left.r_sum + right.r_sum
    merged.divergent = False
    # Whole-trajectory check plus the two cross-subtree checks.
    merged.turning = (
        _uturn(merged.r_sum, left.r_m, right.r_p, inv_mass)
        or _uturn(left.r_sum + right.r_m, left.r_m, right.r_m, inv_mass)
        or _uturn(left.r_p + right.r_sum, left.r_p, right.r_p, inv_mass)
    )
    return merged


def _build(target, depth, direction, theta, r, grad, h0, eps, inv_mass, rng, stats):
    if depth == 0:
        theta1, r1, logp1, grad1 = _leapfrog(
            target, theta, r, grad, direction * eps, inv_mass
        )
        h1 = _hamiltonian(logp1, r1, inv_mass)
        log_w = h1 - h0
        bad = not (math.isfinite(h1) and np.all(np.isfinite(grad1)))
        divergent = bad or (h0 - h1) > DIVERGENCE_THRESHOLD
        stats.add(-math.inf if bad else log_w)
        return _leaf(theta1, r1, logp1, grad1, -math.inf if bad else log_w, divergent)

    first = _build(
        target, depth - 1, direction, theta, r, grad, h0, eps, inv_mass, rng, stats
    )
    if first.divergent or first.turning:
        return first
    if direction > 0:
        start = (first.theta_p, first.r_p, first.grad_p)
    else:
        start = (first.theta_m, first.r_m, first.grad_m)
    second = _build(
        target, depth - 1, direction, *start, h0, eps, inv_mass, rng, stats
    )
    if second.divergent or second.turning:
        first.divergent = second.divergent
        first.turning = second.turning
        return first
    if direction > 0:
        return _merge(first, second, first, second, False, rng, inv_mass)
    return _merge(second, first, first, second, False, rng, inv_mass)


def _nuts_step(target, theta, logp, grad, eps, inv_mass, rng, max_depth):
    """One transition; returns (theta, logp, grad, divergent, mean_alpha)."""
    r0 = _momentum(rng, inv_mass)
    h0 = _hamiltonian(logp, r0, inv_mass)
    tree = _leaf(theta, r0, logp, grad, 0.0, False)
    stats = _Stats()
    divergent = False
    for depth in range(max_depth):
        direction = 1 if rng.random() < 0.5 else -1
        if direction > 0:
            start = (tree.theta_p, tree.r_p, tree.grad_p)
        else:
            start = (tree.theta_m, tree.r_m, tree.grad_m)
        sub = _build(
            target, depth, direction, *start, h0, eps, inv_mass, rng, stats
        )
        if sub.divergent:
            divergent = True
            break
        if sub.turning:
            break
        if direction > 0:
            tree = _merge(tree, sub, tree, sub, True, rng, inv_mass)
        else:
            tree = _merge(sub, tree, tree, sub, True, rng, inv_mass)
        if tree.turning:
            break
    return tree.theta_prop, tree.logp_prop, tree.grad_prop, divergent, stats.mean


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


class _Welford:
    """Streaming mean/variance for the metric windows."""

    def __init__(self, dim):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def add(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def regularized_variance(self):
        """Sample variance shrunk toward unit scale, never zero."""
        n = self.count
        var = self.m2 / (n - 1)
        return (n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0))


def _find_reasonable_step_size(target, theta, logp, grad, inv_mass, rng):
    """Double or halve from 1.0 until one leapfrog step crosses 50% acceptance."""
    r0 = _momentum(rng, inv_mass)
    h0 = _hamiltonian(logp, r0, inv_mass)

    def log_ratio(eps):
        _, r1, logp1, _ = _leapfrog(target, theta, r0, grad, eps, inv_mass)
        h1 = _hamiltonian(logp1, r1, inv_mass)
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


def _warmup_schedule(n_warmup):
    """(opening end, metric window ends, closing start), iteration counts.

    The canonical 75/25-doubling/50 layout applies from 150 iterations up
    and shrinks proportionally below that; the final window absorbs any
    remainder too small to double again.
    """
    if n_warmup >= 150:
        opening, closing, base = 75, 50, 25
    else:
        scale = n_warmup / 150.0
        opening = int(75 * scale)
        closing = int(50 * scale)
        base = max(1, int(25 * scale))
    span = n_warmup - opening - closing
    if span <= 0:
        return n_warmup, [], n_warmup
    ends = []
    pos = opening
    width = base
    while pos < opening + span:
        end = pos + width
        if end + 2 * width > opening + span:
            end = opening + span
        ends.append(end)
        pos = end
        width *= 2
    return opening, ends, opening + span


def _find_start(target, config, chain_index, rng):
    """First finite (theta, logp, grad) among uniform draws in the init box."""
    for _ in range(100):
        candidate = rng.uniform(-config.init_radius, config.init_radius, target.dim)
        value, gradient = target.logp_grad(candidate)
        if math.isfinite(value) and np.all(np.isfinite(gradient)):
            return candidate, value, gradient
    raise NumericalError(
        f"chain {chain_index}: no finite starting point within "
        f"radius {config.init_radius} after 100 attempts"
    )


def _run_chain(target, config, chain_index):
    rng = substream_rng(config.seed, chain_index)
    dim = target.dim
    theta, logp, grad = _find_start(target, config, chain_index, rng)

    inv_mass = np.ones(dim)
    eps = _find_reasonable_step_size(target, theta, logp, grad, inv_mass, rng)
    averager = _DualAveraging(eps, config.target_accept)
    opening_end, window_ends, closing_start = _warmup_schedule(config.n_warmup)
    pending_windows = list(window_ends)
    welford = _Welford(dim)

    for it in range(config.n_warmup):
        theta, logp, grad, _, alpha = _nuts_step(
            target, theta, logp, grad, eps, inv_mass, rng, config.max_tree_depth
        )
        eps = averager.update(alpha)
        if opening_end <= it < closing_start:
            welford.add(theta)
        if pending_windows and it + 1 == pending_windows[0]:
            pending_windows.pop(0)
            if welford.count >= 2:
                inv_mass = welford.regularized_variance()
            welford = _Welford(dim)
            eps = _find_reasonable_step_size(target, theta, logp, grad, inv_mass, rng)
            averager = _DualAveraging(eps, config.target_accept)

    if config.n_warmup > 0:
        eps = averager.adapted()
    if not (math.isfinite(eps) and eps > 0):
        raise NumericalError(f"chain {chain_index}: adapted step size {eps}")

    draws = np.empty((config.n_draws, dim))
    divergence_iterations = []
    alpha_total = 0.0
    for it in range(config.n_draws):
        theta, logp, grad, divergent, alpha = _nuts_step(
            target, theta, logp, grad, eps, inv_mass, rng, config.max_tree_depth
        )
        draws[it] = theta
        alpha_total += alpha
        if divergent:
            divergence_iterations.append(it)

    return draws, eps, tuple(divergence_iterations), alpha_total / config.n_draws


def initialize_chain(target, config, chain_index):
    """The exact starting point chain `chain_index` would use."""
    rng = substream_rng(config.seed, chain_index)
    return _find_start(target, config, chain_index, rng)[0]


def sample(target, config, *, threads=1):
    """Draw from a target: a ModelSpec, or any object with `dim`,
    `param_names` and `logp_grad(theta) -> (logp, grad)`.

    `threads` only schedules independent chains; it never changes results.
    """
    indices = list(range(config.n_chains))
    if threads is None or threads <= 1:
        results = [_run_chain(target, config, i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: _run_chain(target, config, i), indices))

    return PosteriorDraws(
        draws=np.stack([r[0] for r in results]),
        param_names=tuple(target.param_names),
        config=config,
        step_sizes=tuple(r[1] for r in results),
        divergence_iterations=tuple(r[2] for r in results),
        accept_rates=tuple(r[3] for r in results),
    )
