"""The recursive NUTS tree that `bernreg.sampler._nuts_step` must match bit
for bit: `_Stats`, `_Subtree`, `_leaf`, `_end`, `_merge`, `_build` and
`_nuts_step` as the sampler held them before its transition became one
closure over tuple-ended subtrees, copied unchanged. The leapfrog, energy,
momentum and U-turn primitives are the sampler's own.

`tests/test_sampler.py::TestTransitionPin` runs both transitions from one
rng state and compares every output.
"""

import math

import numpy as np

from bernreg.sampler import (
    DIVERGENCE_THRESHOLD,
    _hamiltonian,
    _leapfrog,
    _momentum,
    _uturn,
)


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
        "theta_m", "r_m", "v_m", "grad_m", "theta_p", "r_p", "v_p", "grad_p",
        "theta_prop", "logp_prop", "grad_prop", "log_w", "r_sum",
        "divergent", "turning",
    )


def _leaf(theta, r, v, logp, grad, log_w, divergent):
    leaf = _Subtree()
    leaf.theta_m = leaf.theta_p = leaf.theta_prop = theta
    leaf.r_m = leaf.r_p = leaf.r_sum = r
    leaf.v_m = leaf.v_p = v
    leaf.grad_m = leaf.grad_p = leaf.grad_prop = grad
    leaf.logp_prop = logp
    leaf.log_w = log_w
    leaf.divergent = divergent
    leaf.turning = False
    return leaf


def _end(tree, direction):
    """(theta, r, grad) at the tree's end in `direction`, where it grows."""
    if direction > 0:
        return tree.theta_p, tree.r_p, tree.grad_p
    return tree.theta_m, tree.r_m, tree.grad_m


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

    merged = _Subtree()
    merged.theta_m, merged.r_m, merged.grad_m = left.theta_m, left.r_m, left.grad_m
    merged.theta_p, merged.r_p, merged.grad_p = right.theta_p, right.r_p, right.grad_p
    merged.v_m, merged.v_p = left.v_m, right.v_p
    merged.theta_prop = chosen.theta_prop
    merged.logp_prop = chosen.logp_prop
    merged.grad_prop = chosen.grad_prop
    merged.log_w = float(log_w)
    merged.r_sum = left.r_sum + right.r_sum
    merged.divergent = False
    # Whole-trajectory check plus the two cross-subtree checks.
    merged.turning = (
        _uturn(merged.r_sum, left.v_m, right.v_p)
        or _uturn(left.r_sum + right.r_m, left.v_m, right.v_m)
        or _uturn(left.r_p + right.r_sum, left.v_p, right.v_p)
    )
    return merged


def _build(target, depth, direction, theta, r, grad, h0, eps, metric, rng, stats):
    if depth == 0:
        theta1, r1, logp1, grad1 = _leapfrog(
            target, theta, r, grad, direction * eps, metric
        )
        v1 = metric @ r1
        h1 = _hamiltonian(logp1, r1, v1)
        log_w = h1 - h0
        bad = not (math.isfinite(h1) and np.all(np.isfinite(grad1)))
        divergent = bad or (h0 - h1) > DIVERGENCE_THRESHOLD
        stats.add(-math.inf if bad else log_w)
        return _leaf(theta1, r1, v1, logp1, grad1, -math.inf if bad else log_w, divergent)

    first = _build(
        target, depth - 1, direction, theta, r, grad, h0, eps, metric, rng, stats
    )
    if first.divergent or first.turning:
        return first
    second = _build(
        target, depth - 1, direction, *_end(first, direction), h0, eps, metric, rng, stats
    )
    if second.divergent or second.turning:
        first.divergent = second.divergent
        first.turning = second.turning
        return first
    return _merge(first, second, direction, False, rng)


def _nuts_step(target, theta, logp, grad, eps, metric, chol, rng, max_depth):
    """One transition; returns (theta, logp, grad, divergent, mean_alpha).

    `chol` is the lower Cholesky factor of `metric`.
    """
    r0 = _momentum(rng, chol)
    v0 = metric @ r0
    h0 = _hamiltonian(logp, r0, v0)
    tree = _leaf(theta, r0, v0, logp, grad, 0.0, False)
    stats = _Stats()
    divergent = False
    for depth in range(max_depth):
        direction = 1 if rng.random() < 0.5 else -1
        sub = _build(
            target, depth, direction, *_end(tree, direction), h0, eps, metric, rng, stats
        )
        if sub.divergent:
            divergent = True
            break
        if sub.turning:
            break
        tree = _merge(tree, sub, direction, True, rng)
        if tree.turning:
            break
    return tree.theta_prop, tree.logp_prop, tree.grad_prop, divergent, stats.mean
