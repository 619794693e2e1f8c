import math

import numpy as np
import pytest

from bernreg.data import DesignMatrix
from bernreg.errors import NumericalError
from bernreg.model import ModelSpec, PriorSpec
from bernreg import sampler
from bernreg.rngutil import substream_rng
from bernreg.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _find_reasonable_step_size,
    _laplace,
    _leapfrog,
    _momentum,
    _nuts_step,
    sample,
)

import recursive_nuts
from conftest import assert_no_child_process

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class StandardNormalTarget:
    """Independent standard normals; exact moments known."""

    def __init__(self, dim):
        self.dim = dim
        self.param_names = tuple(f"z{j}" for j in range(dim))

    def logp_grad(self, theta):
        return -0.5 * float(theta @ theta), -theta


class ScaledNormalTarget:
    """Independent normals with very different scales; exercises the metric."""

    def __init__(self, sds):
        self.sds = np.asarray(sds, dtype=np.float64)
        self.dim = len(sds)
        self.param_names = tuple(f"z{j}" for j in range(self.dim))

    def logp_grad(self, theta):
        z = theta / self.sds
        return -0.5 * float(z @ z), -theta / self.sds**2


class CorrelatedNormalTarget:
    """A multivariate normal with a full covariance matrix."""

    def __init__(self, cov, mean=None):
        self.cov = np.asarray(cov, dtype=np.float64)
        self.precision = np.linalg.inv(self.cov)
        self.dim = len(self.cov)
        self.mean = np.zeros(self.dim) if mean is None else np.asarray(mean, dtype=np.float64)
        self.param_names = tuple(f"z{j}" for j in range(self.dim))

    def logp_grad(self, theta):
        g = -self.precision @ (theta - self.mean)
        return 0.5 * float((theta - self.mean) @ g), g


class CountingTarget(StandardNormalTarget):
    """Standard normals, counting gradient calls."""

    calls = 0

    def logp_grad(self, theta):
        self.calls += 1
        return super().logp_grad(theta)


# A non-diagonal SPD metric.
DENSE_METRIC = np.array([[2.0, 0.5, 0.3], [0.5, 1.0, -0.2], [0.3, -0.2, 0.5]])


class CliffTarget:
    """Non-finite everywhere, the origin included."""

    dim = 1
    param_names = ("z0",)

    def logp_grad(self, theta):
        return -math.inf, np.array([math.nan])


class NeverAccepts:
    """Finite with zero gradient at the origin, -inf after any move: -H is
    zero there, and no step size gives any acceptance."""

    dim = 1
    param_names = ("z0",)

    def logp_grad(self, theta):
        if abs(float(theta[0])) < 1e-15:
            return 0.0, np.zeros(1)
        return -math.inf, np.zeros(1)


class SaddleTarget:
    """A saddle at the origin: -H = diag(1, -1) is not positive definite."""

    dim = 2
    param_names = ("z0", "z1")

    def logp_grad(self, theta):
        return 0.5 * float(theta[1] ** 2 - theta[0] ** 2), np.array([-theta[0], theta[1]])


class NanGradientTarget(StandardNormalTarget):
    """A standard normal whose gradient is NaN away from the origin."""

    def logp_grad(self, theta):
        logp, grad = super().logp_grad(theta)
        return logp, grad if not theta.any() else np.full(self.dim, math.nan)


class LyingGradientTarget:
    """log p peaks at +1 but the gradient points to -1: Newton's step
    never raises log p."""

    dim = 1
    param_names = ("z0",)

    def logp_grad(self, theta):
        return -0.5 * float((theta[0] - 1.0) ** 2), -(theta + 1.0)


class TruncatedNormalTarget(StandardNormalTarget):
    """A standard normal restricted to |z| < 0.5."""

    def logp_grad(self, theta):
        if np.max(np.abs(theta)) >= 0.5:
            return -math.inf, np.zeros(self.dim)
        return super().logp_grad(theta)


class HalfCliffTarget(StandardNormalTarget):
    """A standard normal with log p = -inf above z = 1."""

    def logp_grad(self, theta):
        if np.max(theta) > 1.0:
            return -math.inf, np.zeros(self.dim)
        return super().logp_grad(theta)


def _record_metrics(monkeypatch):
    """Patch _nuts_step to record the (metric, chol) of every transition."""
    seen = []
    original = sampler._nuts_step

    def recorded(target, theta, logp, grad, eps, metric, chol, *rest):
        seen.append((metric, chol))
        return original(target, theta, logp, grad, eps, metric, chol, *rest)

    monkeypatch.setattr(sampler, "_nuts_step", recorded)
    return seen


class TestConfigValidation:
    def test_defaults(self):
        config = SamplerConfig()
        assert (config.n_chains, config.n_warmup, config.n_draws) == (4, 1000, 1000)
        assert config.target_accept == 0.8
        assert config.max_tree_depth == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_chains": 0},
            {"n_warmup": -1},
            {"n_draws": 0},
            {"target_accept": 0.0},
            {"target_accept": 1.0},
            {"max_tree_depth": 0},
            {"max_tree_depth": 16},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


def _warmup_schedule(n_warmup):
    """(opening end, metric window ends, closing start), iteration counts.

    Stan's windowed warmup layout: the canonical 75/25-doubling/50 layout
    applies from 150 iterations up and shrinks proportionally below that;
    the final window absorbs any remainder too small to double again.
    The sampler's warmup adapts only the step size, so these tests are
    the layout's only user.
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


class TestWarmupSchedule:
    def test_canonical_1000(self):
        assert _warmup_schedule(1000) == (75, [100, 150, 250, 450, 950], 950)

    def test_minimum_full_layout(self):
        assert _warmup_schedule(150) == (75, [100], 100)

    def test_short_warmup_shrinks_proportionally(self):
        assert _warmup_schedule(20) == (10, [14], 14)

    def test_fifty(self):
        assert _warmup_schedule(50) == (25, [34], 34)

    def test_zero(self):
        assert _warmup_schedule(0) == (0, [], 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 75, 149, 150, 151, 1000, 2500])
    def test_windows_partition_the_middle(self, n):
        opening, ends, closing_start = _warmup_schedule(n)
        assert 0 <= opening <= closing_start <= n
        previous = opening
        for end in ends:
            assert end > previous
            previous = end
        if ends:
            assert ends[-1] == closing_start


class TestMomentRecovery:
    def test_standard_normal_moments(self):
        target = StandardNormalTarget(3)
        config = SamplerConfig(n_chains=4, n_warmup=500, n_draws=1000, seed=123)
        draws = sample(target, config)
        pooled = draws.pooled()
        assert pooled.shape == (4000, 3)
        se = 1.0 / math.sqrt(4000)
        for j in range(3):
            # generous: autocorrelation inflates the plain-MC se a little
            assert abs(pooled[:, j].mean()) < 8 * se
            assert abs(pooled[:, j].std(ddof=1) - 1.0) < 0.1

    def test_scaled_normal_metric_adaptation(self):
        target = ScaledNormalTarget([0.05, 1.0, 20.0])
        config = SamplerConfig(n_chains=2, n_warmup=600, n_draws=800, seed=7)
        draws = sample(target, config)
        pooled = draws.pooled()
        for j, sd in enumerate(target.sds):
            assert abs(pooled[:, j].std(ddof=1) - sd) / sd < 0.15
        assert sum(draws.divergence_counts) == 0

    def test_adapted_metric_matches_a_strongly_correlated_covariance(self, monkeypatch):
        # Correlation 0.99, mean away from the origin where Newton starts.
        cov = np.array([[1.0, 0.99 * 3.0], [0.99 * 3.0, 9.0]])
        seen = _record_metrics(monkeypatch)
        config = SamplerConfig(n_chains=2, n_warmup=20, n_draws=10, seed=5)
        sample(CorrelatedNormalTarget(cov, mean=[2.0, -4.0]), config)
        assert len(seen) == 2 * (20 + 10)
        metric, chol = seen[0]
        np.testing.assert_allclose(metric, cov, rtol=1e-6, atol=0)
        np.testing.assert_array_equal(chol, np.linalg.cholesky(metric))
        assert all(m is metric and c is chol for m, c in seen)

    def test_logit_model_posterior_is_sane(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 1))
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(0.3 + 0.9 * x[:, 0])))).astype(float)
        model = ModelSpec(
            "logit", PriorSpec(0.0, 2.0, 0.0, 2.0), DesignMatrix.from_values(x), y
        )
        draws = sample(model, SamplerConfig(n_chains=2, n_warmup=300, n_draws=500, seed=1))
        assert draws.param_names == ("Intercept", "x1")
        assert np.all(np.isfinite(draws.draws))


class TestDeterminism:
    def test_identical_reruns(self):
        target = StandardNormalTarget(2)
        config = SamplerConfig(n_chains=2, n_warmup=200, n_draws=300, seed=55)
        a = sample(target, config)
        b = sample(target, config)
        assert np.array_equal(a.draws, b.draws)
        assert a.step_sizes == b.step_sizes
        assert a.divergence_iterations == b.divergence_iterations

    def test_threads_change_nothing(self):
        class Local(StandardNormalTarget):
            """Defined here, so it cannot be pickled: workers inherit it by fork.
            log p = -inf above z = 2, so some transitions diverge."""

            def logp_grad(self, theta):
                if np.max(theta) > 2.0:
                    return -math.inf, np.zeros(self.dim)
                return super().logp_grad(theta)

        config = SamplerConfig(n_chains=3, n_warmup=150, n_draws=200, seed=8)
        serial = sample(Local(2), config, threads=1)
        assert any(serial.divergence_iterations)
        for threads in (2, 3):
            parallel = sample(Local(2), config, threads=threads)
            assert np.array_equal(serial.draws, parallel.draws), threads
            assert serial.step_sizes == parallel.step_sizes, threads
            assert serial.accept_rates == parallel.accept_rates, threads
            assert serial.divergence_iterations == parallel.divergence_iterations, threads
        assert_no_child_process()

    def test_chain_output_independent_of_chain_count(self):
        target = StandardNormalTarget(2)
        few = sample(target, SamplerConfig(n_chains=1, n_warmup=150, n_draws=200, seed=8))
        many = sample(target, SamplerConfig(n_chains=4, n_warmup=150, n_draws=200, seed=8))
        assert np.array_equal(few.draws[0], many.draws[0])

    def test_seed_changes_draws(self):
        target = StandardNormalTarget(2)
        a = sample(target, SamplerConfig(n_chains=1, n_warmup=100, n_draws=100, seed=1))
        b = sample(target, SamplerConfig(n_chains=1, n_warmup=100, n_draws=100, seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_chain_start_is_a_laplace_draw_from_its_substream(self, monkeypatch):
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        target = CorrelatedNormalTarget(cov, mean=[1.0, -3.0])
        starts = []
        original = sampler._find_reasonable_step_size

        def recorded(target, theta, *rest):
            starts.append(theta)
            return original(target, theta, *rest)

        monkeypatch.setattr(sampler, "_find_reasonable_step_size", recorded)
        sample(target, SamplerConfig(n_chains=3, n_warmup=5, n_draws=5, seed=99))
        mode, metric = _laplace(target)
        chol = np.linalg.cholesky(metric)
        for chain, start in enumerate(starts):
            z = substream_rng(99, chain).standard_normal(2)
            assert np.array_equal(start, mode + chol @ z)
        assert len({s.tobytes() for s in starts}) == 3


class TestDivergences:
    def test_huge_step_size_flags_divergence(self):
        target = StandardNormalTarget(1)
        rng = np.random.default_rng(0)
        theta = np.array([0.5])
        logp, grad = target.logp_grad(theta)
        _, _, _, divergent, _ = _nuts_step(
            target, theta, logp, grad, 1e6, np.eye(1), np.eye(1), rng, 10
        )
        assert divergent

    def test_divergences_recorded_per_chain(self, monkeypatch):
        # Trajectories that cross the cliff at z = 1 diverge; the others do
        # not. The spy sees every transition: each chain runs its warmup,
        # then its draws, and chain 1 runs after chain 0.
        config = SamplerConfig(n_chains=2, n_warmup=50, n_draws=100, seed=3)
        flags = []
        original = sampler._nuts_step

        def spy(*args):
            result = original(*args)
            flags.append(result[3])
            return result

        monkeypatch.setattr(sampler, "_nuts_step", spy)
        draws = sample(HalfCliffTarget(1), config)
        per_chain = config.n_warmup + config.n_draws
        assert len(flags) == config.n_chains * per_chain
        for c, recorded in enumerate(draws.divergence_iterations):
            chain = flags[c * per_chain:(c + 1) * per_chain]
            warmup, kept = chain[:config.n_warmup], chain[config.n_warmup:]
            assert any(warmup) and any(kept) and not all(kept)
            assert recorded == tuple(i for i, divergent in enumerate(kept) if divergent)

    def test_healthy_run_has_no_divergences(self):
        target = StandardNormalTarget(2)
        draws = sample(target, SamplerConfig(n_chains=2, n_warmup=300, n_draws=400, seed=21))
        assert sum(draws.divergence_counts) == 0


def _pin_case(name):
    """(target, start, eps, metric, max_depth) for one transition-pin case."""
    if name == "standard-normal":
        return StandardNormalTarget(3), np.full(3, 0.5), 0.7, np.eye(3), 10
    if name == "dense-metric":
        return CorrelatedNormalTarget(DENSE_METRIC), np.full(3, 0.5), 0.6, DENSE_METRIC, 10
    if name == "unit-metric":
        # The metric ignores the correlation, so the cross-subtree checks
        # decide some merges.
        return CorrelatedNormalTarget(DENSE_METRIC), np.full(3, 0.5), 0.3, np.eye(3), 10
    if name == "logit-model":
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 2))
        y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(0.3 + x @ [0.9, -0.4])))).astype(float)
        model = ModelSpec("logit", PriorSpec(0.0, 2.0, 0.0, 2.0),
                          DesignMatrix.from_values(x), y)
        mode, metric = _laplace(model)
        return model, mode, 0.9, metric, 10
    if name == "divergent":
        return StandardNormalTarget(2), np.full(2, 0.5), 3.0, np.eye(2), 10
    # A tiny step never turns, so every tree stops at max_depth.
    return StandardNormalTarget(2), np.full(2, 0.5), 1e-3, np.eye(2), 3


def _transitions(step, target, theta, eps, metric, max_depth, seed, n=25):
    """The bits of n chained transitions of `step` under default_rng(seed),
    with the generator state after each."""
    chol = np.linalg.cholesky(metric)
    rng = np.random.default_rng(seed)
    logp, grad = target.logp_grad(theta)
    out = []
    for _ in range(n):
        theta, logp, grad, divergent, alpha = step(
            target, theta, logp, grad, eps, metric, chol, rng, max_depth
        )
        out.append((theta.tobytes(), float(logp).hex(), grad.tobytes(), divergent,
                    float(alpha).hex(), rng.bit_generator.state["state"]))
    return out


class TestTransitionPin:
    """`_nuts_step` against the recursive tree in `recursive_nuts`, bit for bit."""

    @pytest.mark.parametrize("case", ["standard-normal", "dense-metric", "unit-metric",
                                      "logit-model", "divergent", "saturated-depth"])
    def test_matches_the_recursive_tree(self, case):
        target, start, eps, metric, max_depth = _pin_case(case)
        divergences = 0
        for seed in range(4):
            expected = _transitions(recursive_nuts._nuts_step, target, start, eps,
                                    metric, max_depth, seed)
            actual = _transitions(_nuts_step, target, start, eps, metric, max_depth, seed)
            assert actual == expected
            divergences += sum(t[3] for t in expected)
        assert (divergences > 0) == (case == "divergent")

    def test_saturated_case_builds_every_leaf(self):
        target = CountingTarget(2)
        _, start, eps, metric, max_depth = _pin_case("saturated-depth")
        _transitions(_nuts_step, target, start, eps, metric, max_depth, 0, n=5)
        # One start gradient, then 1 + 2 + 4 leaves per transition.
        assert target.calls == 1 + 5 * (2**max_depth - 1)


class TestLeapfrogReversibility:
    def test_backward_step_returns_to_start(self):
        target = StandardNormalTarget(3)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(3)
        r = rng.standard_normal(3)
        logp, grad = target.logp_grad(theta)
        theta1, r1, logp1, grad1 = _leapfrog(target, theta, r, grad, 0.1, DENSE_METRIC)
        theta2, r2, _, _ = _leapfrog(target, theta1, -r1, grad1, 0.1, DENSE_METRIC)
        assert np.allclose(theta2, theta, atol=1e-12)
        assert np.allclose(-r2, r, atol=1e-12)

    def test_energy_error_scales_with_step(self):
        target = StandardNormalTarget(3)
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(3)
        r = rng.standard_normal(3)
        logp, grad = target.logp_grad(theta)

        def energy_error(eps):
            t, rr, lp, _ = _leapfrog(target, theta, r, grad, eps, DENSE_METRIC)
            h0 = logp - 0.5 * float(r @ DENSE_METRIC @ r)
            h1 = lp - 0.5 * float(rr @ DENSE_METRIC @ rr)
            return abs(h1 - h0)

        assert energy_error(0.01) < energy_error(0.2) < energy_error(0.8)


class TestDenseMetric:
    def test_momentum_solves_the_transposed_cholesky_system(self):
        chol = np.linalg.cholesky(DENSE_METRIC)
        z = np.random.default_rng(4).standard_normal(3)
        r = _momentum(np.random.default_rng(4), chol)
        np.testing.assert_allclose(chol.T @ r, z, rtol=0, atol=1e-13)

    def test_model_metric_is_the_inverse_analytic_hessian_at_the_mode(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((80, 2))
        y = (rng.random(80) < 1.0 / (1.0 + np.exp(-(1.5 + x @ [2.0, -1.0])))).astype(float)
        prior = PriorSpec(0.0, 2.0, 0.0, 1.0)
        model = ModelSpec("logit", prior, DesignMatrix.from_values(x), y)
        mode, metric = _laplace(model)
        _, grad = model.logp_grad(mode)
        assert np.max(np.abs(grad)) < 1e-6
        design = np.column_stack([np.ones(80), x])
        p = 1.0 / (1.0 + np.exp(-(design @ mode)))
        precision = design.T @ (design * (p * (1.0 - p))[:, None]) + np.diag(
            1.0 / prior.sds(3) ** 2
        )
        np.testing.assert_allclose(metric, np.linalg.inv(precision), rtol=1e-6)

    def test_laplace_gradients_do_not_depend_on_the_chain_count(self, monkeypatch):
        counts = []
        original = sampler._laplace

        def recorded(target):
            result = original(target)
            counts.append(target.calls)
            return result

        monkeypatch.setattr(sampler, "_laplace", recorded)
        for chains in (1, 4):
            sample(CountingTarget(3), SamplerConfig(n_chains=chains, n_warmup=5,
                                                    n_draws=5, seed=2))
        # The origin is the mode: one gradient, then two per dimension for H.
        assert counts == [7, 7]


class TestFailureModes:
    @staticmethod
    def _no_chain_runs(monkeypatch):
        def refuse(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(sampler, "_run_chain", refuse)

    def test_no_finite_start_raises(self, monkeypatch):
        self._no_chain_runs(monkeypatch)
        with pytest.raises(NumericalError, match="log density not finite at the origin"):
            sample(CliffTarget(), SamplerConfig(n_chains=1, n_warmup=10, n_draws=10, seed=0))

    @pytest.mark.parametrize(
        "target, message",
        [
            (SaddleTarget(), "-H is not positive definite"),
            (NeverAccepts(), "-H is not positive definite"),
            (NanGradientTarget(2), "non-finite Hessian"),
            (LyingGradientTarget(), "line search found no ascent"),
        ],
        ids=["saddle", "never-accepts", "nan-gradient", "lying-gradient"],
    )
    def test_failed_laplace_fit_raises_before_any_chain(self, target, message,
                                                        monkeypatch):
        self._no_chain_runs(monkeypatch)
        with pytest.raises(NumericalError, match=message):
            sample(target, SamplerConfig(n_chains=2, n_warmup=10, n_draws=5, seed=0))

    def test_start_outside_the_support_raises(self):
        # Chain 0 of seed 0 draws z = 1.67, outside the target's support.
        with pytest.raises(NumericalError, match="chain 0: log density not finite at its start"):
            sample(TruncatedNormalTarget(1), SamplerConfig(n_chains=1, n_warmup=5,
                                                           n_draws=5, seed=0))

    def test_a_chain_that_fails_in_a_worker_raises_the_serial_error(self):
        class CliffAboveTwo(StandardNormalTarget):
            """Of seed 9's chain starts 0.40, -0.15 and 2.23, only chain 2's
            is past the cliff."""

            def logp_grad(self, theta):
                if theta[0] > 2.0:
                    return -math.inf, np.zeros(self.dim)
                return super().logp_grad(theta)

        config = SamplerConfig(n_chains=3, n_warmup=20, n_draws=20, seed=9)
        message = "chain 2: log density not finite at its start"
        for threads in (1, 3):
            with pytest.raises(NumericalError, match=message) as raised:
                sample(CliffAboveTwo(1), config, threads=threads)
            assert str(raised.value) == message, threads
        assert_no_child_process()

    def test_step_size_search_failure_surfaces(self):
        # Acceptance stays 0 at every step size, so the halving search runs
        # off the end of its range.
        target = NeverAccepts()
        theta = np.zeros(1)
        logp, grad = target.logp_grad(theta)
        with pytest.raises(NumericalError, match="step-size search"):
            _find_reasonable_step_size(target, theta, logp, grad, np.eye(1), np.eye(1),
                                       np.random.default_rng(0))


class TestPosteriorDraws:
    def test_shape_validation(self):
        config = SamplerConfig(n_chains=1, n_warmup=0, n_draws=3, seed=0)
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=np.zeros((1, 3)),
                param_names=("a",),
                config=config,
                step_sizes=(0.1,),
                divergence_iterations=((),),
                accept_rates=(0.9,),
            )
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=np.zeros((1, 3, 2)),
                param_names=("a",),
                config=config,
                step_sizes=(0.1,),
                divergence_iterations=((),),
                accept_rates=(0.9,),
            )

    def test_non_finite_rejected(self):
        config = SamplerConfig(n_chains=1, n_warmup=0, n_draws=2, seed=0)
        bad = np.zeros((1, 2, 1))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            PosteriorDraws(
                draws=bad,
                param_names=("a",),
                config=config,
                step_sizes=(0.1,),
                divergence_iterations=((),),
                accept_rates=(0.9,),
            )

    def test_pooled_layout(self):
        config = SamplerConfig(n_chains=2, n_warmup=0, n_draws=2, seed=0)
        arr = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        draws = PosteriorDraws(
            draws=arr,
            param_names=("a", "b"),
            config=config,
            step_sizes=(0.1, 0.1),
            divergence_iterations=((), ()),
            accept_rates=(0.9, 0.9),
        )
        pooled = draws.pooled()
        assert pooled.shape == (4, 2)
        assert np.array_equal(pooled[0], arr[0, 0])
        assert np.array_equal(pooled[2], arr[1, 0])
