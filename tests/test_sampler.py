import math

import numpy as np
import pytest

from bernreg.data import DesignMatrix
from bernreg.errors import AdaptationFailure, NonFiniteGradient
from bernreg.model import ModelSpec, PriorSpec
from bernreg.sampler import (
    PosteriorDraws,
    SamplerConfig,
    _leapfrog,
    _nuts_step,
    _warmup_schedule,
    initialize_chain,
    sample,
)


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


class CliffTarget:
    """Finite at the origin, non-finite gradient everywhere else."""

    dim = 1
    param_names = ("z0",)

    def logp_grad(self, theta):
        return -math.inf, np.array([math.nan])


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
            {"init_radius": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)

    def test_round_trip_dict(self):
        config = SamplerConfig(n_chains=2, n_warmup=50, n_draws=75, seed=9)
        assert SamplerConfig.from_dict(vars(config)) == config


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
        target = StandardNormalTarget(2)
        config = SamplerConfig(n_chains=3, n_warmup=150, n_draws=200, seed=8)
        serial = sample(target, config, threads=1)
        parallel = sample(target, config, threads=3)
        assert np.array_equal(serial.draws, parallel.draws)
        assert serial.step_sizes == parallel.step_sizes

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

    def test_initialize_chain_matches_documented_stream(self):
        target = StandardNormalTarget(3)
        config = SamplerConfig(seed=99)
        a = initialize_chain(target, config, 0)
        b = initialize_chain(target, config, 0)
        c = initialize_chain(target, config, 1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.abs(a) <= config.init_radius)


class TestDivergences:
    def test_huge_step_size_flags_divergence(self):
        target = StandardNormalTarget(1)
        rng = np.random.default_rng(0)
        theta = np.array([0.5])
        logp, grad = target.logp_grad(theta)
        _, _, _, divergent, _ = _nuts_step(
            target, theta, logp, grad, 1e6, np.ones(1), rng, 10
        )
        assert divergent

    def test_divergences_recorded_per_chain(self):
        # Warmup-free run with an absurd fixed step size: every iteration of
        # every chain must be flagged.
        class Fixed(StandardNormalTarget):
            pass

        target = Fixed(1)
        config = SamplerConfig(n_chains=2, n_warmup=0, n_draws=5, seed=3)

        # bypass adaptation by sampling with eps from find-reasonable on a
        # normal target: instead drive _nuts_step directly
        rng = np.random.default_rng(1)
        theta = np.zeros(1)
        logp, grad = target.logp_grad(theta)
        flags = []
        for _ in range(5):
            theta, logp, grad, divergent, _ = _nuts_step(
                target, theta, logp, grad, 1e8, np.ones(1), rng, 10
            )
            flags.append(divergent)
        assert all(flags)

    def test_healthy_run_has_no_divergences(self):
        target = StandardNormalTarget(2)
        draws = sample(target, SamplerConfig(n_chains=2, n_warmup=300, n_draws=400, seed=21))
        assert sum(draws.divergence_counts) == 0


class TestLeapfrogReversibility:
    def test_backward_step_returns_to_start(self):
        target = StandardNormalTarget(3)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(3)
        r = rng.standard_normal(3)
        logp, grad = target.logp_grad(theta)
        inv_mass = np.array([0.5, 1.0, 2.0])
        theta1, r1, logp1, grad1 = _leapfrog(target, theta, r, grad, 0.1, inv_mass)
        theta2, r2, _, _ = _leapfrog(target, theta1, -r1, grad1, 0.1, inv_mass)
        assert np.allclose(theta2, theta, atol=1e-12)
        assert np.allclose(-r2, r, atol=1e-12)

    def test_energy_error_scales_with_step(self):
        target = StandardNormalTarget(2)
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(2)
        r = rng.standard_normal(2)
        logp, grad = target.logp_grad(theta)

        def energy_error(eps):
            t, rr, lp, _ = _leapfrog(target, theta, r, grad, eps, np.ones(2))
            h0 = logp - 0.5 * float(r @ r)
            h1 = lp - 0.5 * float(rr @ rr)
            return abs(h1 - h0)

        assert energy_error(0.01) < energy_error(0.2) < energy_error(0.8)


class TestFailureModes:
    def test_no_finite_start_raises(self):
        with pytest.raises(NonFiniteGradient):
            sample(CliffTarget(), SamplerConfig(n_chains=1, n_warmup=10, n_draws=10, seed=0))

    def test_initialize_chain_raises_on_hopeless_target(self):
        with pytest.raises(NonFiniteGradient):
            initialize_chain(CliffTarget(), SamplerConfig(seed=0), 0)

    def test_step_size_search_failure_surfaces(self):
        class NeverAccepts:
            dim = 1
            param_names = ("z0",)

            def logp_grad(self, theta):
                # Finite at start, -inf after any move: acceptance stays 0
                # at every step size, so the halving search runs off the end.
                if abs(float(theta[0])) < 1e-15:
                    return 0.0, np.zeros(1)
                return -math.inf, np.zeros(1)

        with pytest.raises(AdaptationFailure):
            sample(
                NeverAccepts(),
                SamplerConfig(n_chains=1, n_warmup=10, n_draws=5, seed=0, init_radius=0.0),
            )


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
