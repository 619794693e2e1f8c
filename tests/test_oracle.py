import ast
import math
import pathlib

import numpy as np
import pytest

import bernreg
from bernreg.data import DesignMatrix
from bernreg.errors import MismatchError, NumericalError
from bernreg.model import ModelSpec, PriorSpec, log_posterior_and_gradient
from bernreg.oracle import (
    GridSpec,
    _naive_log_posterior,
    _synthetic_model,
    finite_diff_gradient,
    grid_posterior_moments,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestFiniteDiff:
    def test_quadratic_is_exact_to_truncation(self):
        a = np.array([2.0, -3.0, 0.5])

        def fn(x):
            return float(a @ x + 1.5 * x[0] * x[0])

        point = np.array([0.3, -1.2, 2.0])
        grad = finite_diff_gradient(fn, point)
        expected = a + np.array([3.0 * point[0], 0.0, 0.0])
        assert np.allclose(grad, expected, atol=1e-8)

    def test_step_size_argument(self):
        def fn(x):
            return math.sin(float(x[0]))

        coarse = finite_diff_gradient(fn, [1.0], h=0.5)[0]
        fine = finite_diff_gradient(fn, [1.0], h=1e-6)[0]
        assert abs(fine - math.cos(1.0)) < abs(coarse - math.cos(1.0))

    def test_non_finite_probe_raises(self):
        def fn(x):
            return math.inf if x[0] > 0.5 else 0.0

        with pytest.raises(NumericalError, match="returned a non-finite value"):
            finite_diff_gradient(fn, [0.5])


class TestGridSpec:
    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(axes=((1.0, 1.0, 10),))
        with pytest.raises(ValueError):
            GridSpec(axes=((2.0, 1.0, 10),))
        with pytest.raises(ValueError):
            GridSpec(axes=((0.0, 1.0, 2),))

    def test_total_size_capped(self):
        with pytest.raises(ValueError):
            GridSpec(axes=((0.0, 1.0, 5000), (0.0, 1.0, 5000)))

    def test_valid_spec_accepted(self):
        GridSpec(axes=((0.0, 1.0, 3), (-1.0, 1.0, 101)))


class TestNaiveLogPosterior:
    def test_agrees_with_vectorized_implementation(self):
        rng = np.random.default_rng(17)
        for link in ("logit", "probit"):
            model = _synthetic_model(link, 25, 2, int(rng.integers(2**32)))
            for _ in range(10):
                beta = rng.normal(0.0, 1.5, 3)
                naive = _naive_log_posterior(
                    link,
                    model.prior,
                    [list(map(float, row)) for row in model.design.values],
                    [int(v) for v in model.target],
                    list(map(float, beta)),
                )
                fast = log_posterior_and_gradient(beta, model)[0]
                assert abs(naive - fast) < 1e-9 * max(1.0, abs(fast))


class TestGridMoments:
    def test_recovers_prior_with_no_data(self):
        prior = PriorSpec(1.0, 0.7, 0.0, 0.5)
        model = ModelSpec(
            link="logit",
            prior=prior,
            design=DesignMatrix.from_values(np.empty((0, 1))),
            target=np.empty(0),
        )
        grid = GridSpec(axes=((1.0 - 3.5, 1.0 + 3.5, 161), (-2.5, 2.5, 161)))
        means, sds = grid_posterior_moments(model, grid)
        assert abs(means[0] - 1.0) < 1e-3
        assert abs(means[1]) < 1e-3
        assert abs(sds[0] - 0.7) < 1e-3
        assert abs(sds[1] - 0.5) < 1e-3

    def test_single_parameter_conjugate_like_case(self):
        # Intercept-only logit with equal yes/no counts: posterior symmetric
        # around the prior-pulled center; with a zero-mean prior the mean is 0.
        model = ModelSpec(
            link="logit",
            prior=PriorSpec(0.0, 1.0, 0.0, 1.0),
            design=DesignMatrix.from_values(np.empty((6, 0))),
            target=np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        )
        grid = GridSpec(axes=((-4.0, 4.0, 401),))
        means, sds = grid_posterior_moments(model, grid)
        assert abs(means[0]) < 1e-6
        assert 0.0 < sds[0] < 1.0

    def test_too_many_parameters(self):
        model = _synthetic_model("logit", 10, 3, 0)
        grid = GridSpec(axes=((-1, 1, 5),) * 4)
        with pytest.raises(NumericalError, match="at most 3 parameters, got 4"):
            grid_posterior_moments(model, grid)

    def test_axis_count_mismatch(self):
        model = _synthetic_model("logit", 10, 1, 0)
        grid = GridSpec(axes=((-1, 1, 51),))
        with pytest.raises(MismatchError, match="1 grid axes for 2 parameters"):
            grid_posterior_moments(model, grid)

    def test_narrow_axes_fail_self_check(self):
        # Axes covering a sliver of the posterior: widening moves the
        # moments, so the oracle must refuse rather than return garbage.
        model = _synthetic_model("logit", 40, 1, 5)
        grid = GridSpec(axes=((-0.05, 0.05, 11), (-0.05, 0.05, 11)))
        with pytest.raises(NumericalError, match="under axis widening"):
            grid_posterior_moments(model, grid)


class TestSyntheticModel:
    def test_deterministic_and_two_classes(self):
        a = _synthetic_model("logit", 30, 2, 9)
        b = _synthetic_model("logit", 30, 2, 9)
        assert np.array_equal(a.design.values, b.design.values)
        assert np.array_equal(a.target, b.target)
        assert 0 < a.target.sum() < 30

    def test_respects_link_and_prior(self):
        prior = PriorSpec(0.5, 1.5, 0.0, 0.9)
        model = _synthetic_model("probit", 20, 1, 3, prior=prior)
        assert model.link == "probit"
        assert model.prior == prior


def _bernreg_imports(tree):
    """The bernreg modules a parsed module imports, at any depth in it."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "bernreg" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("bernreg.")}


def _import_time_packages(tree):
    """Top-level packages a parsed module imports when it is loaded: every
    import outside a function body, at any depth of the module's statements."""
    packages = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            packages.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return packages


def test_library_modules_do_not_import_the_sampler():
    """The modules that the commands share reach neither the sampler nor the
    verification and command layers, even inside a function; and no module
    of the package loads scipy when it is imported, only where it is called."""
    package = pathlib.Path(bernreg.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    reached = {
        module: _bernreg_imports(trees[module]) & {"sampler", "oracle", "cli"}
        for module in ("data", "model", "loo", "diagnostics", "predict", "report",
                       "rngutil", "errors")
    }
    assert reached == dict.fromkeys(reached, set())
    # The parser sees both import forms, at module level and in a function.
    probe = ast.parse("from . import cli\ndef f():\n    import bernreg.sampler\n")
    assert _bernreg_imports(probe) == {"cli", "sampler"}

    assert {"model", "diagnostics", "oracle", "cli"} <= trees.keys()
    loads_scipy = sorted(m for m, tree in trees.items() if "scipy" in _import_time_packages(tree))
    assert loads_scipy == []
    # Module level means outside any function, even under `if` or in a class.
    probe = ast.parse(
        "import numpy as np\nif True:\n    from scipy import special\n"
        "class C:\n    import json\n"
        "def f():\n    from scipy.special import ndtr\n    import math\n"
    )
    assert _import_time_packages(probe) == {"numpy", "scipy", "json"}
