import os

import numpy as np
import pytest

from bernreg.model import linear_predictor, log_cdf_and_ratio
from bernreg.sampler import PosteriorDraws, SamplerConfig

import bankgen

# One line per acceptance check, echoed after the run so the scorecard is
# visible without -s or -rA.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bank_csv(tmp_path_factory):
    """Full-scale marketing table: real file if configured, else surrogate."""
    return bankgen.bank_csv_path(str(tmp_path_factory.mktemp("bankdata")))


@pytest.fixture(scope="session")
def small_bank_csv(tmp_path_factory):
    """600-row surrogate for fast end-to-end runs."""
    directory = tmp_path_factory.mktemp("bankdata-small")
    return bankgen.write_bank_csv(
        os.path.join(str(directory), "bank-small.csv"), n_rows=600, seed=7
    )


def make_draws(array, param_names=None, seed=0):
    """Wrap a (chains, draws, params) array as PosteriorDraws for tests."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 2:
        array = array[:, :, None]
    n_chains, n_draws, n_params = array.shape
    if param_names is None:
        param_names = tuple(f"p{j}" for j in range(n_params))
    config = SamplerConfig(
        n_chains=n_chains, n_warmup=0, n_draws=n_draws, seed=seed
    )
    return PosteriorDraws(
        draws=array,
        param_names=tuple(param_names),
        config=config,
        step_sizes=(0.5,) * n_chains,
        divergence_iterations=((),) * n_chains,
        accept_rates=(0.9,) * n_chains,
    )


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def total_loglik(beta, model):
    """Summed pointwise log-likelihood of a model at one coefficient vector."""
    margin = (2.0 * model.target - 1.0) * linear_predictor(beta, model.design.values)
    return float(np.sum(log_cdf_and_ratio(model.link, margin)[0]))
