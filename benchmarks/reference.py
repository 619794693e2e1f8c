"""Correctness reference for the benchmark, written apart from bernreg.

Nothing here imports the package under test. It reads delimited rows with
the standard csv module and stored fits with json and numpy, encodes
rows from stored design metadata, and computes logit and probit
log-likelihoods, the posterior mode and the covariance there by Newton's
method, a truncated-importance-sampling leave-one-out estimate from
given draws, plug-in predictive means, and Bernstein's bound on how far
a mean of 0/1 draws may stray from them.
The benchmark compares the program's outputs against these numbers.
"""

import csv
import json
import math

import numpy as np
from scipy import special

LINKS = ("logit", "probit")
TARGET = "y"
TARGET_VALUES = {"no": 0.0, "yes": 1.0}


def read_rows(path, delimiter=";"):
    """(column names, list of string rows) of a delimited file with a header."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = [name.strip() for name in next(reader)]
        rows = [row for row in reader if row]
    return header, rows


def read_chain(path):
    """(header dict, draws as a draws-by-parameters array) of a stored fit.

    The file is one JSON header line, then CSV rows of chain, iteration
    and one value per parameter; every chain's draws are stacked in order.
    """
    with open(path, encoding="ascii") as handle:
        header = json.loads(handle.readline())
        columns = handle.readline().strip().split(",")
        values = np.loadtxt(handle, delimiter=",", ndmin=2)
    if columns[2:] != header["param_names"]:
        raise ValueError(f"{path}: columns {columns[2:]} differ from the header's names")
    return header, values[:, 2:]


def encode_rows(metadata, header, rows):
    """Design values of raw rows under stored encoding metadata.

    Categorical levels map to their stored codes, then every column is
    shifted and scaled by its stored (center, scale) pair.
    """
    position = {name: j for j, name in enumerate(header)}
    columns = metadata["column_names"]
    out = np.empty((len(rows), len(columns)))
    for j, name in enumerate(columns):
        codes = metadata["encoding_map"].get(name)
        k = position[name]
        if codes is None:
            raw = [float(row[k]) for row in rows]
        else:
            raw = [codes[row[k].strip()] for row in rows]
        center, scale = metadata["scaling"][name]
        out[:, j] = (np.asarray(raw, dtype=np.float64) - center) / scale
    return out


def targets(header, rows):
    k = header.index(TARGET)
    return np.asarray([TARGET_VALUES[row[k].strip()] for row in rows])


def loglik(link, eta, y):
    """Pointwise log p(y | eta) through the signed margin t = (2y - 1) eta."""
    t = (2.0 * y - 1.0) * eta
    if link == "logit":
        return -np.logaddexp(0.0, -t)
    if link == "probit":
        return special.log_ndtr(t)
    raise ValueError(f"unknown link {link!r}")


def success_probability(link, eta):
    if link == "logit":
        return special.expit(eta)
    if link == "probit":
        return special.ndtr(eta)
    raise ValueError(f"unknown link {link!r}")


def _margin_derivatives(link, t):
    """First and minus second derivative of log F(t) in t."""
    if link == "logit":
        d1 = special.expit(-t)
        return d1, d1 * (1.0 - d1)
    mills = np.exp(-0.5 * t * t - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(t))
    return mills, mills * (t + mills)


def _prior_vectors(prior, n_params):
    means = np.full(n_params, float(prior["slope_mean"]))
    sds = np.full(n_params, float(prior["slope_sd"]))
    means[0] = float(prior["intercept_mean"])
    sds[0] = float(prior["intercept_sd"])
    return means, sds


def log_posterior(link, prior, x, y, beta):
    """Unnormalised log posterior of intercept-plus-slopes coefficients."""
    means, sds = _prior_vectors(prior, len(beta))
    eta = beta[0] + x @ beta[1:]
    z = (beta - means) / sds
    return float(np.sum(loglik(link, eta, y)) - 0.5 * np.dot(z, z))


def posterior_mode(link, prior, x, y, tol=1e-10, max_iter=100):
    """(mode, covariance) of the posterior by damped Newton iterations.

    The covariance is the inverse of the negative Hessian at the mode,
    i.e. the normal (Laplace) approximation to the posterior.
    """
    n, k = x.shape
    design = np.column_stack([np.ones(n), x])
    means, sds = _prior_vectors(prior, k + 1)
    sign = 2.0 * y - 1.0
    beta = means.copy()
    current = log_posterior(link, prior, x, y, beta)
    for _ in range(max_iter):
        t = sign * (design @ beta)
        d1, d2 = _margin_derivatives(link, t)
        grad = design.T @ (sign * d1) - (beta - means) / sds**2
        hess = design.T @ (design * d2[:, None]) + np.diag(1.0 / sds**2)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while True:
            candidate = beta + scale * step
            value = log_posterior(link, prior, x, y, candidate)
            if value >= current or scale < 1e-8:
                break
            scale *= 0.5
        beta, current = candidate, value
        if np.max(np.abs(scale * step)) < tol:
            break
    else:
        raise RuntimeError(f"Newton iterations did not converge for {link}")
    t = sign * (design @ beta)
    _, d2 = _margin_derivatives(link, t)
    hess = design.T @ (design * d2[:, None]) + np.diag(1.0 / sds**2)
    return beta, np.linalg.inv(hess)


def normal_draws(mode, covariance, n_draws, rng):
    """n_draws rows from N(mode, covariance)."""
    factor = np.linalg.cholesky(covariance)
    return mode + rng.standard_normal((n_draws, len(mode))) @ factor.T


def _logsumexp(a, axis=0):
    top = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.sum(np.exp(a - top), axis=axis))


def loo_elpd(link, beta, x, y, block=500):
    """Pointwise LOO elpd by truncated importance sampling (Ionides 2008).

    The leave-one-out weights 1 / p(y_i | beta_s) are capped at
    sqrt(S) times their mean, which bounds the variance without any
    tail fitting. Observations are processed in blocks so memory stays at
    S x block.
    """
    n_draws = beta.shape[0]
    half_log_s = 0.5 * math.log(n_draws)
    out = np.empty(len(y))
    for start in range(0, len(y), block):
        stop = min(start + block, len(y))
        eta = beta[:, :1] + beta[:, 1:] @ x[start:stop].T
        ll = loglik(link, eta, y[start:stop])
        log_w = -ll
        cap = _logsumexp(log_w) - math.log(n_draws) + half_log_s
        log_w = np.minimum(log_w, cap)
        out[start:stop] = _logsumexp(log_w + ll) - _logsumexp(log_w)
    return out


def plugin_probability(link, beta, x, block=2000):
    """(mean, population sd) over draws of each row's success probability."""
    means = np.empty(x.shape[0])
    sds = np.empty(x.shape[0])
    for start in range(0, x.shape[0], block):
        stop = min(start + block, x.shape[0])
        p = success_probability(link, beta[:, :1] + beta[:, 1:] @ x[start:stop].T)
        means[start:stop] = p.mean(axis=0)
        sds[start:stop] = p.std(axis=0)
    return means, sds


def bernstein_allowance(variance, n_terms, false_alarm):
    """How far the mean of n_terms independent [0, 1] terms may stray from
    its expectation: the t at which Bernstein's bound
    2 exp(-n t^2 / (2 (variance + t / 3))) equals false_alarm."""
    log_term = math.log(2.0 / false_alarm)
    linear = 2.0 * log_term / 3.0
    return (linear + np.sqrt(linear**2 + 8.0 * n_terms * log_term * variance)) / (2.0 * n_terms)
