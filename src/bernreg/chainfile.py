"""On-disk fit format: one JSON header line, then draw rows as CSV.

The header carries everything needed to diagnose, compare, and predict
without refitting: parameter names, sampler config, per-chain adaptation
facts, the model's link and prior, the design encoding metadata, and the
dataset fingerprint plus pipeline settings. Floats are written with
repr (shortest round-trip), so loading reproduces the draws bit-for-bit
and rewriting produces identical bytes. Any structural damage reads back
as CorruptChainFile with the byte offset where parsing stopped.
"""

import json
import math

import numpy as np

from .errors import CorruptChainFile
from .sampler import PosteriorDraws, SamplerConfig

FORMAT_TAG = "bernreg-chain/2"

# The run settings under dataset.pipeline that rebuild the training set.
PIPELINE_KEYS = ("delimiter", "subsample", "balance", "holdout", "seed", "standardize")

# Header keys, dotted for nesting, that loading and the commands read.
_REQUIRED_KEYS = (
    "param_names", "config", "step_sizes", "divergence_iterations",
    "accept_rates", "model", "dataset",
    "model.link", "model.prior", "model.design",
    "model.design.column_names", "model.design.encoding_map", "model.design.scaling",
    "dataset.fingerprint", "dataset.pipeline",
) + tuple(f"dataset.pipeline.{key}" for key in PIPELINE_KEYS)


def _has_key(header, dotted):
    node = header
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def save_chain_file(path, draws, model_info, dataset_info):
    """Write a fit; model_info and dataset_info are JSON-ready dicts."""
    header = {
        "format": FORMAT_TAG,
        "param_names": list(draws.param_names),
        "config": vars(draws.config),
        "step_sizes": [float(s) for s in draws.step_sizes],
        "divergence_iterations": [list(map(int, d)) for d in draws.divergence_iterations],
        "accept_rates": [float(a) for a in draws.accept_rates],
        "model": model_info,
        "dataset": dataset_info,
    }
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
        handle.write("chain,iteration," + ",".join(draws.param_names))
        handle.write("\n")
        for c in range(draws.n_chains):
            for t in range(draws.n_draws):
                values = ",".join(repr(float(v)) for v in draws.draws[c, t])
                handle.write(f"{c},{t},{values}\n")


def load_chain_file(path):
    """(PosteriorDraws, header dict); corruption reports a byte offset."""
    with open(path, "rb") as handle:
        blob = handle.read()

    offset = 0
    lines = blob.split(b"\n")

    def fail(message):
        raise CorruptChainFile(message, offset=offset)

    if not lines or not lines[0]:
        fail("missing header line")
    try:
        header = json.loads(lines[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        fail(f"unreadable header: {exc}")
    if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
        fail(f"not a {FORMAT_TAG} file")

    missing = [k for k in _REQUIRED_KEYS if not _has_key(header, k)]
    if missing:
        fail("header missing keys: " + ", ".join(missing))
    try:
        config = SamplerConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        fail(f"bad sampler config in header: {exc}")

    param_names = tuple(header["param_names"])
    n_chains, n_draws = config.n_chains, config.n_draws
    offset = len(lines[0]) + 1

    if len(lines) < 2 or not lines[1]:
        fail("missing column header line")
    expected_columns = "chain,iteration," + ",".join(param_names)
    if lines[1].decode("utf-8", errors="replace") != expected_columns:
        fail("column header does not match the parameter names")
    offset += len(lines[1]) + 1

    draws = np.empty((n_chains, n_draws, len(param_names)))
    row_count = 0
    for line in lines[2:]:
        if not line:
            offset += 1
            continue
        if row_count >= n_chains * n_draws:
            fail(f"more draw rows than the configured {n_chains * n_draws}")
        fields = line.decode("utf-8", errors="replace").split(",")
        if len(fields) != 2 + len(param_names):
            fail(
                f"row {row_count}: expected {2 + len(param_names)} fields, "
                f"got {len(fields)}"
            )
        try:
            chain = int(fields[0])
            iteration = int(fields[1])
            values = [float(v) for v in fields[2:]]
        except ValueError as exc:
            fail(f"row {row_count}: {exc}")
        expected_chain, expected_iter = divmod(row_count, n_draws)
        if chain != expected_chain or iteration != expected_iter:
            fail(
                f"row {row_count}: expected chain {expected_chain} iteration "
                f"{expected_iter}, found chain {chain} iteration {iteration}"
            )
        if not all(math.isfinite(v) for v in values):
            fail(f"row {row_count}: non-finite draw value")
        draws[chain, iteration] = values
        row_count += 1
        offset += len(line) + 1
    if row_count != n_chains * n_draws:
        fail(f"expected {n_chains * n_draws} draw rows, found {row_count}")

    restored = PosteriorDraws(
        draws=draws,
        param_names=param_names,
        config=config,
        step_sizes=tuple(float(s) for s in header["step_sizes"]),
        divergence_iterations=tuple(
            tuple(int(i) for i in d) for d in header["divergence_iterations"]
        ),
        accept_rates=tuple(float(a) for a in header["accept_rates"]),
    )
    return restored, header
