"""On-disk fit format: one JSON header line, then draw rows as CSV.

The header carries everything needed to diagnose, compare, and predict
without refitting: parameter names, sampler config, per-chain adaptation
facts, the model's link and prior, the design encoding metadata, and the
dataset fingerprint plus pipeline settings. Floats are written with
repr (shortest round-trip), so loading reproduces the draws bit-for-bit
and rewriting produces identical bytes. Any damage reads back as
CorruptChainFile (exit 3) with the byte offset where parsing stopped. That
includes each header value a command reads that is missing or of another
JSON type than `fit` writes, and one message names every such key. A
well-typed value that its command rejects keeps that command's code: an
unknown link or balance mode, a multi-character delimiter or a
non-positive scale exits 2.
"""

import dataclasses
import json
import math

import numpy as np

from .errors import CorruptChainFile
from .model import PriorSpec
from .sampler import PosteriorDraws, SamplerConfig

FORMAT_TAG = "bernreg-chain/2"

# The run settings under dataset.pipeline that rebuild the training set,
# each with the type `fit` stores it as (RunConfig's field type).
PIPELINE_KEYS = {"delimiter": str, "subsample": int, "balance": str, "holdout": int,
                 "seed": int, "standardize": bool}

# Every header key, dotted for nesting, that loading or a command reads,
# with the exact JSON-read type `fit` writes it as (a bool is not an int);
# (list, kind) is a list whose every entry is a `kind`.
_HEADER_TYPES = {
    "param_names": (list, str), "config": dict, "step_sizes": (list, float),
    "divergence_iterations": (list, (list, int)), "accept_rates": (list, float),
    "model": dict, "dataset": dict, "model.link": str, "model.prior": dict,
    "model.design": dict, "model.design.column_names": list,
    "model.design.encoding_map": dict, "model.design.scaling": dict,
    "dataset.fingerprint": str, "dataset.pipeline": dict,
    **{f"config.{f.name}": f.type for f in dataclasses.fields(SamplerConfig)},
    **{f"model.prior.{f.name}": f.type for f in dataclasses.fields(PriorSpec)},
    **{f"dataset.pipeline.{key}": kind for key, kind in PIPELINE_KEYS.items()},
}


def _lookup(header, dotted):
    """The value at a dotted key, or None where any part is missing."""
    node = header
    for part in dotted.split("."):
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def _is(value, kind):
    """Whether `value` is exactly of `kind`, an entry of _HEADER_TYPES."""
    if isinstance(kind, tuple):
        return type(value) is list and all(_is(v, kind[1]) for v in value)
    return type(value) is kind


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

    bad = [k for k, kind in _HEADER_TYPES.items() if not _is(_lookup(header, k), kind)]
    if bad:
        fail("header keys missing or of another type: " + ", ".join(bad))
    try:
        config = SamplerConfig(
            **{f.name: header["config"][f.name] for f in dataclasses.fields(SamplerConfig)}
        )
    except ValueError as exc:
        fail(f"bad sampler config in header: {exc}")
    for key in ("step_sizes", "divergence_iterations", "accept_rates"):
        if len(header[key]) != config.n_chains:
            fail(f"header key {key} has {len(header[key])} entries "
                 f"for {config.n_chains} chains")

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
        step_sizes=tuple(header["step_sizes"]),
        divergence_iterations=tuple(map(tuple, header["divergence_iterations"])),
        accept_rates=tuple(header["accept_rates"]),
    )
    return restored, header
