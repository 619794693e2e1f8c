"""On-disk fit format: one JSON header line, then draw rows as CSV.

The header carries everything needed to diagnose, compare, and predict
without refitting: parameter names, sampler config, per-chain adaptation
facts, the model's link and prior, the design encoding metadata, and the
dataset fingerprint plus pipeline settings. Floats are written with
repr (shortest round-trip), so loading reproduces the draws bit-for-bit
and rewriting produces identical bytes. Any damage reads back as
CorruptChainFile (exit 3) with the byte offset where parsing stopped; the
draws are built from the rows read, so no header value sizes an allocation.
HEADER_SCHEMA, in the header's shape, lists each value that loading or a
command reads, down to the design's column names, level codes and (center,
scale) pairs. One that is missing or of another JSON type than `fit`
writes is damage, and one message names each by its dotted path, as
model.design.encoding_map.job.<level>. A well-typed value that its command
rejects keeps that command's code: an unknown link or balance mode, a
multi-character delimiter, a non-finite center or scale or a non-positive
scale exits 2.
"""

import dataclasses
import json
import math
from array import array

import numpy as np

from .data import DesignMatrix
from .errors import CorruptChainFile
from .model import PriorSpec
from .sampler import PosteriorDraws, SamplerConfig

FORMAT_TAG = "bernreg-chain/2"

# The run settings under dataset.pipeline that rebuild the training set,
# each with the type `fit` stores it as (RunConfig's field type).
PIPELINE_KEYS = {"delimiter": str, "subsample": int, "balance": str, "holdout": int,
                 "seed": int, "standardize": bool}

# {name: kind} is an object with those keys, {str: kind} a map whose every
# value is a `kind`, [kind] a list, (float, float) a list of exactly two, a
# function gives the kind of the value passed to it, and a type is the exact
# JSON-read type `fit` writes (a bool is not an int).
HEADER_SCHEMA = {
    "param_names": [str], "step_sizes": [float], "divergence_iterations": [[int]],
    "accept_rates": [float], "config": {f.name: f.type for f in dataclasses.fields(SamplerConfig)},
    "model": {"link": str, "prior": {f.name: f.type for f in dataclasses.fields(PriorSpec)},
              "design": DesignMatrix.metadata_schema},
    "dataset": {"fingerprint": str, "pipeline": PIPELINE_KEYS},
}


def schema_errors(value, kind, path=""):
    """Dotted paths of the values `kind` lists that `value` lacks or mistypes."""
    if not isinstance(kind, (dict, list, tuple, type)):
        kind = kind(value)
    if isinstance(kind, dict) and type(value) is dict:
        return [bad for key in (value if str in kind else kind)
                for bad in schema_errors(value.get(key), kind.get(str, kind.get(key)),
                                         f"{path}.{key}" if path else key)]
    if isinstance(kind, (list, tuple)) and type(value) is list:  # a bad entry names the list
        kinds = kind * len(value) if isinstance(kind, list) else kind
        if len(value) == len(kinds) and not any(map(schema_errors, value, kinds)):
            return []
    return [] if type(value) is kind else [path]


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

    bad = schema_errors(header, HEADER_SCHEMA)
    if bad:
        fail("header keys missing or of another type: " + ", ".join(bad))
    try:
        config = SamplerConfig(**{key: header["config"][key] for key in HEADER_SCHEMA["config"]})
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

    # The draws grow with the rows read, so no header value sizes an allocation.
    flat = array("d")
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
        flat.extend(values)
        row_count += 1
        offset += len(line) + 1
    if row_count != n_chains * n_draws:
        fail(f"expected {n_chains * n_draws} draw rows, found {row_count}")

    restored = PosteriorDraws(
        draws=np.frombuffer(flat).reshape(n_chains, n_draws, len(param_names)),
        param_names=param_names,
        config=config,
        step_sizes=tuple(header["step_sizes"]),
        divergence_iterations=tuple(map(tuple, header["divergence_iterations"])),
        accept_rates=tuple(header["accept_rates"]),
    )
    return restored, header
