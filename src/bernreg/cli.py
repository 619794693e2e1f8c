"""Batch command-line interface: fit, diagnose, compare, predict, verify.

Every run is reproducible from its config: outputs carry no timestamps
(the run.log sidecar is the one documented exception) and default output
directories are derived from the link and seed. Exit codes: 0 success
(warnings allowed), 2 usage, and otherwise the `exit_code` of the package
error raised (see `errors`).
"""

import argparse
import dataclasses
import datetime
import json
import os
import sys

from . import chainfile, report
from .data import (
    BALANCE_MODES,
    dataset_fingerprint,
    encode,
    encode_new,
    holdout_split,
    parse_dataset,
    parse_new_rows,
    prepare_training_table,
    write_records,
    HOLDOUT_STREAM,
)
from .diagnostics import MIN_DRAWS, summarize
from .errors import BernregError, DataError, MismatchError, NumericalError
from .loo import HIGH_K_THRESHOLD, compare as loo_compare, pointwise_loglik, psis_loo
from .model import LINKS, ModelSpec, PriorSpec, default_priors
from .oracle import run_verification
from .predict import SCALES, posterior_predict
from .rngutil import substream_seed
from .sampler import SamplerConfig, sample

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = DataError.exit_code
EXIT_NUMERICAL = NumericalError.exit_code
EXIT_MISMATCH = MismatchError.exit_code

RHAT_WARNING_LEVEL = 1.01
FORMATS = ("text", "json")


@dataclasses.dataclass
class RunConfig:
    """Everything a fit depends on; only `data` is required.

    These defaults are also the `fit` command's, and the sampler's come
    from SamplerConfig.
    """

    data: str
    delimiter: str = ";"
    subsample: int = 10000
    balance: str = "after"
    holdout: int = 0
    link: str = "logit"
    prior: dict = None
    chains: int = SamplerConfig.n_chains
    warmup: int = SamplerConfig.n_warmup
    draws: int = SamplerConfig.n_draws
    seed: int = SamplerConfig.seed
    target_accept: float = SamplerConfig.target_accept
    standardize: bool = True
    out: str = None

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValueError(f"link must be one of {LINKS}, got {self.link!r}")
        if self.balance not in BALANCE_MODES:
            raise ValueError(f"unknown balance mode {self.balance!r}")
        if self.subsample < 0 or self.holdout < 0:
            raise ValueError("subsample and holdout must be non-negative")
        if self.draws < MIN_DRAWS:
            raise ValueError(
                f"draws must be at least {MIN_DRAWS}, the diagnostics' minimum"
            )
        if self.prior is None:
            self.prior = default_priors(self.link).to_dict()
        if self.out is None:
            self.out = os.path.join("runs", f"{self.link}-seed{self.seed}")

    def sampler_config(self):
        return SamplerConfig(
            n_chains=self.chains,
            n_warmup=self.warmup,
            n_draws=self.draws,
            seed=self.seed,
            target_accept=self.target_accept,
        )


class _RunLog:
    """Timestamped sidecar; the only artifact allowed to differ between reruns."""

    def __init__(self, path):
        self._path = path
        self._entries = []

    def note(self, message):
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self._entries.append(f"{stamp} {message}")

    def flush(self):
        with open(self._path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self._entries) + "\n")


def _emit(render_text, render_json, value, fmt):
    """Print `value` in the selected format; render no other format."""
    sys.stdout.write((render_json if fmt == "json" else render_text)(value))


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _warn_rhat(rows):
    bad_rhat = [r.name for r in rows if r.rhat == r.rhat and r.rhat > RHAT_WARNING_LEVEL]
    if bad_rhat:
        _warn(f"rhat above {RHAT_WARNING_LEVEL} for: " + ", ".join(bad_rhat))


def _training_set(table, pipeline):
    """(design, target, balance_report, holdout_table) per the stored pipeline dict;
    the holdout leaves the parsed table first, so no copy of its rows is trained on."""
    holdout_table = None
    if pipeline["holdout"]:
        table, holdout_table = holdout_split(
            table, pipeline["holdout"], substream_seed(pipeline["seed"], HOLDOUT_STREAM)
        )
    prepared, balance_report = prepare_training_table(
        table, pipeline["subsample"], pipeline["balance"], pipeline["seed"]
    )
    design, target = encode(prepared, standardize=pipeline["standardize"])
    return design, target, balance_report, holdout_table


# RunConfig fields that `fit` takes verbatim from its namespace; the prior
# is assembled from --prior-intercept and --prior-slopes.
_FIT_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "prior")


def _prior_override(args):
    """Prior dict from --prior-intercept/--prior-slopes, None if neither."""
    if not (args.prior_intercept or args.prior_slopes):
        return None
    prior = default_priors(args.link).to_dict()
    if args.prior_intercept:
        prior["intercept_mean"], prior["intercept_sd"] = args.prior_intercept
    if args.prior_slopes:
        prior["slope_mean"], prior["slope_sd"] = args.prior_slopes
    return prior


def cmd_fit(args):
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, got {args.threads}")
    config = RunConfig(
        prior=_prior_override(args),
        **{name: getattr(args, name) for name in _FIT_FIELDS},
    )
    # Everything that can reject the run happens before the first write.
    sampler_config = config.sampler_config()
    prior = PriorSpec.from_dict(config.prior)
    log = _RunLog(os.path.join(config.out, "run.log"))
    log.note(f"fit started: link={config.link} seed={config.seed}")
    table = parse_dataset(config.data, config.delimiter)
    log.note(f"parsed {table.n_rows} rows")
    pipeline = {key: getattr(config, key) for key in chainfile.PIPELINE_KEYS}
    design, target, balance_report, holdout_table = _training_set(table, pipeline)
    log.note(f"training rows: {design.n_rows}")
    model = ModelSpec(link=config.link, prior=prior, design=design, target=target)

    os.makedirs(config.out, exist_ok=True)
    with open(os.path.join(config.out, "config.json"), "w", encoding="utf-8") as h:
        h.write(report.render_json(config))

    draws = sample(model, sampler_config, threads=args.threads)
    log.note("sampling finished")

    model_info = {"link": config.link, "prior": prior.to_dict(), "design": design.metadata()}
    dataset_info = {
        "fingerprint": dataset_fingerprint(design, target),
        "n_rows": int(design.n_rows),
        "pipeline": pipeline,
        "balance": balance_report.to_dict() if balance_report else None,
    }
    chain_path = os.path.join(config.out, f"{config.link}.chain")
    chainfile.save_chain_file(chain_path, draws, model_info, dataset_info)

    with open(os.path.join(config.out, "encoding.json"), "w", encoding="utf-8") as h:
        h.write(report.render_json(design.metadata()))
    if balance_report is not None:
        with open(os.path.join(config.out, "balance.json"), "w", encoding="utf-8") as h:
            h.write(report.render_json(balance_report))
    if holdout_table is not None:
        write_records(
            holdout_table, os.path.join(config.out, "holdout.csv"), config.delimiter
        )

    rows = summarize(draws)
    text_body = report.render_summary_text(rows)
    json_body = report.render_summary_json(rows)
    # Both summaries are written whatever --format prints.
    for name, body in (("summary.txt", text_body), ("summary.json", json_body)):
        with open(os.path.join(config.out, name), "w", encoding="utf-8") as h:
            h.write(body)
    sys.stdout.write(json_body if args.format == "json" else text_body)

    total_divergences = sum(draws.divergence_counts)
    if total_divergences:
        _warn(f"{total_divergences} divergent transitions after warmup")
    _warn_rhat(rows)
    log.note(f"fit finished: {total_divergences} divergences")
    log.flush()
    return EXIT_OK


def cmd_diagnose(args):
    draws, _ = chainfile.load_chain_file(args.chain)
    rows = summarize(draws)
    _emit(report.render_summary_text, report.render_summary_json, rows, args.format)
    _warn_rhat(rows)
    return EXIT_OK


def _rebuild_model(path, header, table, training_sets):
    """Recreate the model the header of chain file `path` describes, checked against it.

    `training_sets` holds the (design, target) of each pipeline built so
    far, keyed by its sorted JSON, so fits of one pipeline share one build.
    Each header's stored design and fingerprint are checked against the rebuild.
    """
    pipeline = header["dataset"]["pipeline"]
    key = json.dumps(pipeline, sort_keys=True)
    if key not in training_sets:
        training_sets[key] = _training_set(table, pipeline)[:2]
    design, target = training_sets[key]
    stored = header["model"]
    if design.metadata() != stored["design"]:
        raise MismatchError(
            f"{path}: rebuilt design does not match the design stored in the chain "
            "file; the data file, or the pipeline that fit stored, no longer "
            "rebuilds its training set"
        )
    model = ModelSpec(stored["link"], PriorSpec.from_dict(stored["prior"]), design, target)
    fingerprint = dataset_fingerprint(design, target)
    if fingerprint != header["dataset"]["fingerprint"]:
        raise MismatchError(
            f"{path}: rebuilt dataset fingerprint {fingerprint} differs from stored "
            f"{header['dataset']['fingerprint']}"
        )
    return model


def cmd_compare(args):
    if len(args.chains) < 2:
        raise ValueError("compare needs at least two chain files")
    fits = [chainfile.load_chain_file(path) for path in args.chains]
    delimiters = [header["dataset"]["pipeline"]["delimiter"] for _, header in fits]
    fingerprints = [header["dataset"]["fingerprint"] for _, header in fits]
    # Headers that disagree are refused before the data file is read.
    for what, stored in (("delimiters", delimiters),
                         ("dataset fingerprints (fits of different data)", fingerprints)):
        if len(set(stored)) > 1:
            raise MismatchError(f"chain files store different {what}: " + ", ".join(
                f"{path} {value!r}" for path, value in zip(args.chains, stored)))
    table = parse_dataset(args.data, delimiters[0])
    training_sets = {}
    # Every file is checked before any LOO, and the parsed table is freed,
    # so a D x S matrix is the one large thing held while LOO runs.
    fits = [(draws, _rebuild_model(path, header, table, training_sets))
            for path, (draws, header) in zip(args.chains, fits)]
    del table
    results = {}
    total_high_k = 0
    for draws, model in fits:
        # No name holds the distinct rows x draws matrix: it is freed before the next.
        loo_result = psis_loo(pointwise_loglik(draws, model))
        total_high_k += loo_result.n_high_k
        base = f"{model.link}_model"
        name = base
        counter = 2
        while name in results:
            name = f"{base}_{counter}"
            counter += 1
        results[name] = loo_result
    comparison = loo_compare(results)
    _emit(
        report.render_comparison_text,
        report.render_comparison_json,
        comparison,
        args.format,
    )
    if total_high_k:
        _warn(f"{total_high_k} observations with Pareto k above {HIGH_K_THRESHOLD}")
    return EXIT_OK


def cmd_predict(args):
    draws, header = chainfile.load_chain_file(args.chain)
    metadata = header["model"]["design"]
    if args.delimiter is None:
        args.delimiter = header["dataset"]["pipeline"]["delimiter"]
    table = parse_new_rows(args.data, args.delimiter, metadata)
    rows = posterior_predict(
        draws,
        encode_new(metadata, table),
        header["model"]["link"],
        scale=args.scale,
        seed=args.seed,
    )
    _emit(
        report.render_predictions_text, report.render_predictions_json, rows, args.format
    )
    return EXIT_OK


def cmd_verify(args):
    checks = run_verification(seed=args.seed)
    _emit(report.render_checks_text, report.render_checks_json, checks, args.format)
    if all(c.passed for c in checks):
        return EXIT_OK
    return EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bernreg",
        description=(
            "Bayesian binary-response regression: gradient-based posterior "
            "sampling, convergence diagnostics, leave-one-out model "
            "comparison, and posterior prediction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write a run directory")
    fit.add_argument("--data", required=True, help="delimited input file")
    fit.add_argument("--delimiter")
    fit.add_argument("--subsample", type=int,
                     help="rows to draw before fitting; 0 keeps the whole table")
    fit.add_argument("--balance", choices=BALANCE_MODES)
    fit.add_argument("--holdout", type=int,
                     help="rows held out of training and written to holdout.csv")
    fit.add_argument("--link", choices=LINKS)
    fit.add_argument("--prior-intercept", nargs=2, type=float, metavar=("MEAN", "SD"))
    fit.add_argument("--prior-slopes", nargs=2, type=float, metavar=("MEAN", "SD"))
    fit.add_argument("--chains", type=int)
    fit.add_argument("--warmup", type=int)
    fit.add_argument("--draws", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--target-accept", type=float)
    fit.add_argument("--no-standardize", dest="standardize", action="store_false")
    fit.add_argument("--threads", type=int, default=1,
                     help="chain scheduling only; never changes results")
    fit.add_argument("--format", choices=FORMATS, default="text",
                     help="summary printed; summary.txt and summary.json are both written")
    fit.add_argument("--out", help="output directory (default runs/<link>-seed<seed>)")
    fit.set_defaults(
        func=cmd_fit,
        **{name: getattr(RunConfig, name) for name in _FIT_FIELDS if name != "data"},
    )

    diag = sub.add_parser("diagnose", help="summaries and diagnostics of a saved fit")
    diag.add_argument("chain", help="chain file from a fit")
    diag.add_argument("--format", choices=FORMATS, default="text")
    diag.set_defaults(func=cmd_diagnose)

    comp = sub.add_parser("compare", help="rank saved fits by held-out fit quality")
    comp.add_argument("chains", nargs="+", help="two or more chain files")
    comp.add_argument("--data", required=True,
                      help="the training data file, read with the fits' delimiter")
    comp.add_argument("--format", choices=FORMATS, default="text")
    comp.set_defaults(func=cmd_compare)

    pred = sub.add_parser("predict", help="score new rows with a saved fit")
    pred.add_argument("chain", help="chain file from a fit")
    pred.add_argument("--data", required=True, help="delimited rows to score")
    pred.add_argument("--delimiter", help="default: the delimiter the fit recorded")
    pred.add_argument("--scale", choices=SCALES, default="outcome")
    pred.add_argument("--seed", type=int, default=0)
    pred.add_argument("--format", choices=FORMATS, default="text")
    pred.set_defaults(func=cmd_predict)

    ver = sub.add_parser("verify", help="run the numerical cross-check suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", choices=FORMATS, default="text")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot read or write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_DATA
    except BernregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
