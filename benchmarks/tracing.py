"""In-memory spans around bernreg's public calls, and a traced command runner.

Run as a script, this file executes one bernreg command the way
`python -m bernreg.cli` does, after wrapping the public functions the
command layer calls in spans. The spans stay in memory and are written
as JSON when the command ends:

    PYTHONPATH=src python benchmarks/tracing.py SPANS.json fit --data ...

Spans are taken only from this file; bernreg itself is not modified.
"""

import contextlib
import functools
import json
import sys
import time


class Tracer:
    """Nested spans: name, start, end, parent index and attributes."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "attrs": {},
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans):
    """[(name, self seconds, attrs)]: duration minus time covered by children."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    return [
        (record["name"], record["end"] - record["start"] - covered[i], record["attrs"])
        for i, record in enumerate(spans)
    ]


class CountingTarget:
    """A model in the sampler's documented (dim, param_names, logp_grad) form,
    counting gradient calls and the time spent inside them."""

    def __init__(self, model, logp_grad):
        self._model = model
        self._logp_grad = logp_grad
        self.dim = model.n_params
        self.param_names = model.param_names
        self.calls = 0
        self.seconds = 0.0

    def logp_grad(self, beta):
        start = time.perf_counter()
        result = self._logp_grad(beta, self._model)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return result


def traced_sample(tracer, sample, logp_grad):
    """sampler.sample through a CountingTarget, recording counts on its span."""

    @functools.wraps(sample)
    def traced(model, config, *, threads=1):
        target = CountingTarget(model, logp_grad)
        with tracer.span("sampler.sample") as record:
            draws = sample(target, config, threads=threads)
        record["attrs"] = {
            "link": model.link,
            "grad_calls": target.calls,
            "grad_s": target.seconds,
            "iterations": config.n_chains * (config.n_warmup + config.n_draws),
        }
        return draws

    return traced


def instrument(tracer):
    """Wrap the public calls bernreg's command layer makes; returns cli."""
    from bernreg import chainfile, cli
    from bernreg.model import log_posterior_and_gradient

    for attr, name in (
        ("parse_dataset", "data.parse"),
        ("prepare_training_table", "data.prepare"),
        ("encode", "data.encode"),
        ("parse_new_rows", "data.parse_new_rows"),
        ("encode_new", "data.encode_new"),
        ("summarize", "diagnostics.summarize"),
        ("psis_loo", "loo.psis_loo"),
    ):
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    chainfile.save_chain_file = tracer.wrap("chainfile.save", chainfile.save_chain_file)
    chainfile.load_chain_file = tracer.wrap("chainfile.load", chainfile.load_chain_file)
    cli.sample = traced_sample(tracer, cli.sample, log_posterior_and_gradient)

    pointwise_loglik = cli.pointwise_loglik

    def traced_pointwise_loglik(draws, model):
        with tracer.span("loo.pointwise_loglik") as record:
            result = pointwise_loglik(draws, model)
        record["attrs"] = {"bytes": int(result.values.nbytes)}
        return result

    cli.pointwise_loglik = traced_pointwise_loglik

    posterior_predict = cli.posterior_predict

    def traced_posterior_predict(draws, new_rows, link, **kwargs):
        with tracer.span("predict.posterior_predict") as record:
            rows = posterior_predict(draws, new_rows, link, **kwargs)
        record["attrs"] = {"scale": kwargs.get("scale", "outcome"), "rows": len(rows)}
        return rows

    cli.posterior_predict = traced_posterior_predict
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    code = 1
    try:
        code = instrument(tracer).main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"exit": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
