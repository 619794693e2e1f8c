"""The paper-scale reference run, recorded as BENCH_paper.json.

    python tools/paper_bench.py [--out BENCH_paper.json] [--work DIR]

Writes the 41,188-row surrogate (`tests/bankgen.py`, the benchmark's
seed) and runs the paper's pipeline on it with this checkout's `src/`,
each command as `python -m bernreg.cli` in its own process with one
BLAS thread:

- `fit` of each link at the defaults (10,000-row balanced subsample,
  4 chains of 1,000 warmup + 1,000 draws) with `--seed 42`;
- `compare` of the two fits;
- `predict` of every row with the logit fit, at both scales;
- `verify`;
- `fit` of each link again with `--threads 2`, whose chain file must
  equal the serial fit's byte for byte. It is recorded apart from the
  pipeline.

The run starts from an empty parsed-table cache, `cache/` under the work
directory, which every command and this process use: the user's cache is
never read. A command whose parse finds no entry is cold and adds one.
The first `fit` is cold; every later command, `predict` of the same
file included, finds the entry that fit added. The record gives the first fit's wall
seconds (`cold_s`) apart from the later commands' (`warm_s`), and the
entries each command added.

Each command is launched from a small helper process, so the peak RSS
that `wait4` reports is the command's own: a child starts from its
parent's RSS high-water mark. A `--threads 2` fit's peak is that of its
largest process, not the sum over its processes. Then each link is
fitted again in this process through a gradient-counting target, for
gradients per iteration (the Laplace fit's included) and for the
minimum bulk and tail ESS per second of sampling. Its draws must equal
the `fit` command's.

The record holds wall seconds and peak RSS per command, those sampler
figures, and the machine: CPUs, Python, numpy, scipy and numpy's BLAS.
It takes a few minutes; it is not part of the test suite.
"""

import argparse
import filecmp
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks"),
                os.path.join(ROOT, "tests")]

import run  # noqa: E402  (sets one BLAS thread before numpy loads)
from tracing import CountingTarget  # noqa: E402

import bankgen  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from bernreg import chainfile  # noqa: E402
from bernreg.cli import RunConfig  # noqa: E402
from bernreg.data import encode, parse_dataset, prepare_training_table  # noqa: E402
from bernreg.diagnostics import summarize  # noqa: E402
from bernreg.model import LINKS, ModelSpec, default_priors, log_posterior_and_gradient  # noqa: E402
from bernreg.sampler import SamplerConfig, sample  # noqa: E402

SEED = 42
PREDICT_LINK = "logit"

# Run in a fresh interpreter that imports only os, json, sys and time: it
# forks the command and reports (wall seconds, peak RSS in MB, exit code).
_LAUNCHER = r"""
import json, os, sys, time
argv, cwd, stdout, stderr = json.loads(sys.argv[1])
out = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
err = os.open(stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.chdir(cwd)
        os.dup2(out, 1)
        os.dup2(err, 2)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps([wall, usage.ru_maxrss * 1024 / 1e6, os.waitstatus_to_exitcode(status)]))
"""


def fit_args(link, out):
    return ["fit", "--data", "bank.csv", "--link", link, "--seed", str(SEED), "--out", out]


def commands():
    """(name, bernreg arguments) in the order they run, in the work directory."""
    out = [(f"fit-{link}", fit_args(link, link)) for link in LINKS]
    chains = [f"{link}/{link}.chain" for link in LINKS]
    out.append(("compare", ["compare", "--data", "bank.csv", *chains]))
    for scale in ("outcome", "probability"):
        out.append((f"predict-{scale}", ["predict", f"{PREDICT_LINK}/{PREDICT_LINK}.chain",
                                         "--data", "bank.csv", "--scale", scale,
                                         "--format", "json"]))
    out.append(("verify", ["verify"]))
    return out


def cache_entries(work):
    """Entries in the run's parsed-table cache."""
    cache = os.path.join(work, "cache", "bernreg")
    return len(os.listdir(cache)) if os.path.isdir(cache) else 0


def timed_command(name, cli_args, work):
    """{wall_s, peak_rss_mb, new_cache_entries} of one command; raises if it exits non-zero."""
    stem = os.path.join(work, "cmd", name)
    spec = [[sys.executable, "-m", "bernreg.cli", *cli_args], work, stem + ".out", stem + ".err"]
    entries = cache_entries(work)
    done = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, json.dumps(spec)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, check=True)
    wall, rss, code = json.loads(done.stdout)
    if code != 0:
        raise RuntimeError(f"{name} exited {code}; see {stem}.err")
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1),
            "new_cache_entries": cache_entries(work) - entries}


def show(label, timing):
    """Print one command's timing line; return the timing."""
    print(f"{label:<22}{timing['wall_s']:>9.2f} s{timing['peak_rss_mb']:>9.1f} MB", flush=True)
    return timing


def counted_fit(link, csv_path, chain_path):
    """Gradients per iteration and min ESS per second of an in-process fit."""
    defaults = RunConfig(data=csv_path, link=link, seed=SEED)
    table = parse_dataset(csv_path, defaults.delimiter)
    train, _ = prepare_training_table(table, defaults.subsample, defaults.balance, SEED)
    design, target = encode(train, standardize=defaults.standardize)
    model = ModelSpec(link, default_priors(link), design, target)
    config = SamplerConfig(seed=SEED)
    counted = CountingTarget(model, log_posterior_and_gradient)
    start = time.perf_counter()
    draws = sample(counted, config)
    seconds = time.perf_counter() - start
    if not np.array_equal(draws.draws, chainfile.load_chain_file(chain_path)[0].draws):
        raise RuntimeError(f"the in-process {link} fit's draws differ from the fit command's")
    rows = summarize(draws)
    iterations = config.n_chains * (config.n_warmup + config.n_draws)
    return {
        "sample_s": round(seconds, 3),
        "grad_calls": counted.calls,
        "grads_per_iter": round(counted.calls / iterations, 3),
        "grad_share": round(counted.seconds / seconds, 3),
        "min_ess_bulk_per_s": round(min(r.ess_bulk for r in rows) / seconds, 1),
        "min_ess_tail_per_s": round(min(r.ess_tail for r in rows) / seconds, 1),
    }


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(run.BLAS_THREADS),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_paper.json"),
                        help="record to write (default: BENCH_paper.json at the repo root)")
    parser.add_argument("--work", help="directory for the runs (default: a temporary one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        work = os.path.abspath(args.work or scratch)
        os.makedirs(os.path.join(work, "cmd"), exist_ok=True)
        shutil.rmtree(os.path.join(work, "cache"), ignore_errors=True)
        os.environ["XDG_CACHE_HOME"] = os.path.join(work, "cache")
        csv_path = bankgen.write_bank_csv(os.path.join(work, "bank.csv"),
                                          run.SURROGATE_ROWS, run.SURROGATE_SEED)
        timings, threaded = {}, {}
        for name, cli_args in commands():
            timings[name] = show(name, timed_command(name, cli_args, work))
        for link in LINKS:
            name, out = f"fit-{link}", f"{link}-threads2"
            cli_args = fit_args(link, out) + ["--threads", "2"]
            threaded[name] = show(f"{name} --threads 2", timed_command(out, cli_args, work))
            chains = [os.path.join(work, d, f"{link}.chain") for d in (link, out)]
            if not filecmp.cmp(*chains, shallow=False):
                raise RuntimeError(f"{out}/{link}.chain differs from the serial fit's")
        sampler = {}
        for link in LINKS:
            sampler[link] = counted_fit(link, csv_path, os.path.join(work, link, f"{link}.chain"))
            print(f"{link:<8}{json.dumps(sampler[link])}", flush=True)

    cold, *warm = timings.values()
    record = {
        "workload": {"surrogate_rows": run.SURROGATE_ROWS, "surrogate_seed": run.SURROGATE_SEED,
                     "seed": SEED, "predict_link": PREDICT_LINK},
        "machine": machine(),
        "commands": timings,
        "pipeline_s": round(sum(t["wall_s"] for t in timings.values()), 3),
        "cold_s": cold["wall_s"],
        "warm_s": round(sum(t["wall_s"] for t in warm), 3),
        "threads2": threaded,
        "sampler": sampler,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
