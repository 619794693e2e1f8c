"""bernreg benchmark: runs one workload and prints its metrics as JSON.

    python3 benchmarks/run.py --workload fit-balanced --seed 42 --seconds 10 --trace 0

Every command runs as a user runs it, `python -m bernreg.cli ...`, one
at a time and each in its own process. With --trace 1 the same commands
run through benchmarks/tracing.py, which records spans around bernreg's
public calls, and the per-layer metrics are printed instead of the
end-to-end ones. Outputs are checked against benchmarks/reference.py,
which shares no code with bernreg. The last line of stdout is one JSON
object: correct, attempted, failed and metrics. See benchmarks/README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# One BLAS thread, here and in every command, before numpy loads OpenBLAS.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import CountingTarget, self_times  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BANKGEN = os.path.join(ROOT, "tests", "bankgen.py")
OUT = os.path.join(BENCH_DIR, "out")

# Inputs: the 41,188-row surrogate table at its own fixed seed.
SURROGATE_ROWS = 41188
SURROGATE_SEED = 20260815
SUBSAMPLE = 10000
BALANCE = "after"
DELIMITER = ";"

# Run shape.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0

# Every workload runs the whole pipeline once per round: `fit` of each
# link (the links in "rerun" twice, to check byte-identical chain files),
# then `compare` of a logit and a probit fit, then `predict` of every
# table row with the logit fit at both scales. fit-balanced scores its
# own fits; score-balanced scores stored fits of SCORE_CHAINS x
# SCORE_DRAWS_PER_CHAIN normal-approximation draws made in set-up. Fits
# always use FIT_SEED: at these chain lengths the NUTS work per fit moves
# by 20-30% from one seed to the next, far more than any bound could
# allow. The workload seed drives predict's seed everywhere and, in
# score-balanced, the training subsample and the stored draws.
FIT_SEED = 42
WORKLOADS = {
    "fit-balanced": {"chains": 2, "warmup": 150, "draws": 100, "rerun": ("logit",),
                     "stored_fits": False},
    "score-balanced": {"chains": 1, "warmup": 150, "draws": 100, "rerun": (),
                       "stored_fits": True},
}
SCORE_CHAINS = 2
SCORE_DRAWS_PER_CHAIN = 1000

# Checks. Tolerances come from the spread seen over several seeds; the
# README gives the observed values next to them.
FIT_MEAN_TOL_SD = 0.5
FIT_SD_TOL_REL = 0.35
RHAT_LIMIT = 1.2
SIGN_ANCHORS = {
    "age": 1, "marital": 1, "education": 1, "duration": 1,
    "default": -1, "contact": -1, "month": -1, "nr.employed": -1,
}
MIN_SIGN_ANCHORS = 7
# The gap between PSIS-LOO and the truncated-IS reference shrinks about
# as 1/S, so its limit is LOO_TOL_DRAWS / S: 0.25 at S = 2,000, 2.5 at 200.
LOO_TOL_DRAWS = 500.0
PROBABILITY_TOL = 1e-9
# Outcome-scale estimates are means of S independent 0/1 draws, so by
# Bernstein's inequality each misses the plug-in mean by more than the
# allowance with probability at most OUTCOME_FALSE_ALARM. A normal
# approximation is too narrow for p near 0 at S = 200.
OUTCOME_FALSE_ALARM = 1e-9

# verify's layers, measured in every traced run at the size and settings
# of its exact-LOO refits (59 rows, one slope, 2 chains of 300 + 400),
# seeded like `bernreg verify` itself (seed 0).
SMALL_SEED = 0
SMALL_ROWS = 59
SMALL_CONFIG = dict(n_chains=2, n_warmup=300, n_draws=400)
SMALL_GRAD_CALLS = 10000


class Run:
    """One benchmark invocation: paths, environment, command log, checks."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = os.path.join(OUT, f"{workload}-seed{seed}-pid{os.getpid()}")
        self.env = dict(
            os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.commands = []
        self.checks = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def check(self, name, passed, detail):
        self.checks.append((name, bool(passed), detail))

    def command(self, kind, cli_args):
        """Run one bernreg command in its own process and record it."""
        tag = f"{len(self.commands) + 1:03d}-{kind}"
        stdout_path = self.path(f"{tag}.out")
        spans_path = self.path(f"{tag}.spans.json")
        if self.trace:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), spans_path]
        else:
            argv = [sys.executable, "-m", "bernreg.cli"]
        wall, rss_mb, code = _timed_process(argv + cli_args, self.env, self.work, stdout_path)
        record = {"kind": kind, "args": cli_args, "wall": wall, "rss_mb": rss_mb,
                  "code": code, "stdout": stdout_path, "spans": []}
        if self.trace and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                record["spans"] = json.load(handle)["spans"]
        self.commands.append(record)


def _timed_process(argv, env, cwd, stdout_path):
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------- inputs


def data_file():
    """The surrogate table as a CSV, written once per checkout and generator."""
    with open(BANKGEN, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:12]
    path = os.path.join(OUT, "data", f"bank-{SURROGATE_ROWS}-{SURROGATE_SEED}-{digest}.csv")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        sys.path.insert(0, os.path.dirname(BANKGEN))
        import bankgen

        partial = f"{path}.{os.getpid()}.partial"
        bankgen.write_bank_csv(partial, SURROGATE_ROWS, SURROGATE_SEED)
        os.replace(partial, path)
    return path


def training_rows(state, seed):
    """Raw rows of the balanced training set and the program's own design.

    The row selection is the program's (prepare_training_table); the
    benchmark re-encodes those rows itself from the stored metadata.
    """
    from bernreg.data import encode, parse_dataset, prepare_training_table

    table = parse_dataset(state["csv"], DELIMITER)
    train, balance = prepare_training_table(table, SUBSAMPLE, BALANCE, seed)
    design, target = encode(train, standardize=True)
    picked = [state["rows"][i] for i in train.source_indices]
    return picked, design, target, balance


def warm_interpreter(run, state, repeats):
    """Interpreter start plus `import bernreg.cli`, timed as cli.import_s.

    The first start also writes bernreg's bytecode cache, so no timed
    command pays for compiling it.
    """
    for _ in range(repeats):
        wall, _, code = _timed_process(
            [sys.executable, "-c", "import bernreg.cli"], run.env, run.work,
            run.path("warmup.out"),
        )
        if code != 0:
            raise RuntimeError("bernreg.cli does not import; see warmup.out.err")
        state["import_s"].append(wall)


def setup(run, state):
    """The rows predict scores and, in score-balanced, the stored fits.

    The stored draws come from the normal approximation at each link's
    posterior mode, computed by the reference; they are written through
    chainfile with the header `bernreg fit` writes for the same pipeline.
    """
    from bernreg import chainfile
    from bernreg.data import dataset_fingerprint
    from bernreg.model import default_priors
    from bernreg.sampler import PosteriorDraws, SamplerConfig

    header, all_rows = state["header"], state["rows"]
    stored = WORKLOADS[run.workload]["stored_fits"]
    picked, design, target, balance = training_rows(state, run.seed if stored else FIT_SEED)
    metadata = design.metadata()
    if stored:
        x = reference.encode_rows(metadata, header, picked)
        y = reference.targets(header, picked)
        dataset_info = {
            "fingerprint": dataset_fingerprint(design, target),
            "n_rows": int(design.n_rows),
            "pipeline": {"delimiter": DELIMITER, "subsample": SUBSAMPLE, "balance": BALANCE,
                         "holdout": 0, "seed": run.seed, "standardize": True},
            "balance": balance.to_dict(),
        }
        config = SamplerConfig(n_chains=SCORE_CHAINS, n_warmup=1000,
                               n_draws=SCORE_DRAWS_PER_CHAIN, seed=run.seed)
        rng = np.random.Generator(np.random.PCG64(run.seed & (2**64 - 1)))
        state["stored"] = {}
        for link in reference.LINKS:
            prior = default_priors(link).to_dict()
            mode, cov = reference.posterior_mode(link, prior, x, y)
            beta = reference.normal_draws(mode, cov, SCORE_CHAINS * SCORE_DRAWS_PER_CHAIN, rng)
            draws = PosteriorDraws(
                draws=beta.reshape(SCORE_CHAINS, SCORE_DRAWS_PER_CHAIN, -1),
                param_names=("Intercept",) + tuple(design.column_names),
                config=config,
                step_sizes=(1.0,) * SCORE_CHAINS,
                divergence_iterations=((),) * SCORE_CHAINS,
                accept_rates=(1.0,) * SCORE_CHAINS,
            )
            path = run.path(f"{link}.chain")
            model_info = {"link": link, "prior": prior, "design": metadata}
            chainfile.save_chain_file(path, draws, model_info, dataset_info)
            state["stored"][link] = path

    # Every row of the table is scored, except the few with a level the
    # training rows never had, which predict rejects by design (exit 3).
    columns = metadata["column_names"]
    keep = [header.index(c) for c in columns]
    known = [(header.index(c), set(levels)) for c, levels in metadata["encoding_map"].items()]
    new_rows = [[row[k] for k in keep] for row in all_rows
                if all(row[k].strip() in levels for k, levels in known)]
    new_path = run.path("new-rows.csv")
    with open(new_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=DELIMITER)
        writer.writerow(columns)
        writer.writerows(new_rows)
    state.update(new_path=new_path, new_columns=columns, new_rows=new_rows)


# ---------------------------------------------------------------- rounds


def fit_args(csv_path, link, spec, out):
    return ["fit", "--data", csv_path, "--link", link, "--seed", str(FIT_SEED),
            "--chains", str(spec["chains"]), "--warmup", str(spec["warmup"]),
            "--draws", str(spec["draws"]), "--out", out, "--format", "json"]


def run_round(run, state, index):
    """Fit both links, then compare a logit and a probit fit and predict."""
    spec = WORKLOADS[run.workload]
    fitted = {}
    for attempt, link in enumerate(reference.LINKS + spec["rerun"]):
        out = run.path(f"round{index}", f"{link}-{attempt}")
        run.command(f"fit_{link}", fit_args(state["csv"], link, spec, out))
        fitted.setdefault(link, os.path.join(out, f"{link}.chain"))
    scored = state.get("stored", fitted)
    run.command("compare", ["compare", scored["logit"], scored["probit"],
                            "--data", state["csv"], "--format", "json"])
    for scale in ("outcome", "probability"):
        run.command(f"predict_{scale}", [
            "predict", scored["logit"], "--data", state["new_path"],
            "--scale", scale, "--seed", str(run.seed), "--format", "json"])


# ---------------------------------------------------------------- checks


def _fit_out(record):
    return record["args"][record["args"].index("--out") + 1]


def _succeeded(run, *kinds):
    return [c for c in run.commands if c["code"] == 0 and c["kind"] in kinds]


def check_fits(run, state):
    header = state["header"]
    picked = training_rows(state, FIT_SEED)[0]
    y = reference.targets(header, picked)
    approx = {}
    chains = {}
    for record in _succeeded(run, "fit_logit", "fit_probit"):
        link = record["kind"].split("_")[1]
        out = _fit_out(record)
        chain = os.path.join(out, f"{link}.chain")
        chains.setdefault((os.path.dirname(out), link), []).append(chain)
        if link not in approx:
            with open(chain, "rb") as handle:
                model = json.loads(handle.readline())["model"]
            x = reference.encode_rows(model["design"], header, picked)
            approx[link] = reference.posterior_mode(link, model["prior"], x, y)
        mode, cov = approx[link]
        ref_sd = np.sqrt(np.diag(cov))
        rows = _load_json(os.path.join(out, "summary.json"))["parameters"]
        mean_err = max(abs(r["estimate"] - m) / s for r, m, s in zip(rows, mode, ref_sd))
        sd_err = max(abs(r["est_error"] / s - 1.0) for r, s in zip(rows, ref_sd))
        where = os.path.relpath(out, run.work)
        run.check(f"{link}_moments_match_normal_approximation",
                  mean_err <= FIT_MEAN_TOL_SD and sd_err <= FIT_SD_TOL_REL,
                  f"{where}: max |mean - mode| / sd {mean_err:.3f} (limit {FIT_MEAN_TOL_SD}), "
                  f"max |sd / ref - 1| {sd_err:.3f} (limit {FIT_SD_TOL_REL})")
        rhat = max(r["rhat"] for r in rows)
        run.check(f"{link}_rhat", rhat < RHAT_LIMIT,
                  f"{where}: max rhat {rhat:.4f} (limit {RHAT_LIMIT})")
        by_name = {r["name"]: r for r in rows}
        held = sum(
            1 for name, sign in SIGN_ANCHORS.items()
            if (by_name[name]["ci_lower"] > 0 if sign > 0 else by_name[name]["ci_upper"] < 0)
        )
        run.check(f"{link}_sign_anchors", held >= MIN_SIGN_ANCHORS,
                  f"{where}: {held} of {len(SIGN_ANCHORS)} intervals exclude zero "
                  f"with the expected sign (need {MIN_SIGN_ANCHORS})")
    for (_, link), paths in chains.items():
        for rerun in paths[1:]:
            with open(paths[0], "rb") as a, open(rerun, "rb") as b:
                same = a.read() == b.read()
            run.check(f"{link}_rerun_byte_identical", same,
                      f"{os.path.relpath(paths[0], run.work)} vs {os.path.relpath(rerun, run.work)}")


def check_scores(run, state):
    """compare and predict against the reference, from the draws each read."""
    fits = {}

    def fit(path):
        if path not in fits:
            header, beta = reference.read_chain(path)
            fits[path] = {"header": header, "beta": beta,
                          "link": header["model"]["link"]}
        return fits[path]

    training = {}
    for record in _succeeded(run, "compare"):
        elpd = {}
        for path in record["args"][1:3]:
            f = fit(path)
            seed = f["header"]["dataset"]["pipeline"]["seed"]
            if seed not in training:
                training[seed] = training_rows(state, seed)[0]
            picked = training[seed]
            x = reference.encode_rows(f["header"]["model"]["design"], state["header"], picked)
            y = reference.targets(state["header"], picked)
            elpd[f["link"]] = (float(np.sum(reference.loo_elpd(f["link"], f["beta"], x, y))),
                               LOO_TOL_DRAWS / f["beta"].shape[0])
        rows = _load_json(record["stdout"])["rows"]
        names = [r["name"] for r in rows]
        probit = next(r for r in rows if r["name"] == "probit_model")
        run.check("compare_ranks_logit_first",
                  names[0] == "logit_model" and probit["elpd_diff"] < -2.0 * probit["se_diff"],
                  f"order {names}, probit elpd_diff {probit['elpd_diff']:.2f} "
                  f"se_diff {probit['se_diff']:.2f}")
        for r in rows:
            link = r["name"].split("_")[0]
            expected, limit = elpd[link]
            gap = abs(r["elpd_loo"] - expected)
            run.check(f"{link}_elpd_loo_matches_reference", gap <= limit,
                      f"elpd_loo {r['elpd_loo']:.3f} vs truncated-IS {expected:.3f}, "
                      f"gap {gap:.4f} (limit {limit:.4g})")

    n_new = len(state["new_rows"])
    for record in _succeeded(run, "predict_outcome", "predict_probability"):
        f = fit(record["args"][1])
        if "p_mean" not in f:
            new_x = reference.encode_rows(f["header"]["model"]["design"],
                                          state["new_columns"], state["new_rows"])
            f["p_mean"], f["p_sd"] = reference.plugin_probability(f["link"], f["beta"], new_x)
        p_mean, p_sd, n_draws = f["p_mean"], f["p_sd"], f["beta"].shape[0]
        preds = _load_json(record["stdout"])["predictions"]
        estimate = np.array([p["estimate"] for p in preds])
        error = np.array([p["est_error"] for p in preds])
        run.check(f"{record['kind']}_one_row_per_input",
                  len(preds) == n_new and [p["index"] for p in preds] == list(range(n_new)),
                  f"{len(preds)} rows for {n_new} inputs")
        bound = np.all(error**2 <= estimate * (1.0 - estimate) + 1e-12)
        if record["kind"] == "predict_probability":
            gap = max(np.max(np.abs(estimate - p_mean)), np.max(np.abs(error - p_sd)))
            run.check("probability_matches_plugin_mean", gap <= PROBABILITY_TOL and bound,
                      f"max |estimate or sd - reference| {gap:.2e} (limit {PROBABILITY_TOL}), "
                      f"binomial variance bound held: {bool(bound)}")
        else:
            allowed = reference.bernstein_allowance(p_mean * (1.0 - p_mean), n_draws,
                                                    OUTCOME_FALSE_ALARM)
            worst = float(np.max(np.abs(estimate - p_mean) / allowed))
            run.check("outcome_within_monte_carlo_error", worst <= 1.0 and bound,
                      f"worst |estimate - plug-in| / allowance {worst:.3f} (limit 1), "
                      f"binomial variance bound held: {bool(bound)}")


# ---------------------------------------------------------------- metrics


def _median(values):
    if not values:
        raise RuntimeError("no successful command to measure")
    return statistics.median(values)


def _walls(run, kind):
    return [c["wall"] for c in _succeeded(run, kind)]


def end_to_end(run, state):
    return {
        "setup_s": (_median(state["setup_s"]), "s"),
        "pipeline_s": (_median(state["pipeline_s"]), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in run.commands), "MB"),
    }


def per_layer(run, state):
    """Median self time per span name, plus counts and derived ratios."""
    by_name = {}
    for record in run.commands:
        for name, seconds, attrs in self_times(record["spans"]):
            by_name.setdefault(name, []).append((seconds, attrs, record))
    metrics = {"cli.import_s": (_median(state["import_s"]), "s")}
    for kind in ("fit_logit", "fit_probit", "compare", "predict_outcome", "predict_probability"):
        command, _, variant = kind.partition("_")
        name = f"cli.{command}_s" + (f".{variant}" if variant else "")
        metrics[name] = (_median(_walls(run, kind)), "s")

    for name in ("data.parse", "data.prepare", "data.encode", "data.parse_new_rows",
                 "data.encode_new", "diagnostics.summarize", "chainfile.save",
                 "chainfile.load", "loo.pointwise_loglik", "loo.psis_loo"):
        metrics[f"{name}_s"] = (_median([s for s, _, _ in by_name.get(name, [])]), "s")

    for link in reference.LINKS:
        samples = [(s, a, r) for s, a, r in by_name.get("sampler.sample", [])
                   if a["link"] == link]
        ess_rates = []
        for s, _, record in samples:
            rows = _load_json(os.path.join(_fit_out(record), "summary.json"))["parameters"]
            ess_rates.append(min(r["ess_bulk"] for r in rows) / s)
        metrics[f"model.grad_calls.{link}"] = (
            _median([a["grad_calls"] for _, a, _ in samples]), "count")
        metrics[f"model.grad_ms.{link}"] = (
            _median([1e3 * a["grad_s"] / a["grad_calls"] for _, a, _ in samples]), "ms")
        metrics[f"sampler.sample_s.{link}"] = (_median([s for s, _, _ in samples]), "s")
        metrics[f"sampler.grads_per_iter.{link}"] = (
            _median([a["grad_calls"] / a["iterations"] for _, a, _ in samples]), "grads/iter")
        metrics[f"sampler.tree_s.{link}"] = (
            _median([s - a["grad_s"] for s, a, _ in samples]), "s")
        metrics[f"sampler.min_ess_bulk_per_s.{link}"] = (_median(ess_rates), "1/s")

    metrics["loo.loglik_mb"] = (
        _median([a["bytes"] / 1e6 for _, a, _ in by_name.get("loo.pointwise_loglik", [])]), "MB")
    metrics["chainfile.mb"] = (
        _median([os.path.getsize(path) / 1e6 for c in _succeeded(run, "compare")
                 for path in c["args"][1:3]]), "MB")
    for scale in ("outcome", "probability"):
        spans = [(s, a) for s, a, _ in by_name.get("predict.posterior_predict", [])
                 if a["scale"] == scale]
        metrics[f"predict.posterior_predict_s.{scale}"] = (_median([s for s, _ in spans]), "s")
        metrics[f"predict.us_per_row.{scale}"] = (
            _median([1e6 * s / a["rows"] for s, a in spans]), "us")

    metrics.update(verify_layers(run))
    metrics["trace.round_s"] = (_median(state["round_s"]), "s")
    return metrics


def verify_layers(run):
    """One gradient call and one fit at verify's exact-LOO refit size,
    timed in this process."""
    from bernreg.data import DesignMatrix
    from bernreg.model import ModelSpec, default_priors, log_posterior_and_gradient
    from bernreg.sampler import SamplerConfig, sample

    rng = np.random.Generator(np.random.PCG64(SMALL_SEED))
    x = rng.standard_normal((SMALL_ROWS, 1))
    y = (rng.random(SMALL_ROWS) < reference.success_probability("logit", 0.5 + x[:, 0]))
    model = ModelSpec(link="logit", prior=default_priors("logit"),
                      design=DesignMatrix.from_values(x), target=y.astype(np.float64))
    beta = np.array([0.5, 1.0])
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(SMALL_GRAD_CALLS // 5):
            log_posterior_and_gradient(beta, model)
        batches.append((time.perf_counter() - start) / (SMALL_GRAD_CALLS // 5))
    target = CountingTarget(model, log_posterior_and_gradient)
    start = time.perf_counter()
    sample(target, SamplerConfig(seed=SMALL_SEED, **SMALL_CONFIG))
    elapsed = time.perf_counter() - start
    return {
        "model.grad_us.small": (1e6 * statistics.median(batches), "us"),
        "sampler.tree_share.small": ((elapsed - target.seconds) / elapsed, "ratio"),
    }


# ---------------------------------------------------------------- entry point


def execute(workload, seed, seconds, trace):
    run = Run(workload, seed, trace)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    sys.path.insert(0, SRC)
    state = {"csv": data_file(), "setup_s": [], "import_s": [], "round_s": [], "pipeline_s": []}
    state["header"], state["rows"] = reference.read_rows(state["csv"], DELIMITER)

    setup_started = time.perf_counter()
    warm_interpreter(run, state, IMPORT_REPEATS if trace else 1)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup(run, state)
        state["setup_s"].append(time.perf_counter() - start)

    started = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        first = len(run.commands)
        run_round(run, state, index)
        state["round_s"].append(time.perf_counter() - round_start)
        state["pipeline_s"].append(sum(c["wall"] for c in run.commands[first:]))
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed + state["round_s"][-1] > RUN_BUDGET_S:
            break

    rounds_done = time.perf_counter()
    check_fits(run, state)
    check_scores(run, state)
    print(f"phases: set-up {started - setup_started:.1f} s, rounds {rounds_done - started:.1f} s, "
          f"checks {time.perf_counter() - rounds_done:.1f} s")
    metrics = per_layer(run, state) if trace else end_to_end(run, state)
    if trace:
        with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump([{"kind": c["kind"], "wall": c["wall"], "spans": c["spans"]}
                       for c in run.commands], handle)
    for name, passed, detail in run.checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed = sum(1 for c in run.commands if c["code"] != 0)
    shutil.rmtree(run.work, ignore_errors=True)
    return {
        "correct": bool(run.checks) and all(passed for _, passed, _ in run.checks),
        "attempted": len(run.commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for required in (os.path.join(SRC, "bernreg", "cli.py"), BANKGEN):
        if not os.path.exists(required):
            print(f"error: {required} is missing; run from a bernreg checkout",
                  file=sys.stderr)
            return 2
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
