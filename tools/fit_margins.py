"""How close the benchmark's fit checks run, over several fit seeds.

    PYTHONPATH=src python tools/fit_margins.py [--data CSV] [--seeds 42-49]

Fits each link with 2 chains of 150 warmup + 100 draws on the benchmark's
training set, `prepare_training_table(table, 10000, "after", 42)` of the
41,188-row surrogate, at every fit seed given. Chain 0 of a fit is the
1-chain fit of the same seed, because a chain's draws depend only on the
target, the configuration and its index. For each 1-chain and 2-chain fit
it prints the three numbers the benchmark checks against the posterior
mode and covariance of `benchmarks/reference.py`: max |mean - mode| / sd,
max |sd / ref - 1| and the largest R-hat, then the worst of each over
the seeds with the benchmark's limits. Any change that moves the draws
should report these worst margins beside its parent's.
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"),
                os.path.join(ROOT, "tests")]

import run  # noqa: E402  (sets one BLAS thread before numpy loads)
import reference  # noqa: E402
from tracing import CountingTarget  # noqa: E402

import bankgen  # noqa: E402
import numpy as np  # noqa: E402
from bernreg.data import encode, parse_dataset, prepare_training_table  # noqa: E402
from bernreg.diagnostics import summarize  # noqa: E402
from bernreg.model import ModelSpec, default_priors, log_posterior_and_gradient  # noqa: E402
from bernreg.sampler import PosteriorDraws, SamplerConfig, sample  # noqa: E402

TRAINING_SEED = run.FIT_SEED
CHAINS, WARMUP, DRAWS = 2, 150, 100


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def margins(draws, mode, ref_sd):
    rows = summarize(draws)
    mean = max(abs(r.estimate - m) / s for r, m, s in zip(rows, mode, ref_sd))
    sd = max(abs(r.est_error / s - 1.0) for r, s in zip(rows, ref_sd))
    return mean, sd, max(r.rhat for r in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data", help="surrogate CSV (default: written to a temporary file)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("42-49"),
                        help="fit seeds, FIRST-LAST (default 42-49)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        path = args.data or bankgen.write_bank_csv(
            os.path.join(scratch, "bank.csv"), run.SURROGATE_ROWS, run.SURROGATE_SEED)
        table = parse_dataset(path, run.DELIMITER)
    train, _ = prepare_training_table(table, run.SUBSAMPLE, run.BALANCE, TRAINING_SEED)
    design, target = encode(train, standardize=True)

    print(f"{'link':<7}{'chains':>7}{'seed':>6}{'mean':>8}{'sd':>8}{'rhat':>8}{'grads':>8}")
    worst = {}
    for link in reference.LINKS:
        prior = default_priors(link)
        mode, cov = reference.posterior_mode(link, prior.to_dict(), design.values, target)
        ref_sd = np.sqrt(np.diag(cov))
        model = ModelSpec(link, prior, design, target)
        for seed in args.seeds:
            counted = CountingTarget(model, log_posterior_and_gradient)
            fit = sample(counted, SamplerConfig(n_chains=CHAINS, n_warmup=WARMUP,
                                                n_draws=DRAWS, seed=seed))
            first = PosteriorDraws(fit.draws[:1], fit.param_names, fit.config,
                                   fit.step_sizes[:1], fit.divergence_iterations[:1],
                                   fit.accept_rates[:1])
            for chains, draws in ((1, first), (CHAINS, fit)):
                found = margins(draws, mode, ref_sd)
                grads = counted.calls if chains == CHAINS else ""
                print(f"{link:<7}{chains:>7}{seed:>6}"
                      + "".join(f"{v:>8.3f}" for v in found) + f"{grads:>8}")
                key = (link, chains)
                worst[key] = [max(w, v) for w, v in zip(worst.get(key, found), found)]

    print(f"\nworst over seeds {args.seeds.start}-{args.seeds.stop - 1} (limits: mean "
          f"{run.FIT_MEAN_TOL_SD}, sd {run.FIT_SD_TOL_REL}, rhat < {run.RHAT_LIMIT})")
    for (link, chains), (mean, sd, rhat) in worst.items():
        passed = mean <= run.FIT_MEAN_TOL_SD and sd <= run.FIT_SD_TOL_REL and rhat < run.RHAT_LIMIT
        print(f"{link:<7}{chains:>7}{'':>6}{mean:>8.3f}{sd:>8.3f}{rhat:>8.3f}  "
              + ("pass" if passed else "FAIL"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
