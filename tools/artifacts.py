"""Write every output that a byte-identical change must keep, into OUT.

    PYTHONPATH=src python tools/artifacts.py OUT

Writes the 41,188-row surrogate (`tests/bankgen.py`, the benchmark's seed)
to OUT/bank.csv, a comma-delimited copy of it to OUT/bank-comma.csv and a
copy without the response column to OUT/bank-nolabel.csv, and runs, each
as `python -m bernreg.cli` in its own process with one BLAS thread, OUT as
the working directory and relative paths:

- `fit` of each link with 2 chains of 150 warmup + 100 draws at seed 42,
  plain, with `--holdout 500` and with `--threads 2`;
- `diagnose` of each plain fit, in both formats;
- `compare` of the two plain fits, in both formats;
- `predict` of every row with each plain fit, at both scales and in
  both formats;
- `predict --scale probability --format json` of every row of the copy
  without the response, with the plain logit fit: the rows-to-score path
  that the benchmark's `new-rows.csv` takes;
- `fit` of the logit link with the same chains at `--balance before`,
  at `--balance off` and with `--no-standardize`, each followed by
  `predict` of every row at the probability scale, in JSON: every
  training-table path and both encodings;
- `fit` of the logit link with the same chains at `--balance before
  --holdout 500`, then `predict --scale probability --format json` of
  its own `holdout.csv`: with the plain `--holdout 500` fits, the split
  on both oversampling paths;
- `fit` of each link with 2 chains of 150 warmup + 1,000 draws at seed
  42, then `compare` of those two fits and `predict` of every row with
  each, at both scales, in JSON: at S = 2,000 a row block is 16 rows;
- `fit` of each link on the comma-delimited copy with `--delimiter ,
  --holdout 500` and the short chains, then `compare` of those two fits
  and `predict --delimiter , --scale probability --format json` of the
  logit fit's own `holdout.csv`: the stored-delimiter paths and the comma
  holdout writer. (Every row would not do: the `default` level `yes`, 4
  rows of the surrogate, is not in that fit's training set, so scoring
  it exits 5.)
- `verify` in both formats.

Each command's stdout, stderr and exit code go to OUT/cmd/<name>.out,
.err and .code. Every fit's `run.log` is deleted, because it holds wall
clock times. The bernreg that runs is the one on PYTHONPATH, so two
checkouts compare as

    PYTHONPATH=parent/src python tools/artifacts.py /tmp/before
    PYTHONPATH=src python tools/artifacts.py /tmp/after
    diff -r /tmp/before /tmp/after
"""

import argparse
import csv
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import bankgen  # noqa: E402

SURROGATE_ROWS = 41188
SURROGATE_SEED = 20260815
FIT = ["--chains", "2", "--warmup", "150", "--draws", "100", "--seed", "42"]
LONG_FIT = ["--chains", "2", "--warmup", "150", "--draws", "1000", "--seed", "42"]
LINKS = ("logit", "probit")
# Logit fits on the other training tables and the unstandardized design.
VARIANTS = (("before", ["--balance", "before"]), ("off", ["--balance", "off"]),
            ("raw", ["--no-standardize"]))
FORMATS = ("text", "json")


def commands():
    """(name, bernreg arguments) in the order they run."""
    out = []
    for link in LINKS:
        fit = ["fit", "--data", "bank.csv", "--link", link] + FIT
        out.append((f"fit-{link}", fit + ["--out", link]))
        out.append((f"fit-{link}-holdout", fit + ["--holdout", "500", "--out", f"{link}-holdout"]))
        out.append((f"fit-{link}-threads", fit + ["--threads", "2", "--out", f"{link}-threads"]))
    chains = [f"{link}/{link}.chain" for link in LINKS]
    for fmt in FORMATS:
        for link, chain in zip(LINKS, chains):
            out.append((f"diagnose-{link}-{fmt}", ["diagnose", chain, "--format", fmt]))
        out.append((f"compare-{fmt}", ["compare", "--data", "bank.csv", *chains, "--format", fmt]))
        for link, chain in zip(LINKS, chains):
            for scale in ("outcome", "probability"):
                out.append((f"predict-{link}-{scale}-{fmt}",
                            ["predict", chain, "--data", "bank.csv", "--scale", scale,
                             "--format", fmt]))
    out.append(("predict-logit-nolabel-probability-json",
                ["predict", chains[0], "--data", "bank-nolabel.csv", "--scale", "probability",
                 "--format", "json"]))
    for name, extra in VARIANTS:
        out.append((f"fit-logit-{name}", ["fit", "--data", "bank.csv", "--link", "logit"]
                    + FIT + extra + ["--out", f"logit-{name}"]))
        out.append((f"predict-logit-{name}-probability-json",
                    ["predict", f"logit-{name}/logit.chain", "--data", "bank.csv",
                     "--scale", "probability", "--format", "json"]))
    out.append(("fit-logit-before-holdout", ["fit", "--data", "bank.csv", "--link", "logit"]
                + FIT + ["--balance", "before", "--holdout", "500",
                         "--out", "logit-before-holdout"]))
    out.append(("predict-logit-before-holdout-probability-json",
                ["predict", "logit-before-holdout/logit.chain",
                 "--data", "logit-before-holdout/holdout.csv",
                 "--scale", "probability", "--format", "json"]))
    long_chains = [f"{link}-long/{link}.chain" for link in LINKS]
    for link in LINKS:
        out.append((f"fit-{link}-long", ["fit", "--data", "bank.csv", "--link", link]
                    + LONG_FIT + ["--out", f"{link}-long"]))
    out.append(("compare-long-json",
                ["compare", "--data", "bank.csv", *long_chains, "--format", "json"]))
    for link, chain in zip(LINKS, long_chains):
        for scale in ("outcome", "probability"):
            out.append((f"predict-{link}-long-{scale}-json",
                        ["predict", chain, "--data", "bank.csv", "--scale", scale,
                         "--format", "json"]))
    comma_chains = [f"{link}-comma/{link}.chain" for link in LINKS]
    for link in LINKS:
        out.append((f"fit-{link}-comma", ["fit", "--data", "bank-comma.csv", "--link", link]
                    + FIT + ["--delimiter", ",", "--holdout", "500", "--out", f"{link}-comma"]))
    out.append(("compare-comma-json",
                ["compare", "--data", "bank-comma.csv", *comma_chains, "--format", "json"]))
    out.append(("predict-logit-comma-probability-json",
                ["predict", comma_chains[0], "--data", "logit-comma/holdout.csv",
                 "--delimiter", ",", "--scale", "probability", "--format", "json"]))
    for fmt in FORMATS:
        out.append((f"verify-{fmt}", ["verify", "--format", fmt]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output directory; created, or empty")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    os.makedirs(os.path.join(args.out, "cmd"))
    bank = bankgen.write_bank_csv(os.path.join(args.out, "bank.csv"), SURROGATE_ROWS,
                                  SURROGATE_SEED)
    with open(bank, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle, delimiter=";"))
    with open(os.path.join(args.out, "bank-comma.csv"), "w", encoding="utf-8",
              newline="") as handle:
        csv.writer(handle, delimiter=",").writerows(rows)
    with open(os.path.join(args.out, "bank-nolabel.csv"), "w", encoding="utf-8",
              newline="") as handle:
        csv.writer(handle, delimiter=";").writerows(row[:-1] for row in rows)  # y is last

    # The commands run in OUT, so relative PYTHONPATH entries are resolved here.
    path = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = 0
    for name, cli_args in commands():
        done = subprocess.run([sys.executable, "-m", "bernreg.cli", *cli_args], cwd=args.out,
                              env=env, capture_output=True, text=True)
        stem = os.path.join(args.out, "cmd", name)
        for suffix, text in ((".out", done.stdout), (".err", done.stderr),
                             (".code", f"{done.returncode}\n")):
            with open(stem + suffix, "w", encoding="utf-8") as handle:
                handle.write(text)
        failed += done.returncode != 0
        print(f"{name:<32} exit {done.returncode}")
    for log in glob.glob(os.path.join(args.out, "*", "run.log")):
        os.remove(log)
    print(f"{failed} command(s) exited non-zero")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
