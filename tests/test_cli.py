"""Command-line behavior: artifacts, reruns, exit codes, output formats."""

import contextlib
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import bankgen
from bernreg import chainfile, cli, report
from bernreg.cli import (
    EXIT_DATA,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
)
from bernreg.diagnostics import summarize
from bernreg.errors import (
    CorruptChainFile,
    DataError,
    Degenerate,
    MismatchError,
    NumericalError,
)
from bernreg.oracle import CheckResult
from bernreg.report import render_summary_text

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FIT_ARGS = [
    "--subsample", "200",
    "--chains", "2",
    "--warmup", "150",
    "--draws", "100",
    "--seed", "11",
]


def _run_fit(data_path, out_dir, *extra):
    args = ["fit", "--data", data_path, "--out", out_dir] + FIT_ARGS + list(extra)
    return main(args)


@pytest.fixture(scope="module")
def logit_dir(small_bank_csv, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fit-logit"))
    assert _run_fit(small_bank_csv, out) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def probit_dir(small_bank_csv, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fit-probit"))
    assert _run_fit(small_bank_csv, out, "--link", "probit") == EXIT_OK
    return out


@pytest.fixture(scope="module")
def score_csv(logit_dir, tmp_path_factory):
    """Fresh rows to score, with category levels the fit has seen."""
    directory = tmp_path_factory.mktemp("score")
    path = os.path.join(str(directory), "score.csv")
    bankgen.write_bank_csv(path, n_rows=25, seed=9)
    encoding = json.loads(_read_text(os.path.join(logit_dir, "encoding.json")))
    seen = {name: sorted(levels) for name, levels in encoding["encoding_map"].items()}
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle, delimiter=";"))
    header = rows[0]
    for row in rows[1:]:
        for column, levels in seen.items():
            i = header.index(column)
            if row[i] not in levels:
                row[i] = levels[0]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=";", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(header)
        for row in rows[1:]:
            writer.writerow(
                [value if header[j] in seen or header[j] == "y"
                 else float(value) if "." in value else int(value)
                 for j, value in enumerate(row)]
            )
    return path


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _rewrite_header(chain_path, out_path, change):
    """Copy a chain file, passing its header dict through `change` first."""
    first, rest = _read_bytes(chain_path).split(b"\n", 1)
    header = json.loads(first)
    change(header)
    with open(out_path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        handle.write(b"\n" + rest)
    return out_path


class TestRunConfig:
    def test_default_output_directory(self):
        config = RunConfig(data="x.csv", link="probit", seed=7)
        assert config.out == os.path.join("runs", "probit-seed7")

    def test_default_prior_matches_link(self):
        logit = RunConfig(data="x.csv", link="logit")
        probit = RunConfig(data="x.csv", link="probit")
        assert logit.prior != probit.prior

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(data="x.csv", link="cauchit")
        with pytest.raises(ValueError):
            RunConfig(data="x.csv", balance="sometimes")
        with pytest.raises(ValueError):
            RunConfig(data="x.csv", subsample=-1)

    def test_dict_round_trip(self):
        config = RunConfig(data="x.csv", link="probit", seed=3, holdout=10)
        assert RunConfig(**json.loads(report.render_json(config))) == config

    def test_stored_pipeline_types_match_the_run_config(self):
        # `fit` stores these RunConfig fields, so a header it writes always loads.
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        assert {key: types[key] for key in chainfile.PIPELINE_KEYS} == chainfile.PIPELINE_KEYS


class TestFitArtifacts:
    def test_expected_files(self, logit_dir):
        expected = {
            "config.json", "logit.chain", "encoding.json", "balance.json",
            "summary.txt", "summary.json", "run.log",
        }
        assert expected <= set(os.listdir(logit_dir))

    def test_config_round_trips(self, logit_dir, small_bank_csv):
        config = RunConfig(
            **json.loads(_read_text(os.path.join(logit_dir, "config.json")))
        )
        assert config.data == small_bank_csv
        assert config.link == "logit"
        assert config.seed == 11
        assert config.chains == 2

    def test_chain_reloads_with_expected_shape(self, logit_dir):
        draws, header = chainfile.load_chain_file(
            os.path.join(logit_dir, "logit.chain")
        )
        assert draws.draws.shape == (2, 100, 21)
        assert header["model"]["link"] == "logit"
        assert header["dataset"]["n_rows"] == 200

    def test_encoding_matches_chain_header(self, logit_dir):
        encoding = json.loads(_read_text(os.path.join(logit_dir, "encoding.json")))
        _, header = chainfile.load_chain_file(os.path.join(logit_dir, "logit.chain"))
        assert encoding == header["model"]["design"]

    def test_summary_text_matches_stored_draws(self, logit_dir):
        draws, _ = chainfile.load_chain_file(os.path.join(logit_dir, "logit.chain"))
        rendered = render_summary_text(summarize(draws))
        assert _read_text(os.path.join(logit_dir, "summary.txt")) == rendered

    def test_summary_json_lists_all_parameters(self, logit_dir):
        payload = json.loads(_read_text(os.path.join(logit_dir, "summary.json")))
        names = [row["name"] for row in payload["parameters"]]
        assert len(names) == 21
        assert names[0] == "Intercept"
        assert "duration" in names

    def test_balance_report_recorded(self, logit_dir):
        # The report describes the oversampling stage; the stratified trim
        # back down to the subsample size happens afterwards.
        payload = json.loads(_read_text(os.path.join(logit_dir, "balance.json")))
        assert payload["n_before"] == 200
        assert payload["n_positive_after"] * 2 == payload["n_after"]
        assert payload["n_after"] >= 200

    def test_run_log_lines_are_timestamped(self, logit_dir):
        lines = _read_text(os.path.join(logit_dir, "run.log")).splitlines()
        assert len(lines) >= 3
        for line in lines:
            stamp = line.split(" ", 1)[0]
            datetime.datetime.fromisoformat(stamp)

    def test_holdout_written_and_disjoint_count(self, small_bank_csv, tmp_path):
        out = str(tmp_path / "with-holdout")
        assert _run_fit(small_bank_csv, out, "--holdout", "30") == EXIT_OK
        with open(os.path.join(out, "holdout.csv"), encoding="utf-8", newline="") as h:
            rows = list(csv.reader(h, delimiter=";"))
        assert len(rows) == 31  # header + 30 rows
        draws, header = chainfile.load_chain_file(os.path.join(out, "logit.chain"))
        assert header["dataset"]["n_rows"] == 170
        assert header["dataset"]["pipeline"]["holdout"] == 30

    def test_one_prior_flag_keeps_the_other_default(self, small_bank_csv, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["fit", "--data", small_bank_csv, "--out", out, "--subsample", "200",
             "--chains", "1", "--warmup", "20", "--draws", "10",
             "--prior-intercept", "0", "2"]
        )
        assert code == EXIT_OK
        config = json.loads(_read_text(os.path.join(out, "config.json")))
        assert config["prior"] == {
            "intercept_mean": 0.0, "intercept_sd": 2.0,
            "slope_mean": 0.0, "slope_sd": 0.5,
        }


class TestFitFormats:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_both_summaries_written_whatever_is_printed(
        self, logit_dir, small_bank_csv, tmp_path, capsys, fmt
    ):
        out = str(tmp_path / fmt)
        assert _run_fit(small_bank_csv, out, "--format", fmt) == EXIT_OK
        printed = capsys.readouterr().out
        for name in ("summary.txt", "summary.json"):
            assert _read_bytes(os.path.join(out, name)) == _read_bytes(
                os.path.join(logit_dir, name)
            ), name
        suffix = "txt" if fmt == "text" else "json"
        assert printed == _read_text(os.path.join(out, f"summary.{suffix}"))


class TestRerunIdentity:
    def test_identical_config_gives_identical_artifacts(
        self, logit_dir, small_bank_csv, tmp_path
    ):
        rerun = str(tmp_path / "rerun")
        assert _run_fit(small_bank_csv, rerun) == EXIT_OK
        for name in ("logit.chain", "encoding.json", "balance.json",
                     "summary.txt", "summary.json"):
            assert _read_bytes(os.path.join(rerun, name)) == _read_bytes(
                os.path.join(logit_dir, name)
            ), name
        # config.json differs only in the output path itself.
        ours = json.loads(_read_text(os.path.join(rerun, "config.json")))
        theirs = json.loads(_read_text(os.path.join(logit_dir, "config.json")))
        ours.pop("out"), theirs.pop("out")
        assert ours == theirs

    def test_thread_count_never_changes_results(
        self, logit_dir, small_bank_csv, tmp_path
    ):
        threaded = str(tmp_path / "threaded")
        assert _run_fit(small_bank_csv, threaded, "--threads", "3") == EXIT_OK
        assert _read_bytes(os.path.join(threaded, "logit.chain")) == _read_bytes(
            os.path.join(logit_dir, "logit.chain")
        )


class TestDiagnose:
    def test_matches_fit_summary(self, logit_dir, capsys):
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["diagnose", chain, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == _read_text(os.path.join(logit_dir, "summary.txt"))

    def test_json_format(self, logit_dir, capsys):
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["diagnose", chain, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["parameters"]) == 21

    def test_corrupt_chain_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.chain"
        bad.write_text("not a chain file\n1,2,3\n")
        assert main(["diagnose", str(bad)]) == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_missing_chain_exits_3(self, tmp_path):
        assert main(["diagnose", str(tmp_path / "absent.chain")]) == EXIT_DATA


class TestCompare:
    def test_ranks_two_links(self, logit_dir, probit_dir, small_bank_csv, capsys):
        code = main([
            "compare",
            os.path.join(logit_dir, "logit.chain"),
            os.path.join(probit_dir, "probit.chain"),
            "--data", small_bank_csv,
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert {r["name"] for r in rows} == {"logit_model", "probit_model"}
        assert rows[0]["elpd_diff"] == 0.0
        assert rows[0]["se_diff"] == 0.0
        assert rows[1]["elpd_diff"] <= 0.0

    def test_reports_p_loo_and_k_bins(self, logit_dir, probit_dir, small_bank_csv, capsys):
        chains = [os.path.join(logit_dir, "logit.chain"),
                  os.path.join(probit_dir, "probit.chain")]
        assert main(["compare", *chains, "--data", small_bank_csv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row in rows:
            assert 0.0 < row["p_loo"] < 200.0
            counts = row["pareto_k_counts"]
            assert list(counts) == ["bad", "good", "nan", "ok", "very_bad"]
            assert sum(counts.values()) == 200
            assert counts["bad"] + counts["very_bad"] == row["n_high_k"]
        assert main(["compare", *chains, "--data", small_bank_csv]) == EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == [
            "model", "elpd_diff", "se_diff", "p_loo", "k<=0.5", "0.5-0.7", "0.7-1",
            "k>1", "k=NA",
        ]
        assert len(lines) == 2 and all(len(line.split()) == 9 for line in lines)

    def test_duplicate_links_get_distinct_names(
        self, logit_dir, small_bank_csv, capsys
    ):
        chain = os.path.join(logit_dir, "logit.chain")
        code = main([
            "compare", chain, chain, "--data", small_bank_csv, "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in payload["rows"]}
        assert names == {"logit_model", "logit_model_2"}

    def test_fits_of_one_pipeline_share_one_training_set(
        self, logit_dir, probit_dir, small_bank_csv, monkeypatch
    ):
        calls = []
        prepare = cli.prepare_training_table

        def counted(*args):
            calls.append(args[1:])
            return prepare(*args)

        monkeypatch.setattr(cli, "prepare_training_table", counted)
        chains = [os.path.join(logit_dir, "logit.chain"),
                  os.path.join(probit_dir, "probit.chain")]
        assert main(["compare", *chains, "--data", small_bank_csv]) == EXIT_OK
        assert len(calls) == 1

    def test_shared_training_set_still_checks_each_fingerprint(
        self, logit_dir, small_bank_csv, tmp_path, capsys
    ):
        chain = os.path.join(logit_dir, "logit.chain")

        def tamper(header):
            header["dataset"]["fingerprint"] = "0" * 16

        other = _rewrite_header(chain, str(tmp_path / "other.chain"), tamper)
        assert main(["compare", chain, other, "--data", small_bank_csv]) == EXIT_MISMATCH
        assert f"differs from stored {'0' * 16}" in capsys.readouterr().err

    def test_previous_loglik_matrix_freed_before_next(
        self, logit_dir, probit_dir, small_bank_csv, tmp_path, monkeypatch
    ):
        # 10,000 draws x 200 rows makes each log-likelihood matrix 16 MB, far
        # more than anything else compare holds, so the memory held on
        # entering the second build shows whether the first is still alive.
        paths = []
        for run_dir, link in ((logit_dir, "logit"), (probit_dir, "probit")):
            draws, header = chainfile.load_chain_file(
                os.path.join(run_dir, f"{link}.chain")
            )
            many = np.tile(draws.draws, (1, 50, 1))
            big = dataclasses.replace(
                draws,
                draws=many,
                config=dataclasses.replace(draws.config, n_draws=many.shape[1]),
            )
            path = str(tmp_path / f"{link}.chain")
            chainfile.save_chain_file(path, big, header["model"], header["dataset"])
            paths.append(path)
        matrix_bytes = 2 * 5000 * 200 * 8

        held = []
        pointwise_loglik = cli.pointwise_loglik

        def measured(draws, model):
            held.append(tracemalloc.get_traced_memory()[0])
            return pointwise_loglik(draws, model)

        monkeypatch.setattr(cli, "pointwise_loglik", measured)
        tracemalloc.start()
        try:
            code = main(["compare", *paths, "--data", small_bank_csv])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(held) == 2
        assert held[1] - held[0] < matrix_bytes / 2

    @pytest.fixture(scope="class")
    def comma_fits(self, small_bank_csv, tmp_path_factory):
        """A comma-delimited copy of the data, and a logit and a probit fit of it."""
        directory = tmp_path_factory.mktemp("comma")
        data = str(directory / "bank-comma.csv")
        with open(small_bank_csv, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle, delimiter=";"))
        with open(data, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, delimiter=",").writerows(rows)
        chains = []
        for link in ("logit", "probit"):
            out = str(directory / link)
            code = main(["fit", "--data", data, "--delimiter", ",", "--link", link,
                         "--out", out, "--subsample", "200", "--chains", "2",
                         "--warmup", "60", "--draws", "40", "--seed", "11"])
            assert code == EXIT_OK
            chains.append(os.path.join(out, f"{link}.chain"))
        return data, chains

    def test_delimiter_comes_from_the_fits(self, comma_fits, capsys):
        data, chains = comma_fits
        assert main(["compare", *chains, "--data", data, "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {r["name"] for r in rows} == {"logit_model", "probit_model"}

    def test_fits_with_different_delimiters_exit_5(
        self, comma_fits, logit_dir, small_bank_csv, capsys
    ):
        _, chains = comma_fits
        code = main(["compare", os.path.join(logit_dir, "logit.chain"), chains[1],
                     "--data", small_bank_csv])
        assert code == EXIT_MISMATCH
        assert "delimiters" in capsys.readouterr().err

    def test_single_chain_exits_2(self, logit_dir, small_bank_csv):
        code = main([
            "compare", os.path.join(logit_dir, "logit.chain"),
            "--data", small_bank_csv,
        ])
        assert code == EXIT_USAGE

    def test_wrong_data_file_exits_5(self, logit_dir, probit_dir, tmp_path, capsys):
        other = bankgen.write_bank_csv(
            str(tmp_path / "other.csv"), n_rows=600, seed=8
        )
        code = main([
            "compare",
            os.path.join(logit_dir, "logit.chain"),
            os.path.join(probit_dir, "probit.chain"),
            "--data", other,
        ])
        assert code == EXIT_MISMATCH
        assert "error:" in capsys.readouterr().err


class TestPredict:
    def test_outcome_scale_rows(self, logit_dir, score_csv, capsys):
        chain = os.path.join(logit_dir, "logit.chain")
        code = main([
            "predict", chain, "--data", score_csv, "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rows = payload["predictions"]
        assert len(rows) == 25
        for row in rows:
            assert 0.0 <= row["estimate"] <= 1.0
            assert row["ci_lower"] in (0.0, 1.0)
            assert row["ci_upper"] in (0.0, 1.0)

    def test_probability_scale_differs_and_is_seedless(
        self, logit_dir, score_csv, capsys
    ):
        chain = os.path.join(logit_dir, "logit.chain")
        outputs = []
        for seed in ("0", "1"):
            code = main([
                "predict", chain, "--data", score_csv,
                "--scale", "probability", "--seed", seed, "--format", "json",
            ])
            assert code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])["predictions"]
        assert any(0.0 < r["ci_lower"] < r["ci_upper"] < 1.0 for r in rows)

    def test_outcome_scale_seed_changes_results(self, logit_dir, score_csv, capsys):
        chain = os.path.join(logit_dir, "logit.chain")
        outputs = []
        for seed in ("0", "1"):
            code = main([
                "predict", chain, "--data", score_csv, "--seed", seed,
                "--format", "json",
            ])
            assert code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_rows_without_response_column(self, logit_dir, score_csv, tmp_path, capsys):
        with open(score_csv, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle, delimiter=";"))
        target = tmp_path / "no-response.csv"
        with open(target, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter=";", quoting=csv.QUOTE_NONNUMERIC)
            for row in rows[:6]:
                writer.writerow(row[:-1])
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["predict", chain, "--data", str(target)]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6  # header + 5 rows

    def test_empty_input_prints_header_only(self, logit_dir, score_csv, tmp_path, capsys):
        with open(score_csv, encoding="utf-8") as handle:
            header = handle.readline()
        target = tmp_path / "empty.csv"
        target.write_text(header)
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["predict", chain, "--data", str(target)]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert main(["predict", chain, "--data", str(target), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"predictions": []}

    def test_zero_stored_scale_exits_2_without_warning(
        self, logit_dir, score_csv, tmp_path, capsys
    ):
        def zero_duration_scale(header):
            header["model"]["design"]["scaling"]["duration"][1] = 0.0

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "zero-scale.chain"), zero_duration_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["predict", chain, "--data", score_csv])
        assert code == EXIT_USAGE
        assert "'duration' has non-positive scale" in capsys.readouterr().err

    def test_unseen_level_exits_5(self, logit_dir, score_csv, tmp_path, capsys):
        with open(score_csv, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle, delimiter=";"))
        job_index = rows[0].index("job")
        rows[1][job_index] = "astronaut"
        target = tmp_path / "unseen.csv"
        with open(target, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter=";", quoting=csv.QUOTE_NONNUMERIC)
            writer.writerows(rows[:2])
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["predict", chain, "--data", str(target)]) == EXIT_MISMATCH
        assert "astronaut" in capsys.readouterr().err

    def test_renders_only_the_printed_format(
        self, logit_dir, score_csv, monkeypatch, capsys
    ):
        chain = os.path.join(logit_dir, "logit.chain")
        printed = {}
        for fmt in ("text", "json"):
            assert main(["predict", chain, "--data", score_csv, "--format", fmt]) == EXIT_OK
            printed[fmt] = capsys.readouterr().out

        def refuse(rows):
            raise AssertionError("rendered a format that is not printed")

        for fmt, unused in (("text", "json"), ("json", "text")):
            with monkeypatch.context() as patch:
                patch.setattr(report, f"render_predictions_{unused}", refuse)
                code = main(["predict", chain, "--data", score_csv, "--format", fmt])
            assert code == EXIT_OK
            assert capsys.readouterr().out == printed[fmt]

    def test_foreign_header_exits_3(self, logit_dir, tmp_path):
        target = tmp_path / "foreign.csv"
        target.write_text('"alpha";"beta"\n1;2\n')
        chain = os.path.join(logit_dir, "logit.chain")
        assert main(["predict", chain, "--data", str(target)]) == EXIT_DATA


class TestUsageErrors:
    def test_unknown_link_is_a_parser_error(self, small_bank_csv):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--data", small_bank_csv, "--link", "cauchit"])
        assert info.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as info:
            main(["fit"])
        assert info.value.code == 2

    def test_negative_subsample_exits_2(self, small_bank_csv, capsys):
        code = main(["fit", "--data", small_bank_csv, "--subsample", "-1"])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (["--chains", "0"], EXIT_USAGE),
            (["--subsample", "5000"], EXIT_DATA),
            (["--draws", "3"], EXIT_USAGE),
            (["--threads", "0"], EXIT_USAGE),
            (["--prior-slopes", "0", "inf"], EXIT_USAGE),
            (["--prior-intercept", "nan", "1"], EXIT_USAGE),
        ],
    )
    def test_rejected_fit_writes_nothing(self, small_bank_csv, tmp_path, extra, expected):
        out = tmp_path / "run"
        code = main(
            ["fit", "--data", small_bank_csv, "--out", str(out), "--subsample", "500",
             "--chains", "1", "--warmup", "10", "--draws", "10"] + extra
        )
        assert code == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "bank.csv"],
            ["diagnose", "fit.chain"],
            ["compare", "a.chain", "b.chain", "--data", "bank.csv"],
            ["predict", "fit.chain", "--data", "rows.csv"],
            ["verify"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_both_is_a_parser_error(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", "both"])
        assert info.value.code == 2

    def test_compare_takes_no_delimiter(self):
        with pytest.raises(SystemExit) as info:
            main(["compare", "a.chain", "b.chain", "--data", "bank.csv",
                  "--delimiter", ";"])
        assert info.value.code == 2

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "predict", "diagnose"])
    def test_os_error_exits_3_naming_the_path(
        self, logit_dir, small_bank_csv, tmp_path, capsys, command
    ):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        argv, path = {
            "fit": (["fit", "--data", small_bank_csv, "--out", str(taken)] + FIT_ARGS, taken),
            "predict": (["predict", os.path.join(logit_dir, "logit.chain"),
                         "--data", str(tmp_path)], tmp_path),
            "diagnose": (["diagnose", str(tmp_path)], tmp_path),
        }[command]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read or write {path}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert os.listdir(tmp_path) == ["taken"]
        assert taken.read_text() == "a file, not a directory\n"

    def test_malformed_data_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('"age";"y"\n"41";"maybe"\n')
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_multi_character_delimiter_exits_2(
        self, logit_dir, score_csv, small_bank_csv, tmp_path, capsys
    ):
        out = tmp_path / "run"
        for argv in (["fit", "--data", small_bank_csv, "--out", str(out)],
                     ["predict", os.path.join(logit_dir, "logit.chain"), "--data", score_csv]):
            assert main(argv + ["--delimiter", ";;"]) == EXIT_USAGE, argv[0]
            captured = capsys.readouterr()
            assert captured.err == "error: delimiter must be one character, got ';;'\n"
            assert captured.out == ""
        assert not out.exists()


class TestErrorHandler:
    @pytest.mark.parametrize(
        "exc, expected",
        [
            pytest.param(DataError("row 2: bad field"), 3, id="DataError"),
            pytest.param(NumericalError("step size 0"), 4, id="NumericalError"),
            pytest.param(MismatchError("other data"), 5, id="MismatchError"),
            pytest.param(CorruptChainFile("truncated", offset=12), 3, id="CorruptChainFile"),
            pytest.param(Degenerate("constant draws"), 4, id="Degenerate"),
        ],
    )
    def test_one_error_line_and_the_class_exit_code(self, monkeypatch, capsys, exc, expected):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_verify", fail)
        assert main(["verify"]) == expected
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc}\n"
        assert captured.out == ""


class TestChainHeaderKeys:
    @pytest.mark.parametrize(
        "dotted",
        [
            "model.link", "model.prior", "model.design",
            "model.design.column_names", "model.design.encoding_map",
            "model.design.scaling", "dataset.fingerprint", "dataset.pipeline",
            "dataset.pipeline.delimiter", "dataset.pipeline.subsample",
            "dataset.pipeline.balance", "dataset.pipeline.holdout",
            "dataset.pipeline.seed", "dataset.pipeline.standardize",
            "model.prior.intercept_mean", "model.prior.intercept_sd",
            "model.prior.slope_mean", "model.prior.slope_sd",
            "config.n_chains", "config.n_draws", "config.target_accept",
            "param_names", "step_sizes", "divergence_iterations", "accept_rates",
        ],
    )
    def test_missing_nested_key_exits_3_naming_it(
        self, logit_dir, probit_dir, small_bank_csv, score_csv, tmp_path, capsys, dotted
    ):
        """Dropped, or replaced by a value of another JSON type."""
        *parents, leaf = dotted.split(".")

        def parent(header):
            node = header
            for part in parents:
                node = node[part]
            return node

        def drop(header):
            del parent(header)[leaf]

        def retype(header):
            node = parent(header)
            node[leaf] = {int: True, list: "x", dict: "x"}.get(type(node[leaf]), [])

        probit = os.path.join(probit_dir, "probit.chain")
        for change in (drop, retype):
            chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                    str(tmp_path / f"{change.__name__}.chain"), change)
            for argv in (["predict", chain, "--data", score_csv],
                         ["compare", probit, chain, "--data", small_bank_csv],
                         ["diagnose", chain]):
                assert main(argv) == EXIT_DATA, (change.__name__, argv[0])
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1
                assert dotted in err, (change.__name__, argv[0])

    def test_format_1_file_exits_3(
        self, logit_dir, probit_dir, small_bank_csv, score_csv, tmp_path, capsys
    ):
        def retag(header):
            header["format"] = "bernreg-chain/1"

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "v1.chain"), retag)
        probit = os.path.join(probit_dir, "probit.chain")
        for argv in (["predict", chain, "--data", score_csv],
                     ["compare", probit, chain, "--data", small_bank_csv],
                     ["diagnose", chain]):
            assert main(argv) == EXIT_DATA, argv[0]
            assert "not a bernreg-chain/2 file" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("balance", "sideways")])
    def test_bad_pipeline_value_exits_2(
        self, logit_dir, probit_dir, small_bank_csv, tmp_path, capsys, key, value
    ):
        def spoil(header):
            header["dataset"]["pipeline"][key] = value

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "spoiled.chain"), spoil)
        code = main(["compare", os.path.join(probit_dir, "probit.chain"), chain,
                     "--data", small_bank_csv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("key, value", [("subsample", "many")])
    def test_wrongly_typed_pipeline_value_exits_3(
        self, logit_dir, probit_dir, small_bank_csv, tmp_path, capsys, key, value
    ):
        """A stored value of the wrong type is a corrupt file, not a bad option."""
        def spoil(header):
            header["dataset"]["pipeline"][key] = value

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "spoiled.chain"), spoil)
        code = main(["compare", os.path.join(probit_dir, "probit.chain"), chain,
                     "--data", small_bank_csv])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"dataset.pipeline.{key}" in err

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("dataset.pipeline.subsample", None),
            ("dataset.pipeline.standardize", None),
            ("model.prior", [3.5, 1.0, 0.0, 0.5]),
            ("model.prior.slope_sd", "missing"),
            ("dataset.pipeline.delimiter", [";"]),
            ("param_names", [1]),
            ("step_sizes", []),
            ("step_sizes", ["a"]),
            ("accept_rates", [0.9, 0.9, 0.9]),
            ("divergence_iterations", ["ab"]),
            ("divergence_iterations", [[0.5], []]),
        ],
    )
    def test_bad_stored_value_exits_3_naming_it(
        self, logit_dir, probit_dir, small_bank_csv, score_csv, tmp_path, capsys,
        dotted, value
    ):
        *parents, leaf = dotted.split(".")

        def spoil(header):
            node = header
            for part in parents:
                node = node[part]
            if value == "missing":
                del node[leaf]
            else:
                node[leaf] = value

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "spoiled.chain"), spoil)
        probit = os.path.join(probit_dir, "probit.chain")
        for argv in (["predict", chain, "--data", score_csv],
                     ["compare", probit, chain, "--data", small_bank_csv],
                     ["diagnose", chain]):
            assert main(argv) == EXIT_DATA, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert dotted in err, argv[0]

    @pytest.mark.parametrize("key, value", [("slope_sd", math.inf),
                                            ("intercept_mean", math.nan)])
    def test_non_finite_stored_prior_exits_2(
        self, logit_dir, probit_dir, small_bank_csv, tmp_path, capsys, key, value
    ):
        def spoil(header):
            header["model"]["prior"][key] = value

        chain = _rewrite_header(os.path.join(logit_dir, "logit.chain"),
                                str(tmp_path / "spoiled.chain"), spoil)
        code = main(["compare", os.path.join(probit_dir, "probit.chain"), chain,
                     "--data", small_bank_csv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: prior means and standard deviations must be finite\n"
        )

    def test_multi_character_stored_delimiter_exits_2(
        self, logit_dir, probit_dir, small_bank_csv, tmp_path, capsys
    ):
        def spoil(header):
            header["dataset"]["pipeline"]["delimiter"] = ";;"

        chains = [
            _rewrite_header(os.path.join(directory, f"{link}.chain"),
                            str(tmp_path / f"{link}.chain"), spoil)
            for directory, link in ((logit_dir, "logit"), (probit_dir, "probit"))
        ]
        code = main(["compare", *chains, "--data", small_bank_csv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: delimiter must be one character, got ';;'\n"


class TestVerify:
    @pytest.fixture(scope="class")
    def verify_json(self):
        """(exit code, checks) of one `verify --seed 0 --format json` run."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--seed", "0", "--format", "json"])
        return code, json.loads(out.getvalue())["checks"]

    def test_all_checks_pass(self, verify_json):
        code, checks = verify_json
        assert code == EXIT_OK
        names = {c["name"] for c in checks}
        assert {
            "logit_gradient_vs_central_difference",
            "probit_gradient_vs_central_difference",
            "grid_recovers_prior_moments",
            "sampler_matches_grid_integration",
            "psis_loo_matches_exact_loo",
        } <= names
        assert all(c["passed"] for c in checks)

    def test_text_format_lines(self, verify_json, monkeypatch, capsys):
        # The text rendering of the same checks, without rerunning them.
        _, checks = verify_json
        monkeypatch.setattr(
            cli, "run_verification", lambda seed: [CheckResult(**c) for c in checks]
        )
        assert main(["verify", "--seed", "0", "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(checks)
        assert all(
            line.startswith(("PASS", "FAIL")) for line in out.splitlines()
        )


class TestBenchmarkTracer:
    """benchmarks/tracing.py wraps functions by name on the cli module, so
    renaming one of those breaks the benchmark's traced runs."""

    def _spans(self, tmp_path, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        tracer = os.path.join(os.path.dirname(src), "benchmarks", "tracing.py")
        spans_path = tmp_path / "spans.json"
        result = subprocess.run(
            [sys.executable, tracer, str(spans_path), *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(spans_path.read_text())["spans"]

    def test_compare_spans(self, logit_dir, probit_dir, small_bank_csv, tmp_path):
        spans = self._spans(
            tmp_path, "compare", os.path.join(logit_dir, "logit.chain"),
            os.path.join(probit_dir, "probit.chain"), "--data", small_bank_csv,
        )
        assert {"chainfile.load", "data.parse", "data.prepare", "data.encode",
                "loo.pointwise_loglik", "loo.psis_loo"} <= {s["name"] for s in spans}
        loglik = [s for s in spans if s["name"] == "loo.pointwise_loglik"]
        assert len(loglik) == 2
        # The benchmark's loo.loglik_mb reads the whole S x D matrix over
        # the D distinct (x, y) training rows: 122 of the 200 here.
        chains = (os.path.join(logit_dir, "logit.chain"),
                  os.path.join(probit_dir, "probit.chain"))
        table = cli.parse_dataset(small_bank_csv, RunConfig.delimiter)
        for span, chain in zip(loglik, chains):
            header = json.loads(_read_bytes(chain).split(b"\n", 1)[0])
            n_draws = header["config"]["n_chains"] * header["config"]["n_draws"]
            design, target, _, _ = cli._training_set(table, header["dataset"]["pipeline"])
            n_distinct = len(np.unique(np.column_stack([design.values, target]), axis=0))
            assert n_distinct < header["dataset"]["n_rows"]
            assert span["attrs"]["bytes"] == 8 * n_draws * n_distinct

    def test_predict_spans(self, logit_dir, score_csv, tmp_path):
        spans = self._spans(
            tmp_path, "predict", os.path.join(logit_dir, "logit.chain"),
            "--data", score_csv,
        )
        assert {"chainfile.load", "data.parse_new_rows", "data.encode_new",
                "predict.posterior_predict"} <= {s["name"] for s in spans}


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        # Importing scipy.stats would more than double every command's start-up.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import sys, bernreg.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_import_and_logit_predict_load_no_scipy(self, logit_dir, score_csv):
        # scipy is imported where the probit link, the diagnostics and the
        # oracle call it, so start-up and a logit predict never load it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        chain = os.path.join(logit_dir, "logit.chain")
        probe = (
            "import contextlib, io, sys, bernreg.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = bernreg.cli.main(['predict', {chain!r}, '--data', {score_csv!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "0 []"]
