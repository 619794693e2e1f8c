import json

import numpy as np
import pytest

from bernreg.chainfile import (
    FORMAT_TAG,
    HEADER_SCHEMA,
    load_chain_file,
    save_chain_file,
    schema_errors,
)
from bernreg.cli import main
from bernreg.errors import CorruptChainFile

from conftest import make_draws

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def sample_draws():
    rng = np.random.default_rng(42)
    arr = rng.standard_normal((2, 5, 3))
    # values with awkward reprs: subnormals, negatives, integers
    arr[0, 0] = [1.0, -2.5, 3.3333333333333335]
    arr[1, 4, 0] = 5e-324
    return make_draws(arr, param_names=("Intercept", "x1", "x2"), seed=9)


MODEL_INFO = {
    "link": "logit",
    "prior": {"intercept_mean": 3.5, "intercept_sd": 1.0, "slope_mean": 0.0, "slope_sd": 0.5},
    "design": {
        "column_names": ["x1", "x2"],
        "encoding_map": {},
        "scaling": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]},
    },
}
DATASET_INFO = {
    "fingerprint": "cafe01",
    "n_rows": 10,
    "pipeline": {
        "delimiter": ";", "subsample": 10, "balance": "off", "holdout": 0,
        "seed": 9, "standardize": False,
    },
}


class TestRoundTrip:
    def test_bit_exact_draws(self, sample_draws, tmp_path):
        path = str(tmp_path / "fit.chain")
        save_chain_file(path, sample_draws, MODEL_INFO, DATASET_INFO)
        restored, header = load_chain_file(path)
        assert np.array_equal(restored.draws, sample_draws.draws)
        assert restored.param_names == sample_draws.param_names
        assert restored.config == sample_draws.config
        assert restored.step_sizes == sample_draws.step_sizes
        assert restored.accept_rates == sample_draws.accept_rates
        assert header["model"] == MODEL_INFO
        assert header["dataset"] == DATASET_INFO

    def test_rewrite_is_byte_identical(self, sample_draws, tmp_path):
        path_a = str(tmp_path / "a.chain")
        path_b = str(tmp_path / "b.chain")
        save_chain_file(path_a, sample_draws, MODEL_INFO, DATASET_INFO)
        restored, header = load_chain_file(path_a)
        save_chain_file(path_b, restored, header["model"], header["dataset"])
        assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_header_is_single_json_line(self, sample_draws, tmp_path):
        path = str(tmp_path / "fit.chain")
        save_chain_file(path, sample_draws, MODEL_INFO, DATASET_INFO)
        first = open(path, "rb").read().split(b"\n")[0]
        header = json.loads(first)
        assert header["format"] == FORMAT_TAG
        assert list(header) == sorted(header)

    def test_divergence_iterations_preserved(self, sample_draws, tmp_path):
        from dataclasses import replace

        draws = replace(sample_draws, divergence_iterations=((1, 3), ()))
        path = str(tmp_path / "fit.chain")
        save_chain_file(path, draws, MODEL_INFO, DATASET_INFO)
        restored, _ = load_chain_file(path)
        assert restored.divergence_iterations == ((1, 3), ())


def _write_and_read_lines(tmp_path, sample_draws):
    path = str(tmp_path / "fit.chain")
    save_chain_file(path, sample_draws, MODEL_INFO, DATASET_INFO)
    raw = open(path, "rb").read()
    return path, raw


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.chain")
        open(path, "w").close()
        with pytest.raises(CorruptChainFile) as info:
            load_chain_file(path)
        assert info.value.offset == 0

    def test_not_json_header(self, tmp_path):
        path = str(tmp_path / "bad.chain")
        with open(path, "w") as handle:
            handle.write("this is not json\nchain,iteration,a\n")
        with pytest.raises(CorruptChainFile) as info:
            load_chain_file(path)
        assert info.value.offset == 0

    def test_wrong_format_tag(self, tmp_path, sample_draws):
        # Format 1's fingerprint hashed only row and class counts; it is not read.
        for tag in ("other/9", "bernreg-chain/1"):
            path, raw = _write_and_read_lines(tmp_path, sample_draws)
            lines = raw.split(b"\n")
            header = json.loads(lines[0])
            header["format"] = tag
            lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            open(path, "wb").write(b"\n".join(lines))
            with pytest.raises(CorruptChainFile, match="not a bernreg-chain/2 file"):
                load_chain_file(path)

    def test_missing_header_keys(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        del header["step_sizes"]
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="step_sizes"):
            load_chain_file(path)

    def test_column_header_mismatch_offset(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        lines[1] = b"chain,iteration,wrong,names,here"
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile) as info:
            load_chain_file(path)
        assert info.value.offset == len(lines[0]) + 1

    def test_truncated_rows(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        open(path, "wb").write(b"\n".join(lines[:5]))
        with pytest.raises(CorruptChainFile, match="expected 10 draw rows"):
            load_chain_file(path)

    def test_mangled_row_reports_its_offset(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        target_row = 4  # third draw row (lines: header, columns, rows...)
        lines[target_row] = lines[target_row].replace(b",", b";", 1)
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile) as info:
            load_chain_file(path)
        expected_offset = sum(len(l) + 1 for l in lines[:target_row])
        assert info.value.offset == expected_offset

    def test_non_finite_value_rejected(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        fields = lines[2].split(b",")
        fields[2] = b"nan"
        lines[2] = b",".join(fields)
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="non-finite"):
            load_chain_file(path)

    def test_out_of_sequence_row(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        # swap two draw rows
        lines[2], lines[3] = lines[3], lines[2]
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="expected chain"):
            load_chain_file(path)

    def test_extra_rows_rejected(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        with open(path, "ab") as handle:
            handle.write(b"0,0,1.0,1.0,1.0\n")
        with pytest.raises(CorruptChainFile, match="more draw rows"):
            load_chain_file(path)

    def test_inflated_draw_count_is_damage_not_an_allocation(
            self, tmp_path, sample_draws, capsys):
        # numpy refuses (2, 10**15, 3) draws at once: draws sized from the header
        # would die with a MemoryError, so they must come from the rows read.
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["config"]["n_draws"] = 10**15
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        # Chain 0 now holds every row read, so chain 1's first row is out of sequence.
        with pytest.raises(CorruptChainFile, match="^row 5: expected chain 0 iteration 5, "
                                                   "found chain 1 iteration 0") as info:
            load_chain_file(path)
        assert info.value.offset == sum(len(line) + 1 for line in lines[:7])
        assert main(["diagnose", path]) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_bad_config_in_header(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["config"]["n_chains"] = -1
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="config"):
            load_chain_file(path)

    @pytest.mark.parametrize("key, value", [
        ("n_draws", 5.9), ("n_chains", True), ("seed", "7"), ("target_accept", "0.8"),
    ])
    def test_config_value_of_another_type_rejected(self, tmp_path, sample_draws, key, value):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["config"][key] = value
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match=f"config.{key}") as info:
            load_chain_file(path)
        assert info.value.exit_code == 3

    def test_extra_config_key_still_loads(self, tmp_path, sample_draws):
        # Headers written before init_radius was removed still load.
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["config"]["init_radius"] = 2.0
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        restored, _ = load_chain_file(path)
        assert restored.config == sample_draws.config


class TestHeaderSchema:
    @pytest.mark.parametrize("value, kind, bad", [
        (1, int, []), (True, int, [""]), (1, float, [""]), (None, str, [""]),
        ([], [str], []), (["a", 1], [str], [""]), ([[1], []], [[int]], []),
        ([0.0, 1.0], (float, float), []), ([0.0], (float, float), [""]),
        ([0.0, 1.0, 2.0], (float, float), [""]), ((0.0, 1.0), (float, float), [""]),
        ({"a": 1, "b": "x"}, {str: int}, ["b"]), ([], {str: int}, [""]),
        ({"a": {"b.c": 1.0}}, {str: {str: int}}, ["a.b.c"]),
        ({"a": 1, "extra": None}, {"a": int, "b": str}, ["b"]),
        ("x", lambda value: {"a": int}, [""]),
    ])
    def test_check_names_each_bad_path(self, value, kind, bad):
        assert schema_errors(value, kind) == bad

    def test_written_header_passes_and_unlisted_values_are_not_walked(self, tmp_path,
                                                                      sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        header = json.loads(raw.split(b"\n")[0])
        assert schema_errors(header, HEADER_SCHEMA) == []
        header["dataset"]["balance"] = {"duplicated_rows": "unread"}
        header["model"]["design"]["scaling"]["unused"] = "unread"
        assert schema_errors(header, HEADER_SCHEMA) == []

    def test_design_needs_a_pair_for_every_column_name(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        design = header["model"]["design"]
        del design["scaling"]["x2"]
        design["encoding_map"] = {"job": {"blue-collar": 1, "admin.": "2"}}
        design["column_names"].append(3)
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile) as info:
            load_chain_file(path)
        assert str(info.value).startswith(
            "header keys missing or of another type: model.design.column_names, "
            "model.design.encoding_map.job.admin., model.design.scaling.x2"
        )
