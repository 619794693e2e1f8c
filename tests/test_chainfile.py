import json

import numpy as np
import pytest

from bernreg.chainfile import (
    FORMAT_TAG,
    LEGACY_FORMAT_TAG,
    load_chain_file,
    save_chain_file,
)
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
    "prior": {"intercept_mean": 3.5},
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

    def test_format_1_file_still_reads(self, sample_draws, tmp_path):
        path = str(tmp_path / "fit.chain")
        save_chain_file(path, sample_draws, MODEL_INFO, DATASET_INFO)
        lines = open(path, "rb").read().split(b"\n")
        header = json.loads(lines[0])
        header["format"] = LEGACY_FORMAT_TAG
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        restored, header = load_chain_file(path)
        assert header["format"] == "bernreg-chain/1"
        assert np.array_equal(restored.draws, sample_draws.draws)

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
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["format"] = "other/9"
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="bernreg-chain/1"):
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

    def test_bad_config_in_header(self, tmp_path, sample_draws):
        path, raw = _write_and_read_lines(tmp_path, sample_draws)
        lines = raw.split(b"\n")
        header = json.loads(lines[0])
        header["config"]["n_chains"] = -1
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        open(path, "wb").write(b"\n".join(lines))
        with pytest.raises(CorruptChainFile, match="config"):
            load_chain_file(path)
