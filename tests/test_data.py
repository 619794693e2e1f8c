import io
import os

import numpy as np
import pytest

import bankgen
from bernreg.data import (
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    PREDICTOR_ORDER,
    DesignMatrix,
    RecordTable,
    _partial_shuffle_take,
    balance_oversample,
    dataset_fingerprint,
    encode,
    encode_new,
    holdout_split,
    parse_dataset,
    parse_new_rows,
    prepare_training_table,
    stratified_trim,
    subsample,
    write_records,
)
from bernreg.errors import DataError, MismatchError
from bernreg.rngutil import seeded_rng

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    return bankgen.write_bank_csv(
        os.path.join(str(directory), "tiny.csv"), n_rows=40, seed=3
    )


@pytest.fixture(scope="module")
def tiny_table(tiny_csv):
    return parse_dataset(tiny_csv, delimiter=";")


def _csv_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _shuffle_take_per_call(n_total, n_take, rng):
    """Fisher-Yates drawing each swap target with its own call."""
    idx = np.arange(n_total, dtype=np.int64)
    for i in range(n_take):
        j = int(rng.integers(i, n_total))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n_take]


class TestParse:
    def test_shape_and_types(self, tiny_table):
        assert tiny_table.n_rows == 40
        assert set(tiny_table.categorical) == set(CATEGORICAL_COLUMNS)
        assert set(tiny_table.numeric) == set(NUMERIC_COLUMNS)
        assert tiny_table.target.dtype == np.int8
        assert set(np.unique(tiny_table.target)) <= {0, 1}
        assert tiny_table.predictor_order == PREDICTOR_ORDER

    def test_reads_values_exactly(self, tiny_csv, tiny_table):
        lines = _csv_lines(tiny_csv)
        first = next(
            csv_row for csv_row in __import__("csv").reader(lines[1:2], delimiter=";")
        )
        header = next(
            csv_row for csv_row in __import__("csv").reader(lines[:1], delimiter=";")
        )
        for column in ("job", "month"):
            assert tiny_table.categorical[column][0] == first[header.index(column)]
        for column in ("age", "euribor3m"):
            assert tiny_table.numeric[column][0] == float(first[header.index(column)])

    def test_permuted_header_is_equivalent(self, tiny_csv, tiny_table):
        lines = _csv_lines(tiny_csv)
        reader = __import__("csv").reader(lines, delimiter=";")
        rows = list(reader)
        order = list(range(len(rows[0])))[::-1]
        out = io.StringIO()
        writer = __import__("csv").writer(out, delimiter=";")
        for row in rows:
            writer.writerow([row[i] for i in order])
        permuted = parse_dataset(io.StringIO(out.getvalue()), delimiter=";")
        assert np.array_equal(permuted.target, tiny_table.target)
        for column in CATEGORICAL_COLUMNS:
            assert permuted.categorical[column] == tiny_table.categorical[column]
        for column in NUMERIC_COLUMNS:
            assert np.array_equal(permuted.numeric[column], tiny_table.numeric[column])

    def test_alternate_delimiter(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        text = "\n".join(line.replace(";", ",") for line in lines)
        table = parse_dataset(io.StringIO(text), delimiter=",")
        assert table.n_rows == 40

    def test_empty_input(self):
        with pytest.raises(DataError, match="no header row"):
            parse_dataset(io.StringIO(""), delimiter=";")

    def test_missing_column(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        header = lines[0].replace('"age";', "")
        with pytest.raises(DataError, match="missing columns: age$"):
            parse_dataset(io.StringIO("\n".join([header] + lines[1:])), delimiter=";")

    def test_extra_column(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        bad = [lines[0].replace('"age"', '"age";"bogus"')] + [
            line.replace(";", ";0;", 1) for line in lines[1:]
        ]
        with pytest.raises(DataError, match="unexpected columns: bogus"):
            parse_dataset(io.StringIO("\n".join(bad)), delimiter=";")

    def test_short_row(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        lines[3] = lines[3].rsplit(";", 2)[0]
        with pytest.raises(DataError, match="row 4: expected 21 fields"):
            parse_dataset(io.StringIO("\n".join(lines)), delimiter=";")

    def test_unparseable_number(self, tiny_csv, tiny_table):
        lines = _csv_lines(tiny_csv)
        age = int(tiny_table.numeric["age"][0])
        lines[1] = lines[1].replace(str(age), "forty", 1)
        with pytest.raises(DataError, match="row 2, column 'age': 'forty' is not a number"):
            parse_dataset(io.StringIO("\n".join(lines)), delimiter=";")

    def test_unknown_target_label(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        lines[2] = lines[2].rsplit(";", 1)[0] + ';"maybe"'
        with pytest.raises(DataError, match="row 3: target label 'maybe' is not yes/no"):
            parse_dataset(io.StringIO("\n".join(lines)), delimiter=";")

    def test_blank_lines_skipped(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        padded = [lines[0], ""] + lines[1:] + ["", ""]
        table = parse_dataset(io.StringIO("\n".join(padded)), delimiter=";")
        assert table.n_rows == 40

    def test_write_round_trip(self, tiny_table, tmp_path):
        path = str(tmp_path / "out.csv")
        write_records(tiny_table, path, delimiter=";")
        back = parse_dataset(path, delimiter=";")
        assert np.array_equal(back.target, tiny_table.target)
        for column in CATEGORICAL_COLUMNS:
            assert back.categorical[column] == tiny_table.categorical[column]
        for column in NUMERIC_COLUMNS:
            assert np.array_equal(back.numeric[column], tiny_table.numeric[column])


class TestSampling:
    def test_subsample_size_and_membership(self, tiny_table):
        out = subsample(tiny_table, 12, seed=5)
        assert out.n_rows == 12
        assert len(set(out.source_indices.tolist())) == 12
        assert set(out.source_indices.tolist()) <= set(range(40))

    def test_subsample_deterministic(self, tiny_table):
        a = subsample(tiny_table, 15, seed=9)
        b = subsample(tiny_table, 15, seed=9)
        c = subsample(tiny_table, 15, seed=10)
        assert np.array_equal(a.source_indices, b.source_indices)
        assert not np.array_equal(a.source_indices, c.source_indices)

    def test_subsample_rejects_bad_sizes(self, tiny_table):
        with pytest.raises(DataError, match="sample size must be positive, got 0"):
            subsample(tiny_table, 0, seed=1)
        with pytest.raises(DataError, match="sample size 41 exceeds table size 40"):
            subsample(tiny_table, 41, seed=1)

    def test_holdout_disjoint_and_complete(self, tiny_table):
        train, held = holdout_split(tiny_table, 10, seed=4)
        assert train.n_rows == 30 and held.n_rows == 10
        train_idx = set(train.source_indices.tolist())
        held_idx = set(held.source_indices.tolist())
        assert train_idx.isdisjoint(held_idx)
        assert train_idx | held_idx == set(range(40))

    def test_holdout_rejects_bad_sizes(self, tiny_table):
        with pytest.raises(DataError, match="holdout size 0 out of range for 40 rows"):
            holdout_split(tiny_table, 0, seed=1)
        with pytest.raises(DataError, match="holdout size 40 out of range for 40 rows"):
            holdout_split(tiny_table, 40, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
    def test_shuffle_take_draws_as_one_call_per_position(self, seed):
        # Every sample, trim and holdout comes from this shuffle: a numpy
        # that draws broadcast bounds differently fails here rather than
        # silently changing the training sets.
        for n_total, n_take in ((41188, 41188), (41188, 10000), (7, 3), (1, 1), (5, 0)):
            rng, ref_rng = seeded_rng(seed), seeded_rng(seed)
            taken = _partial_shuffle_take(n_total, n_take, rng)
            expected = _shuffle_take_per_call(n_total, n_take, ref_rng)
            assert taken.dtype == np.int64
            assert np.array_equal(taken, expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBalance:
    def test_oversample_equalizes(self, tiny_table):
        balanced, report = balance_oversample(tiny_table, seed=2)
        n_neg, n_pos = balanced.class_counts()
        assert n_neg == n_pos
        assert report.n_before == 40
        assert report.n_after == balanced.n_rows
        assert report.n_positive_after == n_pos

    def test_duplicates_come_from_minority(self, tiny_table):
        n_neg, n_pos = tiny_table.class_counts()
        minority = 1 if n_pos < n_neg else 0
        _, report = balance_oversample(tiny_table, seed=2)
        for position in report.duplicated_rows:
            assert int(tiny_table.target[position]) == minority

    def test_original_rows_all_kept(self, tiny_table):
        balanced, _ = balance_oversample(tiny_table, seed=2)
        counts = np.bincount(balanced.source_indices, minlength=40)
        assert np.all(counts >= 1)

    def test_single_class_rejected(self, tiny_table):
        positions = np.flatnonzero(tiny_table.target == 0)
        negatives_only = tiny_table.take(positions)
        with pytest.raises(DataError, match="both classes required"):
            balance_oversample(negatives_only, seed=1)

    def test_already_balanced_is_identity(self, tiny_table):
        positions = np.concatenate([
            np.flatnonzero(tiny_table.target == 0)[:3],
            np.flatnonzero(tiny_table.target == 1)[:3],
        ])
        even = tiny_table.take(positions)
        balanced, report = balance_oversample(even, seed=1)
        assert balanced.n_rows == 6
        assert report.duplicated_rows == []

    def test_stratified_trim_splits_evenly(self, tiny_table):
        balanced, _ = balance_oversample(tiny_table, seed=2)
        trimmed = stratified_trim(balanced, 20, seed=3)
        assert trimmed.n_rows == 20
        assert trimmed.class_counts() == (10, 10)

    def test_stratified_trim_rejects_bad_sizes(self, tiny_table):
        with pytest.raises(DataError, match="trim size 1 out of range"):
            stratified_trim(tiny_table, 1, seed=1)
        with pytest.raises(DataError, match="trim size 41 out of range"):
            stratified_trim(tiny_table, 41, seed=1)


class TestPrepare:
    def test_after_mode_returns_balanced_n(self, tiny_table):
        out, report = prepare_training_table(tiny_table, 20, "after", seed=11)
        assert out.n_rows == 20
        assert out.class_counts() == (10, 10)
        assert report is not None

    def test_off_mode_subsamples_only(self, tiny_table):
        out, report = prepare_training_table(tiny_table, 20, "off", seed=11)
        assert out.n_rows == 20
        assert report is None

    def test_before_mode_balances_first(self, tiny_table):
        out, report = prepare_training_table(tiny_table, 20, "before", seed=11)
        assert out.n_rows == 20
        assert report.n_before == 40

    def test_zero_keeps_everything(self, tiny_table):
        out, report = prepare_training_table(tiny_table, 0, "off", seed=11)
        assert out.n_rows == 40
        assert report is None

    def test_unknown_mode(self, tiny_table):
        with pytest.raises(ValueError):
            prepare_training_table(tiny_table, 20, "sideways", seed=11)

    def test_deterministic(self, tiny_table):
        a, _ = prepare_training_table(tiny_table, 20, "after", seed=11)
        b, _ = prepare_training_table(tiny_table, 20, "after", seed=11)
        assert np.array_equal(a.source_indices, b.source_indices)


class TestEncode:
    def test_codes_are_lexicographic(self, tiny_table):
        design, _ = encode(tiny_table, standardize=False)
        for column, codes in design.encoding_map.items():
            levels = sorted(codes)
            assert [codes[level] for level in levels] == list(range(1, len(levels) + 1))

    def test_unstandardized_numeric_passthrough(self, tiny_table):
        design, target = encode(tiny_table, standardize=False)
        j = design.column_names.index("age")
        assert np.array_equal(design.values[:, j], tiny_table.numeric["age"])
        assert np.array_equal(target, tiny_table.target.astype(float))
        assert not design.standardized

    def test_standardized_moments(self, tiny_table):
        design, _ = encode(tiny_table, standardize=True)
        for j, name in enumerate(design.column_names):
            if name in design.constant_columns:
                continue
            col = design.values[:, j]
            assert abs(col.mean()) < 1e-12
            assert abs(col.std(ddof=1) - 1.0) < 1e-12

    def test_column_order_matches_file_order(self, tiny_table):
        design, _ = encode(tiny_table)
        assert design.column_names == PREDICTOR_ORDER

    def test_constant_column_flagged_not_divided(self, tiny_table):
        clone = tiny_table.take(np.arange(tiny_table.n_rows))
        clone.numeric["age"] = np.full(clone.n_rows, 33.0)
        design, _ = encode(clone, standardize=True)
        assert "age" in design.constant_columns
        j = design.column_names.index("age")
        assert np.all(design.values[:, j] == 0.0)
        assert design.scaling["age"] == (33.0, 1.0)

    def test_empty_table_rejected(self, tiny_table):
        empty = tiny_table.take(np.empty(0, dtype=np.int64))
        with pytest.raises(DataError, match="cannot encode an empty table"):
            encode(empty)



class TestEncodeNew:
    def test_same_rows_give_same_values(self, tiny_table):
        design, _ = encode(tiny_table, standardize=True)
        values = encode_new(design.metadata(), tiny_table)
        assert np.allclose(values, design.values, atol=1e-12)

    def test_non_positive_stored_scale_rejected_before_dividing(self, tiny_table):
        design, _ = encode(tiny_table, standardize=True)
        for bad in (0.0, -1.0):
            metadata = design.metadata()
            metadata["scaling"]["duration"][1] = bad
            with pytest.raises(ValueError, match="'duration' has non-positive scale"):
                encode_new(metadata, tiny_table)

    def test_unseen_level_rejected(self, tiny_table):
        design, _ = encode(tiny_table)
        clone = tiny_table.take(np.arange(3))
        clone.categorical["job"] = ["astronaut"] * 3
        with pytest.raises(MismatchError, match="level 'astronaut' was not seen"):
            encode_new(design.metadata(), clone)

    def test_column_mismatch_rejected(self, tiny_table):
        design, _ = encode(tiny_table)
        reordered = RecordTable(
            categorical=tiny_table.categorical,
            numeric=tiny_table.numeric,
            target=tiny_table.target,
            source_indices=tiny_table.source_indices,
            predictor_order=tuple(reversed(PREDICTOR_ORDER)),
        )
        with pytest.raises(MismatchError, match="new data columns do not match"):
            encode_new(design.metadata(), reordered)

    def test_parse_new_rows_with_and_without_target(self, tiny_csv, tiny_table):
        design, _ = encode(tiny_table)
        with_target = parse_new_rows(tiny_csv, ";", design.metadata())
        assert with_target.n_rows == 40
        assert np.array_equal(with_target.target, tiny_table.target)

        lines = _csv_lines(tiny_csv)
        reader = __import__("csv").reader(lines, delimiter=";")
        rows = list(reader)
        out = io.StringIO()
        writer = __import__("csv").writer(out, delimiter=";")
        for row in rows:
            writer.writerow(row[:-1])
        without = parse_new_rows(io.StringIO(out.getvalue()), ";", design.metadata())
        assert without.n_rows == 40
        assert not without.target.any()

    def test_parse_new_rows_header_mismatch(self, tiny_csv, tiny_table):
        design, _ = encode(tiny_table)
        lines = _csv_lines(tiny_csv)
        bad = [lines[0].replace('"age"', '"years"')] + lines[1:]
        with pytest.raises(DataError, match="missing columns: age; unexpected columns: years"):
            parse_new_rows(io.StringIO("\n".join(bad)), ";", design.metadata())

    def test_parse_new_rows_duplicate_column(self, tiny_csv, tiny_table):
        design, _ = encode(tiny_table)
        lines = _csv_lines(tiny_csv)
        doubled = [lines[0] + ';"age"'] + [line + ";41" for line in lines[1:]]
        with pytest.raises(DataError, match="duplicate columns in header"):
            parse_new_rows(io.StringIO("\n".join(doubled)), ";", design.metadata())


class TestFingerprint:
    def test_row_order_independent(self, tiny_table):
        design, target = encode(tiny_table)
        perm = np.random.default_rng(0).permutation(tiny_table.n_rows)
        shuffled = tiny_table.take(perm)
        design2, target2 = encode(shuffled)
        assert dataset_fingerprint(design, target) == dataset_fingerprint(design2, target2)

    def test_changes_with_class_counts(self, tiny_table):
        design, target = encode(tiny_table)
        flipped = target.copy()
        flipped[0] = 1.0 - flipped[0]
        assert dataset_fingerprint(design, target) != dataset_fingerprint(design, flipped)

    def test_changes_with_rows_at_equal_counts(self, tiny_table):
        design, target = encode(tiny_table)
        base = dataset_fingerprint(design, target)
        # Same shape and class counts, different rows.
        swapped = target.copy()
        zero, one = np.flatnonzero(target == 0)[0], np.flatnonzero(target == 1)[0]
        swapped[[zero, one]] = swapped[[one, zero]]
        assert dataset_fingerprint(design, swapped) != base
        moved = DesignMatrix(
            values=design.values.copy(),
            column_names=design.column_names,
            scaling=design.scaling,
            standardized=design.standardized,
        )
        moved.values[5, 2] += 0.5
        assert dataset_fingerprint(moved, target) != base

    def test_changes_with_size(self, tiny_table):
        design, target = encode(tiny_table)
        fewer = tiny_table.take(np.arange(30))
        design2, target2 = encode(fewer)
        assert dataset_fingerprint(design, target) != dataset_fingerprint(design2, target2)
