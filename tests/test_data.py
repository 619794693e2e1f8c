import csv
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import bankgen
from bernreg.data import (
    CACHE_ENTRIES,
    CATEGORICAL_COLUMNS,
    NUMERIC_COLUMNS,
    PREDICTOR_ORDER,
    DesignMatrix,
    _cache_key,
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


@pytest.fixture(scope="module")
def bank_5000_csv(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bank5000")
    return bankgen.write_bank_csv(
        os.path.join(str(directory), "bank5000.csv"), n_rows=5000, seed=5
    )


def _csv_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _column(table, name):
    """One parsed column: its level names if categorical, else its numbers."""
    col = table.values[:, PREDICTOR_ORDER.index(name)]
    if name in table.levels:
        return [table.levels[name][int(code)] for code in col]
    return col


def _set_column(table, name, cells):
    """Replace one column of `table` by these level names or numbers."""
    if name in table.levels:
        levels = tuple(sorted(set(cells)))
        table.levels = {**table.levels, name: levels}
        cells = [levels.index(cell) for cell in cells]
    table.values[:, PREDICTOR_ORDER.index(name)] = cells


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
        assert set(tiny_table.levels) == set(CATEGORICAL_COLUMNS)
        assert tiny_table.values.shape == (40, len(CATEGORICAL_COLUMNS) + len(NUMERIC_COLUMNS))
        assert tiny_table.values.dtype == np.float64
        assert tiny_table.values.flags.c_contiguous
        assert tiny_table.target.dtype == np.int8
        assert set(np.unique(tiny_table.target)) <= {0, 1}
        assert tiny_table.labelled is True
        assert [name for name in PREDICTOR_ORDER if name in tiny_table.levels] == list(
            tiny_table.levels)

    def test_reads_values_exactly(self, tiny_csv, tiny_table):
        lines = _csv_lines(tiny_csv)
        first = next(
            csv_row for csv_row in csv.reader(lines[1:2], delimiter=";")
        )
        header = next(
            csv_row for csv_row in csv.reader(lines[:1], delimiter=";")
        )
        for column in ("job", "month"):
            assert _column(tiny_table, column)[0] == first[header.index(column)]
        for column in ("age", "euribor3m"):
            assert _column(tiny_table, column)[0] == float(first[header.index(column)])

    def test_permuted_header_is_equivalent(self, tiny_csv, tiny_table):
        lines = _csv_lines(tiny_csv)
        reader = csv.reader(lines, delimiter=";")
        rows = list(reader)
        order = list(range(len(rows[0])))[::-1]
        out = io.StringIO()
        writer = csv.writer(out, delimiter=";")
        for row in rows:
            writer.writerow([row[i] for i in order])
        permuted = parse_dataset(io.StringIO(out.getvalue()), delimiter=";")
        assert np.array_equal(permuted.target, tiny_table.target)
        for column in CATEGORICAL_COLUMNS:
            assert _column(permuted, column) == _column(tiny_table, column)
        for column in NUMERIC_COLUMNS:
            assert np.array_equal(_column(permuted, column), _column(tiny_table, column))

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
        age = int(_column(tiny_table, "age")[0])
        lines[1] = lines[1].replace(str(age), "forty", 1)
        with pytest.raises(DataError, match="row 2, column 'age': 'forty' is not a number"):
            parse_dataset(io.StringIO("\n".join(lines)), delimiter=";")

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_number_rejected(self, tiny_csv, tiny_table, text):
        # A blank record after the header shifts each row's number by one; the
        # first non-finite cell in row order is named, with its text as written.
        rows = list(csv.reader(_csv_lines(tiny_csv), delimiter=";"))
        header = rows[0]
        rows[3][header.index("duration")] = f" {text} "
        rows[6][header.index("age")] = "inf"
        out = io.StringIO()
        csv.writer(out, delimiter=";").writerows([header, []] + rows[1:])
        message = f"^row 5, column 'duration': '{re.escape(text)}' is not finite$"
        with pytest.raises(DataError, match=message):
            parse_dataset(io.StringIO(out.getvalue()), delimiter=";")
        with pytest.raises(DataError, match=message):
            parse_new_rows(io.StringIO(out.getvalue()), ";")
        # A path that cannot seek, such as a pipe, is read again all the same.
        read_end, write_end = os.pipe()
        os.write(write_end, out.getvalue().encode("utf-8"))
        os.close(write_end)
        try:
            with pytest.raises(DataError, match=message):
                parse_dataset(f"/dev/fd/{read_end}", delimiter=";")
        finally:
            os.close(read_end)

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
            assert _column(back, column) == _column(tiny_table, column)
        for column in NUMERIC_COLUMNS:
            assert np.array_equal(_column(back, column), _column(tiny_table, column))


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty parsed-table cache of this test's own; the directory of its entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "bernreg"


def _entries(directory):
    return sorted(directory.glob("*.npz")) if directory.exists() else []


def _assert_same_table(got, expected):
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.values.shape == expected.values.shape and got.values.flags.c_contiguous
    assert got.levels == expected.levels
    assert all(type(names) is tuple for names in got.levels.values())
    assert got.target.dtype == expected.target.dtype
    assert np.array_equal(got.target, expected.target)
    assert np.array_equal(got.source_indices, expected.source_indices)
    assert got.labelled == expected.labelled


def _copy_with(path, destination, edit):
    """Copy of the file at `path` with its bytes passed through `edit`."""
    with open(path, "rb") as handle:
        destination.write_bytes(edit(handle.read()))
    return str(destination)


class TestParseCache:
    def test_hit_is_bit_equal_to_a_fresh_parse(self, tiny_csv, tiny_table, cache_dir):
        # Training rows and rows to score share the layout, so one entry serves both.
        for parse, outcomes in ((parse_dataset, ("miss", "hit")),
                                (parse_new_rows, ("hit", "hit"))):
            with open(tiny_csv, encoding="utf-8") as handle:
                fresh = parse(handle, ";")
            assert fresh.cache is None
            first, second = parse(tiny_csv, ";"), parse(tiny_csv, ";")
            assert (first.cache, second.cache) == outcomes
            _assert_same_table(first, fresh)
            _assert_same_table(second, fresh)
            _assert_same_table(second, tiny_table)
        assert len(_entries(cache_dir)) == 1

    def test_hit_parses_no_cell(self, tiny_csv, cache_dir, monkeypatch):
        expected = parse_dataset(tiny_csv, ";")

        def no_reader(*args, **kwargs):
            raise AssertionError("a cache hit read the CSV")

        monkeypatch.setattr(csv, "reader", no_reader)
        hit = parse_dataset(tiny_csv, ";")
        assert hit.cache == "hit"
        _assert_same_table(hit, expected)

    def test_key_covers_bytes_delimiter_and_metadata(self, monkeypatch):
        # Bytes, delimiter and parser source: no stored design can change the key.
        def key(data=b"age;y\n1;no\n", delimiter=";"):
            return _cache_key(io.BytesIO(data), delimiter)

        plain = key()
        assert key() == plain
        for changed in [key(data=b"age;y\n2;no\n"), key(delimiter=",")]:
            assert changed != plain
        monkeypatch.setattr("bernreg.data._source_digest", lambda: b"another parser")
        assert key() != plain

    def test_changed_byte_or_metadata_misses(self, tiny_csv, tiny_table, cache_dir, tmp_path):
        assert parse_dataset(tiny_csv, ";").cache == "miss"
        def first_age_plus_one(data):  # one byte: the first digit of row 2's age
            at = data.index(b"\n") + 1
            return data[:at] + bytes([data[at] + 1]) + data[at + 1:]

        table = parse_dataset(_copy_with(tiny_csv, tmp_path / "edited.csv", first_age_plus_one),
                              ";")
        assert table.cache == "miss"
        assert table.values[0, 0] == tiny_table.values[0, 0] + 10
        # Rows to score hit, whichever stored design scores them.
        table = parse_new_rows(tiny_csv, ";")
        assert table.cache == "hit"
        for standardize in (True, False):
            design, _ = encode(tiny_table, standardize=standardize)
            assert encode_new(design.metadata(), table).tobytes() == design.values.tobytes()
        assert len(_entries(cache_dir)) == 2
        assert parse_dataset(tiny_csv, ";").cache == "hit"

    def test_unlabelled_entry_never_serves_a_parse_that_requires_the_response(
            self, tiny_csv, cache_dir, tmp_path):
        unlabelled = _copy_with(tiny_csv, tmp_path / "nolabel.csv", lambda data: re.sub(
            rb";[^;\r\n]*(\r?\n)", rb"\1", data))  # drop the last column, the response
        table = parse_new_rows(unlabelled, ";")
        assert (table.cache, table.labelled) == ("miss", False)
        for _ in range(2):
            with pytest.raises(DataError, match="^missing columns: y$"):
                parse_dataset(unlabelled, ";")
        assert parse_new_rows(unlabelled, ";").cache == "hit"
        assert len(_entries(cache_dir)) == 1

    def test_unlabelled_entry_raises_the_header_error_without_parsing(
            self, tiny_csv, cache_dir, tmp_path, monkeypatch):
        unlabelled = _copy_with(tiny_csv, tmp_path / "nolabel.csv", lambda data: re.sub(
            rb";[^;\r\n]*(\r?\n)", rb"\1", data))  # drop the last column, the response
        assert parse_new_rows(unlabelled, ";").cache == "miss"

        def no_reader(*args, **kwargs):
            raise AssertionError("the entry's header error read the CSV")

        monkeypatch.setattr(csv, "reader", no_reader)
        with pytest.raises(DataError, match="^missing columns: y$"):
            parse_dataset(unlabelled, ";")

    def test_other_delimiter_misses(self, tiny_csv, cache_dir):
        assert parse_dataset(tiny_csv, ";").cache == "miss"
        # A hit would return the ";" table; the miss parses, and at "," the header is one column.
        with pytest.raises(DataError, match="missing columns"):
            parse_dataset(tiny_csv, ",")
        assert len(_entries(cache_dir)) == 1

    @pytest.mark.parametrize("damage", ["truncate", "flip", "empty"])
    def test_damaged_entry_misses_and_is_rewritten(self, tiny_csv, cache_dir, damage):
        expected = parse_dataset(tiny_csv, ";")
        [entry] = _entries(cache_dir)
        data = entry.read_bytes()
        if damage == "truncate":
            entry.write_bytes(data[: len(data) // 2])
        elif damage == "flip":  # a bit inside the values member: only its CRC-32 tells
            at = data.index(expected.values.tobytes()[:16]) + 8
            entry.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
        else:
            entry.write_bytes(b"")
        again = parse_dataset(tiny_csv, ";")
        assert again.cache == "miss"
        _assert_same_table(again, expected)
        assert entry.read_bytes() == data
        assert parse_dataset(tiny_csv, ";").cache == "hit"

    @pytest.mark.parametrize("change", ["values", "target", "levels", "dtype", "labelled",
                                        "labelled-dtype"])
    def test_entry_of_another_shape_misses(self, tiny_csv, cache_dir, change):
        expected = parse_dataset(tiny_csv, ";")
        [entry] = _entries(cache_dir)
        with np.load(entry) as stored:
            members = dict(stored)
        if change == "values":
            members["values"] = members["values"][:, :-1]
        elif change == "target":
            members["target"] = members["target"][:-1]
        elif change == "levels":
            members["levels"] = np.array(str(members["levels"]).replace('"job"', '"jobs"'))
        elif change == "labelled":
            del members["labelled"]
        elif change == "labelled-dtype":
            members["labelled"] = np.array(1)
        else:
            members["values"] = members["values"].astype(np.float32)
        with open(entry, "wb") as handle:
            np.savez(handle, **members)
        again = parse_dataset(tiny_csv, ";")
        assert again.cache == "miss"
        _assert_same_table(again, expected)

    @pytest.mark.parametrize("change", ["code-above-levels", "negative-code", "fractional-code",
                                        "nan", "inf", "target", "unsorted-levels",
                                        "level-not-text"])
    def test_entry_holding_what_no_parse_makes_misses_and_is_rewritten(
            self, bank_5000_csv, cache_dir, change):
        expected = parse_dataset(bank_5000_csv, ";")
        [entry] = _entries(cache_dir)
        data = entry.read_bytes()
        with np.load(entry) as stored:
            members = dict(stored)
        # The last row, so a check that stops early misses the damage.
        values, job = members["values"], PREDICTOR_ORDER.index("job")
        if change == "code-above-levels":  # the CRC stays valid: np.savez writes it anew
            values[-1, job] = 99.0
        elif change == "negative-code":
            values[-1, job] = -1.0
        elif change == "fractional-code":
            values[-1, job] = 0.5  # inside the level range
        elif change == "nan":
            values[-1, PREDICTOR_ORDER.index("age")] = np.nan
        elif change == "inf":
            values[-1, PREDICTOR_ORDER.index("duration")] = -np.inf
        elif change == "target":
            members["target"][-1] = 2
        else:
            levels = json.loads(str(members["levels"]))
            levels[0][1] = (levels[0][1][::-1] if change == "unsorted-levels"
                            else [1] + levels[0][1][1:])
            members["levels"] = np.array(json.dumps(levels))
        with open(entry, "wb") as handle:
            np.savez(handle, **members)
        again = parse_dataset(bank_5000_csv, ";")
        assert again.cache == "miss"
        _assert_same_table(again, expected)
        assert entry.read_bytes() == data
        assert parse_dataset(bank_5000_csv, ";").cache == "hit"

    def test_changed_parser_source_misses(self, tiny_csv, cache_dir, monkeypatch):
        assert parse_dataset(tiny_csv, ";").cache == "miss"
        monkeypatch.setattr("bernreg.data._source_digest", lambda: b"another parser")
        assert parse_dataset(tiny_csv, ";").cache == "miss"
        assert len(_entries(cache_dir)) == 2

    def test_unwritable_cache_is_skipped(self, tiny_csv, tiny_table, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for _ in range(2):
            table = parse_dataset(tiny_csv, ";")
            assert table.cache == "miss"
            _assert_same_table(table, tiny_table)
        assert blocker.read_text() == ""

    def test_relative_home_keeps_no_entry(self, tiny_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
        monkeypatch.setenv("HOME", "home")
        assert parse_dataset(tiny_csv, ";").cache is None
        assert os.listdir(tmp_path) == []

    def test_stream_and_pipe_keep_no_entry(self, tiny_csv, tiny_table, cache_dir):
        text = open(tiny_csv, encoding="utf-8").read()
        _assert_same_table(parse_dataset(io.StringIO(text), ";"), tiny_table)
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        try:
            table = parse_dataset(f"/dev/fd/{read_end}", ";")
        finally:
            os.close(read_end)
        assert table.cache is None
        _assert_same_table(table, tiny_table)
        assert not cache_dir.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda data: re.sub(rb'"no"(\r?\n)', rb'"maybe"\1', data, count=1),
         r"^row \d+: target label 'maybe' is not yes/no$"),
        (lambda data: data.replace(b"\n4", b"\n4;", 1), r"^row \d+: expected 21 fields, got 22$"),
        (lambda data: data[:len(data) // 2] + b"\xff" + data[len(data) // 2:],
         r"^'utf-8' codec can't decode byte 0xff in position \d+"),
    ])
    def test_bad_file_raises_as_before_and_keeps_no_entry(
            self, bank_5000_csv, cache_dir, tmp_path, monkeypatch, edit, message):
        bad = _copy_with(bank_5000_csv, tmp_path / "bad.csv", edit)
        with pytest.raises((DataError, ValueError), match=message) as cached:
            parse_dataset(bad, ";")
        assert _entries(cache_dir) == []
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setenv("HOME", "")  # no cache: no entry is looked up or written
        with pytest.raises((DataError, ValueError)) as uncached:
            parse_dataset(bad, ";")
        assert (type(cached.value), str(cached.value)) == (type(uncached.value),
                                                           str(uncached.value))

    def test_least_recently_used_entry_removed(self, tiny_csv, cache_dir, tmp_path):
        entries = []
        for k in range(CACHE_ENTRIES + 1):
            path = _copy_with(tiny_csv, tmp_path / f"copy{k}.csv",
                              lambda data: data + b"\n" * k)  # blank lines: same rows
            before = set(_entries(cache_dir))
            assert parse_dataset(path, ";").cache == "miss"
            [entry] = set(_entries(cache_dir)) - before
            entries.append(entry)
            os.utime(entry, (1e9 + k, 1e9 + k))  # distinct ages, whatever the clock's grain
            if k == CACHE_ENTRIES - 1:  # full: a hit makes the oldest entry the newest
                assert parse_dataset(str(tmp_path / "copy0.csv"), ";").cache == "hit"
        assert _entries(cache_dir) == sorted(entries[:1] + entries[2:])
        assert parse_dataset(str(tmp_path / "copy1.csv"), ";").cache == "miss"


class TestParseMemory:
    def test_levels_stored_once_sorted_and_decoding_gives_the_csv_text(self, bank_5000_csv):
        table = parse_dataset(bank_5000_csv, delimiter=";")
        with open(bank_5000_csv, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle, delimiter=";"))
        header = rows[0]
        for column in CATEGORICAL_COLUMNS:
            levels = table.levels[column]
            assert isinstance(levels, tuple)
            assert list(levels) == sorted(set(levels))
            expected = [row[header.index(column)].strip() for row in rows[1:]]
            assert _column(table, column) == expected
            assert set(levels) == set(expected)

    def test_table_bytes_per_row(self, bank_5000_csv):
        # One float64 matrix and level names stored once: no Python object per cell.
        tracemalloc.start()
        try:
            table = parse_dataset(bank_5000_csv, delimiter=";")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_rows == 5000
        assert retained / 5000 < 300
        assert peak / 5000 < 400


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
        assert np.array_equal(design.values[:, j], _column(tiny_table, "age"))
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
        _set_column(clone, "age", np.full(clone.n_rows, 33.0))
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

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("rows", ["all", "constant-columns", "one-row"])
    def test_training_rows_give_the_training_bytes(self, tiny_table, standardize, rows):
        # encode codes its rows with encode_new, so scoring the training rows
        # under the stored metadata reproduces the design bit for bit.
        table = tiny_table.take(np.arange(1 if rows == "one-row" else tiny_table.n_rows))
        if rows == "constant-columns":
            _set_column(table, "age", np.full(table.n_rows, 33.0))
            _set_column(table, "job", ["admin."] * table.n_rows)
        design, _ = encode(table, standardize=standardize)
        if rows != "all":
            assert {"age", "job"} <= set(design.constant_columns)
        values = encode_new(design.metadata(), table)
        assert values.dtype == design.values.dtype and values.shape == design.values.shape
        assert values.tobytes() == design.values.tobytes()

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
        _set_column(clone, "job", ["astronaut"] * 3)
        with pytest.raises(MismatchError, match="level 'astronaut' was not seen"):
            encode_new(design.metadata(), clone)
        # Seen levels first: the error names the column and the first unseen level.
        clone = tiny_table.take(np.arange(4))
        _set_column(clone, "job", _column(clone, "job")[:2] + ["astronaut", "cosmonaut"])
        with pytest.raises(MismatchError,
                           match="^column 'job': level 'astronaut' was not seen in training$"):
            encode_new(design.metadata(), clone)
        # The first row's unseen level, not the first in level order.
        _set_column(clone, "job", _column(clone, "job")[:2] + ["cosmonaut", "astronaut"])
        with pytest.raises(MismatchError,
                           match="^column 'job': level 'cosmonaut' was not seen in training$"):
            encode_new(design.metadata(), clone)

    def test_column_mismatch_rejected(self, tiny_table):
        metadata = encode(tiny_table)[0].metadata()
        metadata["column_names"].reverse()
        with pytest.raises(MismatchError, match="new data columns do not match"):
            encode_new(metadata, tiny_table)

    def test_categorical_column_mismatch_rejected(self, tiny_table):
        # Without this check a stored design lacking `job` would score its codes as numbers.
        metadata = encode(tiny_table)[0].metadata()
        del metadata["encoding_map"]["job"]
        with pytest.raises(MismatchError, match="categorical columns do not match"):
            encode_new(metadata, tiny_table)
        metadata = encode(tiny_table)[0].metadata()
        metadata["encoding_map"]["age"] = {}
        with pytest.raises(MismatchError, match="categorical columns do not match"):
            encode_new(metadata, tiny_table)

    def test_parse_new_rows_with_and_without_target(self, tiny_csv, tiny_table):
        with_target = parse_new_rows(tiny_csv, ";")
        assert with_target.n_rows == 40 and with_target.labelled
        assert np.array_equal(with_target.target, tiny_table.target)

        lines = _csv_lines(tiny_csv)
        reader = csv.reader(lines, delimiter=";")
        rows = list(reader)
        out = io.StringIO()
        writer = csv.writer(out, delimiter=";")
        for row in rows:
            writer.writerow(row[:-1])
        without = parse_new_rows(io.StringIO(out.getvalue()), ";")
        assert without.n_rows == 40 and not without.labelled
        assert not without.target.any()

    def test_parse_new_rows_header_mismatch(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        bad = [lines[0].replace('"age"', '"years"')] + lines[1:]
        with pytest.raises(DataError, match="missing columns: age; unexpected columns: years"):
            parse_new_rows(io.StringIO("\n".join(bad)), ";")

    def test_parse_new_rows_duplicate_column(self, tiny_csv):
        lines = _csv_lines(tiny_csv)
        doubled = [lines[0] + ';"age"'] + [line + ";41" for line in lines[1:]]
        with pytest.raises(DataError, match="duplicate columns in header"):
            parse_new_rows(io.StringIO("\n".join(doubled)), ";")


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
