"""Delimited-file parsing, sampling, class balancing, and design encoding.

Every file is read in one layout, which this module alone fixes: the
21-column direct-marketing table, in any column order. A parsed table holds
one (rows, predictors) float64 matrix in PREDICTOR_ORDER, in which each of
the CATEGORICAL_COLUMNS holds a row's index into its sorted level names;
NUMERIC_COLUMNS are the other predictors.
Categorical columns are label-encoded (codes 1..L in lexicographic level
order, one column per predictor) and all predictor columns are optionally
standardized.
`encode` learns that metadata and `encode_new` applies it, to training rows
and scored rows alike, so new rows are coded exactly like the fit.

A regular file is parsed once per content: its parsed table is kept in a
cache of .npz entries, keyed by this module's source, the delimiter and the
file's bytes, so any later parse of the same bytes loads it instead. An
entry is outside input: one that does not load whole, or holds what no parse
makes, is a miss, and the fresh parse replaces it.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import stat
import zipfile
from array import array
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import islice

import numpy as np

from .errors import DataError, MismatchError
from .rngutil import seeded_rng, substream_seed

CATEGORICAL_COLUMNS = (
    "job", "marital", "education", "default", "housing", "loan",
    "contact", "month", "day_of_week", "poutcome",
)
# File order of the twenty predictors; also the row order of reports.
PREDICTOR_ORDER = (
    "age", "job", "marital", "education", "default", "housing", "loan",
    "contact", "month", "day_of_week", "duration", "campaign", "pdays",
    "previous", "poutcome", "emp.var.rate", "cons.price.idx",
    "cons.conf.idx", "euribor3m", "nr.employed",
)
NUMERIC_COLUMNS = tuple(c for c in PREDICTOR_ORDER if c not in CATEGORICAL_COLUMNS)
TARGET_COLUMN = "y"
TARGET_LABELS = {"no": 0, "yes": 1}

# Pipeline stage substreams, derived from the run seed.
SUBSAMPLE_STREAM = 1
BALANCE_STREAM = 2
TRIM_STREAM = 3
HOLDOUT_STREAM = 4

BALANCE_MODES = ("before", "after", "off")

# Parsed-table cache entries kept; a 41,188-row entry is 6.6 MB.
CACHE_ENTRIES = 16


@dataclass
class RecordTable:
    """Parsed rows: a C-contiguous (rows, predictors) float64 matrix, 0/1 target.

    Column j of `values` is PREDICTOR_ORDER[j]. A categorical column holds
    each row's index into `levels[name]`, its sorted tuple of level names.
    `labelled` says whether the file had the response. `cache` says how a
    parse got the table: "hit" or "miss" of the parsed-table cache, or None.
    """

    values: np.ndarray
    levels: dict
    target: np.ndarray
    source_indices: np.ndarray
    labelled: bool
    cache: str | None = None

    def __post_init__(self):
        n = len(self.target)
        if self.values.shape != (n, len(PREDICTOR_ORDER)):
            raise ValueError("values shape differs from (target length, predictors)")
        if len(self.source_indices) != n:
            raise ValueError("source_indices length differs from target")

    @property
    def n_rows(self):
        return len(self.target)

    def class_counts(self):
        """(negatives, positives)."""
        ones = int(self.target.sum())
        return self.n_rows - ones, ones

    def take(self, indices):
        """New table holding the given row positions, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, values=self.values[idx], target=self.target[idx],
                       source_indices=self.source_indices[idx])


def _check_header(names, expected):
    missing = [c for c in expected if c not in names]
    extra = [c for c in names if c not in expected]
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing columns: " + ", ".join(missing))
        if extra:
            parts.append("unexpected columns: " + ", ".join(extra))
        raise DataError("; ".join(parts))
    if len(names) != len(expected):
        raise DataError("duplicate columns in header")


class _Levels(dict):
    """Cell text -> its first-seen index among the column's distinct texts, as a float."""

    def __missing__(self, text):
        self[text] = code = float(len(self))
        return code


def _read_table(source, delimiter, require_target):
    """RecordTable of the predictors (file order is free) plus the yes/no response.

    Without `require_target` the response column is optional; a file that
    lacks it gets an all-zero target. Every number must be finite. A path
    is read whole, as bytes. A regular file's table goes through the cache
    of parsed tables; a stream, a pipe or any other file gets no entry.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    if hasattr(source, "read"):
        return _parse(io.StringIO(source.read()), delimiter, require_target)
    with open(source, "rb") as handle:
        directory = _cache_dir()
        cached = directory is not None and stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        if cached:
            # The lookup hashes the file in chunks, so a hit never holds its bytes.
            table = _load_entry(os.path.join(directory, _cache_key(handle, delimiter) + ".npz"))
            if table is not None:
                if require_target and not table.labelled:
                    # The entry's file has every predictor and no response:
                    # raise the header error a fresh parse of it raises.
                    _check_header(PREDICTOR_ORDER, PREDICTOR_ORDER + (TARGET_COLUMN,))
                return table
            handle.seek(0)
        data = handle.read()
    if cached:  # the entry is keyed by the very bytes parsed
        entry = os.path.join(directory, _cache_key(io.BytesIO(data), delimiter) + ".npz")
    table = _parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""),
                   delimiter, require_target)
    del data
    if cached:
        _store_entry(entry, table)
        table.cache = "miss"
    return table


def _cache_dir():
    """$XDG_CACHE_HOME/bernreg, else ~/.cache/bernreg; None without an absolute home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "bernreg") if os.path.isabs(base) else None


@cache
def _source_digest():
    """sha256 of this module's source, so a changed parser never serves an old table."""
    with open(__file__, "rb") as handle:
        return hashlib.sha256(handle.read()).digest()


def _cache_key(stream, delimiter):
    """Hex sha256 of the parser source, the delimiter and a binary stream's bytes."""
    digest = hashlib.sha256(_source_digest())
    digest.update(json.dumps(delimiter).encode("utf-8") + b"\n")  # JSON holds no raw newline
    for chunk in iter(lambda: stream.read(1 << 16), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _load_entry(path):
    """The cached table at `path`, or None for an entry that is not a parse's table."""
    try:
        with np.load(path, allow_pickle=False) as entry:  # reading a member checks its CRC-32
            values, target, labelled = entry["values"], entry["target"], entry["labelled"]
            levels = {name: tuple(names) for name, names in json.loads(str(entry["levels"]))}
        if (values.dtype != np.float64 or target.dtype != np.int8 or labelled.dtype != bool
                or list(levels) != [c for c in PREDICTOR_ORDER if c in CATEGORICAL_COLUMNS]):
            return None
        table = RecordTable(values=values, levels=levels, target=target,  # checks the shapes
                            source_indices=np.arange(len(target), dtype=np.int64),
                            labelled=bool(labelled), cache="hit")
        if not _parsed_values(table):
            return None
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return None  # an entry that does not load whole, or holds what no parse makes, misses
    with contextlib.suppress(OSError):
        os.utime(path)  # a hit counts as new for the entry bound
    return table


def _parsed_values(table):
    """Whether `table` holds only what a parse makes: finite values, whole level
    codes into sorted level names, and a 0/1 target. The values are read
    2,048 rows at a time, so a hit makes no table-sized temporary."""
    levels = [j for j, c in enumerate(PREDICTOR_ORDER) if c in table.levels]
    top = np.array([len(names) - 1 for names in table.levels.values()])
    for start in range(0, table.n_rows, 2048):
        block = table.values[start:start + 2048]
        codes = block[:, levels]
        if not (np.isfinite(block).all() and (codes >= 0).all() and (codes <= top).all()
                and (np.trunc(codes) == codes).all()):
            return False
    return (all(list(names) == sorted(set(map(str, names))) for names in table.levels.values())
            and table.target.min(initial=0) >= 0 and table.target.max(initial=0) <= 1)


def _store_entry(path, table):
    """Write `table` at `path` through a temporary file, then keep the newest
    CACHE_ENTRIES entries. A cache that cannot be written is skipped."""
    partial = f"{path}.{os.getpid()}.partial"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(partial, "wb") as handle:
            np.savez(handle, values=table.values, target=table.target,
                     labelled=np.array(table.labelled),
                     levels=np.array(json.dumps(list(table.levels.items()))))
        os.replace(partial, path)
        with os.scandir(os.path.dirname(path)) as scan:
            entries = sorted((e.stat().st_mtime_ns, e.path) for e in scan
                             if e.name.endswith(".npz"))
        for _, stale in entries[:-CACHE_ENTRIES]:
            os.remove(stale)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(partial)


def _parse(stream, delimiter, require_target):
    """RecordTable parsed from a seekable text stream, which it closes."""
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        names = [c.strip().strip('"') for c in header]
        labelled = require_target or TARGET_COLUMN in names
        _check_header(names, list(PREDICTOR_ORDER) + ([TARGET_COLUMN] if labelled else []))
        pos = {c: names.index(c) for c in names}

        coders = {j: _Levels() for j, c in enumerate(PREDICTOR_ORDER) if c in CATEGORICAL_COLUMNS}
        fields = [(pos[c], coders[j].__getitem__ if j in coders else float)
                  for j, c in enumerate(PREDICTOR_ORDER)]
        flat, target = array("d"), array("b")
        append = flat.append
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataError(f"row {row_number}: expected {len(names)} fields, got {len(row)}")
            try:
                for i, code in fields:
                    append(code(row[i]))
            except ValueError:
                raise DataError(f"row {row_number}, column {names[i]!r}: "
                                f"{row[i].strip()!r} is not a number") from None
            label = row[pos[TARGET_COLUMN]].strip() if labelled else "no"
            if label not in TARGET_LABELS:
                raise DataError(f"row {row_number}: target label {label!r} is not yes/no")
            target.append(TARGET_LABELS[label])

        values = np.frombuffer(flat).reshape(len(target), len(PREDICTOR_ORDER))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:  # read the cell again, to name its record and its text as written
            r, j = divmod(int(bad[0]), len(PREDICTOR_ORDER))
            stream.seek(0)
            records = (item for item in enumerate(csv.reader(stream, delimiter=delimiter), 1)
                       if item[1])
            row_number, row = next(islice(records, r + 1, None))
            text = row[pos[PREDICTOR_ORDER[j]]].strip()
            raise DataError(f"row {row_number}, column {PREDICTOR_ORDER[j]!r}: "
                            f"{text!r} is not finite")
    finally:
        stream.close()

    levels = {}
    for j, coder in coders.items():  # recode from first-seen text to sorted level order
        first_seen = [text.strip() for text in coder]
        levels[PREDICTOR_ORDER[j]] = tuple(sorted(set(first_seen)))
        rank = {name: k for k, name in enumerate(levels[PREDICTOR_ORDER[j]])}
        values[:, j] = np.array([rank[name] for name in first_seen])[values[:, j].astype(int)]
    return RecordTable(values=values, levels=levels, target=np.frombuffer(target, np.int8),
                       source_indices=np.arange(len(target), dtype=np.int64), labelled=labelled)


def parse_dataset(source, delimiter=";"):
    """Read the full 21-column table from a path or text stream."""
    return _read_table(source, delimiter, True)


def parse_new_rows(source, delimiter):
    """Read rows to score: the full table's layout, with the response optional.

    A response that is present keeps its labels. A file shares its cache
    entry with `parse_dataset`, so rows that a fit parsed are not parsed again.
    """
    return _read_table(source, delimiter, False)


def write_records(table, path, delimiter=";"):
    """Write a table back out in the input file layout (strings quoted)."""
    columns = list(PREDICTOR_ORDER) + [TARGET_COLUMN]
    inverse = {v: k for k, v in TARGET_LABELS.items()}
    levels = [table.levels.get(c) for c in PREDICTOR_ORDER]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(columns)
        for cells, label in zip(table.values.tolist(), table.target.tolist()):
            row = [names[int(x)] if names is not None else int(x) if x.is_integer() else x
                   for names, x in zip(levels, cells)]
            writer.writerow(row + [inverse[label]])


def _partial_shuffle_take(n_total, n_take, rng):
    """First n_take entries of a seeded Fisher-Yates shuffle of 0..n_total-1."""
    idx = list(range(n_total))
    # One broadcast call makes the same draws as a call per position.
    for i, j in enumerate(rng.integers(np.arange(n_take), n_total).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:n_take], dtype=np.int64)


def subsample(table, n, seed):
    """Uniform without-replacement sample of n rows."""
    if n < 1:
        raise DataError(f"sample size must be positive, got {n}")
    if n > table.n_rows:
        raise DataError(f"sample size {n} exceeds table size {table.n_rows}")
    rng = seeded_rng(seed)
    return table.take(_partial_shuffle_take(table.n_rows, n, rng))


@dataclass
class BalanceReport:
    """What oversampling did, for the run record."""

    n_before: int
    n_positive_before: int
    n_after: int
    n_positive_after: int
    duplicated_rows: list
    seed: int

    def to_dict(self):
        return dict(vars(self))


def balance_oversample(table, seed):
    """Duplicate minority rows (with replacement) until classes are equal."""
    n_neg, n_pos = table.class_counts()
    if n_neg == 0 or n_pos == 0:
        raise DataError(
            f"both classes required, got {n_neg} negatives and {n_pos} positives"
        )
    minority = 1 if n_pos < n_neg else 0
    deficit = abs(n_neg - n_pos)
    positions = np.flatnonzero(table.target == minority)
    rng = seeded_rng(seed)
    if deficit == 0:
        duplicated = np.empty(0, dtype=np.int64)
    else:
        duplicated = positions[rng.integers(0, len(positions), size=deficit)]
    order = np.concatenate([np.arange(table.n_rows, dtype=np.int64), duplicated])
    report = BalanceReport(
        n_before=table.n_rows,
        n_positive_before=n_pos,
        n_after=len(order),
        n_positive_after=max(n_neg, n_pos),
        duplicated_rows=duplicated.tolist(),
        seed=int(seed),
    )
    return table.take(order), report


def stratified_trim(table, n, seed):
    """Seeded per-class subsample down to n rows, split as evenly as n allows."""
    if n < 2 or n > table.n_rows:
        raise DataError(f"trim size {n} out of range for {table.n_rows} rows")
    n_pos_target = n // 2
    n_neg_target = n - n_pos_target
    rng = seeded_rng(seed)
    keep = []
    for label, want in ((0, n_neg_target), (1, n_pos_target)):
        positions = np.flatnonzero(table.target == label)
        if want > len(positions):
            raise DataError(
                f"trim wants {want} rows of class {label}, only {len(positions)} present"
            )
        keep.append(positions[_partial_shuffle_take(len(positions), want, rng)])
    order = np.sort(np.concatenate(keep))
    return table.take(order)


def holdout_split(table, n_holdout, seed):
    """(rest, holdout) from a seeded full shuffle. `fit` splits the parsed table,
    before any row is copied, so the two sides share no source row."""
    if not 0 < n_holdout < table.n_rows:
        raise DataError(
            f"holdout size {n_holdout} out of range for {table.n_rows} rows"
        )
    rng = seeded_rng(seed)
    perm = _partial_shuffle_take(table.n_rows, table.n_rows, rng)
    return table.take(perm[n_holdout:]), table.take(perm[:n_holdout])


def prepare_training_table(table, n, balance_mode, seed):
    """subsample/balance pipeline with per-stage substreams of `seed`.

    Modes: "after" (default) subsamples n rows, oversamples the minority,
    then trims back to n stratified; "before" balances the full table first
    and then subsamples; "off" only subsamples. n = 0 means the whole table.
    Returns (table, BalanceReport or None).
    """
    if balance_mode not in BALANCE_MODES:
        raise ValueError(f"unknown balance mode {balance_mode!r}")
    s_sub = substream_seed(seed, SUBSAMPLE_STREAM)
    s_bal = substream_seed(seed, BALANCE_STREAM)
    s_trim = substream_seed(seed, TRIM_STREAM)

    if balance_mode == "before":
        out, report = balance_oversample(table, s_bal)
        if n:
            out = subsample(out, n, s_sub)
        return out, report

    out = subsample(table, n, s_sub) if n else table
    if balance_mode == "off":
        return out, None
    out, report = balance_oversample(out, s_bal)
    if n and out.n_rows > n:
        out = stratified_trim(out, n, s_trim)
    return out, report


@dataclass
class DesignMatrix:
    """Numeric design with the metadata needed to encode future rows."""

    values: np.ndarray
    column_names: tuple
    encoding_map: dict = field(default_factory=dict)
    scaling: dict = field(default_factory=dict)
    standardized: bool = False
    constant_columns: tuple = ()

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("design values must be 2-D")
        if self.values.shape[1] != len(self.column_names):
            raise ValueError("column_names length differs from design width")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_columns(self):
        return self.values.shape[1]

    def metadata(self):
        """JSON-ready description sufficient to encode new rows."""
        return {
            "column_names": list(self.column_names),
            "encoding_map": {
                c: dict(levels) for c, levels in sorted(self.encoding_map.items())
            },
            "scaling": {c: [float(a), float(b)] for c, (a, b) in sorted(self.scaling.items())},
            "standardized": bool(self.standardized),
            "constant_columns": list(self.constant_columns),
        }

    @staticmethod
    def metadata_schema(stored):
        """`chainfile`'s schema of what encoding new rows reads of a stored `metadata()`."""
        names = stored.get("column_names") if type(stored) is dict else None
        pairs = {n: (float, float) for n in names if type(n) is str} if type(names) is list else {}
        return {"column_names": [str], "encoding_map": {str: {str: int}}, "scaling": pairs}

    @classmethod
    def from_values(cls, values):
        """Plain numeric design, identity scaling; for synthetic inputs."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        column_names = tuple(f"x{j + 1}" for j in range(values.shape[1]))
        scaling = {c: (0.0, 1.0) for c in column_names}
        return cls(values=values, column_names=column_names, scaling=scaling)


def encode(table, standardize=True):
    """(DesignMatrix, target) from a record table.

    Categorical codes are 1..L in lexicographic level order, and the rows
    are coded by `encode_new`, the coder of scored rows. Standardization
    centers and scales by the sample sd (denominator n-1); constant columns
    keep scale 1 and are flagged instead of divided by zero.
    """
    if table.n_rows == 0:
        raise DataError("cannot encode an empty table")
    names = PREDICTOR_ORDER
    # Levels are stored sorted, so the codes that occur, ascending, give them in order.
    present = {name: np.flatnonzero(np.bincount(col.astype(int)))
               for name, col in zip(names, table.values.T) if name in table.levels}
    encoding_map = {name: {table.levels[name][k]: i + 1 for i, k in enumerate(codes)}
                    for name, codes in present.items()}
    scaling = {name: (0.0, 1.0) for name in names}
    metadata = {"column_names": names, "encoding_map": encoding_map, "scaling": scaling}
    values = encode_new(metadata, table)
    constants = []
    for name, col in zip(names, values.T):
        if standardize:
            center = float(col.mean())
            scale = float(col.std(ddof=1)) if table.n_rows > 1 else 0.0
            if scale == 0.0:
                scale = 1.0
                constants.append(name)
            col -= center
            col /= scale
            scaling[name] = (center, scale)
        elif np.ptp(col) == 0.0:
            constants.append(name)
    design = DesignMatrix(values=values, column_names=names, encoding_map=encoding_map,
                          scaling=scaling, standardized=standardize,
                          constant_columns=tuple(constants))
    return design, table.target.astype(np.float64)


def encode_new(metadata, table):
    """Design values for new rows under stored metadata.

    The one check of a stored design against the layout: raises
    MismatchError for stored columns or categorical columns other than the
    table's, or a category absent from training; and ValueError for a stored
    center or scale that is not finite or a scale that is not positive.
    """
    columns = list(metadata["column_names"])
    if columns != list(PREDICTOR_ORDER):
        raise MismatchError("new data columns do not match the stored design: "
                            f"{list(PREDICTOR_ORDER)} vs {columns}")
    encoding_map = metadata["encoding_map"]
    if sorted(encoding_map) != sorted(table.levels):
        raise MismatchError("new data categorical columns do not match the stored design: "
                            f"{sorted(table.levels)} vs {sorted(encoding_map)}")
    n = table.n_rows
    scaling = metadata["scaling"]
    out = np.empty((n, len(columns)), dtype=np.float64)
    for j, name in enumerate(columns):
        raw = table.values[:, j]
        if name in encoding_map:
            codes, levels = raw.astype(int), table.levels[name]
            raw = np.array([encoding_map[name].get(level, np.nan) for level in levels])[codes]
            if np.isnan(raw).any():
                level = levels[codes[np.isnan(raw).argmax()]]
                raise MismatchError(f"column {name!r}: level {level!r} was not seen in training")
        center, scale = scaling[name]
        if not np.isfinite((center, scale)).all():
            raise ValueError(f"column {name!r} has non-finite center or scale ({center}, {scale})")
        if not scale > 0:
            raise ValueError(f"column {name!r} has non-positive scale {scale}")
        out[:, j] = (raw - center) / scale
    return out


# Decimals of the raw design values that a dataset fingerprint tells apart.
_FINGERPRINT_DECIMALS = 6


def dataset_fingerprint(design, target):
    """Row-order-independent content hash of the rows of [design | target].

    Design columns are un-standardized and rounded to _FINGERPRINT_DECIMALS
    decimals: that removes the last-bit noise the standardizing sums pick up
    from the row order. The rows are then sorted lexicographically and their
    bytes hashed, so the same rows in any order fingerprint alike.
    """
    center, scale = np.array(
        [design.scaling.get(name, (0.0, 1.0)) for name in design.column_names],
        dtype=np.float64,
    ).reshape(-1, 2).T
    raw = np.rint((design.values * scale + center) * 10.0**_FINGERPRINT_DECIMALS)
    table = np.column_stack([raw, np.asarray(target, dtype=np.float64)]) + 0.0  # no -0.0
    rows = np.ascontiguousarray(table[np.lexsort(table.T[::-1])], dtype="<f8")
    digest = hashlib.sha256(f"{rows.shape[0]}x{rows.shape[1]}:".encode("ascii"))
    digest.update(rows.tobytes())
    return digest.hexdigest()[:16]
