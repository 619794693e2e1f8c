"""Delimited-file parsing, sampling, class balancing, and design encoding.

The expected input is the 21-column direct-marketing table: ten categorical
predictors, ten numeric predictors, and a yes/no response. A parsed table
holds one string per level of each categorical column, shared by every
row of that level, and one float64 array per numeric column. Categorical
columns are label-encoded (codes 1..L in lexicographic level order, one
column per predictor) and all predictor columns are optionally standardized.
`encode` learns that metadata and `encode_new` applies it, to training rows
and scored rows alike, so new rows are coded exactly like the fit.
"""

import csv
import hashlib
import io
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, MismatchError
from .rngutil import seeded_rng, substream_seed

CATEGORICAL_COLUMNS = (
    "job", "marital", "education", "default", "housing", "loan",
    "contact", "month", "day_of_week", "poutcome",
)
NUMERIC_COLUMNS = (
    "age", "duration", "campaign", "pdays", "previous",
    "emp.var.rate", "cons.price.idx", "cons.conf.idx", "euribor3m",
    "nr.employed",
)
# File order of the twenty predictors; also the row order of reports.
PREDICTOR_ORDER = (
    "age", "job", "marital", "education", "default", "housing", "loan",
    "contact", "month", "day_of_week", "duration", "campaign", "pdays",
    "previous", "poutcome", "emp.var.rate", "cons.price.idx",
    "cons.conf.idx", "euribor3m", "nr.employed",
)
TARGET_COLUMN = "y"
TARGET_LABELS = {"no": 0, "yes": 1}

# Pipeline stage substreams, derived from the run seed.
SUBSAMPLE_STREAM = 1
BALANCE_STREAM = 2
TRIM_STREAM = 3
HOLDOUT_STREAM = 4

BALANCE_MODES = ("before", "after", "off")


@dataclass
class RecordTable:
    """Parsed rows: raw category strings, numeric arrays, 0/1 target."""

    categorical: dict
    numeric: dict
    target: np.ndarray
    source_indices: np.ndarray
    predictor_order: tuple = PREDICTOR_ORDER

    def __post_init__(self):
        n = len(self.target)
        for name, col in self.categorical.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} length differs from target")
        for name, col in self.numeric.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} length differs from target")
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
        rows = idx.tolist()
        return RecordTable(
            categorical={k: [v[i] for i in rows] for k, v in self.categorical.items()},
            numeric={k: v[idx] for k, v in self.numeric.items()},
            target=self.target[idx],
            source_indices=self.source_indices[idx],
            predictor_order=self.predictor_order,
        )


def _open_text(source):
    """A text stream over a path or a copy of a text stream's contents."""
    if hasattr(source, "read"):
        return io.StringIO(source.read())
    return open(source, "r", encoding="utf-8-sig", newline="")


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


def _read_table(source, delimiter, columns, categorical, require_target):
    """RecordTable of `columns` (file order is free) plus the yes/no response.

    Without `require_target` the response column is optional; a file that
    lacks it gets an all-zero target.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    stream = _open_text(source)
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty input: no header row") from None
        names = [c.strip().strip('"') for c in header]
        has_target = require_target or TARGET_COLUMN in names
        _check_header(names, list(columns) + ([TARGET_COLUMN] if has_target else []))
        pos = {c: names.index(c) for c in names}

        cat = {c: [] for c in columns if c in categorical}
        num = {c: array("d") for c in columns if c not in categorical}
        # One dict per column maps each level's text to its first copy.
        cat_fields = [(pos[c], {}.setdefault, cat[c].append) for c in cat]
        num_fields = [(pos[c], c, num[c].append) for c in num]
        target_pos = pos.get(TARGET_COLUMN)
        target = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataError(
                    f"row {row_number}: expected {len(names)} fields, got {len(row)}"
                )
            for i, level, append in cat_fields:
                text = row[i].strip()
                append(level(text, text))
            for i, c, append in num_fields:
                text = row[i].strip()
                try:
                    append(float(text))
                except ValueError:
                    raise DataError(
                        f"row {row_number}, column {c!r}: {text!r} is not a number"
                    ) from None
            if target_pos is None:
                target.append(0)
                continue
            label = row[target_pos].strip()
            if label not in TARGET_LABELS:
                raise DataError(
                    f"row {row_number}: target label {label!r} is not yes/no"
                )
            target.append(TARGET_LABELS[label])
    finally:
        stream.close()

    return RecordTable(
        categorical=cat,
        numeric={c: np.frombuffer(v, dtype=np.float64) for c, v in num.items()},
        target=np.asarray(target, dtype=np.int8),
        source_indices=np.arange(len(target), dtype=np.int64),
        predictor_order=tuple(columns),
    )


def parse_dataset(source, delimiter=";"):
    """Read the full 21-column table from a path or text stream."""
    return _read_table(source, delimiter, PREDICTOR_ORDER, CATEGORICAL_COLUMNS, True)


def parse_new_rows(source, delimiter, metadata):
    """Read predictor-only rows for scoring, using stored design metadata.

    The response column is optional; when present its labels are kept so
    callers can report them alongside predictions.
    """
    return _read_table(
        source, delimiter, metadata["column_names"], metadata["encoding_map"], False
    )


def write_records(table, path, delimiter=";"):
    """Write a table back out in the input file layout (strings quoted)."""
    columns = list(table.predictor_order) + [TARGET_COLUMN]
    inverse = {v: k for k, v in TARGET_LABELS.items()}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(columns)
        for i in range(table.n_rows):
            row = []
            for c in table.predictor_order:
                if c in table.categorical:
                    row.append(table.categorical[c][i])
                else:
                    value = table.numeric[c][i]
                    row.append(int(value) if float(value).is_integer() else float(value))
            row.append(inverse[int(table.target[i])])
            writer.writerow(row)


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
    """(train, holdout) from a seeded full shuffle; rows are disjoint."""
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
    names = tuple(table.predictor_order)
    encoding_map = {
        name: {level: i + 1 for i, level in enumerate(sorted(set(table.categorical[name])))}
        for name in names if name in table.categorical
    }
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

    Raises MismatchError for a category absent from training or columns
    that do not line up with the stored design, and ValueError for a
    stored scale that is not positive.
    """
    columns = list(metadata["column_names"])
    if list(table.predictor_order) != columns:
        raise MismatchError(
            "new data columns do not match the stored design: "
            f"{list(table.predictor_order)} vs {columns}"
        )
    n = table.n_rows
    encoding_map = metadata["encoding_map"]
    scaling = metadata["scaling"]
    out = np.empty((n, len(columns)), dtype=np.float64)
    for j, name in enumerate(columns):
        if name in encoding_map:
            codes = encoding_map[name]
            try:
                raw = np.fromiter(map(codes.__getitem__, table.categorical[name]),
                                  dtype=np.float64, count=n)
            except KeyError as unseen:
                raise MismatchError(
                    f"column {name!r}: level {unseen.args[0]!r} was not seen in training"
                ) from None
        else:
            raw = np.asarray(table.numeric[name], dtype=np.float64)
        center, scale = scaling[name]
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
