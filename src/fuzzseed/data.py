"""Dataset container, CSV ingestion, and basic statistics.

A dataset is an n x p matrix of finite real feature values plus an
optional integer label per row. Points are plain numpy rows; there is no
separate point class.
"""

import csv
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Schema tag of every JSON document fuzzseed writes.
SCHEMA = "fuzzseed/1"

STANDARDIZE_MODES = ("none", "z-score", "min-max")


class DataError(Exception):
    """Raised for unreadable, malformed, or inconsistent dataset input."""


def read_json(path, what: str):
    """The JSON document at `path`, the `what` (manifest, spec, result) of a command."""
    try:
        return json.loads(Path(path).read_text())
    # bad UTF-8 or bad JSON is a ValueError, nesting too deep for the parser a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def check_types(values, integers, reals) -> None:
    """Raise ValueError naming the first key of `integers` and `reals` in the mapping
    `values` whose value is not a JSON integer or number (a bool is neither), or is
    a number float64 cannot hold; an absent key is not checked, and rng_seed may be
    None (a fresh seed)."""
    for name in (name for name in (*integers, *reals) if name in values):
        value = values[name]
        kind = numbers.Integral if name in integers else numbers.Real
        if (isinstance(value, bool) or not isinstance(value, kind)) and not (
            name == "rng_seed" and value is None
        ):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
        if kind is numbers.Real:
            try:
                float(value)
            except OverflowError:  # an integer beyond float64; compared as is, it passes as finite
                raise ValueError(f"{name} must be finite, got an integer too large for "
                                 f"float64") from None


@dataclass(frozen=True)
class Dataset:
    """Immutable n x p numeric dataset with optional per-row labels.

    Construction copies the arrays it is given and marks the copies
    read-only, so instances are safe to share across concurrent readers
    and a caller's later writes never reach them. A table the library
    builds itself (a generator's, a loaded CSV's, a rescaled copy) is
    adopted instead: checked by the same rules and marked read-only, but
    not copied, since no caller holds it.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        self._settle(np.array(self.points, dtype=float), copy=True)

    @classmethod
    def _adopt(cls, points: np.ndarray, labels: np.ndarray | None, name: str) -> "Dataset":
        """A Dataset that owns `points` (a float64 array) and `labels`
        without copying them: for arrays the library has just built and
        hands to no caller."""
        d = object.__new__(cls)
        object.__setattr__(d, "labels", labels)
        object.__setattr__(d, "name", name)
        d._settle(points, copy=False)
        return d

    def _settle(self, pts: np.ndarray, copy: bool) -> None:
        """The one validation: check the float table `pts` and self.labels,
        mark both read-only and store them. The labels are cast to int64,
        and copied when `copy`."""
        if pts.ndim != 2:
            raise DataError(f"points must be 2-D, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"need n >= 1 and p >= 1, got shape {pts.shape}")
        # min and max propagate NaN and reach any infinity, and scan the
        # table without the n x p mask np.isfinite would allocate
        if not (np.isfinite(pts.min()) and np.isfinite(pts.max())):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise DataError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            # Labels other than a numeric array are read as Python objects:
            # numpy infers float64 (or uint64) for a list of ints that
            # reaches 2**63, which loses their value, and a cast to int
            # would truncate 1.5 to 1.
            given = self.labels
            if not (isinstance(given, np.ndarray) and given.dtype.kind in "iuf"):
                given = np.array(given, dtype=object)
            flat = given.ravel()
            try:
                bad = _first_bad_label(flat)
            except TypeError:  # a label that is not a number
                raise DataError("labels must be integer ids") from None
            if bad is not None:
                row, problem = bad
                raise DataError(
                    f"{problem} label {flat.item(row)} at row {row + 1}: labels are int64 ids"
                )
            labs = given.astype(int, copy=copy)
            if labs.shape != (pts.shape[0],):
                raise DataError(
                    f"labels length {labs.shape} does not match n={pts.shape[0]}"
                )
            labs.setflags(write=False)
            object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


def _floats(cells) -> list[float] | None:
    """The cells as finite floats, or None if any is not one, each read by
    float() (underscores, Unicode digits, padding)."""
    try:
        values = [float(cell) for cell in cells]
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


@np.errstate(invalid="ignore")  # Python comparing a nan sets the invalid flag
def _first_bad_label(values: np.ndarray) -> tuple[int, str] | None:
    """The index of the first value that is not an int64 id, and what is
    wrong with it, or None: a label is an integer of magnitude below 2**63.
    `values` is a 1-D array of floats, integers or Python numbers."""
    ok = (values > -(2**63)) & (values < 2**63)  # False for nan and inf
    if values.dtype.kind not in "iu":  # an integer array holds only integers
        inside = np.where(ok, values, 0).astype(float, copy=False)  # an int stays integral
        ok &= inside == np.trunc(inside)
    if ok.all():
        return None
    row = int(np.argmin(ok))
    value = values[row]
    in_range = -(2**63) < value < 2**63
    return row, "non-integer" if in_range or value != value else "out-of-range"


# Rows read, converted and written per step: a CSV's memory grows with
# this chunk, not with the file.
_CHUNK_ROWS = 1024


def load_csv(path, label_column: str | None = None, delimiter: str = ",") -> Dataset:
    """Load a numeric CSV into a Dataset.

    The first row is treated as a header when any of its cells fails to
    parse as a finite number. `label_column` names a header column holding
    integer class ids of magnitude below 2**63, read exactly as int64 (or,
    for a cell int() rejects, as a float such as 4.0 or 1e3); it is
    excluded from the feature matrix. Decimal point only; missing values
    are rejected. A leading UTF-8 byte-order mark is dropped.

    The csv module reads the header; the data lines are converted
    _CHUNK_ROWS at a time or more, up to a record's end, by numpy's C text
    reader, which parses a number as float() does and a quoted cell as the
    csv module does. A chunk the reader does not take, or in which a quoted
    cell holds a line end, is walked by _convert_chunk over the csv module's
    records, which converts it or raises a DataError giving the 1-based
    record (line) / column of the first ragged row, non-numeric cell or bad
    label. A file that cannot be opened, decoded or parsed as CSV is a
    DataError too; a delimiter that is not one character, or is a line end
    or the quote character, is a ValueError.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in '\r\n"':  # numpy's reader raises TypeError on each
        other = "the quote character" if delimiter == '"' else "a line end"
        raise ValueError(f"delimiter must be one character other than {other}, "
                         f"got {delimiter!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            points, labels = _read_table(path, fh, label_column, delimiter)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset._adopt(points, labels, name)


def _read_table(path, fh, label_column, delimiter) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) from a CSV file opened with newline=""."""
    read = []  # the lines the csv module reads, to the end of the first non-blank record
    records = enumerate(csv.reader((read.append(line) or line for line in fh),
                                   delimiter=delimiter), start=1)
    line, first = next(((line, row) for line, row in records if row), (0, None))
    if first is None:
        raise DataError(f"{path}: file contains no data")
    has_header = _floats(first) is None
    header = [cell.strip() for cell in first] if has_header else None
    # a headerless first row goes to numpy's reader as the raw text it is
    chunks = _chunks(fh, line) if has_header else _chunks(itertools.chain(read, fh), 0)
    head = next(chunks, None)
    if head is None:
        raise DataError(f"{path}: no data rows after header")

    if label_column is not None and label_column not in (header or ()):
        raise DataError(f"{path}: label column {label_column!r} not found in header")
    label_idx = None if label_column is None else header.index(label_column)

    points, labels = zip(*(_convert(path, chunk, len(first), label_idx, delimiter)
                           for chunk in itertools.chain([head], chunks)))
    return np.concatenate(points), None if label_idx is None else np.concatenate(labels)


def _chunks(fh, record):
    """The lines of `fh` after record `record` as (number of the first
    record, lines, spans), _CHUNK_ROWS lines at a time or more: a chunk
    grows until its last record ends, since a line that leaves an odd count
    of quote characters behind it ends inside a quoted cell. `spans` tells
    that a record of the chunk holds a line end. A chunk of blank lines is
    skipped, and one whose growth passes the csv module's field limit ends
    there, since its open cell is then an error."""
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        inside = [0]  # 1 for a line that ends inside a quoted cell
        if '"' in "".join(lines):
            inside = [n % 2 for n in itertools.accumulate(line.count('"') for line in lines)]
            grown = 0  # characters of the open cell past _CHUNK_ROWS lines
            while inside[-1] and grown <= csv.field_size_limit() and (line := next(fh, "")):
                lines.append(line)
                grown += len(line)
                inside.append((inside[-1] + line.count('"')) % 2)
        if _blank(lines) < len(lines):
            yield record + 1, lines, any(inside)
        record += len(lines) - sum(inside)


def _blank(lines: list[str]) -> int:
    """How many of the lines are blank: a line end alone, which the csv
    module and numpy's reader both skip."""
    return lines.count("\n") + lines.count("\r\n") + lines.count("\r")


def _convert(path, chunk, width, label_idx, delimiter) -> tuple[np.ndarray, np.ndarray | None]:
    """A chunk of _chunks as (points, labels) by _parse_lines, unless a
    record of it spans lines: the csv module's field limit applies to such
    a cell, not to each of its lines. Otherwise, or if _parse_lines does not
    take the chunk, _convert_chunk walks the csv module's records of it."""
    first, lines, spans = chunk
    if not spans and (converted := _parse_lines(lines, width, label_idx, delimiter)):
        return converted
    rows = [(line, cells) for line, cells in
            enumerate(csv.reader(lines, delimiter=delimiter), start=first) if cells]
    return _convert_chunk(path, rows, width, label_idx)


def _parse_lines(lines, width, label_idx, delimiter):
    """Lines of one record each as (points, labels) by numpy's C reader, or
    None if _convert_chunk must read them: a cell the reader rejects (a
    spelling only float() reads, an empty cell, a ragged row), a width other
    than the header's, a non-finite value, a label that is not an integer of
    magnitude below 2**53, or a line beyond the csv module's field limit."""
    if max(map(len, lines)) > csv.field_size_limit():  # the csv module reads or rejects it
        return None
    try:
        # every column as float64: numpy releases that only deprecate a float
        # in an integer field read a 0.5 label there as 0
        table = np.loadtxt(lines, delimiter=delimiter, comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    if label_idx is None:
        return table, None
    labels = table[:, label_idx]
    # below 2**53 a float holds an integer exactly, so it is the id int() reads
    if not ((np.abs(labels) < 2**53).all() and (labels == np.trunc(labels)).all()):
        return None
    return np.delete(table, label_idx, axis=1), labels.astype(np.int64)


def _convert_chunk(path, chunk, width, label_idx) -> tuple[np.ndarray, np.ndarray | None]:
    """A chunk of (line, cells) rows that numpy's reader did not take, as
    (points, labels), labels None without a label column. One walk in file
    order (width, then each cell) converts what only Python reads, such as
    1_0 or a label of magnitude 2**53 or more, and raises the first
    defect's DataError: the labels walked so far are checked together
    before a width or cell defect is named, and at the end."""
    points, labels, walked = [], [], []  # walked: (line, cell) of each label

    def check_labels():
        if bad := _first_bad_label(np.array(labels, dtype=object)):
            line, cell = walked[bad[0]]
            raise DataError(f"{path}: {bad[1]} label {cell!r} at line {line}")

    for line, row in chunk:
        if len(row) != width:
            check_labels()
            raise DataError(f"{path}: row at line {line} has {len(row)} cells, expected {width}")
        for col, cell in enumerate(row, start=1):
            cell = cell.strip()
            value = _label(cell) if col - 1 == label_idx else _floats([cell])
            if value is None:
                check_labels()
                raise DataError(f"{path}: non-numeric cell {cell!r} at line {line}, column {col}")
            if col - 1 != label_idx:
                points += value
            else:
                labels.append(value)
                walked.append((line, cell))
    check_labels()
    points = np.array(points, dtype=float).reshape(len(chunk), width - (label_idx is not None))
    return points, None if label_idx is None else np.array(list(map(int, labels)), dtype=np.int64)


def _label(cell: str) -> int | float | None:
    """A stripped label cell read exactly by int() or, if int() rejects it,
    by _floats (4.0, 1e3); None if neither reads it."""
    try:
        return int(cell)
    except ValueError:
        value = _floats([cell])
        return None if value is None else value[0]


def load_csv_source(source: dict, base_dir) -> Dataset:
    """Load the CSV a {"path", "label_column"?, "delimiter"?} object names;
    a relative path resolves against base_dir. A field of the wrong JSON
    type is a ValueError."""
    path, label_column = source["path"], source.get("label_column")
    if not isinstance(path, str):
        raise ValueError(f"path must be a string, got {type(path).__name__}")
    if not isinstance(label_column, (str, type(None))):
        raise ValueError(f"label_column must be a string, got {type(label_column).__name__}")
    return load_csv(
        Path(base_dir) / path,
        label_column=label_column,
        delimiter=source.get("delimiter", ","),
    )


def write_csv(d: Dataset, path) -> None:
    """Write a Dataset as CSV (header + rows, label column when present).

    Floats are written with shortest round-trip precision so that
    load_csv(write_csv(d)) reproduces the exact values.
    """
    header = [f"x{j + 1}" for j in range(d.p)]
    if d.labels is not None:
        header.append("label")
    _write_rows(path, header, _table_rows(d.points, d.labels), "\r\n")


def _table_rows(points: np.ndarray, labels: np.ndarray | None = None):
    """The rows of `points` as lists of Python floats, each with its label
    appended when there are labels, converted _CHUNK_ROWS rows at a time."""
    for start in range(0, len(points), _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        if labels is None:
            yield from points[chunk].tolist()
        else:
            for row, label in zip(points[chunk].tolist(), labels[chunk].tolist()):
                row.append(label)
                yield row


def _write_rows(path, header: list[str], rows, newline: str) -> None:
    """Write a header and an iterable of rows of Python floats or ints as
    CSV, one `%r` per cell: the same bytes as the csv module's writer,
    which writes numbers by repr, since no finite number or fixed header
    cell needs quoting. Rows are streamed, never joined into one string,
    so the peak memory is that of the rows held at once."""
    fmt = ",".join(["%r"] * len(header)) + newline
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + newline)
            fh.writelines(fmt % tuple(row) for row in rows)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def grand_mean(d: Dataset) -> np.ndarray:
    """Arithmetic mean of all data points (length-p vector)."""
    return d.points.mean(axis=0)


def standardize(d: Dataset, mode: str = "none") -> Dataset:
    """Return a rescaled copy of the dataset (labels untouched).

    none     -> the identity (the same object is returned);
    z-score  -> mean 0, sd 1 per feature (population sd, divide by n);
    min-max  -> each feature mapped onto [0, 1].
    """
    if mode not in STANDARDIZE_MODES:
        raise DataError(f"unknown standardize mode {mode!r}")
    if mode == "none":
        return d
    if mode == "z-score":
        shift, scale = d.points.mean(axis=0), d.points.std(axis=0)  # population sd
    else:
        shift = d.points.min(axis=0)
        scale = d.points.max(axis=0) - shift
    flat = np.nonzero(scale == 0)[0]
    if flat.size:
        problem = "zero-variance" if mode == "z-score" else "constant"
        raise DataError(f"{problem} feature {flat[0] + 1} under {mode}")
    points = d.points - shift
    points /= scale
    return Dataset._adopt(points, d.labels, d.name)
