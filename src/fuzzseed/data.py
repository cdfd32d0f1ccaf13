"""Dataset container, CSV ingestion, and basic statistics.

A dataset is an n x p matrix of finite real feature values plus an
optional integer label per row. Points are plain numpy rows; there is no
separate point class.
"""

import csv
import itertools
import json
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
    `values` whose value is not a JSON integer or number (a bool is neither); an
    absent key is not checked, and rng_seed may be None (a fresh seed)."""
    for name in (name for name in (*integers, *reals) if name in values):
        value = values[name]
        kind = numbers.Integral if name in integers else numbers.Real
        if (isinstance(value, bool) or not isinstance(value, kind)) and not (
            name == "rng_seed" and value is None
        ):
            what = "an integer" if kind is numbers.Integral else "a number"
            raise ValueError(f"{name} must be {what}, got {type(value).__name__}")


@dataclass(frozen=True)
class Dataset:
    """Immutable n x p numeric dataset with optional per-row labels.

    Arrays are copied and marked read-only on construction, so instances
    are safe to share across concurrent readers.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise DataError(f"points must be 2-D, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DataError(f"need n >= 1 and p >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
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
            labs = given.astype(int)
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


def _floats(cells) -> np.ndarray | None:
    """The cells as finite floats, or None if any is not one. numpy reads
    each string as float() does (underscores, Unicode digits, padding)."""
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


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
    are rejected.

    The data rows are read and converted _CHUNK_ROWS at a time: DataError
    gives the 1-based file line / column of the first ragged row,
    non-numeric cell or bad label. A file that cannot be opened, decoded
    or parsed as CSV is a DataError too; a delimiter that is not one
    character is a ValueError.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, newline="") as fh:
            rows = ((i + 1, row) for i, row in enumerate(csv.reader(fh, delimiter=delimiter))
                    if row)  # skip blank lines
            points, labels = _read_table(path, rows, label_column)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(points=points, labels=labels, name=name)


def _read_table(path, rows, label_column) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) from an iterator of non-blank (line, cells) rows."""
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: file contains no data")
    has_header = _floats(first[1]) is None
    header = [cell.strip() for cell in first[1]] if has_header else None
    data_rows = rows if has_header else itertools.chain([first], rows)
    chunks = iter(lambda: list(itertools.islice(data_rows, _CHUNK_ROWS)), [])
    head = next(chunks, None)
    if head is None:
        raise DataError(f"{path}: no data rows after header")

    if label_column is not None and label_column not in (header or ()):
        raise DataError(f"{path}: label column {label_column!r} not found in header")
    label_idx = None if label_column is None else header.index(label_column)

    points, labels = zip(*(_convert_chunk(path, chunk, len(first[1]), label_idx)
                           for chunk in itertools.chain([head], chunks)))
    return np.concatenate(points), None if label_idx is None else np.concatenate(labels)


def _convert_chunk(path, chunk, width, label_idx) -> tuple[np.ndarray, np.ndarray | None]:
    """A chunk of (line, cells) rows as (points, labels), labels None without a
    label column, by one _floats and one _labels call when every row has the
    header row's width. Otherwise, or if either fails, the rows are walked once
    in file order (width, then each cell) to raise the first defect's DataError."""
    if all(len(row) == width for _, row in chunk):
        # strip also drops \x1c-\x1f; float() does not
        cells = [cell.strip() for _, row in chunk for cell in row]
        labels = None
        if label_idx is not None:
            labels = _labels(cells[label_idx::width])
            del cells[label_idx::width]  # the feature cells remain
        points = _floats(cells)
        if points is not None and (label_idx is None or labels is not None):
            return points.reshape(len(chunk), len(cells) // len(chunk)), labels
    for line, row in chunk:
        if len(row) != width:
            raise DataError(f"{path}: row at line {line} has {len(row)} cells, expected {width}")
        for col, cell in enumerate(row, start=1):
            cell = cell.strip()
            value = _label(cell) if col - 1 == label_idx else _floats([cell])
            if value is None:
                raise DataError(f"{path}: non-numeric cell {cell!r} at line {line}, column {col}")
            if col - 1 == label_idx and (bad := _first_bad_label(np.array([value], dtype=object))):
                raise DataError(f"{path}: {bad[1]} label {cell!r} at line {line}")
    raise AssertionError(f"{path}: a chunk failed to convert, but no row has a defect")


def _label(cell: str) -> int | float | None:
    """A stripped label cell read exactly by int() or, if int() rejects it,
    by _floats (4.0, 1e3); None if neither reads it."""
    try:
        return int(cell)
    except ValueError:
        value = _floats([cell])
        return None if value is None else value.item()


def _labels(cells: list[str]) -> np.ndarray | None:
    """Stripped label cells as int64 ids, or None if any is not one. numpy
    reads each as int() does; if one fails, _floats reads them all (exact
    below 2**53) and _label reads again each one of larger magnitude."""
    try:
        values = np.array(cells, dtype=np.int64)
    except (ValueError, OverflowError):
        values = _floats(cells)  # a cell it rejects is no int64 id either
        if values is None:
            return None
        values = np.array([v if abs(v) < 2**53 else _label(cell)
                           for cell, v in zip(cells, values.tolist())], dtype=object)
    return None if _first_bad_label(values) is not None else values.astype(np.int64, copy=False)


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
    return Dataset(points=(d.points - shift) / scale, labels=d.labels, name=d.name)
