"""Dataset container, CSV ingestion, and basic statistics.

A dataset is an n x p matrix of finite real feature values plus an
optional integer label per row. Points are plain numpy rows; there is no
separate point class.
"""

import csv
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Schema tag of every JSON document fuzzseed writes.
SCHEMA = "fuzzseed/1"

STANDARDIZE_MODES = ("none", "z-score", "min-max")


class DataError(Exception):
    """Raised for unreadable, malformed, or inconsistent dataset input."""


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
            try:
                labs = np.array(self.labels, dtype=int)
            except OverflowError:
                flat = np.ravel(np.array(self.labels, dtype=object))
                row = next(i for i, v in enumerate(flat) if not -(2**63) <= v < 2**63)
                raise DataError(
                    f"out-of-range label {flat[row]!r} at row {row + 1}: labels are int64 ids"
                ) from None
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


def _bad_label(value: float) -> str | None:
    """What is wrong with a label value, if anything: labels are int64 ids."""
    if not value.is_integer():
        return "non-integer"
    return "out-of-range" if abs(value) >= 2**63 else None


def load_csv(path, label_column: str | None = None, delimiter: str = ",") -> Dataset:
    """Load a numeric CSV into a Dataset.

    The first row is treated as a header when any of its cells fails to
    parse as a finite number. `label_column` names a header column holding
    integer class ids of magnitude below 2**63; it is excluded from the
    feature matrix. Decimal point only; missing values are rejected.

    Raises DataError with a 1-based file line / column location for any
    unreadable file, ragged row, non-numeric cell or bad label.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    numbered = [(i + 1, row) for i, row in enumerate(rows) if row]  # skip blank lines
    if not numbered:
        raise DataError(f"{path}: file contains no data")

    first = numbered[0][1]
    has_header = _floats(first) is None
    header = [cell.strip() for cell in first] if has_header else None
    data_rows = numbered[1:] if has_header else numbered
    if not data_rows:
        raise DataError(f"{path}: no data rows after header")

    label_idx = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)

    width = len(first)
    table = []
    for line, row in data_rows:
        if len(row) != width:
            raise DataError(f"{path}: row at line {line} has {len(row)} cells, expected {width}")
        cells = [cell.strip() for cell in row]  # strip also drops \x1c-\x1f; float() does not
        values = _floats(cells)
        if values is None or (label_idx is not None and _bad_label(values[label_idx])):
            # name the row's first defect, walking its cells left to right
            for col, cell in enumerate(cells, start=1):
                value = _floats([cell])
                if value is None:
                    raise DataError(
                        f"{path}: non-numeric cell {cell!r} at line {line}, column {col}"
                    )
                problem = col - 1 == label_idx and _bad_label(value[0])
                if problem:
                    raise DataError(f"{path}: {problem} label {cell!r} at line {line}")
        table.append(values)

    points = np.array(table)
    labels = None
    if label_idx is not None:
        labels = points[:, label_idx].astype(int)
        points = np.delete(points, label_idx, axis=1)
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return Dataset(points=points, labels=labels, name=name)


def load_csv_source(source: dict, base_dir) -> Dataset:
    """Load the CSV a {"path", "label_column"?, "delimiter"?} object names;
    a relative path resolves against base_dir."""
    if not isinstance(source["path"], str):
        raise DataError(f"path must be a string, got {type(source['path']).__name__}")
    return load_csv(
        Path(base_dir) / source["path"],
        label_column=source.get("label_column"),
        delimiter=source.get("delimiter", ","),
    )


def write_csv(d: Dataset, path) -> None:
    """Write a Dataset as CSV (header + rows, label column when present).

    Floats are written with shortest round-trip precision so that
    load_csv(write_csv(d)) reproduces the exact values.
    """
    header = [f"x{j + 1}" for j in range(d.p)]
    rows = d.points.tolist()
    if d.labels is not None:
        header.append("label")
        for row, label in zip(rows, d.labels.tolist()):
            row.append(label)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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
        mean = d.points.mean(axis=0)
        sd = d.points.std(axis=0)  # population convention
        flat = np.nonzero(sd == 0)[0]
        if flat.size:
            raise DataError(f"zero-variance feature {flat[0] + 1} under z-score")
        scaled = (d.points - mean) / sd
    else:
        lo = d.points.min(axis=0)
        hi = d.points.max(axis=0)
        flat = np.nonzero(hi == lo)[0]
        if flat.size:
            raise DataError(f"constant feature {flat[0] + 1} under min-max")
        scaled = (d.points - lo) / (hi - lo)
    return Dataset(points=scaled, labels=d.labels, name=d.name)
