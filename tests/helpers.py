"""Independent reference routes used to cross-check the library.

Everything here is written with plain loops, straight from the defining
formulas, and must stay independent of the implementations it checks.
"""

import numpy as np


def brute_force_membership(points, centroids, m):
    """Membership by direct evaluation: u_ik = 1 / sum_j (d2ik/d2ij)^(1/(m-1))."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    n, k = points.shape[0], centroids.shape[0]
    u = np.zeros((n, k))
    for i in range(n):
        d2 = [float(((points[i] - centroids[j]) ** 2).sum()) for j in range(k)]
        zeros = [j for j in range(k) if d2[j] == 0.0]
        if zeros:
            for j in zeros:
                u[i, j] = 1.0 / len(zeros)
            continue
        for j in range(k):
            u[i, j] = 1.0 / sum((d2[j] / d2[l]) ** (1.0 / (m - 1.0)) for l in range(k))
    return u


def brute_force_inertias(points, centroids, u, m):
    """(FW, FB, FI) by direct summation."""
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    xbar = points.mean(axis=0)
    fw = fb = fi = 0.0
    for i in range(points.shape[0]):
        for k in range(centroids.shape[0]):
            w = u[i, k] ** m
            fw += w * float(((points[i] - centroids[k]) ** 2).sum())
            fb += w * float(((centroids[k] - xbar) ** 2).sum())
            fi += w * float(((points[i] - xbar) ** 2).sum())
    return fw, fb, fi


def random_membership(rng, n, k):
    """Valid random membership matrix: positive rows normalized to 1."""
    u = rng.uniform(0.01, 1.0, size=(n, k))
    return u / u.sum(axis=1, keepdims=True)


def random_instance(rng, max_n=30, max_k=6, max_p=4):
    """Random (points, centroids) pair with K <= n."""
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(2, min(max_k, n) + 1))
    p = int(rng.integers(1, max_p + 1))
    points = rng.normal(size=(n, p))
    centroids = rng.normal(size=(k, p))
    return points, centroids


def reference_load_csv(path, label_column=None, delimiter=","):
    """load_csv cell by cell: float() and isfinite on every cell, labels
    checked where they are met. Same contract and messages as load_csv."""
    import csv
    import math
    import os

    from fuzzseed import DataError, Dataset

    def parse(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    numbered = [(i + 1, row) for i, row in enumerate(rows) if row]
    if not numbered:
        raise DataError(f"{path}: file contains no data")
    first = numbered[0][1]
    has_header = any(parse(cell) is None for cell in first)
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
    points, labels = [], []
    for line, row in data_rows:
        if len(row) != width:
            raise DataError(f"{path}: row at line {line} has {len(row)} cells, expected {width}")
        feats = []
        for col, cell in enumerate(row, start=1):
            value = parse(cell.strip())
            if value is None:
                raise DataError(
                    f"{path}: non-numeric cell {cell.strip()!r} at line {line}, column {col}"
                )
            if col - 1 == label_idx:
                if value != int(value):
                    raise DataError(f"{path}: non-integer label {cell.strip()!r} at line {line}")
                if abs(value) >= 2**63:
                    raise DataError(f"{path}: out-of-range label {cell.strip()!r} at line {line}")
                labels.append(int(value))
            else:
                feats.append(value)
        points.append(feats)
    return Dataset(
        points=np.array(points, dtype=float),
        labels=np.array(labels, dtype=int) if label_idx is not None else None,
        name=os.path.splitext(os.path.basename(str(path)))[0],
    )
